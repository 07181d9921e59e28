"""Random k-SAT models with heterogeneity and locality, plus weighted
order-k Voronoi analysis on the torus.

The library has three layers: ground-space geometry and weight sequences
(`geometry`, `weights`), the two instance samplers (`generate`), and the
analyzers (`structure` for expansion/width/cores, `voronoi` for region
counting and relevance certificates).  `experiments` orchestrates the
scaling studies; `cli` exposes everything as subcommands.
"""

from ._version import __version__

from .geometry import (GeometrySpec, INFINITY, ball_volume_constant,
                       connection_weight, connection_weight_cdf, dist_cdf,
                       torus_distance, weighted_distance)
from .weights import (check_weights, power_law_weights, prefix_mass,
                      second_moment, uniform_weights, weights_from_file)
from .voronoi import (RegionCountResult, RelevanceCertificate, WeightedSites,
                      compute_R_A, count_regions_monte_carlo,
                      generate_worst_case_sites, k_nearest_sites,
                      random_sites, relevance_certificate)
from .generate import (Formula, GeometricInstance, SignLedger,
                       formula_from_clauses, sample_geometric_formula,
                       sample_nonuniform_formula)
from .structure import (EnumerationBudgetError, ExpansionWitness,
                        IncidenceGraph, SatResult, UnsatCore,
                        WidthConditionWitness, brute_force_sat,
                        check_expansion_exact, check_expansion_sampled,
                        find_unsat_core, incidence_graph, is_nice,
                        resolution_width_conditions, unique_variable_boundary)
from .dimacs import (core_certificate, core_dimacs_fragment, emit_dimacs,
                     load_sites, parse_dimacs, save_sites,
                     write_core_certificate)
from .experiments import (ExperimentConfig, ReportRecord, balls_into_bins,
                          rerun_record, run_experiment, write_records)
