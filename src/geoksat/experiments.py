"""Experiment orchestration with reproducible JSON-lines reports.

Every record echoes the full effective configuration, so any measured
quantity can be re-derived from the record alone (``rerun_record``).
Timing fields are the one exception: they are reported but excluded from
the canonical form used for reproducibility comparisons.
"""

import contextlib
import json
import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._version import __version__
from .geometry import GeometrySpec, INFINITY
from .generate import (check_temperature, draw_geometric_clause_vars,
                       sample_geometric_formula, sample_nonuniform_formula)
from .structure import (EnumerationBudgetError, check_expansion_exact,
                        check_expansion_sampled, find_unsat_core,
                        incidence_graph)
from .voronoi import count_regions_monte_carlo, knearest, random_sites
from . import weights as weights_mod


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated parameters for one experiment kind.

    Fields irrelevant to the chosen kind stay None and are dropped from
    the echo.  ``n_values`` is the ladder of instance sizes; each
    (n, seed) pair produces one record.
    """

    kind: str
    n_values: tuple
    seeds: tuple = (0,)
    k: int | None = None
    beta: float | None = None
    d: int | None = None
    p_norm: float | None = None
    temperature: float | None = None
    delta: float | None = None
    m: int | None = None
    samples: int | None = None
    sample_factor: int | None = None
    audit: int | None = None
    weights: str = "uniform"
    r: int | None = None
    c: float | None = None
    trials: int | None = None
    balls: int | None = None
    output: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        validate_config(self)

    def geometry(self):
        return GeometrySpec(d=self.d, p_norm=self.p_norm)

    def clause_count(self, n):
        if self.m is not None:
            return self.m
        if self.delta is not None:
            return max(1, round(self.delta * n))
        return None

    def to_jsonable(self):
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None or f.name == "output":
                continue
            if isinstance(v, float) and math.isinf(v):
                v = "inf"
            if isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        if data.get("p_norm") == "inf":
            data["p_norm"] = INFINITY
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def validate_config(cfg):
    """Reject invalid parameters before any work is done."""
    if cfg.kind not in _KINDS:
        raise ValueError(f"unknown experiment kind {cfg.kind!r}")
    if not cfg.n_values:
        raise ValueError("n_values must be nonempty")
    if any(n < 1 for n in cfg.n_values):
        raise ValueError("all n values must be >= 1")
    if cfg.beta is not None:
        weights_mod.check_beta(cfg.beta)
    if cfg.temperature is not None:
        check_temperature(cfg.temperature)
    if cfg.k is not None:
        if cfg.k < 1:
            raise ValueError("k must be >= 1")
        if any(cfg.k > n for n in cfg.n_values):
            raise ValueError("k must be <= n for every n in the ladder")
    for name in ("m", "samples", "sample_factor", "audit", "balls", "trials",
                 "r"):
        value = getattr(cfg, name)
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if cfg.delta is not None and not 0 < cfg.delta < math.inf:
        raise ValueError(f"delta must be > 0 and finite, got {cfg.delta}")
    if cfg.c is not None and not math.isfinite(cfg.c):
        raise ValueError(f"c must be finite, got {cfg.c}")
    if cfg.kind == "BALLS_BINS" and any(n < 3 for n in cfg.n_values):
        raise ValueError("BALLS_BINS needs every n >= 3: its threshold "
                         "divides by log log n")
    if cfg.d is not None or cfg.p_norm is not None:
        GeometrySpec(d=cfg.d or 1, p_norm=cfg.p_norm if cfg.p_norm is not None else 2)
    if cfg.weights not in ("uniform", "powerlaw"):
        raise ValueError(f"weights must be 'uniform' or 'powerlaw', not {cfg.weights!r}")
    if cfg.weights == "powerlaw" and cfg.beta is None:
        raise ValueError("powerlaw weights require beta")
    missing = [x for x in _KINDS[cfg.kind][1] if getattr(cfg, x) is None]
    if missing:
        raise ValueError(f"{cfg.kind} requires {', '.join(missing)}")


@dataclass
class ReportRecord:
    """One measured point; self-describing and re-runnable."""

    kind: str
    params: dict
    n: int
    seed: int
    measured: dict
    wall_time_s: float
    version: str = __version__

    def to_json_line(self):
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def canonical(self):
        """Record content with timing fields removed (for bit-identity
        comparisons across runs)."""
        data = asdict(self)
        data.pop("wall_time_s")
        data["measured"] = {k: v for k, v in self.measured.items()
                            if not k.endswith("_seconds")}
        return data

    @classmethod
    def from_json_line(cls, line):
        return cls(**json.loads(line))


def _site_weights(cfg, n):
    if cfg.weights == "powerlaw":
        return weights_mod.power_law_weights(n, cfg.beta)
    return None


def _region_scaling_point(cfg, n, seed):
    g = cfg.geometry()
    rng = np.random.default_rng((seed, n, 0xA11CE))
    sites = random_sites(n, g, rng, weights=_site_weights(cfg, n))
    factor = cfg.sample_factor if cfg.sample_factor is not None else 200
    samples = cfg.samples if cfg.samples is not None else factor * n
    result = count_regions_monte_carlo(sites, cfg.k, samples, (seed, n, 0xC0DE),
                                       g, checkpoints=(samples // 2,))
    return {"count": result.count,
            "count_half_budget": result.counts_at.get(samples // 2, 0),
            "samples": samples,
            "total_weight": sites.total}


def nice_fraction_audit(sites, g, k, T, audit, seed):
    """Fraction of nice clauses over ``audit`` independent clause draws.

    Clause draws are i.i.d. given the variable positions, so auditing
    freshly drawn clauses is distribution-identical to auditing a random
    subset of a full instance.  All clause points are drawn from the
    seeded stream first, then drawn from by ``draw_geometric_clause_vars``
    and ranked by ``knearest``.  At T = 0 a clause's draw is its k-nearest
    ranking, so every clause is nice.
    """
    check_temperature(T)
    if T == 0:
        return audit
    rng = np.random.default_rng(seed)
    pts = rng.random((audit, g.d))
    drawn = draw_geometric_clause_vars(pts, sites, k, T, g, rng)
    return int(np.all(drawn == knearest(pts, sites, k, g), axis=1).sum())


def _nice_fraction_point(cfg, n, seed):
    g = cfg.geometry()
    T = cfg.temperature
    m = cfg.clause_count(n) or n
    audit = min(m, cfg.audit) if cfg.audit is not None else m
    rng = np.random.default_rng((seed, n, 0x51735))
    sites = random_sites(n, g, rng, weights=_site_weights(cfg, n))
    nice = nice_fraction_audit(sites, g, cfg.k, T, audit, (seed, n, 0xD0A))
    return {"m": m, "audited": audit, "nice": nice,
            "fraction": nice / audit,
            "temperature_above_theory": bool(T >= 1)}


def _core_detection_point(cfg, n, seed):
    g = cfg.geometry()
    k = cfg.k
    m = cfg.clause_count(n)
    if m is None:
        # pigeonhole bound: 2^k * (region bound 2k(n-k)) + 1 clauses
        m = (1 << k) * 2 * k * (n - k) + 1
    T = cfg.temperature if cfg.temperature is not None else 0.0
    inst = sample_geometric_formula(n, m, k, g, T,
                                    _site_weights(cfg, n), (seed, n, 0xC04E))
    t0 = time.perf_counter()
    core = find_unsat_core(inst.formula)
    dt = time.perf_counter() - t0
    out = {"m": m, "detected": core is not None, "find_seconds": dt}
    if core is not None:
        out["core_variables"] = list(core.variables)
    return out


def _expansion_probe_point(cfg, n, seed):
    m = cfg.clause_count(n) or n
    ws = weights_mod.power_law_weights(n, cfg.beta)
    f = sample_nonuniform_formula(n, m, cfg.k, ws, (seed, n, 0xE84))
    gph = incidence_graph(f)
    trials = cfg.trials if cfg.trials is not None else 10 * m
    witness = check_expansion_sampled(gph, cfg.r, cfg.c, trials, (seed, n, 0x5A3))
    out = {"m": m, "sampled_witness": witness is not None}
    if witness is not None:
        out["witness_size"] = len(witness.clause_indices)
        out["witness_neighborhood"] = witness.neighborhood_size
    try:
        out["exact_pass"] = check_expansion_exact(gph, cfg.r, cfg.c) is None
    except EnumerationBudgetError:
        pass  # too many subsets: the record carries the sampled check only
    return out


def balls_into_bins(m_balls, bin_probabilities, seed):
    """Throw m balls into bins with the given probabilities; max load."""
    p = np.asarray(bin_probabilities, dtype=float)
    if np.any(p < 0):
        raise ValueError("bin probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("bin probabilities must sum to 1 within 1e-9")
    if m_balls < 1:
        raise ValueError("need at least one ball")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(m_balls, p / p.sum())
    return int(counts.max())


def _balls_bins_point(cfg, n, seed):
    balls = cfg.balls if cfg.balls is not None else n
    load = balls_into_bins(balls, np.full(n, 1.0 / n), (seed, n, 0xB1B5))
    threshold = math.ceil(math.log(n) / (2 * math.log(math.log(n))))
    return {"balls": balls, "max_load": load,
            "omega_threshold": threshold,
            "meets_threshold": load >= threshold}


def _moment_check_point(cfg, n, seed):
    w = weights_mod.power_law_weights(n, cfg.beta)
    sm = weights_mod.second_moment(w)
    out = {"total": math.fsum(w),
           "total_asymptotic": weights_mod.power_law_total_asymptotic(n, cfg.beta),
           "second_moment": sm,
           "sm_times_n_over_log": sm * n / math.log(n) if n > 1 else sm}
    return out


# kind -> (point function, config fields the kind requires)
_KINDS = {
    "REGION_SCALING": (_region_scaling_point, ("k", "d", "p_norm")),
    "NICE_FRACTION": (_nice_fraction_point, ("k", "d", "p_norm", "temperature")),
    "CORE_DETECTION": (_core_detection_point, ("k", "d", "p_norm")),
    "EXPANSION_PROBE": (_expansion_probe_point, ("k", "beta", "r", "c")),
    "BALLS_BINS": (_balls_bins_point, ()),
    "MOMENT_CHECK": (_moment_check_point, ("beta",)),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(cfg):
    """Yield one ReportRecord per (n, seed), in deterministic sorted order."""
    func = _KINDS[cfg.kind][0]
    params = cfg.to_jsonable()
    for n in sorted(cfg.n_values):
        for seed in sorted(cfg.seeds):
            t0 = time.perf_counter()
            measured = func(cfg, n, seed)
            dt = time.perf_counter() - t0
            yield ReportRecord(kind=cfg.kind, params=params, n=n, seed=seed,
                               measured=measured, wall_time_s=dt)


def rerun_record(record):
    """Recompute a record's measured quantities from its own echo."""
    cfg = ExperimentConfig.from_dict(record.params)
    return _KINDS[record.kind][0](cfg, record.n, record.seed)


def write_records(records, destination):
    """Write records as JSON lines; returns the number written."""
    count = 0
    with (contextlib.nullcontext(destination) if hasattr(destination, "write")
          else open(destination, "w")) as fh:
        for count, rec in enumerate(records, start=1):
            fh.write(rec.to_json_line() + "\n")
    return count
