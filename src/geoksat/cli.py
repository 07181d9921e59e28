"""Command-line front end.

Subcommands: ``generate`` (model -> DIMACS), ``core`` (instance ->
unsat-core certificate), ``voronoi-count``, ``experiment`` (config-driven
JSON-lines reports), and ``moments``, a preset of ``experiment --kind
MOMENT_CHECK``.  Each shared option is declared once, in an option helper
(``_add_instance_args``, ``_add_space_args``, ``_add_clause_args``) that
each subcommand calls with its own defaults; ``experiment`` passes none, so
only the flags given override its ``--config`` file.  Each option's dest
is the ``ExperimentConfig`` field or sampler argument it sets (``-k`` ->
``k``, ``-T`` -> ``temperature``), and ``experiment`` copies them by name.
Every command that samples requires an explicit --seed, so there is no
wall-clock seeding.  Parameter checks that the library makes itself
(beta > 2, 1 <= k <= n, experiment configs) are not repeated here: their
``ValueError`` becomes an ``error:`` exit in ``main``.  The environment
variable GEOKSAT_OUTDIR supplies the default output directory.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from ._version import __version__
from .geometry import GeometrySpec, INFINITY
from .dimacs import (emit_dimacs, load_sites, parse_dimacs, save_sites,
                     write_core_certificate)
from .experiments import (EXPERIMENT_KINDS, ExperimentConfig, run_experiment,
                          write_records)
from .generate import (check_temperature, sample_geometric_formula,
                       sample_nonuniform_formula)
from .structure import find_unsat_core
from .voronoi import count_regions_monte_carlo, random_sites
from . import weights as weights_mod


def _parse_p_norm(text):
    if text in ("inf", "infinity", "oo"):
        return INFINITY
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "p-norm must be a positive integer or 'inf'")
    return value


def _out_path(path):
    """Resolve an output path against GEOKSAT_OUTDIR for bare file names."""
    if path is None or os.path.isabs(path) or os.path.dirname(path):
        return path
    outdir = os.environ.get("GEOKSAT_OUTDIR")
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        return os.path.join(outdir, path)
    return path


def _check(cond, message):
    if not cond:
        raise SystemExit(f"error: {message}")


def _check_required(args, *flags):
    """Report the flags whose value is missing; each flag's dest is its
    name without the dashes."""
    missing = [flag for flag in flags if getattr(args, flag.lstrip("-")) is None]
    _check(not missing, "the following arguments are required: "
           + ", ".join(missing))


def _int_list(text):
    return [int(x) for x in text.split(",")]


def _add_instance_args(p):
    p.add_argument("-n", "--variables", dest="n", type=int)
    p.add_argument("--seed", type=int,
                   help="required: generation is never wall-clock seeded")


def _add_space_args(p, d=None, p_norm=None):
    """Clause width (or Voronoi order) k, site weights and the metric."""
    p.add_argument("-k", "--width", dest="k", type=int)
    p.add_argument("--beta", type=float, help="power-law exponent (> 2)")
    p.add_argument("--d", type=int, default=d, help="torus dimension")
    p.add_argument("--p-norm", type=_parse_p_norm, default=p_norm)


def _add_clause_args(p, temperature=None):
    p.add_argument("-m", "--clauses", dest="m", type=int)
    p.add_argument("--delta", type=float, help="clause density m/n")
    p.add_argument("--temperature", "-T", type=float, default=temperature)


def _add_model_args(p):
    """Model options of ``generate`` and ``core``; ``_validate_model_args``
    checks the required ones, since ``core --input`` replaces them."""
    p.add_argument("--model", choices=("powerlaw", "uniform", "geometric"))
    p.add_argument("--weights-file", help="explicit weights, one per line")
    _add_instance_args(p)
    _add_space_args(p, d=2, p_norm=2)
    _add_clause_args(p, temperature=0.0)


def _validate_model_args(args):
    _check_required(args, "--model", "-n", "-k", "--seed")
    _check(args.n >= 1, "n must be >= 1")
    if args.m is None:
        _check(args.delta is not None, "give -m or --delta")
        _check(0 < args.delta < math.inf, "delta must be > 0 and finite")
        args.m = max(1, round(args.delta * args.n))
    if args.beta is not None:
        weights_mod.check_beta(args.beta)
        _check(args.model != "uniform", "--model uniform takes no --beta")
        _check(not args.weights_file,
               "--weights-file gives the weights: drop --beta")
    check_temperature(args.temperature)


def _model_weights(args):
    if args.weights_file:
        return weights_mod.weights_from_file(args.weights_file)
    if args.model == "powerlaw" or (args.beta is not None):
        _check(args.beta is not None, "powerlaw model requires --beta")
        return weights_mod.power_law_weights(args.n, args.beta)
    return weights_mod.uniform_weights(args.n)


def _build_formula(args):
    ws = _model_weights(args)
    comments = {"model": args.model, "n": args.n, "m": args.m, "k": args.k,
                "seed": args.seed, "version": __version__}
    if args.beta is not None:
        comments["beta"] = args.beta
    if args.weights_file:
        comments["weights"] = args.weights_file
    if args.model == "geometric":
        g = GeometrySpec(d=args.d, p_norm=args.p_norm)
        comments.update(d=args.d, p_norm=args.p_norm, T=args.temperature)
        inst = sample_geometric_formula(args.n, args.m, args.k, g,
                                        args.temperature, ws, args.seed)
        return inst.formula, inst, comments
    formula = sample_nonuniform_formula(args.n, args.m, args.k, ws, args.seed)
    return formula, None, comments


def _cmd_generate(args):
    _validate_model_args(args)
    formula, inst, comments = _build_formula(args)
    out = _out_path(args.output)
    if out is None:
        emit_dimacs(formula, sys.stdout, comments)
    else:
        emit_dimacs(formula, out, comments)
        print(f"wrote {formula.m} clauses to {out}")
    if inst is not None and args.sites_out:
        save_sites(inst.sites, _out_path(args.sites_out))


def _cmd_core(args):
    if args.input:
        formula, _ = parse_dimacs(args.input)
    else:
        _check(args.model is not None, "give --input or model parameters")
        _validate_model_args(args)
        formula, _, _ = _build_formula(args)
    core = find_unsat_core(formula)
    if core is None:
        print("no saturated variable set: NONE")
        return 1
    cert = _out_path(args.output or "core.json")
    fragment = _out_path(args.fragment_out) if args.fragment_out else None
    write_core_certificate(formula, core, cert, fragment)
    print(f"core over variables {core.variables}: certificate in {cert}")
    return 0


def _cmd_voronoi_count(args):
    _check_required(args, "-k", "--seed")
    g = GeometrySpec(d=args.d, p_norm=args.p_norm)
    if args.sites_json:
        _check(args.n is None and args.beta is None,
               "--sites-json carries its own sites: drop -n and --beta")
        sites = load_sites(args.sites_json)
        _check(sites.d == g.d, "site dimension does not match --d")
    else:
        _check(args.n is not None, "give --sites-json or -n")
        _check(args.n >= 1, "n must be >= 1")
        w = None
        if args.beta is not None:
            w = weights_mod.power_law_weights(args.n, args.beta)
        sites = random_sites(args.n, g,
                             np.random.default_rng((args.seed, 0xA11CE)), w)
    samples = args.samples if args.samples is not None else 200 * sites.n
    result = count_regions_monte_carlo(sites, args.k, samples,
                                       (args.seed, 0xC0DE), g,
                                       checkpoints=(samples // 2,))
    record = {"n": sites.n, "d": g.d,
              "p_norm": "inf" if g.is_max_norm else g.p_norm,
              "k": args.k, "W": sites.total, "samples": samples,
              "count": result.count,
              "count_half_budget": result.counts_at.get(samples // 2, 0),
              "seed": args.seed, "version": __version__}
    line = json.dumps(record, sort_keys=True)
    out = _out_path(args.output)
    if out:
        with open(out, "w") as fh:
            fh.write(line + "\n")
        print(f"wrote {out}")
    else:
        print(line)


def _cmd_experiment(args):
    """The --config file's experiment; each option given overrides the
    config field named by its dest.  ``moments`` presets the kind."""
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
    data.update({f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                 if getattr(args, f.name, None) is not None})
    try:
        cfg = ExperimentConfig.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    out = _out_path(cfg.output)
    count = write_records(run_experiment(cfg), out or sys.stdout)
    if out:
        print(f"wrote {count} records to {out}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="geoksat",
        description="random k-SAT generators and Voronoi/expansion analyzers")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="sample an instance to DIMACS CNF")
    _add_model_args(p_gen)
    p_gen.add_argument("-o", "--output", help="DIMACS path (default stdout)")
    p_gen.add_argument("--sites-out", help="also dump site JSON (geometric)")
    p_gen.set_defaults(func=_cmd_generate)

    p_core = sub.add_parser("core", help="find an unsatisfiable core")
    p_core.add_argument("--input", help="DIMACS CNF to analyze")
    _add_model_args(p_core)
    p_core.add_argument("-o", "--output", help="certificate JSON path")
    p_core.add_argument("--fragment-out", help="core DIMACS fragment path")
    p_core.set_defaults(func=_cmd_core)

    p_vc = sub.add_parser("voronoi-count",
                          help="Monte Carlo order-k region count")
    p_vc.add_argument("--sites-json", help="site set to load")
    _add_instance_args(p_vc)
    _add_space_args(p_vc, d=2, p_norm=2)
    p_vc.add_argument("--samples", type=int)
    p_vc.add_argument("-o", "--output")
    p_vc.set_defaults(func=_cmd_voronoi_count)

    p_exp = sub.add_parser("experiment", help="run a configured experiment")
    p_exp.add_argument("--config", help="JSON config file")
    p_exp.add_argument("--kind", choices=EXPERIMENT_KINDS)
    p_exp.add_argument("--n-values", type=_int_list,
                       help="comma-separated ladder")
    p_exp.add_argument("--seeds", type=_int_list, help="comma-separated seeds")
    _add_space_args(p_exp)
    _add_clause_args(p_exp)
    p_exp.add_argument("--samples", type=int)
    p_exp.add_argument("--sample-factor", type=int)
    p_exp.add_argument("--audit", type=int)
    p_exp.add_argument("--weights", choices=("uniform", "powerlaw"))
    p_exp.add_argument("-o", "--output")
    p_exp.set_defaults(func=_cmd_experiment)

    p_mom = sub.add_parser("moments", help="power-law moment oracles "
                           "(experiment --kind MOMENT_CHECK)")
    p_mom.add_argument("--beta", type=float, required=True)
    p_mom.add_argument("--n-values", type=_int_list, required=True)
    p_mom.add_argument("-o", "--output")
    p_mom.set_defaults(func=_cmd_experiment, kind="MOMENT_CHECK", config=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
