"""Command-line front end.

Subcommands: ``generate`` (model -> DIMACS), ``core`` (instance ->
unsat-core certificate), ``voronoi-count``, ``experiment`` (config-driven
JSON-lines reports), and ``moments``.  ``generate`` and ``core`` share one
set of model options; every command that samples requires an explicit
--seed, so there is no wall-clock seeding.  Parameter checks that the
library makes itself (beta > 2, experiment configs) are not repeated here:
their ``ValueError`` becomes an ``error:`` exit in ``main``.  The
environment variable GEOKSAT_OUTDIR supplies the default output directory.
"""

import argparse
import json
import os
import sys

import numpy as np

from ._version import __version__
from .geometry import GeometrySpec, INFINITY
from .dimacs import (emit_dimacs, load_sites, parse_dimacs, save_sites,
                     write_core_certificate)
from .experiments import (EXPERIMENT_KINDS, ExperimentConfig, run_experiment,
                          write_records)
from .generate import sample_geometric_formula, sample_nonuniform_formula
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


def _check_variables(n):  # model options and voronoi-count
    _check(n >= 1, "n must be >= 1")


def _add_model_args(p, required=True):
    """Model options; ``core`` passes required=False, since --input
    replaces them there, and ``_validate_model_args`` checks them."""
    p.add_argument("--model", choices=("powerlaw", "uniform", "geometric"),
                   required=required)
    p.add_argument("-n", "--variables", type=int, required=required)
    p.add_argument("-m", "--clauses", type=int)
    p.add_argument("--delta", type=float, help="clause density m/n")
    p.add_argument("-k", "--width", type=int, required=required)
    p.add_argument("--beta", type=float, help="power-law exponent (> 2)")
    p.add_argument("--weights-file", help="explicit weights, one per line")
    p.add_argument("--d", type=int, default=2, help="torus dimension")
    p.add_argument("--p-norm", type=_parse_p_norm, default=2)
    p.add_argument("--temperature", "-T", type=float, default=0.0)
    p.add_argument("--seed", type=int, required=required,
                   help="required: generation is never wall-clock seeded")


def _validate_model_args(args):
    missing = [flag for flag, value in (("-n", args.variables),
                                        ("-k", args.width),
                                        ("--seed", args.seed))
               if value is None]
    _check(not missing, "the following arguments are required: "
           + ", ".join(missing))
    _check_variables(args.variables)
    _check(1 <= args.width <= args.variables, "k must satisfy 1 <= k <= n")
    if args.clauses is None:
        _check(args.delta is not None, "give -m or --delta")
        _check(args.delta > 0, "delta must be > 0")
        args.clauses = max(1, round(args.delta * args.variables))
    if args.beta is not None:
        weights_mod.check_beta(args.beta)
    _check(args.temperature >= 0, "temperature must be >= 0")


def _model_weights(args):
    if args.weights_file:
        return weights_mod.weights_from_file(args.weights_file)
    if args.model == "powerlaw" or (args.beta is not None):
        _check(args.beta is not None, "powerlaw model requires --beta")
        return weights_mod.power_law_weights(args.variables, args.beta)
    return weights_mod.uniform_weights(args.variables)


def _build_formula(args):
    ws = _model_weights(args)
    comments = {"model": args.model, "n": args.variables, "m": args.clauses,
                "k": args.width, "seed": args.seed, "version": __version__}
    if args.beta is not None:
        comments["beta"] = args.beta
    if args.model == "geometric":
        g = GeometrySpec(d=args.d, p_norm=args.p_norm)
        comments.update(d=args.d, p_norm=args.p_norm, T=args.temperature)
        inst = sample_geometric_formula(args.variables, args.clauses,
                                        args.width, g, args.temperature,
                                        ws.weights, args.seed)
        return inst.formula, inst, comments
    formula = sample_nonuniform_formula(args.variables, args.clauses,
                                        args.width, ws, args.seed)
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
    g = GeometrySpec(d=args.d, p_norm=args.p_norm)
    if args.sites_json:
        sites = load_sites(args.sites_json)
        _check(sites.d == g.d, "site dimension does not match --d")
    else:
        _check(args.variables is not None, "give --sites-json or -n")
        _check_variables(args.variables)
        w = None
        if args.beta is not None:
            w = weights_mod.power_law_weights(args.variables, args.beta).weights
        sites = random_sites(args.variables, g,
                             np.random.default_rng((args.seed, 0xA11CE)), w)
    samples = args.samples if args.samples is not None else 200 * sites.n
    result = count_regions_monte_carlo(sites, args.width, samples,
                                       (args.seed, 0xC0DE), g,
                                       checkpoints=(samples // 2,))
    record = {"n": sites.n, "d": g.d,
              "p_norm": "inf" if g.is_max_norm else g.p_norm,
              "k": args.width, "W": sites.total, "samples": samples,
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
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
    overrides = {
        "kind": args.kind, "k": args.width, "beta": args.beta, "d": args.d,
        "p_norm": args.p_norm, "temperature": args.temperature,
        "delta": args.delta, "m": args.clauses, "samples": args.samples,
        "sample_factor": args.sample_factor, "audit": args.audit,
        "output": args.output,
    }
    if args.n_values:
        overrides["n_values"] = [int(x) for x in args.n_values.split(",")]
    if args.seeds:
        overrides["seeds"] = [int(x) for x in args.seeds.split(",")]
    if args.weights:
        overrides["weights"] = args.weights
    data.update({k: v for k, v in overrides.items() if v is not None})
    try:
        cfg = ExperimentConfig.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    _emit_records(run_experiment(cfg), cfg.output)


def _cmd_moments(args):
    n_values = [int(x) for x in args.n_values.split(",")]
    cfg = ExperimentConfig(kind="MOMENT_CHECK", n_values=n_values,
                           seeds=(0,), beta=args.beta)
    _emit_records(run_experiment(cfg), args.output)


def _emit_records(records, output):
    out = _out_path(output)
    if out:
        count = write_records(records, out)
        print(f"wrote {count} records to {out}")
    else:
        write_records(records, sys.stdout)


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
    _add_model_args(p_core, required=False)
    p_core.add_argument("-o", "--output", help="certificate JSON path")
    p_core.add_argument("--fragment-out", help="core DIMACS fragment path")
    p_core.set_defaults(func=_cmd_core)

    p_vc = sub.add_parser("voronoi-count",
                          help="Monte Carlo order-k region count")
    p_vc.add_argument("--sites-json", help="site set to load")
    p_vc.add_argument("-n", "--variables", type=int)
    p_vc.add_argument("-k", "--width", type=int, required=True)
    p_vc.add_argument("--beta", type=float, help="power-law site weights")
    p_vc.add_argument("--d", type=int, default=2)
    p_vc.add_argument("--p-norm", type=_parse_p_norm, default=2)
    p_vc.add_argument("--samples", type=int)
    p_vc.add_argument("--seed", type=int, required=True)
    p_vc.add_argument("-o", "--output")
    p_vc.set_defaults(func=_cmd_voronoi_count)

    p_exp = sub.add_parser("experiment", help="run a configured experiment")
    p_exp.add_argument("--config", help="JSON config file")
    p_exp.add_argument("--kind", choices=EXPERIMENT_KINDS)
    p_exp.add_argument("--n-values", help="comma-separated ladder")
    p_exp.add_argument("--seeds", help="comma-separated seeds")
    p_exp.add_argument("-k", "--width", type=int)
    p_exp.add_argument("--beta", type=float)
    p_exp.add_argument("--d", type=int)
    p_exp.add_argument("--p-norm", type=_parse_p_norm)
    p_exp.add_argument("--temperature", "-T", type=float)
    p_exp.add_argument("--delta", type=float)
    p_exp.add_argument("-m", "--clauses", type=int)
    p_exp.add_argument("--samples", type=int)
    p_exp.add_argument("--sample-factor", type=int)
    p_exp.add_argument("--audit", type=int)
    p_exp.add_argument("--weights", choices=("uniform", "powerlaw"))
    p_exp.add_argument("-o", "--output")
    p_exp.set_defaults(func=_cmd_experiment)

    p_mom = sub.add_parser("moments", help="power-law moment oracles")
    p_mom.add_argument("--beta", type=float, required=True)
    p_mom.add_argument("--n-values", required=True)
    p_mom.add_argument("-o", "--output")
    p_mom.set_defaults(func=_cmd_moments)
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
