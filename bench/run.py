"""geoksat benchmark: seeded closed-loop pipelines with per-module spans.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
One client in one process runs the workload's pipeline again and again,
each call after the previous one returns, until ``--seconds`` have been
measured (at least three pipeline runs).  Every pipeline run of one
invocation uses the same inputs, made from ``--seed``.

Before the measured runs the pipeline runs once on the workload's fixed
default seed, untimed: it warms caches and its output digest is compared
with the one pinned for this library version in ``digests.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced runs with runs under the span tracer and prints the per-layer
metrics.  Oracle checks run after the measured section on the first
measured pipeline run.  The last stdout line is the JSON result; the line
before it is a JSON report with the machine record, sample counts, digests
and every check.

``python3 bench/run.py --pin`` records the default-seed digests of every
workload for the current library version in ``digests.json``.
"""

import os

# at most one BLAS/OpenMP thread, set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "geoksat" / "__init__.py").is_file():
    sys.exit(f"error: no geoksat sources under {SRC}; "
             "run from the root of a geoksat checkout")
sys.path.insert(0, str(SRC))

import geoksat  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402
import workloads  # noqa: E402
from tracing import ENTRY_SPANS, ENTRY_TARGETS, LAYER_TARGETS, Tracer  # noqa: E402

WORK = ROOT / ".bench_work"
PINS = HERE / "digests.json"
SETUP_PROBES = 7
MIN_RUNS = 3
MIN_TRACED_RUNS = 2

# per-layer metric name -> unit; the suffix picks the tracer table
PER_LAYER = {
    "sampling.SumTree.busy_s": "s",
    "sampling.draw_k_from_tree.busy_s": "s",
    "sampling.draw_k_from_tree.calls": "count",
    "generate.sample_nonuniform_formula.self_s": "s",
    "generate.sample_geometric_formula.self_s": "s",
    "generate.draw_geometric_clause_vars.self_s": "s",
    "generate._apply_sign_patterns.busy_s": "s",
    "generate.SignLedger.draw_pattern.busy_s": "s",
    "generate.SignLedger.draw_pattern.calls": "count",
    "generate.ledger_repeat_sets": "count",
    "generate.race_draws": "count",
    "generate.clauses_sampled": "count",
    "voronoi.weighted_score_matrix.busy_s": "s",
    "voronoi.weighted_score_matrix.entries": "count",
    "voronoi.weighted_score_matrix.bytes_computed": "bytes",
    "voronoi.rank_k_smallest.busy_s": "s",
    "voronoi.rank_k_smallest.calls": "count",
    "voronoi._keys_via_scan.busy_s": "s",
    "voronoi.cKDTree.query.busy_s": "s",
    "voronoi.count_regions_monte_carlo.self_s": "s",
    "voronoi.mc_queries": "count",
    "voronoi.distinct_keys": "count",
    "voronoi.useful_ratio": "ratio",
    "structure.incidence_graph.busy_s": "s",
    "structure.check_expansion_sampled.busy_s": "s",
    "structure.expansion_trials": "count",
    "structure.find_unsat_core.busy_s": "s",
    "structure.brute_force_sat.busy_s": "s",
    "dimacs.emit_dimacs.busy_s": "s",
    "dimacs.emit_dimacs.bytes": "bytes",
    "dimacs.parse_dimacs.busy_s": "s",
    "dimacs.parse_dimacs.bytes": "bytes",
    "dimacs.write_core_certificate.busy_s": "s",
    "experiments.run_experiment.self_s": "s",
    "experiments.nice_fraction_audit.busy_s": "s",
    "cli.main.self_s": "s",
    "weights.power_law_weights.busy_s": "s",
    "geometry.calls": "count",
    "trace.overhead_s": "s",
    "trace.top_level_coverage": "ratio",
}
SPAN_TABLES = {"busy_s": "busy", "self_s": "self_time", "calls": "calls"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, help="default: the workload's pin seed")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true",
                   help="record default-seed digests for this version")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.pin and args.workload is None:
        p.error("--workload is required")
    if args.seed is None and args.workload is not None:
        args.seed = workloads.WORKLOADS[args.workload].default_seed
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be >= 0")
    return args


# -- one pipeline run -----------------------------------------------------------

def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class PipelineRun:
    def __init__(self, workload, seed, out, targets):
        out.mkdir(parents=True)
        self.plan = workloads.Plan(seed, out)
        self.tracer = Tracer()
        self.tracer.install(targets)
        try:
            c0, t0 = cpu_seconds(), time.perf_counter()
            self.result = workload.run(self.plan)
            self.wall_s = time.perf_counter() - t0
            self.cpu_s = cpu_seconds() - c0
        finally:
            self.tracer.uninstall()
        self.digest = workloads.digest(workload.artifacts(self.plan, self.result))

    def rate(self, kind):
        """Work items per second of time in the entry-point calls."""
        spans, count = ENTRY_SPANS[kind]
        busy = sum(self.tracer.busy[s] for s in spans)
        return self.tracer.counts[count] / busy if busy else 0.0

    def discard(self):
        """Drop outputs kept only for the oracle checks."""
        shutil.rmtree(self.plan.out)
        self.result = None
        self.tracer.results.clear()


def layer_metrics(run):
    t = run.tracer
    out = {}
    for name in PER_LAYER:
        span, _, suffix = name.rpartition(".")
        if suffix in SPAN_TABLES:
            out[name] = getattr(t, SPAN_TABLES[suffix])[span]
        elif name == "geometry.calls":
            out[name] = t.calls["geometry"]
        elif name == "voronoi.useful_ratio":
            q = t.counts["voronoi.mc_queries"]
            out[name] = t.counts["voronoi.distinct_keys"] / q if q else 0.0
        elif not name.startswith("trace."):
            out[name] = t.counts[name]
    out["trace.top_level_coverage"] = t.top_level_s / run.wall_s
    return out


# -- set-up time ----------------------------------------------------------------

def setup_probe(args):
    """Child side: imports done (at module load) and inputs ready, then
    report and exit."""
    workload = workloads.WORKLOADS[args.workload]
    out = WORK / f"probe-{os.getpid()}"
    out.mkdir(parents=True)
    workloads.Plan(args.seed, out)
    print(f"ready {workload.name}", flush=True)
    remove_work(out)


def measure_setup(args):
    """Interpreter start -> import geoksat -> inputs ready, in a fresh
    process each time; returns the seconds of each probe."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or not line.startswith("ready"):
                raise RuntimeError(f"set-up probe failed: {line!r}")
        times.append(dt)
    return times


# -- report helpers -----------------------------------------------------------

def summary(values):
    values = sorted(values)
    q = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": values[0], "max": values[-1], "n": len(values)}


def machine_record():
    uname = platform.uname()
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "system": f"{uname.system} {uname.release} {uname.machine}",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "geoksat": geoksat.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def load_pins():
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


class Checks:
    def __init__(self):
        self.results = []

    def add(self, name, ok, detail=""):
        self.results.append({"check": name, "ok": bool(ok),
                             **({} if ok else {"detail": detail})})

    @property
    def failed(self):
        return sum(not r["ok"] for r in self.results)


# -- modes ----------------------------------------------------------------------

def remove_work(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still uses it, or it is already gone


def pin():
    pins = load_pins()
    work = WORK / f"pin-{os.getpid()}"
    try:
        for w in workloads.WORKLOADS.values():
            run = PipelineRun(w, w.default_seed, work / w.name, ENTRY_TARGETS)
            pins.setdefault(geoksat.__version__, {})[w.name] = run.digest
            print(f"{geoksat.__version__} {w.name} {run.digest}")
    finally:
        remove_work(work)
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def bench(args):
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    checks = Checks()
    report = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "machine": machine_record()}
    try:
        setup = measure_setup(args)

        warm = PipelineRun(workload, workload.default_seed, work / "pin", ENTRY_TARGETS)
        warm.discard()
        pinned = load_pins().get(geoksat.__version__, {}).get(workload.name)
        report["pin"] = {"seed": workload.default_seed, "digest": warm.digest,
                         "status": "unpinned" if pinned is None else
                         "match" if pinned == warm.digest else "mismatch"}
        if pinned is not None:
            checks.add("pinned_digest", pinned == warm.digest,
                       f"{warm.digest} != pinned {pinned}")

        plain, traced = [], []
        t_start = time.perf_counter()
        while True:
            run = PipelineRun(workload, args.seed, work / f"run{len(plain)}",
                              ENTRY_TARGETS)
            if plain:
                run.discard()
            plain.append(run)
            if args.trace:
                run = PipelineRun(workload, args.seed, work / f"traced{len(traced)}",
                                  LAYER_TARGETS)
                run.discard()
                traced.append(run)
            elapsed = time.perf_counter() - t_start
            step = plain[-1].wall_s + (traced[-1].wall_s if traced else 0.0)
            enough = len(plain) >= (MIN_TRACED_RUNS if args.trace else MIN_RUNS)
            if enough and elapsed + step > args.seconds:
                break
        measured_s = time.perf_counter() - t_start

        first = plain[0]
        for name, ok, detail in workload.checks(first.plan, first.result, first.tracer):
            checks.add(name, ok, detail)
        digests = {r.digest for r in plain + traced}
        checks.add("same_digest_every_run", len(digests) == 1,
                   f"{len(digests)} distinct digests")
        report["digest"] = first.digest

        walls = [r.wall_s for r in plain]
        rates = [r.rate(workload.rate) for r in plain]
        checks.add("entry_calls_observed", all(rates),
                   f"no {workload.rate_name} work seen in the entry calls")
        report["measured_s"] = measured_s
        # cpu_s below wall_s means the host took the CPU away (steal)
        report["e2e"] = {"wall_s": summary(walls), "setup_s": summary(setup),
                         "cpu_s": summary([r.cpu_s for r in plain]),
                         workload.rate_name: summary(rates)}
        if args.trace:
            layers = [layer_metrics(r) for r in traced]
            exact = [{k: v for k, v in m.items() if PER_LAYER[k] in ("count", "bytes")}
                     for m in layers]
            checks.add("counts_repeat", all(e == exact[0] for e in exact),
                       "exact counts differ between traced runs")
            metrics = {k: statistics.median(m[k] for m in layers)
                       for k in layers[0]}
            metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                           - statistics.median(walls))
            report["traced_wall_s"] = summary([r.wall_s for r in traced])
            report["absent"] = sorted(set().union(*(r.tracer.absent for r in traced)))
            out = {k: {"value": metrics[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
        else:
            out = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "items_per_s": {"value": statistics.median(rates), "unit": "1/s"},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
            }
    finally:
        remove_work(work)

    report["checks"] = checks.results
    report["failed_frac"] = checks.failed / len(checks.results)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": len(checks.results),
                      "failed": checks.failed, "metrics": out}))


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
    elif args.pin:
        pin()
    else:
        bench(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
