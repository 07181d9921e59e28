"""Time the single-call rows of the ROADMAP baseline table once each.

    python3 bench/roadmap_rows.py

Prints each row's ROADMAP time beside the time measured here, single runs
like the original table, with the same thread pinning as bench/run.py.
The acceptance-criterion rows are timed by the test suite, not here.
Takes about two minutes on 2 vCPUs.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import geoksat as gk  # noqa: E402

G2 = gk.GeometrySpec(d=2, p_norm=2)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main():
    work = ROOT / ".bench_work" / f"roadmap-{os.getpid()}"
    work.mkdir(parents=True)
    rows = []
    try:
        ws4 = gk.power_law_weights(10_000, 2.5)
        f, dt = timed(lambda: gk.sample_nonuniform_formula(10_000, 42_000, 3, ws4, 7))
        rows.append(("sample_nonuniform_formula n=1e4, m=4.2e4, k=3", 2.1, dt))
        ws5 = gk.power_law_weights(100_000, 2.5)
        _, dt = timed(lambda: gk.sample_nonuniform_formula(100_000, 420_000, 3, ws5, 7))
        rows.append(("sample_nonuniform_formula n=1e5, m=4.2e5", 23.9, dt))
        for T, old in ((0.0, 14.3), (0.5, 20.2)):
            _, dt = timed(lambda: gk.sample_geometric_formula(
                10_000, 40_000, 3, G2, T, None, 7))
            rows.append((f"sample_geometric_formula n=1e4, m=4e4, k=3, T={T:g}", old, dt))
        sites = gk.random_sites(1000, G2, 3)
        for method, old in (("tree", 0.58), ("scan", 6.9)):
            _, dt = timed(lambda: gk.count_regions_monte_carlo(
                sites, 2, 200_000, 0, G2, method=method))
            rows.append((f"count_regions_monte_carlo n=1e3, k=2, 200k, {method}", old, dt))
        _, dt = timed(lambda: gk.incidence_graph(f))
        rows.append(("incidence_graph m=4.2e4", 0.18, dt))
        path = work / "f.cnf"
        _, dt = timed(lambda: gk.emit_dimacs(f, str(path)))
        rows.append(("emit_dimacs m=4.2e4", 0.16, dt))
        _, dt = timed(lambda: gk.parse_dimacs(str(path)))
        rows.append(("parse_dimacs m=4.2e4", 0.17, dt))
    finally:
        shutil.rmtree(work)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    print("| workload | ROADMAP | here |")
    print("| --- | --- | --- |")
    for name, old, new in rows:
        print(f"| `{name}` | {old:g} s | {new:.3g} s |")


if __name__ == "__main__":
    main()
