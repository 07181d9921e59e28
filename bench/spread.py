"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workloads a,b] [--trace 1] [--out FILE]

Reads the command, run length, workloads and bounds from BENCHMARK.json at
the checkout root and runs the command sequentially, one seed at a time.
For every workload and metric it prints the median of the per-run values
and the quartile spread, (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, beside the metric's bound.  With
``--out`` the values, the summaries and the machine record of the first
run are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", help="comma-separated (default: all)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in
              spec["per_layer" if args.trace else "end_to_end"]}
    result = {"run_seconds": spec["run_seconds"], "trace": args.trace,
              "seeds": args.seeds, "workloads": {}}
    for name in names:
        values = {}
        failed = 0
        for seed in args.seeds:
            report, res = run_once(spec, name, seed, args.trace)
            result.setdefault("machine", report["machine"])
            failed += res["failed"]
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        rows = {}
        print(f"{name}: {len(args.seeds)} runs, {failed} failed checks")
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[metric] = {"median": med, "q1": q1, "q3": q3,
                            "spread": spread, "bound": bounds.get(metric),
                            "values": vals}
            bound = bounds.get(metric)
            print(f"  {metric:48s} median {med:<14.6g} spread {spread:7.4f}"
                  + (f"  bound {bound}" if bound is not None else ""))
        result["workloads"][name] = {"failed_checks": failed, "metrics": rows}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
