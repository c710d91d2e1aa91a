"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workloads cone ...] [--trace 0|1]
                                [--seconds S] [--out FILE [--key KEY]]

For every workload and metric it prints the median of the runs, the
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, next to a third of the metric's bound from
BENCHMARK.json.  --out writes the same summary as JSON; baseline.json
in this directory was made that way.  Runs are sequential, one process
at a time.  --out keeps the untraced and the traced summaries under
the keys "trace0" and "trace1" of one file, or under --key.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--key", help="key of the summary in --out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "seconds": args.seconds,
        "seeds": args.seeds,
        "trace": args.trace,
        "workloads": {},
    }
    worst = 0.0
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
            )
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} reports failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        rows = {}
        print(f"{workload}:")
        for name, (unit, vals) in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": vals}
            target = bounds.get(name)
            note = "" if target is None else f"  (bound/3 = {target / 3:.3f})"
            if target is not None:
                worst = max(worst, spread / target)
            print(f"  {name:<42} median {med:.6g} {unit}  spread {spread:.3f}{note}")
        summary["workloads"][workload] = rows
    if args.out:
        out = Path(args.out)
        merged = json.loads(out.read_text()) if out.exists() else {}
        merged[args.key or ("trace1" if args.trace else "trace0")] = summary
        out.write_text(json.dumps(merged, indent=1) + "\n")
    if not args.trace:
        print(f"largest spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
