"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads W ...] [--seeds 1 2 ...] [--out FILE]

For every workload, runs ``run.py --trace 0`` once per seed, then prints for
each end-to-end metric the median and the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median, next
to the metric's bound from BENCHMARK.json.  A spread at or below a third of
the bound is marked "ok".  With --out, every run and a traced run per
workload (first seed) are written as JSON; perfbench/baseline.json was made
this way.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> tuple[dict, float]:
    command = [*SPEC["command"], "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    began = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, cwd=HERE.parent, timeout=300, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for key in ("meta", "info"):
        result[key] = next(json.loads(line[len(key) + 3:]) for line in lines if line.startswith(f"# {key} "))
    return result, time.perf_counter() - began


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--out", help="write every run and the summary to this JSON file")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    record = {"seeds": args.seeds, "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs, walls = [], []
        for seed in args.seeds:
            result, wall = run(workload, seed, 0)
            runs.append(result)
            walls.append(wall)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
        summary = {
            name: summarize([r["metrics"][name]["value"] for r in runs], bound) for name, bound in bounds.items()
        }
        print(f"== {workload}: {len(runs)} runs, {statistics.median(walls):.1f} s wall each")
        for name, s in summary.items():
            mark = "ok" if s["spread"] <= s["bound"] / 3 else ("WIDE" if s["spread"] > s["bound"] else "wide")
            print(f"  {name:18s} median {s['median']:12.6g}  spread {s['spread']:.4f}  bound {s['bound']}  {mark}")
        entry = {"summary": summary, "runs": runs, "wall_s": walls}
        if args.out:
            entry["traced"], _ = run(workload, args.seeds[0], 1)
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
