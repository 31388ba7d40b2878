"""biphoton benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the package in that
checkout's src/, never an installed copy.  Workloads (see BENCHMARK.json):

  scan_sweep  long angle scans through scenario.parse_scenario/evaluate
  screen_map  experiments.fig3_visibility on a 2-D grid with gaussian beams
  point_mix   short requests through cli.main(argv), in process
  cli_cold    short requests and selfcheck as fresh `python -m biphoton`

The load is a closed loop with one client.  --trace 0 times the workload for
S seconds and prints the end-to-end metrics.  --trace 1 runs a fixed number
of operations twice, untraced then traced, and prints the per-layer metrics
and the tracing overhead.  Every output is checked against closed forms
computed by the benchmark; the result line counts failed operations.  Lines
before the last describe the run; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Without a src/biphoton
package next to this directory the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("scan_sweep", "screen_map", "point_mix", "cli_cold")

#: Fresh processes whose set-up is timed; the last of them goes on to measure.
SETUP_RUNS = 9
#: Limit on the measuring worker beyond its --seconds.
WORKER_SLACK_S = 120


def metadata_record(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    lines = {p.name: len(p.read_text().splitlines()) for p in sorted((SRC / "biphoton").glob("*.py"))}
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def start_worker(argv: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and its set-up time (start until "ready")."""
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv], stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - began
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker failed during set-up")
    return proc, setup


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument(
        "--shift-expected", type=float, default=0.0, help="add this to every reference value, to test the gate"
    )
    args = parser.parse_args()

    if not (SRC / "biphoton" / "__init__.py").is_file():
        print(f"error: no biphoton package under {SRC}", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(args.seconds)]
    argv += ["--trace", str(args.trace), "--shift-expected", repr(args.shift_expected)]
    if args.tiny:
        argv.append("--tiny")

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# meta " + json.dumps(metadata_record(args.seed), sort_keys=True))

    proc = None
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                proc, setup = start_worker(argv + ["--setup-only"], env)
                proc.communicate(timeout=WORKER_SLACK_S)
                setups.append(setup)
        proc, setup = start_worker(argv, env)
        setups.append(setup)
        out, _ = proc.communicate(timeout=args.seconds + WORKER_SLACK_S)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.communicate()
        print(f"error: {err}", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not out.strip():
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    attempted, failed = result["attempted"], result["failed"]
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:36s} {value:.6g} {unit}")
    print(f"{'failed_frac':36s} {failed / attempted:.6g} fraction ({failed} of {attempted})")
    print("# info " + json.dumps(result["info"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
