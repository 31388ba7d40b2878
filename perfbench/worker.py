"""Benchmark worker: a fresh process that sets up one workload and measures it.

Started by run.py with PYTHONPATH set to the checkout's src/:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                [--setup-only] [--tiny] [--shift-expected X]

Set-up imports biphoton, checks that it came from src/, builds the seeded
inputs and prints "ready".  The measurement is a closed loop with one
client: each operation starts when the previous one has returned and been
checked.  Only the call itself is timed.  The last stdout line is one JSON
object with the counts and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh processes timed for each of cli.import_s and cli.import_numpy_s.
IMPORT_RUNS = 5
CHILD_TIMEOUT_S = 60


def load_program() -> None:
    import biphoton
    import biphoton.cli  # noqa: F401  (cli and selfcheck are not imported by the package)

    if SRC.resolve() not in Path(biphoton.__file__).resolve().parents:
        raise SystemExit(f"error: biphoton was imported from {biphoton.__file__}, not from {SRC}")


class Runner:
    """Calls the program for one workload; ``call`` is the timed part."""

    def __init__(self, workload: str):
        self.workload = workload
        # In a traced cli_cold pass the children run under the tracer and
        # report their counters on stderr, gathered here.
        self.traced_children = False
        self.child_snapshot: dict = {}
        self.scenario = sys.modules["biphoton.scenario"]
        self.experiments = sys.modules["biphoton.experiments"]
        self.cli = sys.modules["biphoton.cli"]

    def call(self, op: workloads.Op):
        # Module attributes are looked up on every call, so a traced pass
        # goes through the wrappers.
        if self.workload == "scan_sweep":
            return self.scenario.evaluate(self.scenario.parse_scenario(op.payload))
        if self.workload == "screen_map":
            state, beams, grid = op.payload
            return self.experiments.fig3_visibility(state, beams, grid)
        if self.workload == "point_mix":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(op.payload))
            return code, out.getvalue(), err.getvalue()
        if self.traced_children:
            command = [sys.executable, str(HERE / "cli_child.py")]
        else:
            command = [sys.executable, "-m", "biphoton"]
        done = subprocess.run(
            command + list(op.payload), capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S
        )
        return done.returncode, done.stdout, done.stderr

    def rows(self, raw, expected: workloads.Rows) -> workloads.Rows:
        if self.workload == "scan_sweep":
            return [(param, result.value) for param, result in raw]
        if self.workload == "screen_map":
            return [("visibility", raw.value)]
        code, out, err = raw
        if self.traced_children and err:
            layers.merge(self.child_snapshot, json.loads(err.splitlines()[-1]))
        if code != 0:
            raise ValueError(f"exit code {code}")
        return workloads.parse_csv(out, expected)


def run_ops(runner: Runner, ops: list, shift: float, seconds: float | None = None, group: int = 1,
            min_samples: int = 1) -> dict:
    """Run ``ops`` once (seconds=None), or cycle through them in whole groups
    until ``seconds`` have passed and at least ``min_samples`` ops were made."""
    clock = time.perf_counter
    latencies: list[float] = []
    rows = cells = failed = 0
    began = clock()
    i = 0
    while True:
        op = ops[i % len(ops)]
        start = clock()
        try:
            raw = runner.call(op)
        except (Exception, SystemExit):
            raw = None
        latencies.append(clock() - start)
        try:
            expected = op.reference()
            ok = raw is not None and workloads.check_rows(runner.rows(raw, expected), expected, shift)
        except (ValueError, TypeError, IndexError, KeyError):
            ok = False
        if not ok and not failed:
            print(f"first failed operation: {op.kind} {op.payload!r}", file=sys.stderr)
        failed += not ok
        rows += op.rows
        cells += op.cells
        i += 1
        if seconds is None:
            if i == len(ops):
                break
        elif i % group == 0 and i >= min_samples and clock() - began >= seconds:
            break
    return {"latencies": latencies, "rows": rows, "cells": cells, "failed": failed}


def import_seconds(module: str) -> float:
    """Median time of ``import module`` in fresh interpreters."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(stats: dict, tail_percentile: float) -> tuple[dict, dict]:
    lat = sorted(stats["latencies"])
    n = len(lat)
    busy = sum(lat)
    tail_index = math.ceil(n * tail_percentile / 100.0) - 1  # nearest rank
    metrics = {
        "rows_per_s": (stats["rows"] / busy, "1/s"),
        "cells_per_s": (stats["cells"] / busy, "1/s"),
        "requests_per_s": (n / busy, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (lat[tail_index] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {"samples": n, "tail_percentile": tail_percentile, "beyond_tail": n - 1 - tail_index, "busy_s": busy}
    return metrics, info


def per_layer(runner: Runner, wl: workloads.Workload, shift: float) -> tuple[dict, dict, int, int]:
    groups = max(1, min(wl.trace_groups, len(wl.ops) // wl.group))
    ops = wl.ops[: groups * wl.group]
    plain = run_ops(runner, ops, shift)
    tracer = layers.Tracer()
    runner.traced_children = wl.name == "cli_cold"
    tracer.install()
    try:
        traced = run_ops(runner, ops, shift)
    finally:
        tracer.uninstall()
        runner.traced_children = False
    snap = layers.merge(tracer.snapshot(), runner.child_snapshot)
    metrics = layers.layer_metrics(snap, traced["rows"])
    metrics["trace.overhead_frac"] = (sum(traced["latencies"]) / sum(plain["latencies"]) - 1.0, "ratio")
    metrics["trace.ops"] = (len(traced["latencies"]), "count")
    metrics["trace.rows"] = (traced["rows"], "count")
    metrics["cli.import_s"] = (import_seconds("biphoton"), "s")
    metrics["cli.import_numpy_s"] = (import_seconds("numpy"), "s")
    attempted = len(plain["latencies"]) + len(traced["latencies"])
    return metrics, {"samples": attempted}, attempted, plain["failed"] + traced["failed"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--shift-expected", type=float, default=0.0)
    args = parser.parse_args()

    load_program()
    wl = workloads.build(args.workload, args.seed, tiny=args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    # Keep the collector from traversing the inputs and the harness during the
    # timed calls, as it would not in a process that only runs the program.
    gc.collect()
    gc.freeze()

    runner = Runner(args.workload)
    if args.trace:
        metrics, info, attempted, failed = per_layer(runner, wl, args.shift_expected)
    else:
        stats = run_ops(runner, wl.ops, args.shift_expected, args.seconds, wl.group, wl.min_samples)
        metrics, info = end_to_end(stats, wl.tail_percentile)
        attempted, failed = len(stats["latencies"]), stats["failed"]
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
