"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks that BENCHMARK.json keeps to its format; that for every workload an
untraced and a traced tiny run print exactly the metrics BENCHMARK.json
names, each with its unit, with no failed operation; that shifting every
expected value by 1e-6 makes every operation count as failed; and that the
benchmark exits non-zero, printing no result, when there is no src/biphoton
next to it.  Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

failures = 0


def check(ok: bool, what: str) -> None:
    global failures
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} {what}")


def run(root: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    command = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(command + list(extra), capture_output=True, text=True, cwd=root, timeout=170)


def check_spec() -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    check(set(SPEC) == keys, "BENCHMARK.json has exactly the required keys")
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    check(all(NAME.fullmatch(n) for n in names) and len(set(names)) == len(names), "names are well formed and unique")
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    check(all(UNIT.fullmatch(u) for u in units), "units are well formed")
    check(all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"]), "bounds lie in (0, 0.25]")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    check(setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}], "setup_s has the largest bound")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"]), "each why is one short line")


def check_runs() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = run(ROOT, workload, trace, "--tiny")
            if done.returncode != 0:
                check(False, f"{workload} trace={trace} exits 0: {done.stderr.strip()}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{workload} trace={trace} prints every {group} metric with its unit")
            values = [m["value"] for m in result["metrics"].values()]
            positive = all(math.isfinite(v) and (v > 0 or trace) for v in values)
            check(positive, f"{workload} trace={trace} values are finite{'' if trace else ' and positive'}")
            check(
                result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                f"{workload} trace={trace} has no failed operation ({result['attempted']} attempted)",
            )
            check("failed_frac" in done.stdout, f"{workload} trace={trace} prints failed_frac")

        done = run(ROOT, workload, 1, "--tiny", "--shift-expected", "1e-6")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        check(
            not result["correct"] and result["failed"] == result["attempted"] > 0,
            f"{workload}: a shifted expected value fails every operation ({result['failed']} of {result['attempted']})",
        )


def check_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(Path(bare), SPEC["workloads"][0]["name"], 0)
        printed_result = done.stdout.strip().endswith("}")
        check(done.returncode != 0 and not printed_result, "without src/biphoton the benchmark fails and prints no result")


def main() -> int:
    check_spec()
    check_runs()
    check_without_program()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
