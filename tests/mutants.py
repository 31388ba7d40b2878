"""Mutation check: every mutant below must fail the tier-1 tests.

Run from anywhere, with the test extra installed:

    python tests/mutants.py [NAME ...]

Each mutant is one substitution in src/biphoton (file, exact old text, new
text) with a one-line reason, and its old text must occur exactly once, so
that a refactor that removes its target stops the tool instead of reading as
killed.  For each mutant the script copies src/ to a temporary directory,
applies the substitution there and runs `python -m pytest -x -q` on the
copy, then three CLI probes (a pdc scan, chsh, selfcheck), whose exit codes
it reports but does not gate.  The unmutated copy runs first and must pass.

It prints one table, mutant x {tier-1, scan, chsh, selfcheck}, and exits 1
if a mutant survives tier-1, 2 if a substitution does not match exactly once
or the unmutated copy fails.  It writes nothing under src/ or tests/.  Pytest
is not collecting this file (its name does not start with test_).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: (name, file under src/biphoton, old text, new text, reason).
MUTANTS = [
    (
        "K_relative_1e-12", "experiments.py",
        "        return _pair_matrix(self.ket, self.arm1, self.arm2)",
        "        return tuple(tuple(k * (1 + 1e-12) for k in row)"
        " for row in _pair_matrix(self.ket, self.arm1, self.arm2))",
        "a relative defect of 1e-12 in every entry of K",
    ),
    (
        "T_XX_relative_1e-12", "experiments.py",
        "            2.0 * (ca * d + cb * c).real,",
        "            2.0 * (ca * d + cb * c).real * (1 + 1e-12),",
        "a relative defect of 1e-12 in T_XX",
    ),
    (
        "T_dropped_conjugate", "experiments.py",
        "        ca, cb = a.conjugate(), b.conjugate()",
        "        ca, cb = a, b.conjugate()",
        "Source.T without the conjugate of K's first entry",
    ),
    (
        "coincidence_value_relative_1e-11", "experiments.py",
        "else amp ** 2",
        "else amp ** 2 * (1 + 1e-11)",
        "a relative defect of 1e-11 in every coincidence value",
    ),
    (
        "coincidence_closed_form_relative_1e-12", "experiments.py",
        "closed_forms = [peak * (x1 * c2 + y1 * s2) ** 2",
        "closed_forms = [peak * (1 + 1e-12) * (x1 * c2 + y1 * s2) ** 2",
        "a relative defect of 1e-12 in every coincidence closed form",
    ),
    (
        "fig3_gram_cross_term_relative_1e-12", "experiments.py",
        "    return norm2(u), norm2(w), inner(u, w)",
        "    return norm2(u), norm2(w), inner(u, w) * (1 + 1e-12)",
        "a relative defect of 1e-12 in the fig3 Gram triple's cross term <u|w>",
    ),
    (
        "cascade_arm2_reads_g21", "experiments.py",
        "        ChannelField(LinearForm({W2V: geom.g22}), LinearForm({W2H: geom.g22})),",
        "        ChannelField(LinearForm({W2V: geom.g21}), LinearForm({W2H: geom.g21})),",
        "the cascade's arm 2 is weighted by g21, which its color filter drops, not by g22",
    ),
    (
        "cascade_arm1_h_reads_w2", "experiments.py",
        "LinearForm({W1H: geom.g11})",
        "LinearForm({W2H: geom.g11})",
        "the cascade's arm 1 reads the other color's mode in its h component",
    ),
    (
        "fig1_channel1_unflipped", "experiments.py",
        "LinearForm({BEAM_H: -_SQRT1_2})",
        "LinearForm({BEAM_H: _SQRT1_2})",
        "fig1's channel 1 without its plate's sign flip of h: the rows become sin^2(t1 + t2)",
    ),
    (
        "vacuum_split_unscaled", "experiments.py",
        "    return ChannelField(field.v.scale(_SQRT1_2), field.h.scale(_SQRT1_2))",
        "    return ChannelField(field.v, field.h)",
        "a splitter output with vacuum in the other port keeps the whole field, not 1/sqrt2 of it",
    ),
    (
        "fig1_conditional_bare_unflipped", "experiments.py",
        "src.arm1, _BARE_BEAM, 0.5, math.cos), theta1, -theta1)",
        "src.arm1, _BARE_BEAM, 0.5, math.cos), theta1, theta1)",
        "fig1's bare analyzer reads the beam as (cos t, +sin t): the conditional rate becomes cos^2(2t) / 2, not 1/2",
    ),
    (
        "sin_cos_laws_swapped", "experiments.py",
        "    sine = src.law is math.sin",
        "    sine = src.law is math.cos",
        "every coincidence closed form takes the other law",
    ),
    (
        "no_overflow_handler", "cli.py",
        "    except OverflowError:\n"
        "        # A rate too large to square is a non-finite result, like an inf value.\n"
        '        print("error: a computed value overflows the float range", file=sys.stderr)\n'
        "        return EXIT_MISMATCH\n",
        "",
        "cli.main without its except OverflowError",
    ),
    (
        "top_level_selfcheck_import", "cli.py",
        "from .detection import AllDark\n",
        "from .detection import AllDark\nfrom .selfcheck import selfcheck_rows\n",
        "every request imports the selfcheck module",
    ),
    (
        "repeat_messages_swapped", "scenario.py",
        '"experiment given more than once",\n'
        '                             lambda spec: [[spec.experiment]]),\n'
        '    "state": _Directive(1, "state takes exactly one value", "state given more than once",',
        '"state given more than once",\n'
        '                             lambda spec: [[spec.experiment]]),\n'
        '    "state": _Directive(1, "state takes exactly one value", "experiment given more than once",',
        "a repeated experiment or state reports the other's message",
    ),
    (
        "output_format_unchecked", "scenario.py",
        "read=lambda tokens, where: tokens[0] if tokens[0] in OUTPUT_FORMATS else None),",
        "read=lambda tokens, where: tokens[0]),",
        "any output format parses",
    ),
    (
        "value_counts_swapped", "scenario.py",
        '    "angle": _Directive(2, "angle needs <name> <degrees>", "angle {} given more than once",\n'
        '                        lambda spec: [[name, _fmt_number(spec.angles[name])]\n'
        '                                      for name in EXPERIMENTS[spec.experiment].angles'
        ' if name in spec.angles],\n'
        '                        ("NAME", "DEG"), repeats=True,\n'
        '                        read=lambda tokens, where: _parse_float(tokens[1], where, "angle", tokens[0])),\n'
        '    "scan": _Directive(4,',
        '    "angle": _Directive(4, "angle needs <name> <degrees>", "angle {} given more than once",\n'
        '                        lambda spec: [[name, _fmt_number(spec.angles[name])]\n'
        '                                      for name in EXPERIMENTS[spec.experiment].angles'
        ' if name in spec.angles],\n'
        '                        ("NAME", "DEG"), repeats=True,\n'
        '                        read=lambda tokens, where: _parse_float(tokens[1], where, "angle", tokens[0])),\n'
        '    "scan": _Directive(2,',
        "angle and scan swap their value counts (and --angle and --scan their nargs)",
    ),
    (
        "beam_error_location_dropped", "scenario.py",
        '        raise ValidationError(f"beam {index}: {err}", where) from None',
        '        raise ValidationError(f"beam {index}: {err}") from None',
        "a beam that fails validation no longer names its line or flag",
    ),
    (
        "flag_repeats_last_wins", "cli.py",
        "            for each in given:",
        "            for each in given[-1:]:",
        "the flag handler reads only each flag's last value: a repeated flag keeps it, as argparse's store did",
    ),
    (
        "usage_errors_print_usage", "cli.py",
        '            self.exit(2, f"{self.prog}: error: {message}\\n")',
        "            super().error(message)",
        "a usage error prints the usage before its one-line message",
    ),
    (
        "sample_nonfinite_phase_unguarded", "detection.py",
        "else (math.nan, math.nan) for p in phases",
        "else (1.0, 0.0) for p in phases",
        "a beam's non-finite phase samples as the phasor of phase 0, not (nan, nan)",
    ),
    (
        "visibility_upper_bound_drops_last_term", "detection.py",
        "_cells(tuple(map(max, axes)), rows)",
        "_cells((*map(max, axes[:-1]), 0.0), rows)",
        "a row's upper bound drops its last term, so a row holding the map's maximum can be skipped",
    ),
    (
        "beam_width_square_unchecked", "detection.py",
        '        if kind == "gaussian" and not width * width > 0.0:',
        "        if False:",
        "a gaussian width whose square underflows to 0 passes BeamProfile's checks",
    ),
]

#: The CLI probes: a column of the table each, by its exit code.
PROBES = {"scan": ["scan", "--experiment", "pdc"], "chsh": ["chsh"], "selfcheck": ["selfcheck"]}


def apply(src: Path, file: str, old: str, new: str) -> None:
    path = src / "biphoton" / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        print(f"mutant target in {file} matches {text.count(old)} times, not once: {old!r}", file=sys.stderr)
        sys.exit(2)
    path.write_text(text.replace(old, new), encoding="utf-8")


def run(src: Path, work: Path) -> list[str]:
    """tier-1 (passed, KILLED or TIMEOUT) and each probe's exit code, on the copy at src."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    pytest = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    # -c and -o keep pytest's pythonpath setting from putting the checkout's src ahead of the copy;
    # running in work keeps hypothesis's directory out of the checkout.
    pytest += ["-c", str(ROOT / "pyproject.toml"), "-o", f"pythonpath={src}", str(ROOT / "tests")]
    try:
        code = subprocess.run(pytest, cwd=work, env=env, capture_output=True, timeout=900).returncode
        cells = ["passed" if code == 0 else "KILLED"]
    except subprocess.TimeoutExpired:
        cells = ["TIMEOUT"]
    for argv in PROBES.values():
        probe = subprocess.run([sys.executable, "-m", "biphoton", *argv], cwd=work, env=env, capture_output=True)
        cells.append(str(probe.returncode))
    return cells


def main(names: list[str]) -> int:
    mutants = [m for m in MUTANTS if not names or m[0] in names]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, file, old, new, _ in [("(none)", "", "", "", ""), *mutants]:
            work = Path(tmp) / str(len(rows))
            src = work / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            if file:
                apply(src, file, old, new)
            rows.append([name, *run(src, work)])
            print(" | ".join(rows[-1]), file=sys.stderr, flush=True)
    width = max(len(row[0]) for row in rows)
    print(f"{'mutant':<{width}} | tier-1  | " + " | ".join(PROBES))
    for name, tier1, *codes in rows:
        print(f"{name:<{width}} | {tier1:<7} | " + " | ".join(f"{c:<{len(p)}}" for c, p in zip(codes, PROBES)))
    if rows[0][1] != "passed":
        print("the unmutated copy fails tier-1", file=sys.stderr)
        return 2
    survivors = [row[0] for row in rows[1:] if row[1] == "passed"]
    if survivors:
        print(f"{len(survivors)} of {len(rows) - 1} mutants survive tier-1: {', '.join(survivors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
