"""Command-line front end.

Subcommands:

    run <file>    evaluate a scenario file
    scan          build the same scenario from flags instead of a file
    chsh          four-setting correlation sum at given (or canonical) angles
    selfcheck     recompute the built-in verification table

Tables are (param, ScenarioResult) rows, emitted with the columns param,
value, closed_form, abs_error as CSV (12 significant digits, newline line
endings) or JSON.  Exit codes: 0 success, 1 bad input (including usage errors
and unreadable files), 2 a computed value is not finite or off its closed form
by more than its row's tolerance (or --tolerance, when given).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

from .detection import AllDark
from .experiments import EXPERIMENTS, DarkDenominator, ScenarioResult
from .scenario import ParseError, ScenarioSpec, ValidationError, evaluate, parse_scenario
from .selfcheck import selfcheck_rows

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_MISMATCH = 2


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _round12(value: float) -> float | None:
    """12 significant digits; None (null) for NaN and inf, which JSON has no literal for."""
    rounded = float(_fmt(value))
    return rounded if math.isfinite(rounded) else None


def render_csv(rows: list[tuple[object, ScenarioResult]]) -> str:
    lines = ["param,value,closed_form,abs_error"]
    for param, row in rows:
        label = _fmt(param) if isinstance(param, float) else str(param)
        lines.append(f"{label},{_fmt(row.value)},{_fmt(row.closed_form)},{_fmt(row.abs_error())}")
    return "\n".join(lines) + "\n"


def render_json(rows: list[tuple[object, ScenarioResult]]) -> str:
    payload = [
        {
            "param": _round12(param) if isinstance(param, float) else param,
            "value": _round12(row.value),
            "closed_form": _round12(row.closed_form),
            "abs_error": _round12(row.abs_error()),
        }
        for param, row in rows
    ]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _emit(rows: list[tuple[object, ScenarioResult]], fmt: str, out: str | None) -> None:
    text = render_json(rows) if fmt == "json" else render_csv(rows)
    if out:
        Path(out).write_text(text, newline="\n")
    else:
        sys.stdout.write(text)


def _report(rows: list[tuple[object, ScenarioResult]], fmt: str, args: argparse.Namespace) -> int:
    """Emit the rows, then count those that are not finite or off their
    closed form by more than their tolerance (--tolerance, when given)."""
    _emit(rows, fmt, args.out)
    tolerance = args.tolerance
    # Written as "not <=" so that a NaN closed form is a mismatch too.
    bad = sum(
        not math.isfinite(row.value) or not row.abs_error() <= (row.tolerance if tolerance is None else tolerance)
        for _, row in rows
    )
    if bad:
        print(f"mismatch: {bad} of {len(rows)} values not finite or off their closed form", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _run_spec(spec: ScenarioSpec, args: argparse.Namespace) -> int:
    return _report(evaluate(spec), args.format or spec.output, args)


def cmd_run(args: argparse.Namespace) -> int:
    path = Path(args.file)
    if not path.exists():
        print(f"error: no such scenario file: {path}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return _run_spec(parse_scenario(path.read_text(encoding="utf-8")), args)


def _directive(key: str, flag: str, values: list[str]) -> str:
    """One scenario line from a flag's values, each of which must stay a single
    token there: a line break, space or '#' would start a directive or a comment."""
    for value in values:
        if value.split() != [value] or "#" in value:
            raise ValidationError(f"argument {flag}: expected one token without spaces or '#', got {value!r}")
    return " ".join([key, *values])


def _scan_args_to_text(args: argparse.Namespace) -> str:
    lines = [_directive("experiment", "--experiment", [args.experiment])]
    if args.state is not None:
        lines.append(_directive("state", "--state", [args.state]))
    lines += [_directive("angle", "--angle", pair) for pair in args.angle or []]
    if args.scan:
        lines.append(_directive("scan", "--scan", args.scan))
    lines += [_directive("beam", "--beam", beam) for beam in args.beam or []]
    if args.geometry:
        lines.append(_directive("geometry", "--geometry", args.geometry))
    return "\n".join(lines) + "\n"


def cmd_scan(args: argparse.Namespace) -> int:
    return _run_spec(parse_scenario(_scan_args_to_text(args)), args)


def cmd_chsh(args: argparse.Namespace) -> int:
    lines = ["experiment chsh"]
    if args.state is not None:
        lines.append(_directive("state", "--state", [args.state]))
    for name in EXPERIMENTS["chsh"].angles:
        value = getattr(args, name)
        if value is not None:
            lines.append(_directive("angle", f"--{name}", [name, value]))
    return _run_spec(parse_scenario("\n".join(lines) + "\n"), args)


def cmd_selfcheck(args: argparse.Namespace) -> int:
    return _report([(row.observable, row) for row in selfcheck_rows()], args.format or "csv", args)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state in it, so every main call can share it."""
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Exact two-photon polarization-correlation scenarios.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), help="override the output format")
    common.add_argument("--out", metavar="PATH", help="write the table to a file instead of stdout")
    common.add_argument("--tolerance", type=float, help="closed-form agreement tolerance (finite, >= 0)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common], help="evaluate a scenario file")
    p_run.add_argument("file", help="scenario file path")
    p_run.set_defaults(func=cmd_run)

    p_scan = sub.add_parser("scan", parents=[common], help="evaluate a scenario given as flags")
    p_scan.add_argument("--experiment", required=True)
    p_scan.add_argument("--state")
    p_scan.add_argument("--angle", nargs=2, action="append", metavar=("NAME", "DEG"))
    p_scan.add_argument("--scan", nargs=4, metavar=("NAME", "FROM", "TO", "STEP"))
    p_scan.add_argument("--beam", nargs="+", action="append", metavar="SPEC")
    p_scan.add_argument("--geometry", nargs=4, metavar=("G11", "G12", "G21", "G22"))
    p_scan.set_defaults(func=cmd_scan)

    p_chsh = sub.add_parser("chsh", parents=[common], help="four-setting correlation sum")
    p_chsh.add_argument("--state")
    for name in EXPERIMENTS["chsh"].angles:
        p_chsh.add_argument(f"--{name}", metavar="DEG")
    p_chsh.set_defaults(func=cmd_chsh)

    p_check = sub.add_parser("selfcheck", parents=[common], help="recompute the verification table")
    p_check.set_defaults(func=cmd_selfcheck)
    # argparse's own pattern, ^-\d+$|^-\d*\.\d+$, reads "-1e-3" and "-1+0i" as options, not values.
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.tolerance is not None and not (math.isfinite(args.tolerance) and args.tolerance >= 0.0):
            parser.error(f"argument --tolerance: must be finite and >= 0, got {args.tolerance!r}")
    except SystemExit as err:
        # argparse exits 0 after --help and 2 on a usage error, which would read as a mismatch.
        return EXIT_BAD_INPUT if err.code == 2 else err.code
    try:
        return args.func(args)
    except (ParseError, ValidationError, DarkDenominator, AllDark, OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OverflowError:
        # A rate too large to square is a non-finite result, like an inf value.
        print("error: a computed value overflows the float range", file=sys.stderr)
        return EXIT_MISMATCH


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
