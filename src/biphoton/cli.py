"""Command-line front end.

Subcommands:

    run <file>    evaluate a scenario file
    scan          build the same scenario from flags instead of a file
    chsh          four-setting correlation sum at given (or canonical) angles
    selfcheck     recompute the built-in verification table

Tables have the columns param, value, closed_form, abs_error and are
emitted as CSV (12 significant digits, newline line endings) or JSON.
Exit codes: 0 success, 1 bad input (including usage errors and unreadable
files), 2 a computed value disagrees with its closed form beyond tolerance
or is not finite.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .detection import AllDark
from .experiments import EXPERIMENTS, DarkDenominator
from .scenario import ParseError, ScenarioSpec, ValidationError, evaluate, parse_scenario
from .selfcheck import selfcheck_rows

DEFAULT_TOLERANCE = 1e-9

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_MISMATCH = 2


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _round12(value: float) -> float:
    return float(_fmt(value))


def render_csv(rows: list[tuple[object, float, float | None]]) -> str:
    lines = ["param,value,closed_form,abs_error"]
    for param, value, closed in rows:
        label = _fmt(param) if isinstance(param, float) else str(param)
        if closed is None:
            lines.append(f"{label},{_fmt(value)},,")
        else:
            lines.append(f"{label},{_fmt(value)},{_fmt(closed)},{_fmt(abs(value - closed))}")
    return "\n".join(lines) + "\n"


def render_json(rows: list[tuple[object, float, float | None]]) -> str:
    payload = [
        {
            "param": _round12(param) if isinstance(param, float) else param,
            "value": _round12(value),
            "closed_form": None if closed is None else _round12(closed),
            "abs_error": None if closed is None else _round12(abs(value - closed)),
        }
        for param, value, closed in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def _emit(rows: list[tuple[object, float, float | None]], fmt: str, out: str | None) -> None:
    text = render_json(rows) if fmt == "json" else render_csv(rows)
    if out:
        Path(out).write_text(text, newline="\n")
    else:
        sys.stdout.write(text)


def _run_spec(spec: ScenarioSpec, args: argparse.Namespace) -> int:
    fmt = args.format or spec.output
    table = [(param, result.value, result.closed_form) for param, result in evaluate(spec)]
    _emit(table, fmt, args.out)
    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    # Written as "not <=" so that a NaN closed form is a mismatch too.
    bad = sum(not math.isfinite(v) or (c is not None and not abs(v - c) <= tolerance) for _, v, c in table)
    if bad:
        print(f"mismatch: {bad} of {len(table)} values not finite or off their closed form", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    path = Path(args.file)
    if not path.exists():
        print(f"error: no such scenario file: {path}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return _run_spec(parse_scenario(path.read_text(encoding="utf-8")), args)


def _scan_args_to_text(args: argparse.Namespace) -> str:
    lines = [f"experiment {args.experiment}"]
    if args.state:
        lines.append(f"state {args.state}")
    for name, degrees in args.angle or []:
        lines.append(f"angle {name} {degrees}")
    if args.scan:
        lines.append("scan " + " ".join(args.scan))
    for beam in args.beam or []:
        lines.append("beam " + " ".join(beam))
    if args.geometry:
        lines.append("geometry " + " ".join(args.geometry))
    return "\n".join(lines) + "\n"


def cmd_scan(args: argparse.Namespace) -> int:
    return _run_spec(parse_scenario(_scan_args_to_text(args)), args)


def cmd_chsh(args: argparse.Namespace) -> int:
    lines = ["experiment chsh"]
    if args.state:
        lines.append(f"state {args.state}")
    for name in EXPERIMENTS["chsh"].angles:
        value = getattr(args, name)
        if value is not None:
            lines.append(f"angle {name} {value}")
    return _run_spec(parse_scenario("\n".join(lines) + "\n"), args)


def cmd_selfcheck(args: argparse.Namespace) -> int:
    rows = selfcheck_rows()
    expected = {row.name: row.expected for row in rows}
    if args.corrupt is not None:
        if args.corrupt not in expected:
            names = ", ".join(sorted(expected))
            print(f"error: no selfcheck row named {args.corrupt!r}; rows are: {names}", file=sys.stderr)
            return EXIT_BAD_INPUT
        expected[args.corrupt] += 1e-3
    table = [(row.name, row.value, expected[row.name]) for row in rows]
    _emit(table, args.format or "csv", args.out)
    failed = any(
        not abs(row.value - expected[row.name]) <= (args.tolerance if args.tolerance is not None else row.tolerance)
        for row in rows
    )
    return EXIT_MISMATCH if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p_check.add_argument(
        "--corrupt",
        metavar="ROW",
        help="testing hook: shift one row's reference value to exercise the failure exit",
    )
    p_check.set_defaults(func=cmd_selfcheck)
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
