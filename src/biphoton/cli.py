"""Command-line front end.

Subcommands:

    run <file>    evaluate a scenario file
    scan          build the same scenario from flags instead of a file
    chsh          four-setting correlation sum at given (or canonical) angles
    selfcheck     recompute the built-in verification table

Tables are (param, ScenarioResult) rows, emitted with the columns param,
value, closed_form, abs_error as CSV (12 significant digits, newline line
endings) or JSON.  Exit codes: 0 success, 1 bad input (including usage errors
and unreadable files; one line on stderr), 2 a computed value is not finite or
off its closed form by more than its row's tolerance (or --tolerance, when given).
"""

from __future__ import annotations

import functools
import math
import re
import sys
from collections.abc import Callable
from types import SimpleNamespace

from .detection import AllDark
from .experiments import EXPERIMENTS, ScenarioResult
from .scenario import _DIRECTIVES, OUTPUT_FORMATS, ParseError, ScenarioSpec, ValidationError, evaluate, parse_scenario

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_MISMATCH = 2

#: A command's parse of argv: its arguments, or None where argparse must parse it.
_ParseTable = Callable[[list[str]], SimpleNamespace | None]


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
    import json  # only here: CSV requests never load it

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
        # open, not Path: Path("dir/") drops the separator and would write a file named dir.
        with open(out, "w", newline="\n") as stream:
            stream.write(text)
    else:
        sys.stdout.write(text)


def _report(rows: list[tuple[object, ScenarioResult]], fmt: str, args: SimpleNamespace) -> int:
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


def _run_spec(spec: ScenarioSpec, args: SimpleNamespace) -> int:
    return _report(evaluate(spec), args.format or spec.output, args)


def cmd_run(args: SimpleNamespace) -> int:
    from pathlib import Path  # only here: no other command reads a file

    path = Path(args.file)
    if not path.exists():
        print(f"error: no such scenario file: {path}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return _run_spec(parse_scenario(path.read_text(encoding="utf-8")), args)


#: Each command's directive flags: a flag's dest, and the location, directive key and leading values of its
#: items; scan's are the directives but output, which --format covers, and chsh's its state and angles.
_SCAN_FLAGS = {key: (f"argument --{key}", key, ()) for key in _DIRECTIVES if key != "output"}
_CHSH_FLAGS = {"state": ("argument --state", "state", ()),
               **{name: (f"argument --{name}", "angle", (name,)) for name in EXPERIMENTS["chsh"].angles}}


def _run_flags(args: SimpleNamespace, flags: dict[str, tuple[str, str, tuple[str, ...]]], items: list) -> int:
    """Run the scenario of the items and then each value of each flag, as (location, key, values) items
    of one-token values, as on a scenario line, so a repeated flag meets the grammar's repeat rule."""
    for dest in flags:
        if (given := getattr(args, dest)) is not None:  # not "or ()": empty loops cost the chsh request ~3 %
            where, key, lead = flags[dest]
            for each in given:
                values = [*lead, each] if isinstance(each, str) else [*lead, *each]
                for value in values:
                    if value.split() != [value] or "#" in value:
                        raise ValidationError(f"expected one token without spaces or '#', got {value!r}", where)
                items.append((where, key, values))
    return _run_spec(parse_scenario(items), args)


def cmd_scan(args: SimpleNamespace) -> int:
    return _run_flags(args, _SCAN_FLAGS, [])


def cmd_chsh(args: SimpleNamespace) -> int:
    return _run_flags(args, _CHSH_FLAGS, [("chsh", "experiment", ["chsh"])])


def cmd_selfcheck(args: SimpleNamespace) -> int:
    from .selfcheck import selfcheck_rows  # only here: no other command runs the table

    return _report([(row.observable, row) for row in selfcheck_rows()], args.format or "csv", args)


#: An option: its flag (or a positional's name) and its argparse add_argument keywords.
_Option = tuple[str, dict]

#: The options every command takes, ahead of its own.
_COMMON: tuple[_Option, ...] = (
    ("--format", {"choices": OUTPUT_FORMATS, "help": "override the output format"}),
    ("--out", {"metavar": "PATH", "help": "write the table to a file instead of stdout"}),
    ("--tolerance", {"type": float, "help": "closed-form agreement tolerance (finite, >= 0)"}),
)

#: Each command's help line, handler and options, declared once: the parse
#: tables and, where argparse is needed, its parsers are both built from here.
_COMMANDS: dict[str, tuple[str, Callable[[SimpleNamespace], int], tuple[_Option, ...]]] = {
    "run": ("evaluate a scenario file", cmd_run, (*_COMMON, ("file", {"help": "scenario file path"}))),
    "scan": ("evaluate a scenario given as flags", cmd_scan, (*_COMMON, *(
        (f"--{key}", {"required": key == "experiment", "action": "append",
                      **({} if entry.nargs == 1 else {"nargs": entry.nargs, "metavar": entry.metavar})})
        for key, entry in _DIRECTIVES.items() if key in _SCAN_FLAGS
    ))),
    "chsh": ("four-setting correlation sum", cmd_chsh, (*_COMMON, *(
        (f"--{dest}", {"action": "append", **({"metavar": "DEG"} if lead else {})})
        for dest, (_, _, lead) in _CHSH_FLAGS.items()
    ))),
    "selfcheck": ("recompute the verification table", cmd_selfcheck, _COMMON),
}

# argparse's own pattern, ^-\d+$|^-\d*\.\d+$, reads "-1e-3" and "-1+0i" as options, not values.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def _parse_table(func: Callable[[SimpleNamespace], int], options: tuple[_Option, ...]) -> _ParseTable:
    """The parse of one command's argv from its declared options (store or
    append options of nargs None, N or "+", one-value positionals, every value
    defaulting to None): what argparse's parse_known_args gives for the
    command, with nothing left over, for argv of exact option strings,
    --opt=value and values that do not start with '-' or are negative numbers;
    None for any other argv."""
    flags, positionals, defaults, required = {}, [], {"func": func}, set()
    for name, keywords in options:
        dest = name.lstrip("-").replace("-", "_")
        appends = keywords.get("action") == "append"
        entry = (dest, keywords.get("nargs"), keywords.get("type"), keywords.get("choices"), appends)
        if name[:1] == "-":
            flags[name] = entry
        else:
            positionals.append(entry)
        defaults[dest] = None
        if keywords.get("required"):
            required.add(dest)
    number = _NEGATIVE_NUMBER.match

    def parse(argv: list[str]) -> SimpleNamespace | None:
        values, seen, filled, i, n = dict(defaults), set(), 0, 0, len(argv)
        while i < n:
            token = argv[i]
            i += 1
            entry = flags.get(token)
            if entry is not None:
                # The values that follow: tokens that do not start with '-', or negative numbers.
                nargs, start = entry[1], i
                stop = n if nargs == "+" else i + (nargs or 1)
                while i < stop and i < n and (argv[i][:1] != "-" or number(argv[i])):
                    i += 1
                if i == start or (nargs != "+" and i != stop):
                    return None
                strings = argv[start:i]
            elif token[:1] != "-" or number(token):
                if filled == len(positionals):
                    return None
                entry, strings = positionals[filled], [token]
                filled += 1
            else:
                name, _, value = token.partition("=")
                entry = flags.get(name)
                if entry is None or entry[1] is not None or not value or (value[0] == "-" and not number(value)):
                    return None
                strings = [value]
            dest, nargs, convert, choices, appends = entry
            try:
                strings = strings if convert is None else list(map(convert, strings))
            except (TypeError, ValueError):
                return None
            if choices is not None and not all(value in choices for value in strings):
                return None
            value = strings[0] if nargs is None else strings
            values[dest] = [*(values[dest] or ()), value] if appends else value
            seen.add(dest)
        if filled < len(positionals) or not required <= seen:
            return None
        return SimpleNamespace(**values)

    return parse


_TABLES = {name: _parse_table(func, options) for name, (_, func, options) in _COMMANDS.items()}


@functools.cache
def build_parser():
    """The top-level argparse.ArgumentParser of the declared commands, built
    once per process: it alone prints usage, help and errors, each error on
    one line."""
    import argparse  # only here: a well-formed request never loads it

    class Parser(argparse.ArgumentParser):
        def error(self, message: str):
            self.exit(2, f"{self.prog}: error: {message}\n")  # one line, without the usage

    parser = Parser(
        prog="biphoton",
        description="Exact two-photon polarization-correlation scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for flag, keywords in options:
            command.add_argument(flag, **keywords)
        command.set_defaults(func=func)
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """argv parsed by its command's parse table, or by the top-level parser
    where no command comes first or the table declines, so that argparse
    prints its own usage, help and errors."""
    table = _TABLES.get(argv[0]) if argv else None
    args = table(argv[1:]) if table else None
    return build_parser().parse_args(argv, SimpleNamespace()) if args is None else args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        if args.tolerance is not None and not (math.isfinite(args.tolerance) and args.tolerance >= 0.0):
            build_parser().error(f"argument --tolerance: must be finite and >= 0, got {args.tolerance!r}")
        if args.out == "":
            build_parser().error("argument --out: expected a file path, got ''")
    except SystemExit as err:
        # argparse exits 0 after --help and 2 on a usage error, which would read as a mismatch.
        return EXIT_BAD_INPUT if err.code == 2 else err.code
    try:
        return args.func(args)
    except (ParseError, ValidationError, AllDark, OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OverflowError:
        # A rate too large to square is a non-finite result, like an inf value.
        print("error: a computed value overflows the float range", file=sys.stderr)
        return EXIT_MISMATCH


def entrypoint() -> None:
    sys.exit(main())
