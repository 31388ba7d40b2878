"""Text format for measurement scenarios.

One directive per line, `#` starts a comment.  The keys, their values and
their messages are declared once, in `_DIRECTIVES`, which parsing,
formatting and the `scan` command's flags all read.

Angles are degrees in the file and converted to radians exactly once, at
evaluation time.  Parsing fills every omitted field with its documented
default, so formatting a parsed spec and re-parsing it is the identity.
An error that one directive causes names its location, `line N` in a file
or `argument --flag` for a command's flag; an error of the spec as a whole,
such as a missing experiment, names none.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .detection import DEFAULT_BEAMS, BeamProfile
from .experiments import _DEFAULT_GEOMETRY, EXPERIMENTS, CascadeGeometry, ScenarioResult, scan_count, scan_values

OUTPUT_FORMATS = ("csv", "json")


def _place(where: int | str) -> str:
    return f"line {where}" if isinstance(where, int) else where


class ParseError(ValueError):
    """Malformed directive; carries its location, the 1-based line number
    (or, for a command's flag, its 'argument --flag')."""

    def __init__(self, line_no: int | str, message: str):
        super().__init__(f"{_place(line_no)}: {message}")
        self.line_no = line_no


class ValidationError(ValueError):
    """Grammatically valid spec that violates a semantic rule; a rule that
    one directive breaks names its location, as ParseError does."""

    def __init__(self, message: str, where: int | str | None = None):
        super().__init__(message if where is None else f"{_place(where)}: {message}")


class Scan(NamedTuple):
    name: str
    start: float
    stop: float
    step: float


class ScenarioSpec(NamedTuple):
    """A parsed scenario; angles maps names to degrees, and is never
    mutated, so one empty default is shared."""

    experiment: str
    state: str
    angles: dict[str, float] = {}
    scan: Scan | None = None
    beams: tuple[BeamProfile, BeamProfile] = DEFAULT_BEAMS
    geometry: CascadeGeometry = _DEFAULT_GEOMETRY
    output: str = "csv"


def _parse_float(token: str, where: int | str, *what: str) -> float:
    """The finite number of token; `what` names it, in words joined only for an error."""
    try:
        value = float(token)
    except ValueError:
        raise ParseError(where, f"expected a number for {' '.join(what)}, got {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(where, f"{' '.join(what)} must be finite, got {token!r}")
    return value


def _parse_complex(token: str, where: int | str) -> complex:
    try:
        value = complex(token.replace("i", "j"))
    except ValueError:
        raise ParseError(where, f"expected a complex number like 1+0i, got {token!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParseError(where, f"complex coefficient must be finite, got {token!r}")
    return value


def _parse_beam(tokens: list[str], where: int | str) -> BeamProfile | None:
    if len(tokens) < 3:
        return None
    if (index := tokens[0]) not in ("1", "2"):  # every later error names it: --beam flags share a location
        raise ParseError(where, f"beam index must be 1 or 2, got {index!r}")
    kind = {"plane": "plane_wave", "plane_wave": "plane_wave", "gaussian": "gaussian"}.get(tokens[1])
    if kind is None:
        raise ParseError(where, f"beam {index} kind must be plane_wave or gaussian, got {tokens[1]!r}")
    tilt = _parse_float(tokens[2], where, "beam", index, "tilt")
    rest = tokens[3:]
    width = None
    if kind == "gaussian":
        if not rest:
            raise ParseError(where, f"gaussian beam {index} needs a width")
        width = _parse_float(rest[0], where, "beam", index, "width")
        rest = rest[1:]
    phase = _parse_float(rest[0], where, "beam", index, "phase") if rest else 0.0
    if len(rest) > 1:
        raise ParseError(where, f"too many values on beam {index}")
    try:
        return BeamProfile(kind=kind, tilt=tilt, width=width, phase_offset=phase)
    except ValueError as err:
        raise ValidationError(f"beam {index}: {err}", where) from None


def _fmt_number(value: float) -> str:
    # repr is the shortest exact form, so parse(format(spec)) == spec holds.
    return repr(float(value))


def _fmt_complex(value: complex) -> str:
    return f"{_fmt_number(value.real)}{'+' if value.imag >= 0 else '-'}{_fmt_number(abs(value.imag))}i"


def _beam_values(index: int, beam: BeamProfile) -> list[str]:
    width = [_fmt_number(beam.width)] if beam.kind == "gaussian" else []
    return [str(index), beam.kind, _fmt_number(beam.tilt), *width, _fmt_number(beam.phase_offset)]


class _Directive:
    """One directive of the grammar: value count ("+": one or more, checked by the reader), usage and
    repeat messages ({} names the first value of one that may repeat), writer (spec -> each line's
    values), `scan` flag metavars, whether it may repeat with another first value, whether its values
    are read before the repeat check (beam's reader checks their count, output's their format), and
    reader ((values, location) -> value, None if they do not fit; none: the value is the one token)."""

    __slots__ = ("nargs", "usage", "repeat", "write", "metavar", "repeats", "first", "read")

    def __init__(self, nargs, usage, repeat, write, metavar=None, repeats=False, first=False, read=None):
        self.nargs, self.usage, self.repeat, self.write = nargs, usage, repeat, write
        self.metavar, self.repeats, self.first, self.read = metavar, repeats, first, read


#: The scenario grammar, one entry per directive in ScenarioSpec order.
_DIRECTIVES = {
    "experiment": _Directive(1, "experiment takes exactly one value", "experiment given more than once",
                             lambda spec: [[spec.experiment]]),
    "state": _Directive(1, "state takes exactly one value", "state given more than once", lambda spec: [[spec.state]]),
    "angle": _Directive(2, "angle needs <name> <degrees>", "angle {} given more than once",
                        lambda spec: [[name, _fmt_number(spec.angles[name])]
                                      for name in EXPERIMENTS[spec.experiment].angles if name in spec.angles],
                        ("NAME", "DEG"), repeats=True,
                        read=lambda tokens, where: _parse_float(tokens[1], where, "angle", tokens[0])),
    "scan": _Directive(4, "scan needs <name> <from> <to> <step>", "only one scan variable is allowed",
                       lambda spec: [[spec.scan.name, *map(_fmt_number, spec.scan[1:])]] if spec.scan else [],
                       ("NAME", "FROM", "TO", "STEP"),
                       read=lambda tokens, where: Scan(tokens[0], _parse_float(tokens[1], where, "scan start"),
                                                       _parse_float(tokens[2], where, "scan stop"),
                                                       _parse_float(tokens[3], where, "scan step"))),
    "beam": _Directive("+", "beam needs at least <index> <kind> <tilt>", "beam {} given more than once",
                       lambda spec: list(map(_beam_values, (1, 2), spec.beams)) if spec.experiment == "fig3" else [],
                       "SPEC", repeats=True, first=True, read=_parse_beam),
    "geometry": _Directive(4, "geometry needs four complex coefficients", "geometry given more than once",
                           lambda spec: [list(map(_fmt_complex, spec.geometry))] if spec.experiment == "cascade"
                           else [], ("G11", "G12", "G21", "G22"),
                           read=lambda tokens, where: CascadeGeometry(*[_parse_complex(t, where) for t in tokens])),
    "output": _Directive(1, f"output must be one of {OUTPUT_FORMATS}", "output given more than once",
                         lambda spec: [[spec.output]], first=True,
                         read=lambda tokens, where: tokens[0] if tokens[0] in OUTPUT_FORMATS else None),
}


def parse_scenario(source: str | list[tuple[int | str, str, list[str]]]) -> ScenarioSpec:
    """Parse and validate one scenario: a text, one directive a line, or the
    (location, key, values) items of a command's flags."""
    if isinstance(source, str):
        text, source = source, []
        for line_no, raw in enumerate(text.splitlines(), 1):
            words = raw.partition("#")[0].split()
            if words:
                source.append((line_no, words[0], words[1:]))
    found: dict = {"angle": {}, "beam": {}}
    at: dict = {}  # each directive's location, by key, or by (key, first value) if it may repeat
    for where, key, tokens in source:
        try:
            directive = _DIRECTIVES[key]
        except KeyError:
            raise ParseError(where, f"unknown key {key!r}") from None
        nargs, first, read, repeats = directive.nargs, directive.first, directive.read, directive.repeats
        if len(tokens) != nargs != "+" or first and (value := read(tokens, where)) is None:
            raise ParseError(where, directive.usage)
        store, name = (found[key], tokens[0]) if repeats else (found, key)
        at[(key, name) if repeats else key] = where
        if name in store:
            raise ValidationError(directive.repeat.format(name), where)
        store[name] = value if first else read(tokens, where) if read else tokens[0]
    angles, beams = found["angle"], found["beam"]

    experiment = found.get("experiment")
    if experiment is None:
        raise ValidationError("missing required 'experiment' directive")
    if experiment not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {experiment!r}; expected one of {tuple(EXPERIMENTS)}",
                              at["experiment"])
    record = EXPERIMENTS[experiment]

    state = found.get("state", record.default_state)
    if state not in record.states:
        raise ValidationError(f"state {state!r} is not valid for {experiment}; expected one of {record.states}",
                              at["state"])

    for name in angles:
        if name not in record.angles:
            raise ValidationError(f"angle {name!r} is not a parameter of {experiment}", at["angle", name])
    scan = found.get("scan")
    if scan is not None:
        if scan.name not in record.angles:
            raise ValidationError(f"scan variable {scan.name!r} is not a parameter of {experiment}", at["scan"])
        if scan.name in angles:
            raise ValidationError(f"angle {scan.name} is both fixed and scanned", at["scan"])
        try:
            scan_count(scan.start, scan.stop, scan.step)
        except ValueError as err:
            raise ValidationError(str(err), at["scan"]) from None

    if beams and experiment != "fig3":
        raise ValidationError("beam directives only apply to the fig3 experiment", at["beam", next(iter(beams))])
    geometry = found.get("geometry")
    if geometry is not None and experiment != "cascade":
        raise ValidationError("geometry only applies to the cascade experiment", at["geometry"])

    full_angles = {**record.angles, **angles}
    if scan is not None:
        full_angles.pop(scan.name, None)

    beam_pair = (beams.get("1", DEFAULT_BEAMS[0]), beams.get("2", DEFAULT_BEAMS[1])) if beams else DEFAULT_BEAMS
    # What ScenarioSpec(...) makes, without the Python frame of its __new__.
    return tuple.__new__(ScenarioSpec, (experiment, state, full_angles, scan, beam_pair,
                                        geometry or _DEFAULT_GEOMETRY, found.get("output", "csv")))


def format_scenario(spec: ScenarioSpec) -> str:
    """Canonical text for a spec; parse(format(spec)) == spec.  ValueError for
    a spec the grammar cannot write: beams other than the defaults outside
    fig3, a geometry other than the default outside cascade, a beam amplitude
    other than 1, or a plane wave with a width."""
    if spec.experiment != "fig3" and spec.beams != DEFAULT_BEAMS:
        raise ValueError("beams other than the defaults cannot be written outside the fig3 experiment")
    if spec.experiment != "cascade" and spec.geometry != _DEFAULT_GEOMETRY:
        raise ValueError("a geometry other than the default cannot be written outside the cascade experiment")
    for index, beam in enumerate(spec.beams, 1):
        if beam.amplitude != 1.0:
            raise ValueError(f"beam {index} amplitude {beam.amplitude!r} cannot be written: the beam directive has none")
        if beam.kind == "plane_wave" and beam.width is not None:
            raise ValueError(f"beam {index} is a plane wave with a width, which the beam directive cannot write")
    return "".join(f"{key} {' '.join(values)}\n" for key, entry in _DIRECTIVES.items() for values in entry.write(spec))


def evaluate(spec: ScenarioSpec) -> list[tuple[object, ScenarioResult]]:
    """Run the scenario; rows are (param, result) with param the scanned
    angle in degrees, or the observable name for single-point runs."""
    record = EXPERIMENTS[spec.experiment]
    scan = spec.scan
    degrees = scan_values(scan.start, scan.stop, scan.step) if scan else []
    # A missing angle that is not scanned raises KeyError: no silent default.
    columns = [
        list(map(math.radians, degrees)) if scan and name == scan.name else [math.radians(spec.angles[name])]
        for name in record.angles
    ]
    rows = record.rows(spec.state, spec.geometry, spec.beams, columns)
    if scan is None:
        return [(result.observable, result) for result in rows]
    return list(zip(degrees, rows))
