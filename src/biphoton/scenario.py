"""Text format for measurement scenarios.

One directive per line, `#` starts a comment, keys are:

    experiment <fig1|pdc|fig2|fig3|cascade|chsh|same-channel>
    state      <circular_pair|psi_e|psi_u|psi_u_prime>
    angle      <name> <degrees>
    scan       <name> <from_deg> <to_deg> <step_deg>
    beam       <1|2> plane_wave <tilt> [phase]
    beam       <1|2> gaussian <tilt> <width> [phase]
    geometry   <g11> <g12> <g21> <g22>        (complex, written re+imi)
    output     <csv|json>

Angles are degrees in the file and converted to radians exactly once, at
evaluation time.  Parsing fills every omitted field with its documented
default, so formatting a parsed spec and re-parsing it is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .detection import BeamProfile, default_beams
from .experiments import EXPERIMENTS, CascadeGeometry, ScenarioResult, scan_count, scan_values

OUTPUT_FORMATS = ("csv", "json")


class ParseError(ValueError):
    """Malformed directive; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(ValueError):
    """Grammatically valid spec that violates a semantic rule."""


@dataclass(frozen=True)
class Scan:
    name: str
    start: float
    stop: float
    step: float


@dataclass(frozen=True)
class ScenarioSpec:
    experiment: str
    state: str
    angles: dict[str, float] = field(default_factory=dict)  # degrees
    scan: Scan | None = None
    beams: tuple[BeamProfile, BeamProfile] = field(default_factory=default_beams)
    geometry: CascadeGeometry = field(default_factory=CascadeGeometry)
    output: str = "csv"


def _parse_float(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_no, f"expected a number for {what}, got {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"{what} must be finite, got {token!r}")
    return value


def _parse_complex(token: str, line_no: int) -> complex:
    try:
        value = complex(token.replace("i", "j"))
    except ValueError:
        raise ParseError(line_no, f"expected a complex number like 1+0i, got {token!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParseError(line_no, f"complex coefficient must be finite, got {token!r}")
    return value


def _parse_beam(tokens: list[str], line_no: int) -> tuple[int, BeamProfile]:
    if len(tokens) < 3:
        raise ParseError(line_no, "beam needs at least <index> <kind> <tilt>")
    if tokens[0] not in ("1", "2"):
        raise ParseError(line_no, f"beam index must be 1 or 2, got {tokens[0]!r}")
    index = int(tokens[0])
    kind = {"plane": "plane_wave", "plane_wave": "plane_wave", "gaussian": "gaussian"}.get(tokens[1])
    if kind is None:
        raise ParseError(line_no, f"beam kind must be plane_wave or gaussian, got {tokens[1]!r}")
    tilt = _parse_float(tokens[2], line_no, "beam tilt")
    rest = tokens[3:]
    width = None
    if kind == "gaussian":
        if not rest:
            raise ParseError(line_no, "gaussian beam needs a width")
        width = _parse_float(rest[0], line_no, "beam width")
        rest = rest[1:]
    phase = _parse_float(rest[0], line_no, "beam phase") if rest else 0.0
    if len(rest) > 1:
        raise ParseError(line_no, "too many values on beam directive")
    try:
        return index, BeamProfile(kind=kind, tilt=tilt, width=width, phase_offset=phase)
    except ValueError as err:
        raise ValidationError(str(err)) from None


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse and validate one scenario description."""
    experiment: str | None = None
    state: str | None = None
    angles: dict[str, float] = {}
    scan: Scan | None = None
    beams: dict[int, BeamProfile] = {}
    geometry: CascadeGeometry | None = None
    output: str | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *tokens = line.split()

        if key == "experiment":
            if len(tokens) != 1:
                raise ParseError(line_no, "experiment takes exactly one value")
            if experiment is not None:
                raise ValidationError("experiment given more than once")
            experiment = tokens[0]
        elif key == "state":
            if len(tokens) != 1:
                raise ParseError(line_no, "state takes exactly one value")
            if state is not None:
                raise ValidationError("state given more than once")
            state = tokens[0]
        elif key == "angle":
            if len(tokens) != 2:
                raise ParseError(line_no, "angle needs <name> <degrees>")
            name = tokens[0]
            if name in angles:
                raise ValidationError(f"angle {name} given more than once")
            angles[name] = _parse_float(tokens[1], line_no, f"angle {name}")
        elif key == "scan":
            if len(tokens) != 4:
                raise ParseError(line_no, "scan needs <name> <from> <to> <step>")
            if scan is not None:
                raise ValidationError("only one scan variable is allowed")
            scan = Scan(
                name=tokens[0],
                start=_parse_float(tokens[1], line_no, "scan start"),
                stop=_parse_float(tokens[2], line_no, "scan stop"),
                step=_parse_float(tokens[3], line_no, "scan step"),
            )
        elif key == "beam":
            index, beam = _parse_beam(tokens, line_no)
            if index in beams:
                raise ValidationError(f"beam {index} given more than once")
            beams[index] = beam
        elif key == "geometry":
            if len(tokens) != 4:
                raise ParseError(line_no, "geometry needs four complex coefficients")
            if geometry is not None:
                raise ValidationError("geometry given more than once")
            g11, g12, g21, g22 = (_parse_complex(tok, line_no) for tok in tokens)
            geometry = CascadeGeometry(g11=g11, g12=g12, g21=g21, g22=g22)
        elif key == "output":
            if len(tokens) != 1 or tokens[0] not in OUTPUT_FORMATS:
                raise ParseError(line_no, f"output must be one of {OUTPUT_FORMATS}")
            if output is not None:
                raise ValidationError("output given more than once")
            output = tokens[0]
        else:
            raise ParseError(line_no, f"unknown key {key!r}")

    if experiment is None:
        raise ValidationError("missing required 'experiment' directive")
    if experiment not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {experiment!r}; expected one of {tuple(EXPERIMENTS)}")
    record = EXPERIMENTS[experiment]

    if state is None:
        state = record.default_state
    if state not in record.states:
        raise ValidationError(f"state {state!r} is not valid for {experiment}; expected one of {record.states}")

    for name in angles:
        if name not in record.angles:
            raise ValidationError(f"angle {name!r} is not a parameter of {experiment}")
    if scan is not None:
        if scan.name not in record.angles:
            raise ValidationError(f"scan variable {scan.name!r} is not a parameter of {experiment}")
        if scan.name in angles:
            raise ValidationError(f"angle {scan.name} is both fixed and scanned")
        try:
            scan_count(scan.start, scan.stop, scan.step)
        except ValueError as err:
            raise ValidationError(str(err)) from None

    if beams and experiment != "fig3":
        raise ValidationError("beam directives only apply to the fig3 experiment")
    if geometry is not None and experiment != "cascade":
        raise ValidationError("geometry only applies to the cascade experiment")

    full_angles = dict(record.angles)
    full_angles.update(angles)
    if scan is not None:
        full_angles.pop(scan.name, None)

    default_pair = default_beams()
    return ScenarioSpec(
        experiment=experiment,
        state=state,
        angles=full_angles,
        scan=scan,
        beams=(beams.get(1, default_pair[0]), beams.get(2, default_pair[1])),
        geometry=geometry or CascadeGeometry(),
        output=output or "csv",
    )


def _fmt_number(value: float) -> str:
    # repr is the shortest exact form, so parse(format(spec)) == spec holds.
    return repr(float(value))


def _fmt_complex(value: complex) -> str:
    return f"{_fmt_number(value.real)}{'+' if value.imag >= 0 else '-'}{_fmt_number(abs(value.imag))}i"


def format_scenario(spec: ScenarioSpec) -> str:
    """Canonical text for a spec; parse(format(spec)) == spec."""
    lines = [f"experiment {spec.experiment}", f"state {spec.state}"]
    for name in EXPERIMENTS[spec.experiment].angles:
        if name in spec.angles:
            lines.append(f"angle {name} {_fmt_number(spec.angles[name])}")
    if spec.scan is not None:
        scan = spec.scan
        lines.append(f"scan {scan.name} {_fmt_number(scan.start)} {_fmt_number(scan.stop)} {_fmt_number(scan.step)}")
    if spec.experiment == "fig3":
        for index, beam in enumerate(spec.beams, start=1):
            parts = [f"beam {index}", beam.kind, _fmt_number(beam.tilt)]
            if beam.kind == "gaussian":
                parts.append(_fmt_number(beam.width))
            parts.append(_fmt_number(beam.phase_offset))
            lines.append(" ".join(parts))
    if spec.experiment == "cascade":
        geom = spec.geometry
        coeffs = " ".join(_fmt_complex(g) for g in (geom.g11, geom.g12, geom.g21, geom.g22))
        lines.append(f"geometry {coeffs}")
    lines.append(f"output {spec.output}")
    return "\n".join(lines) + "\n"


def evaluate(spec: ScenarioSpec) -> list[tuple[object, ScenarioResult]]:
    """Run the scenario; rows are (param, result) with param the scanned
    angle in degrees, or the observable name for single-point runs.  The
    source, its field chain and the list of angles in radians are built once;
    a scan point rewrites only the scanned slot."""
    record = EXPERIMENTS[spec.experiment]
    point = record.prepare(spec.state, spec.geometry, spec.beams)
    scan = spec.scan
    # A missing angle that is not scanned raises KeyError: no silent default.
    radians = [0.0 if scan and name == scan.name else math.radians(spec.angles[name]) for name in record.angles]
    if scan is None:
        return [(result.observable, result) for result in point(*radians)]

    slot = list(record.angles).index(scan.name)
    rows: list[tuple[object, ScenarioResult]] = []
    for degrees in scan_values(scan.start, scan.stop, scan.step):
        radians[slot] = math.radians(degrees)
        for result in point(*radians):
            rows.append((degrees, result))
    return rows
