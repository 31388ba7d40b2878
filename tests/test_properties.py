"""Property tests of the input surface: the scenario parser, its format round
trip, and the CLI exit-code contract.

Examples are derandomized, so every run checks the same inputs.  The CLI
property generates no scan directive, which keeps each example's work
bounded to one scenario point.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton import scenario as sc
from biphoton.cli import main
from biphoton.detection import BeamProfile, default_beams
from biphoton.experiments import EXPERIMENTS, CascadeGeometry

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)

KEYS = ("experiment", "state", "angle", "scan", "beam", "geometry", "output", "bogus")
WORDS = (
    *EXPERIMENTS, "circular_pair", "psi_e", "psi_u", "psi_u_prime", "theta1", "theta2", "theta3", "theta4",
    "a", "ap", "b", "bp", "1", "2", "plane_wave", "plane", "gaussian", "csv", "json",
    "psi_u\nangle theta1 30", "psi_e #", "fig1 output",
)
NUMBERS = ("0", "-0", "45", "1e-300", "1e308", "-1e308", "1e999", "nan", "inf", "x", "10\nstate psi_e", "30 # x", "1 2")
COMPLEX = ("1+0i", "0-1i", "i", "0+0i", "1e-200+0i", "1e155+1e155i", "1e200+0i", "1e999+0i", "nan+0i", "x")

finite = st.floats(allow_nan=False, allow_infinity=False)
any_float_text = st.floats().map(repr)
# No line breaks here; WORDS and NUMBERS hold the few tokens that would
# inject a directive or a comment into the CLI's scenario text.
junk = st.text(alphabet="0123456789.e+-ijnafx#_ ", max_size=8)
token = st.one_of(st.sampled_from(WORDS), st.sampled_from(NUMBERS), any_float_text, junk)


@st.composite
def directive_lines(draw) -> str:
    lines = draw(st.lists(st.tuples(st.sampled_from(KEYS), st.lists(token, max_size=5)), max_size=8))
    return "\n".join(" ".join((key, *tokens)) for key, tokens in lines)


@PROPERTY
@given(st.one_of(st.text(max_size=80), directive_lines()))
def test_parse_returns_a_spec_or_raises_a_parse_or_validation_error(text):
    try:
        spec = sc.parse_scenario(text)
    except (sc.ParseError, sc.ValidationError):
        return
    assert spec.experiment in EXPERIMENTS


@st.composite
def specs(draw) -> sc.ScenarioSpec:
    experiment = draw(st.sampled_from(sorted(EXPERIMENTS)))
    record = EXPERIMENTS[experiment]
    angles = {name: draw(finite) for name in record.angles}
    scan = None
    if angles and draw(st.booleans()):
        name = draw(st.sampled_from(sorted(angles)))
        start = draw(st.floats(-1e6, 1e6))
        step = draw(st.floats(1e-3, 1e3))
        scan = sc.Scan(name, start, start + draw(st.integers(0, 50)) * step, step)
        del angles[name]
    beams = default_beams()
    if experiment == "fig3":
        beam = st.one_of(
            st.builds(BeamProfile, st.just("plane_wave"), finite, st.none(), finite),
            st.builds(BeamProfile, st.just("gaussian"), finite, st.floats(1e-100, 1e100), finite),
        )
        beams = (draw(beam), draw(beam))
    geometry = CascadeGeometry()
    if experiment == "cascade":
        geometry = CascadeGeometry(*(draw(st.complex_numbers(allow_nan=False, allow_infinity=False)) for _ in range(4)))
    return sc.ScenarioSpec(
        experiment=experiment,
        state=draw(st.sampled_from(record.states)),
        angles=angles,
        scan=scan,
        beams=beams,
        geometry=geometry,
        output=draw(st.sampled_from(sc.OUTPUT_FORMATS)),
    )


@PROPERTY
@given(specs())
def test_format_then_parse_is_the_identity(spec):
    assert sc.parse_scenario(sc.format_scenario(spec)) == spec


number_text = st.one_of(st.sampled_from(NUMBERS), finite.map(repr))
complex_text = st.one_of(
    st.sampled_from(COMPLEX),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(lambda z: f"{z.real!r}{z.imag:+}i"),
)


# Well-formed fig3 beams: tilt, width and phase include an exact antiphase pair
# (the map goes dark) and values for which tilt * x + phase overflows.
beam_number = st.one_of(st.sampled_from(("0", "3.141592653589793", "1e308", "1e-300")), finite.map(repr))


@st.composite
def beam_argv(draw, index: str) -> list[str]:
    kind = draw(st.sampled_from(("plane_wave", "gaussian")))
    width = [draw(beam_number)] if kind == "gaussian" else []
    return ["--beam", index, kind, draw(beam_number), *width, draw(beam_number)]


#: What one CLI example runs: the chsh command, a scan of one experiment, or a
#: fig3 scan of two well-formed beams.  The beam pair, the only input that can
#: make a map NaN or dark, is listed three times so that it is drawn often;
#: chsh is listed twice so that its dark-denominator settings stay reachable.
CLI_CHOICES = ("chsh command", "chsh command", *sorted(EXPERIMENTS), "fig3 pair", "fig3 pair", "fig3 pair")


@st.composite
def cli_argv(draw) -> list[str]:
    choice = draw(st.sampled_from(CLI_CHOICES))
    fig3_pair = choice == "fig3 pair"
    command = "chsh" if choice == "chsh command" else "scan"
    experiment = "fig3" if fig3_pair else "chsh" if command == "chsh" else choice
    record = EXPERIMENTS[experiment]
    argv = ["chsh"] if command == "chsh" else ["scan", "--experiment", experiment]
    if draw(st.booleans()):
        argv += ["--state", draw(st.one_of(st.sampled_from(record.states), st.sampled_from(WORDS)))]
    for name in record.angles:
        if draw(st.booleans()):
            value = draw(number_text)
            argv += [f"--{name}", value] if command == "chsh" else ["--angle", name, value]
    if experiment == "cascade" and draw(st.booleans()):
        argv += ["--geometry", *draw(st.lists(complex_text, min_size=4, max_size=4))]
    if fig3_pair:
        argv += [*draw(beam_argv("1")), *draw(beam_argv("2"))]
    elif experiment == "fig3" and draw(st.booleans()):
        argv += ["--beam", draw(st.sampled_from("12")), *draw(st.lists(token, min_size=1, max_size=4))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@PROPERTY
@given(cli_argv())
@example(["scan", "--experiment", "fig3", "--beam", "1", "plane_wave", "0", "0",
          "--beam", "2", "plane_wave", "0", "3.141592653589793"])
@example(["scan", "--experiment", "fig3", "--beam", "1", "plane_wave", "1e308", "1e308"])
@example(["scan", "--experiment", "fig3", "--beam", "1", "gaussian", "15.707963267948966", "0.5"])
@example(["scan", "--experiment", "cascade", "--geometry", "1+0i", "1+0i", "1+0i", "1e155+1e155i"])
@example(["chsh", "--state", "psi_u", "--a", "1e308", "--b", "1e308"])
@example(["scan", "--experiment", "pdc", "--state", "psi_u\nangle theta1 30"])
def test_cli_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if any(arg.split() != [arg] or "#" in arg for arg in argv):
        # A flag value that is not one token would rewrite the scenario text.
        assert code == 1, argv
    text = out.getvalue().lower()
    assert not (code == 0 and ("nan" in text or "inf" in text)), (argv, out.getvalue())
    if code == 0:
        # A passing row was checked: it carries its closed form and error.
        rows = json.loads(text) if "--format" in argv else list(csv.DictReader(io.StringIO(text)))
        assert rows and all(row[key] not in (None, "") for row in rows for key in ("closed_form", "abs_error")), argv
