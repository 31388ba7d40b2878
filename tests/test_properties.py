"""Property tests of the input surface: the scenario parser, its format round
trip, the CLI's parse tables and its exit-code contract.

Examples are derandomized, so every run checks the same inputs.  The CLI
property generates no scan directive, which keeps each example's work
bounded to one scenario point.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton import scenario as sc
from biphoton.cli import _TABLES as TABLES
from biphoton.cli import build_parser, main
from biphoton.detection import DEFAULT_BEAMS, BeamProfile
from biphoton.experiments import EXPERIMENTS, CascadeGeometry
from biphoton.scenario import _DIRECTIVES

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
    beams = DEFAULT_BEAMS
    if experiment == "fig3":
        # The grammar has no amplitude, and builds() would draw every field of the NamedTuple.
        unit = st.just(1.0)
        beam = st.one_of(
            st.builds(BeamProfile, st.just("plane_wave"), finite, st.none(), finite, amplitude=unit),
            st.builds(BeamProfile, st.just("gaussian"), finite, st.floats(1e-100, 1e100), finite, amplitude=unit),
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
#: chsh is listed twice so that its huge angles, where t + pi/2 rounds to t
#: and the closed form loses the angle difference, are drawn often.
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


#: Scan values: small grids, and bounds or steps that break a rule; a wide
#: grid of random floats could hold up to a million points.
SCAN_TOKENS = ("theta1", "theta2", "theta3", "a", "0", "1", "10", "-1", "45", "1e-9", "1e308", "nan", "x")


@st.composite
def scan_flag_argv(draw) -> list[str]:
    """scan argv of an experiment and zero to two of each directive's flags,
    each with as many values as its directive takes, drawn from tokens that
    parse, tokens that break a rule and tokens that are not one word."""
    argv = ["scan", "--experiment", draw(st.one_of(st.sampled_from(sorted(EXPERIMENTS)), token))]
    for key, directive in _DIRECTIVES.items():
        if key in ("experiment", "output"):
            continue
        values = st.sampled_from(SCAN_TOKENS) if key == "scan" else token
        for _ in range(draw(st.integers(0, 2))):
            count = draw(st.integers(1, 5)) if directive.nargs == "+" else directive.nargs
            argv += [f"--{key}", *draw(st.lists(values, min_size=count, max_size=count))]
    return argv


@PROPERTY
@given(scan_flag_argv())
@example(["scan", "--experiment", "fig3", "--beam", "1", "gaussian", "0", "-1", "--beam", "2", "gaussian", "0", "0"])
@example(["scan", "--experiment", "pdc", "--angle", "theta1", "1", "--scan", "theta1", "0", "1", "1"])
@example(["scan", "--experiment", "cascade", "--beam", "fig1", "-_"])
@example(["scan", "--experiment", "pdc", "--state", "psi_e", "--state", "psi_u"])
def test_a_directive_error_names_one_flag_of_its_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    # Usage errors are argparse's, under the command's prog or, for unrecognized arguments, the top-level
    # one; and a dark fig3 map is an error of the whole spec.
    if code == 1 and not re.match(r"biphoton( scan)?: error: ", err) and "identically dark" not in err:
        flag = re.match(r"error: argument (--\w+): ", err)
        assert flag and flag.group(1) in argv and err.count("\n") == 1 and err.endswith("\n"), (argv, err)


COMMANDS = next(action.choices for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction))
#: Values a flag may take, among them negative numbers and empty and spaced
#: values, and tokens at the edge of what a parse table accepts: a lone "-",
#: "--", abbreviations, "=" forms (empty ones too), help and a bad choice.
VALUE_TOKENS = ("json", "csv", "1", "-1e-3", "-1+0i", "", "a b", "nan", "abc", "theta1", "plane_wave")
ODD_TOKENS = (
    "-", "--", "--exp", "--format=json", "--format=", "--out=", "--tolerance=-1e-3", "--angle=theta1", "--a=-x",
    "=", "--a", "-h", "xml",
)
flag_value = st.sampled_from(VALUE_TOKENS)


@st.composite
def command_argv(draw) -> tuple[str, list[str]]:
    """A command and argv of its flags and positionals, each with about as
    many values as it takes, and at most one odd token put in among them."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv = []
    for action in draw(st.lists(st.sampled_from(COMMANDS[name]._actions), max_size=5)):
        arity = draw(st.integers(1, 3)) if action.nargs == "+" else action.nargs
        arity = max(0, (1 if arity is None else arity) + draw(st.sampled_from((0, 0, 0, -1, 1))))
        argv += [draw(st.sampled_from(action.option_strings))] if action.option_strings else []
        argv += draw(st.lists(flag_value, min_size=arity, max_size=arity))
    for odd in draw(st.lists(st.sampled_from(ODD_TOKENS), max_size=1)):
        argv.insert(draw(st.integers(0, len(argv))), odd)
    return name, argv


@settings(PROPERTY, max_examples=400)
@given(command_argv())
@example(("scan", ["--experiment", "pdc", "--angle", "theta1", "-1e-3", "--beam", "1", "a b", "--format=json"]))
@example(("run", ["--tolerance=-1e-3", "spec.txt", "--out", "-1"]))
@example(("chsh", ["--a", "1", "--ap", "2", "--a", "-1+0i"]))
def test_parse_table_declines_or_agrees_with_the_command_parser(case):
    name, argv = case
    args = TABLES[name](argv)
    if args is None:
        return
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            want, rest = COMMANDS[name].parse_known_args(argv)
    except SystemExit:
        raise AssertionError(f"the table accepted argv that {name} rejects: {argv}") from None
    assert rest == []
    assert repr(sorted(vars(args).items())) == repr(sorted(vars(want).items()))
