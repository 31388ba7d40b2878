"""Scenario grammar: parsing, validation, round-trips, evaluation."""

from __future__ import annotations

import math

import pytest

from biphoton import experiments as ex
from biphoton import scenario as sc
from biphoton import selfcheck
from biphoton.detection import DEFAULT_BEAMS, DEFAULT_TILT, BeamProfile
from biphoton.experiments import MAX_SCAN_POINTS, CascadeGeometry, coincidence, scan_count, source
from biphoton.fock import named_state
from biphoton.selfcheck import selfcheck_rows


def test_parse_minimal_fig1_scan():
    spec = sc.parse_scenario("experiment fig1\nangle theta1 0\nscan theta2 0 180 5\n")
    assert spec.experiment == "fig1"
    assert spec.state == "circular_pair"
    assert spec.angles == {"theta1": 0.0}
    assert spec.scan == sc.Scan("theta2", 0.0, 180.0, 5.0)
    assert len(sc.evaluate(spec)) == 37


def test_parse_state_and_experiment():
    spec = sc.parse_scenario("state psi_e\nexperiment fig2\n")
    assert spec.experiment == "fig2" and spec.state == "psi_e"
    assert spec.angles == {"theta3": 0.0, "theta4": 0.0}


def test_parse_comments_and_blanks():
    text = "# header\n\nexperiment pdc  # trailing comment\nstate psi_u\n"
    spec = sc.parse_scenario(text)
    assert spec.experiment == "pdc" and spec.state == "psi_u"


def test_parse_error_reports_line_number():
    with pytest.raises(sc.ParseError, match="line 2") as err:
        sc.parse_scenario("experiment fig1\nangle theta1 banana\n")
    assert err.value.line_no == 2
    assert "expected a number" in str(err.value)


def test_parse_error_unknown_key():
    with pytest.raises(sc.ParseError, match="unknown key"):
        sc.parse_scenario("experiment fig1\nlaser theta1 0\n")


def test_parse_error_wrong_arity():
    with pytest.raises(sc.ParseError, match="scan needs"):
        sc.parse_scenario("experiment fig1\nscan theta2 0 180\n")


#: Each directive given at most once: a line of it, its usage message and its repeat message.
ONCE_DIRECTIVES = {
    "experiment": ("experiment pdc", "experiment takes exactly one value", "experiment given more than once"),
    "state": ("state psi_e", "state takes exactly one value", "state given more than once"),
    "scan": ("scan theta2 0 10 1", "scan needs <name> <from> <to> <step>", "only one scan variable is allowed"),
    "geometry": ("geometry 1 1 1 1", "geometry needs four complex coefficients", "geometry given more than once"),
    "output": ("output json", "output must be one of ('csv', 'json')", "output given more than once"),
}


@pytest.mark.parametrize("key", ONCE_DIRECTIVES)
@pytest.mark.parametrize("too_many", [False, True], ids=["no values", "one value too many"])
def test_once_directive_value_count_message(key, too_many):
    directive, usage, _ = ONCE_DIRECTIVES[key]
    line = f"{directive} 1" if too_many else key
    with pytest.raises(sc.ParseError) as err:
        sc.parse_scenario(f"experiment cascade\n{line}\n")
    assert str(err.value) == f"line 2: {usage}" and err.value.line_no == 2


def test_output_format_message():
    with pytest.raises(sc.ParseError) as err:
        sc.parse_scenario("experiment pdc\n\noutput xml\n")
    assert str(err.value) == "line 3: output must be one of ('csv', 'json')" and err.value.line_no == 3


@pytest.mark.parametrize("key", ONCE_DIRECTIVES)
def test_once_directive_repeat_message(key):
    directive, _, repeat = ONCE_DIRECTIVES[key]
    with pytest.raises(sc.ValidationError) as err:
        sc.parse_scenario(f"experiment cascade\n{directive}\n{directive}\n")
    # The second experiment line is line 2; any other directive's is line 3.
    assert str(err.value) == f"line {2 if key == 'experiment' else 3}: {repeat}"


#: A text for each rule that one directive can break, and the message that names its line.
LOCATED = [
    ("experiment fig1\nangle theta1 0\nangle theta1 5\n", "line 3: angle theta1 given more than once"),
    ("experiment fig3\nbeam 1 plane 0\n\nbeam 1 plane 1\n", "line 4: beam 1 given more than once"),
    ("experiment fig3\nbeam 1 plane 0\nbeam 2 gaussian 0 -1\n", "line 3: beam 2: gaussian beams need width > 0"),
    (
        "experiment fig3\nbeam 1 gaussian 0 1e-300\n",
        "line 2: beam 1: gaussian beam width 1e-300 is too small: its square underflows to 0",
    ),
    ("experiment pdc\n# step\nscan theta2 0 10 -1\n", "line 3: scan step must be > 0"),
    ("experiment fig1\nscan theta2 0 180 1e-9\n", f"line 2: scan has more than {MAX_SCAN_POINTS} points"),
    ("experiment fig1\nangle theta1 0\nangle theta3 10\n", "line 3: angle 'theta3' is not a parameter of fig1"),
    ("scan theta3 0 1 1\nexperiment fig1\n", "line 1: scan variable 'theta3' is not a parameter of fig1"),
    ("experiment fig1\nangle theta2 5\nscan theta2 0 10 1\n", "line 3: angle theta2 is both fixed and scanned"),
    ("experiment fig1\nbeam 1 plane_wave 15.0\n", "line 2: beam directives only apply to the fig3 experiment"),
    ("experiment pdc\ngeometry 1 1 1 1\n", "line 2: geometry only applies to the cascade experiment"),
    (
        "state psi_e\nexperiment cascade\n",
        "line 1: state 'psi_e' is not valid for cascade; expected one of ('psi_u_prime',)",
    ),
    ("\nexperiment fig9\n", f"line 2: unknown experiment 'fig9'; expected one of {tuple(ex.EXPERIMENTS)}"),
]


@pytest.mark.parametrize("text, message", LOCATED, ids=[message for _, message in LOCATED])
def test_an_error_of_one_directive_names_its_line(text, message):
    with pytest.raises(sc.ValidationError) as err:
        sc.parse_scenario(text)
    assert str(err.value) == message


def test_an_error_of_the_whole_spec_names_no_line():
    with pytest.raises(sc.ValidationError) as err:
        sc.parse_scenario("# no experiment\nstate psi_u\n")
    assert str(err.value) == "missing required 'experiment' directive"


def test_validation_unknown_experiment():
    with pytest.raises(sc.ValidationError, match="unknown experiment"):
        sc.parse_scenario("experiment fig9\n")


def test_validation_missing_experiment():
    with pytest.raises(sc.ValidationError, match="missing required"):
        sc.parse_scenario("state psi_u\n")


def test_validation_state_for_experiment():
    with pytest.raises(sc.ValidationError, match="not valid for"):
        sc.parse_scenario("experiment cascade\nstate psi_e\n")


def test_validation_angle_name():
    with pytest.raises(sc.ValidationError, match="not a parameter"):
        sc.parse_scenario("experiment fig1\nangle theta3 10\n")


def test_validation_two_scans():
    with pytest.raises(sc.ValidationError, match="one scan"):
        sc.parse_scenario("experiment fig1\nscan theta1 0 10 1\nscan theta2 0 10 1\n")


def test_validation_scan_step_positive():
    with pytest.raises(sc.ValidationError, match="step"):
        sc.parse_scenario("experiment fig1\nscan theta2 0 10 -1\n")


def test_validation_scan_and_fixed_conflict():
    with pytest.raises(sc.ValidationError, match="both fixed and scanned"):
        sc.parse_scenario("experiment fig1\nangle theta2 5\nscan theta2 0 10 1\n")


def test_validation_gaussian_width():
    with pytest.raises(sc.ValidationError, match="width"):
        sc.parse_scenario("experiment fig3\nbeam 1 gaussian 15.0 -1.0\n")


def test_validation_gaussian_width_square_underflow():
    with pytest.raises(sc.ValidationError, match="width"):
        sc.parse_scenario("experiment fig3\nbeam 1 gaussian 0 1e-300\n")


def test_validation_scan_point_cap():
    # Validated arithmetically: the 1.8e11-point grid is never built.
    with pytest.raises(sc.ValidationError, match="more than"):
        sc.parse_scenario("experiment fig1\nscan theta2 0 180 1e-9\n")
    with pytest.raises(sc.ValidationError, match="more than"):
        sc.parse_scenario("experiment fig1\nscan theta2 -1e308 1e308 1e-300\n")
    spec = sc.parse_scenario(f"experiment fig1\nscan theta2 0 {MAX_SCAN_POINTS - 1} 1\n")
    assert scan_count(spec.scan.start, spec.scan.stop, spec.scan.step) == MAX_SCAN_POINTS
    with pytest.raises(sc.ValidationError, match="more than"):
        sc.parse_scenario(f"experiment fig1\nscan theta2 0 {MAX_SCAN_POINTS} 1\n")


def test_validation_beam_outside_fig3():
    with pytest.raises(sc.ValidationError, match="fig3"):
        sc.parse_scenario("experiment fig1\nbeam 1 plane_wave 15.0\n")


def test_validation_geometry_outside_cascade():
    with pytest.raises(sc.ValidationError, match="cascade"):
        sc.parse_scenario("experiment fig1\ngeometry 1+0i 0+0i 0+0i 1+0i\n")


def test_parse_geometry_complex_forms():
    text = "experiment cascade\ngeometry 1+0i -0.5-0.25i 2i 3\n"
    spec = sc.parse_scenario(text)
    assert spec.geometry.g11 == 1.0
    assert spec.geometry.g12 == -0.5 - 0.25j
    assert spec.geometry.g21 == 2j
    assert spec.geometry.g22 == 3.0


def test_parse_geometry_rejects_garbage():
    with pytest.raises(sc.ParseError, match="complex"):
        sc.parse_scenario("experiment cascade\ngeometry 1+0i nope 0i 1\n")


def test_parse_beams():
    text = "experiment fig3\nbeam 1 plane_wave 15.707963 0.1\nbeam 2 gaussian -15.707963 0.5 0.0\n"
    spec = sc.parse_scenario(text)
    assert spec.beams[0].kind == "plane_wave" and spec.beams[0].phase_offset == 0.1
    assert spec.beams[1].kind == "gaussian" and spec.beams[1].width == 0.5


def test_parse_beam_plane_alias():
    spec = sc.parse_scenario("experiment fig3\nbeam 1 plane 15.0\n")
    assert spec.beams[0].kind == "plane_wave"
    assert spec.beams[1].tilt == -DEFAULT_TILT  # untouched default


def test_chsh_defaults_are_canonical_degrees():
    spec = sc.parse_scenario("experiment chsh\n")
    assert spec.angles == {"a": 0.0, "ap": 45.0, "b": 22.5, "bp": 67.5}


@pytest.mark.parametrize(
    "text",
    [
        "experiment fig1\nangle theta1 0\nscan theta2 0 180 5\n",
        "experiment chsh\nstate psi_u\n",
        "experiment cascade\ngeometry 1+0i -0.5-0.25i 0+2i 3+0i\nangle theta1 12.5\n",
        "experiment fig3\nstate psi_e\nbeam 1 plane_wave 15.707963 0.25\n"
        "beam 2 gaussian -15.707963 0.5 0\noutput json\n",
        "experiment same-channel\nstate psi_e\n",
        "experiment pdc\nstate psi_e\nangle theta1 30\nscan theta2 0 360 7.5\noutput json\n",
    ],
)
def test_format_parse_round_trip(text):
    spec = sc.parse_scenario(text)
    assert sc.parse_scenario(sc.format_scenario(spec)) == spec


FIG3 = "experiment fig3\nbeam 1 gaussian 3 0.5\n"
PDC = "experiment pdc\nangle theta1 10\n"


@pytest.mark.parametrize(
    "text, change, message",
    [
        (FIG3, {"beams": (BeamProfile(amplitude=2.0), DEFAULT_BEAMS[1])},
         "beam 1 amplitude 2.0 cannot be written: the beam directive has none"),
        (FIG3, {"beams": (DEFAULT_BEAMS[0], BeamProfile(tilt=-1.0, amplitude=0.0))},
         "beam 2 amplitude 0.0 cannot be written: the beam directive has none"),
        (FIG3, {"beams": (BeamProfile(width=0.5), DEFAULT_BEAMS[1])},
         "beam 1 is a plane wave with a width, which the beam directive cannot write"),
        (PDC, {"geometry": CascadeGeometry(2 + 0j)},
         "a geometry other than the default cannot be written outside the cascade experiment"),
        (FIG3, {"geometry": CascadeGeometry(g22=0.5 + 0j)},
         "a geometry other than the default cannot be written outside the cascade experiment"),
        (PDC, {"beams": (BeamProfile("gaussian", 1.0, 0.5), BeamProfile("gaussian", -1.0, 0.5))},
         "beams other than the defaults cannot be written outside the fig3 experiment"),
        ("experiment cascade\n", {"beams": (DEFAULT_BEAMS[1], DEFAULT_BEAMS[0])},
         "beams other than the defaults cannot be written outside the fig3 experiment"),
    ],
)
def test_format_refuses_a_spec_its_grammar_cannot_write(text, change, message):
    # Each of these would format to the text of another spec: the grammar has no beam amplitude and no plane
    # wave width, and writes beams only for fig3 and a geometry only for cascade.
    spec = sc.parse_scenario(text)._replace(**change)
    with pytest.raises(ValueError) as raised:
        sc.format_scenario(spec)
    assert str(raised.value) == message
    # The spec it was made from formats, and parses back to itself.
    assert sc.parse_scenario(sc.format_scenario(sc.parse_scenario(text))) == sc.parse_scenario(text)


def test_round_trip_preserves_awkward_floats():
    spec = sc.parse_scenario("experiment fig1\nangle theta1 0.3333333333333333\nscan theta2 0 1 0.1\n")
    again = sc.parse_scenario(sc.format_scenario(spec))
    assert again == spec


def test_degree_radian_hygiene():
    spec = sc.parse_scenario("experiment fig1\nangle theta1 12\nscan theta2 0 180 5\n")
    rows = sc.evaluate(spec)
    for degrees, result in rows:
        direct = coincidence(source("circular_pair"), math.radians(12.0), math.radians(degrees))
        assert result.value == pytest.approx(direct.value, abs=1e-12)


def test_evaluate_single_point_row():
    rows = sc.evaluate(sc.parse_scenario("experiment chsh\n"))
    assert len(rows) == 1
    param, result = rows[0]
    assert param == "abs_S"
    assert result.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


def test_evaluate_same_channel_rows():
    rows = sc.evaluate(sc.parse_scenario("experiment same-channel\nstate psi_u\n"))
    assert [param for param, _ in rows] == ["both_ch1", "both_ch2", "split"]
    assert [result.value for _, result in rows] == pytest.approx([0.25, 0.25, 0.5], abs=1e-13)


def test_evaluate_fig3_uses_beams():
    text = "experiment fig3\nstate psi_u\nbeam 1 plane_wave 15.707963292679587\nbeam 2 plane_wave -15.707963292679587\n"
    rows = sc.evaluate(sc.parse_scenario(text))
    assert rows[0][1].value == pytest.approx(1.0, abs=1e-9)


def test_evaluate_scan_rewrites_only_the_scanned_angle():
    rows = sc.evaluate(sc.parse_scenario("experiment chsh\nstate psi_u\nangle a 5\nangle bp 80\nscan b -30 30 15\n"))
    a, ap, bp = map(math.radians, (5.0, 45.0, 80.0))
    src = source("psi_u")
    expected = [abs(ex.chsh_S(src, a, ap, math.radians(b), bp)) for b in (-30.0, -15.0, 0.0, 15.0, 30.0)]
    assert [param for param, _ in rows] == [-30.0, -15.0, 0.0, 15.0, 30.0]
    assert [result.value for _, result in rows] == expected


@pytest.mark.parametrize("scan", [None, sc.Scan("theta2", 0.0, 10.0, 5.0)])
def test_evaluate_has_no_default_for_a_missing_angle(scan):
    # parse_scenario fills in every angle; a spec built by hand may lack one.
    with pytest.raises(KeyError, match="theta1"):
        sc.evaluate(sc.ScenarioSpec("pdc", "psi_u", angles={"theta2": 0.0} if scan is None else {}, scan=scan))


@pytest.mark.parametrize(
    "text,n_rows",
    [("experiment fig1\nscan theta2 0 180 0.25\n", 721), ("experiment chsh\nstate psi_u\nscan a 0 180 2.5\n", 73)],
)
def test_evaluate_builds_the_source_once(monkeypatch, text, n_rows):
    calls = []

    def counting_named_state(kind):
        calls.append(kind)
        return named_state(kind)

    monkeypatch.setattr(ex, "named_state", counting_named_state)
    ex._shared_source.cache_clear()
    spec = sc.parse_scenario(text)
    rows = sc.evaluate(spec)
    assert len(rows) == n_rows and len(calls) == 1
    assert sc.evaluate(spec) == rows and len(calls) == 1  # a second run builds nothing


def test_selfcheck_builds_each_source_once(monkeypatch):
    calls, states = [], []

    def counting_source(*args, **kwargs):
        calls.append(args)
        return source(*args, **kwargs)

    def counting_named_state(kind):
        states.append(kind)
        return named_state(kind)

    monkeypatch.setattr(ex, "source", counting_source)
    monkeypatch.setattr(ex, "named_state", counting_named_state)
    monkeypatch.setattr(selfcheck, "named_state", counting_named_state)
    assert all(row.abs_error() <= row.tolerance for row in selfcheck_rows())
    assert len(calls) <= 20
    assert len(states) <= 17
