"""Scenario grammar: parsing, validation, round-trips, evaluation."""

from __future__ import annotations

import math

import pytest

from biphoton import experiments as ex
from biphoton import scenario as sc
from biphoton import selfcheck
from biphoton.detection import DEFAULT_TILT
from biphoton.experiments import MAX_SCAN_POINTS, coincidence, scan_count, source
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
        "experiment fig3\nstate psi_e\nbeam 1 plane_wave 15.707963 0.25\nbeam 2 gaussian -15.707963 0.5 0\noutput json\n",
        "experiment same-channel\nstate psi_e\n",
        "experiment pdc\nstate psi_e\nangle theta1 30\nscan theta2 0 360 7.5\noutput json\n",
    ],
)
def test_format_parse_round_trip(text):
    spec = sc.parse_scenario(text)
    assert sc.parse_scenario(sc.format_scenario(spec)) == spec


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
    assert len(sc.evaluate(sc.parse_scenario(text))) == n_rows
    assert len(calls) == 1


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
    assert all(abs(row.value - row.expected) <= row.tolerance for row in selfcheck_rows())
    assert len(calls) <= 20
    assert len(states) <= 17
