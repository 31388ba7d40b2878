"""CLI surface: table formats, determinism, exit codes."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from biphoton.cli import main
from biphoton.selfcheck import selfcheck_rows
from support import child_env, corrupt_selfcheck_row

FIG1_SCAN = "experiment fig1\nangle theta1 0\nscan theta2 0 180 5\n"


def write_spec(tmp_path, text, name="scenario.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_fig1_scan_csv(tmp_path, capsys):
    path = write_spec(tmp_path, FIG1_SCAN)
    code, out, err = run_cli(capsys, "run", path)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "param,value,closed_form,abs_error"
    assert len(lines) == 38
    row90 = next(line for line in lines if line.startswith("90,"))
    assert row90.split(",")[1] == "0.25"


def test_run_uses_newline_endings_and_is_deterministic(tmp_path, capsys):
    path = write_spec(tmp_path, FIG1_SCAN)
    _, first, _ = run_cli(capsys, "run", path)
    _, second, _ = run_cli(capsys, "run", path)
    assert first == second
    assert "\r" not in first


def test_run_json_format(tmp_path, capsys):
    path = write_spec(tmp_path, "experiment pdc\nstate psi_e\nangle theta1 0\nangle theta2 90\noutput json\n")
    code, out, _ = run_cli(capsys, "run", path)
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["param"] == "coincidence_rate"
    assert rows[0]["value"] == pytest.approx(0.5, abs=1e-9)
    assert rows[0]["abs_error"] <= 1e-9


def test_run_fig2_entangled_all_zero_rows(tmp_path, capsys):
    path = write_spec(tmp_path, "experiment fig2\nstate psi_e\nscan theta3 0 90 15\n")
    code, out, _ = run_cli(capsys, "run", path)
    assert code == 0
    for line in out.splitlines()[1:]:
        _, value, closed, abs_err = line.split(",")
        assert float(value) == 0.0
        assert float(closed) == 0.0
        assert float(abs_err) == 0.0


def test_run_writes_output_file(tmp_path, capsys):
    path = write_spec(tmp_path, FIG1_SCAN)
    out_path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "run", path, "--out", str(out_path))
    assert code == 0 and out == ""
    content = out_path.read_bytes()
    assert content.startswith(b"param,value,closed_form,abs_error\n")
    assert b"\r" not in content


def test_run_missing_file(capsys):
    code, _, err = run_cli(capsys, "run", "/nonexistent/spec.txt")
    assert code == 1
    assert "no such scenario file" in err


def test_run_parse_error_exit_code(tmp_path, capsys):
    path = write_spec(tmp_path, "experiment fig1\nangle theta1 banana\n")
    code, _, err = run_cli(capsys, "run", path)
    assert code == 1
    assert "line 2" in err


def test_run_validation_error_exit_code(tmp_path, capsys):
    path = write_spec(tmp_path, "experiment fig1\nangle theta9 0\n")
    code, _, err = run_cli(capsys, "run", path)
    assert code == 1
    assert "not a parameter" in err


def test_scan_subcommand_matches_run(tmp_path, capsys):
    path = write_spec(tmp_path, FIG1_SCAN)
    _, from_file, _ = run_cli(capsys, "run", path)
    _, from_flags, _ = run_cli(
        capsys, "scan", "--experiment", "fig1", "--angle", "theta1", "0", "--scan", "theta2", "0", "180", "5"
    )
    assert from_flags == from_file


def test_scan_subcommand_cascade_geometry(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--experiment",
        "cascade",
        "--geometry",
        "1+0i",
        "1+0i",
        "1+0i",
        "0.5+0.5i",
        "--angle",
        "theta1",
        "0",
        "--angle",
        "theta2",
        "0",
    )
    assert code == 0
    value = float(out.splitlines()[1].split(",")[1])
    assert value == pytest.approx(0.25, abs=1e-12)


# argparse's own pattern takes "-1" and "-0.5" for values but "-1e-3" and "-1+0i"
# for unknown options; cli sets a wider one on every parser.
@pytest.mark.parametrize(
    "argv, plain",
    [
        (
            ["scan", "--experiment", "pdc", "--angle", "theta1", "-1e-3"],
            ["scan", "--experiment", "pdc", "--angle", "theta1", "-0.001"],
        ),
        (
            ["scan", "--experiment", "fig1", "--scan", "theta2", "-1e1", "-5e-1", "2.5e0"],
            ["scan", "--experiment", "fig1", "--scan", "theta2", "-10", "-0.5", "2.5"],
        ),
        (["chsh", "--a", "-2.25e1", "--bp", "-.5e0"], ["chsh", "--a", "-22.5", "--bp", "-0.5"]),
    ],
)
def test_negative_numbers_in_exponent_form_are_values(capsys, argv, plain):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert run_cli(capsys, *plain) == (0, out, "")


def test_negative_complex_geometry_flags_match_the_scenario_file(tmp_path, capsys):
    geometry = ["-1+0i", "1+0i", "1+0i", "-1-0.5i"]
    path = write_spec(tmp_path, "experiment cascade\ngeometry " + " ".join(geometry) + "\n")
    from_file = run_cli(capsys, "run", path)
    assert from_file[0] == 0
    assert run_cli(capsys, "scan", "--experiment", "cascade", "--geometry", *geometry) == from_file


def test_chsh_canonical_row(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--format", "csv")
    assert code == 0
    param, value, closed, abs_err = out.splitlines()[1].split(",")
    assert param == "abs_S"
    assert value == "2.82842712475"
    assert float(abs_err) <= 1e-9
    assert float(closed) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-11)


def test_chsh_explicit_angles_degenerate(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--a", "0", "--ap", "0", "--b", "22.5", "--bp", "22.5")
    assert code == 0
    value = float(out.splitlines()[1].split(",")[1])
    assert value <= 2.0 + 1e-9


def test_selfcheck_passes(capsys):
    code, out, _ = run_cli(capsys, "selfcheck")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "param,value,closed_form,abs_error"
    names = [line.split(",")[0] for line in lines[1:]]
    for expected in (
        "fig1_sin2_max_abs_err",
        "pdc_shape_max_dev",
        "cascade_cos2_max_abs_err",
        "fig2_psi_e_max_rate",
        "fig3_visibility_psi_u",
        "overlap_entangled_component",
        "factorization_max_amp_diff",
        "chsh_abs_psi_u",
        "same_channel_psi_u_ch1",
        "circular_outcome_total",
    ):
        assert expected in names


def test_selfcheck_corrupted_reference_exits_2(monkeypatch, capsys):
    corrupt_selfcheck_row(monkeypatch, "fig1_sin2_max_abs_err")
    code, out, _ = run_cli(capsys, "selfcheck")
    assert code == 2
    row = next(line for line in out.splitlines() if line.startswith("fig1_sin2_max_abs_err,"))
    assert float(row.split(",")[3]) > 1e-9


def test_selfcheck_mismatch_prints_one_mismatch_line(monkeypatch, capsys):
    corrupt_selfcheck_row(monkeypatch, "fig1_sin2_max_abs_err")
    code, _, err = run_cli(capsys, "selfcheck")
    assert code == 2
    assert err.startswith("mismatch: 1 of ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_selfcheck_json(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(row["abs_error"] is not None for row in rows)


def test_tolerance_flag_can_force_mismatch(tmp_path, capsys):
    path = write_spec(tmp_path, FIG1_SCAN)
    code, _, _ = run_cli(capsys, "run", path, "--tolerance", "0")
    assert code == 2


def test_selfcheck_row_keeps_its_own_tolerance(monkeypatch, capsys):
    # 1e-12 is within the 1e-9 default but not within this row's 1e-14.
    rows = [
        row._replace(value=1e-12) if row.observable == "factor_commutator_abs" else row for row in selfcheck_rows()
    ]
    assert [row.tolerance for row in rows if row.observable == "factor_commutator_abs"] == [1e-14]
    monkeypatch.setattr("biphoton.cli.selfcheck_rows", lambda: rows)
    code, _, err = run_cli(capsys, "selfcheck")
    assert code == 2
    assert err.startswith("mismatch: 1 of 24 ")


def test_selfcheck_tolerance_zero_forces_mismatch(capsys):
    code, _, err = run_cli(capsys, "selfcheck", "--tolerance", "0")
    assert code == 2
    assert err.startswith("mismatch: 16 of 24 ")


def test_selfcheck_tolerance_flag_overrides_row_tolerances(monkeypatch, capsys):
    corrupt_selfcheck_row(monkeypatch, "pdc_peak_psi_e")
    code, out, err = run_cli(capsys, "selfcheck", "--tolerance", "1")
    assert code == 0 and err == ""
    row = next(line for line in out.splitlines() if line.startswith("pdc_peak_psi_e,"))
    assert row.split(",")[2] == "0.501"


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "biphoton", "chsh"],
        capture_output=True,
        text=True,
        check=False,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "abs_S" in proc.stdout


# --- exit codes on bad input and non-finite results ---------------------------------


def test_usage_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "scan")
    assert code == 1
    assert "required: --experiment" in err


def test_help_still_exits_0(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: biphoton")


#: Runs each argv of the JSON list in argv[1] through one in-process main and
#: prints [exit code, stdout, stderr] of every call as JSON.
MAIN_CALLS = """
import contextlib, io, json, sys
from biphoton.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def main_calls(calls: list[list[str]]) -> list[list]:
    argv = [sys.executable, "-c", MAIN_CALLS, json.dumps(calls)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True, env=child_env())
    return json.loads(proc.stdout)


def test_consecutive_main_calls_match_first_calls_in_fresh_processes():
    # Each pair could leak through a parser shared between calls: a flag's
    # value, an appended --beam, or a half-parsed usage error.
    calls = [
        ["scan", "--experiment", "pdc", "--angle", "theta1", "10"],
        ["scan", "--experiment", "pdc"],
        ["scan", "--experiment", "fig3", "--beam", "1", "gaussian", "3", "0.5"],
        ["scan", "--experiment", "fig3"],
        ["scan", "--experiment", "fig1", "--angle", "theta1"],
        ["chsh"],
    ]
    fresh = [main_calls([argv])[0] for argv in calls]
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 1, 0]
    assert main_calls(calls) == fresh


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_tolerance_must_be_finite_and_non_negative(monkeypatch, capsys, tolerance):
    corrupt_selfcheck_row(monkeypatch, "fig2_psi_e_max_rate")
    code, out, err = run_cli(capsys, "selfcheck", "--tolerance", tolerance)
    assert code == 1
    assert out == ""
    assert "--tolerance" in err


def test_non_finite_value_is_a_mismatch(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--experiment", "cascade", "--geometry", "1e200+0i", "1+0i", "1+0i", "1e200+0i"
    )
    assert code == 2
    assert out.splitlines()[1] == "coincidence_rate,inf,inf,nan"


def assert_one_line_error(err):
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_out_directory_exits_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "chsh", "--out", str(tmp_path))
    assert code == 1
    assert_one_line_error(err)


def test_unreadable_scenario_file_exits_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", str(tmp_path))
    assert code == 1
    assert_one_line_error(err)


def test_non_utf8_scenario_file_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"experiment fig1\n# caf\xe9\n")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 1
    assert_one_line_error(err)
    assert "utf-8" in err


def test_underflowing_gaussian_width_exits_1(capsys):
    code, _, err = run_cli(capsys, "scan", "--experiment", "fig3", "--beam", "1", "gaussian", "0", "1e-300")
    assert code == 1
    assert_one_line_error(err)


def test_overflowing_rate_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "scan", "--experiment", "cascade", "--geometry", "1+0i", "1+0i", "1+0i", "1e155+1e155i"
    )
    assert code == 2
    assert out == ""
    assert_one_line_error(err)


def test_chsh_all_dark_settings_exit_1(capsys):
    code, out, err = run_cli(capsys, "chsh", "--state", "psi_u", "--a", "1e308", "--b", "1e308")
    assert code == 1
    assert out == ""
    assert_one_line_error(err)


def test_fig3_dark_everywhere_exits_1(capsys):
    # Two equal plane waves in antiphase cancel at every screen point.
    code, out, err = run_cli(
        capsys, "scan", "--experiment", "fig3", "--beam", "1", "plane_wave", "0", "0",
        "--beam", "2", "plane_wave", "0", "3.141592653589793",
    )
    assert code == 1
    assert out == ""
    assert_one_line_error(err)
    assert "dark" in err


def test_overflowing_beam_phase_gives_nan_closed_form_and_exits_2(capsys):
    # tilt * x + phase overflows, so the beam field, the visibility and its
    # closed form are all NaN.
    code, out, err = run_cli(capsys, "scan", "--experiment", "fig3", "--beam", "1", "plane_wave", "1e308", "1e308")
    assert code == 2
    assert out.splitlines()[1] == "visibility,nan,nan,nan"
    assert err.startswith("mismatch: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    ("flag", "argv"),
    [
        ("--state", ["scan", "--experiment", "pdc", "--state", "psi_u\nangle theta1 30"]),
        ("--experiment", ["scan", "--experiment", "fig1\noutput json"]),
        ("--a", ["chsh", "--a", "10\nstate psi_e"]),
        ("--angle", ["scan", "--experiment", "fig1", "--angle", "theta1", "30 # x"]),
        ("--state", ["chsh", "--state", ""]),
        ("--geometry", ["scan", "--experiment", "cascade", "--geometry", "1+0i", "1+0i", "1+0i", "1+0i\tx"]),
    ],
)
def test_flag_value_cannot_inject_a_scenario_line(capsys, flag, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert_one_line_error(err)
    assert f"argument {flag}:" in err


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--experiment", "fig3", "--beam", "1", "plane_wave", "1e308", "1e308"],
        ["scan", "--experiment", "cascade", "--geometry", "1e155+1e155i", "1+0i", "1+0i", "1e155+0i"],
    ],
)
def test_json_writes_non_finite_values_as_null(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 2
    assert err.startswith("mismatch: ") and err.count("\n") == 1
    (row,) = json.loads(out, parse_constant=reject_constant)
    assert row["value"] is None and row["abs_error"] is None
