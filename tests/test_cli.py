"""CLI surface: table formats, determinism, exit codes."""

from __future__ import annotations

import argparse
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from biphoton import cli
from biphoton import experiments as ex
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


def test_selfcheck_renders_the_rows_of_the_selfcheck_module(monkeypatch, capsys):
    # A copy of selfcheck_rows bound when the CLI was imported would print the real table.
    monkeypatch.setattr("biphoton.selfcheck.selfcheck_rows", lambda: [ex.ScenarioResult("patched", 0.5, 0.5)])
    assert run_cli(capsys, "selfcheck") == (0, "param,value,closed_form,abs_error\npatched,0.5,0.5,0\n", "")


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
    monkeypatch.setattr("biphoton.selfcheck.selfcheck_rows", lambda: rows)
    code, _, err = run_cli(capsys, "selfcheck")
    assert code == 2
    assert err.startswith("mismatch: 1 of 24 ")


def test_selfcheck_tolerance_zero_forces_mismatch(capsys):
    code, _, err = run_cli(capsys, "selfcheck", "--tolerance", "0")
    assert code == 2
    assert err.startswith("mismatch: 12 of 24 ")


def test_selfcheck_rows_are_the_benchmark_table():
    # The benchmark's cli_cold workload checks selfcheck's stdout against
    # perfbench/workloads.py's SELFCHECK; a row added to one and not the other
    # fails here rather than as an incorrect benchmark run.
    table = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))["SELFCHECK"]
    assert [row.observable for row in selfcheck_rows()] == [name for name, _ in table]


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


@pytest.mark.parametrize("argv", [["--out="], ["--out", ""]], ids=["--out=", "--out ''"])
def test_empty_out_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "scan", "--experiment", "pdc", *argv)
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == "biphoton: error: argument --out: expected a file path, got ''"


def test_help_still_exits_0(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: biphoton")


#: Odd argv for the parse tables, which must print what the top-level parser
#: alone prints: no command, help at both levels, unknown commands and
#: options, stray tokens, "--", abbreviations, "=" values (empty ones too),
#: negative numbers, repeated options, "-" and spaces in values, a greedy
#: --beam before another option, bad values and missing ones.
ODD_ARGV = [
    [], ["-h"], ["--help"], ["--he"], ["bogus"], ["sca"], ["-", "scan"], ["--format", "json"],
    ["--", "scan", "--experiment", "pdc"], ["scan"], ["scan", "-h"], ["chsh", "--help"], ["run", "-h"],
    ["selfcheck", "-hx"], ["scan", "--experiment", "pdc", "--bogus"], ["scan", "--experiment", "pdc", "stray"],
    ["scan", "--experiment", "pdc", "-x"], ["scan", "--experiment", "pdc", "-h", "--bogus"], ["scan", "-h", "x"],
    ["scan", "--exp", "pdc"], ["scan", "--experiment=pdc", "--format=json"], ["scan", "--experiment", "pdc", "--"],
    ["scan", "--experiment", "pdc", "--", "x"], ["scan", "--", "--experiment", "pdc"], ["run", "--", "-h"],
    ["scan", "--experiment", "pdc", "--angle", "theta1", "-1e-3"],
    ["scan", "--experiment", "cascade", "--geometry", "-1+0i", "1+0i", "1+0i", "1+0i"], ["chsh", "--a", "-1+0i"],
    ["scan", "--experiment", "pdc", "--format", "xml"], ["scan", "--experiment", "pdc", "--format"],
    ["scan", "--experiment"], ["scan", "--experiment", "pdc", "--angle", "theta1"], ["scan", "--experiment", "nope"],
    ["selfcheck", "--tolerance", "abc"], ["selfcheck", "--tolerance", "nan"], ["chsh", "--a", "-1e-3", "--zz"],
    ["chsh", "--state", "psi_e", "extra"], ["selfcheck", "--", "x"], ["run"], ["run", "a", "b"],
    ["run", "/nonexistent/spec.txt"], ["scan", "--experiment", "same-channel", "--tolerance", "-1e-3"],
    ["scan", "--experiment", "pdc", "--out="], ["scan", "--experiment", "pdc", "--angle=theta1"],
    ["scan", "--experiment", "pdc", "--state", "psi_u", "--state", "psi_e"], ["chsh", "--a", "1", "--ap", "2"],
    ["scan", "--experiment", "pdc", "--state", "-"], ["chsh", "--state", "psi e"],
    ["scan", "--experiment", "fig3", "--beam", "1", "plane_wave", "--format", "json"],
    ["selfcheck", "--tolerance=-1e-3"],
]


@pytest.mark.parametrize("argv", ODD_ARGV, ids=map(" ".join, ODD_ARGV))
def test_command_parser_prints_what_the_top_level_parser_prints(monkeypatch, capsys, argv):
    dispatched = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
    assert dispatched == run_cli(capsys, *argv)


@pytest.mark.parametrize("argv", ODD_ARGV, ids=map(" ".join, ODD_ARGV))
def test_bad_input_prints_one_line(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    if code == 1:
        assert err.count("\n") == 1 and err.endswith("\n"), err


#: Argv that repeat a directive flag, each with the run file that repeats the same directive on its last line,
#: and the message that both get, located by the flag or the line.
REPEATED_FLAGS = [
    (["scan", "--experiment", "pdc", "--experiment", "fig1"], "--experiment", "experiment pdc\nexperiment fig1\n",
     "experiment given more than once"),
    (["scan", "--experiment", "pdc", "--state", "psi_e", "--state", "psi_u"], "--state",
     "experiment pdc\nstate psi_e\nstate psi_u\n", "state given more than once"),
    (["scan", "--experiment", "pdc", "--scan", "theta2", "0", "10", "5", "--scan", "theta2", "0", "20", "5"], "--scan",
     "experiment pdc\nscan theta2 0 10 5\nscan theta2 0 20 5\n", "only one scan variable is allowed"),
    (["scan", "--experiment", "cascade", "--geometry", "1", "1", "1", "1", "--geometry", "2", "2", "2", "2"],
     "--geometry", "experiment cascade\ngeometry 1 1 1 1\ngeometry 2 2 2 2\n", "geometry given more than once"),
    (["chsh", "--state", "psi_u", "--state", "psi_e"], "--state", "experiment chsh\nstate psi_u\nstate psi_e\n",
     "state given more than once"),
    (["chsh", "--a", "10", "--a", "20"], "--a", "experiment chsh\nangle a 10\nangle a 20\n",
     "angle a given more than once"),
]


@pytest.mark.parametrize(
    "argv, flag",
    [
        *((argv, flag) for argv, flag, _, _ in REPEATED_FLAGS),
        (["chsh", "--a", "-1+0i"], "--a"),
        (["scan", "--experiment", "pdc", "--angle", "theta1", "abc"], "--angle"),
        (["scan", "--experiment", "fig3", "--beam", "1", "plane_wave"], "--beam"),
        (["scan", "--experiment", "cascade", "--geometry", "1+0i", "nope", "0i", "1"], "--geometry"),
        (["scan", "--experiment", "fig1", "--scan", "theta2", "0", "x", "5"], "--scan"),
        # Values that parse but break a rule of their directive.
        (["scan", "--experiment", "pdc", "--scan", "theta2", "0", "10", "-1"], "--scan"),
        (["scan", "--experiment", "pdc", "--angle", "theta1", "1", "--scan", "theta1", "0", "1", "1"], "--scan"),
        (["scan", "--experiment", "pdc", "--angle", "theta9", "1"], "--angle"),
        (["scan", "--experiment", "pdc", "--angle", "theta1", "1", "--angle", "theta1", "2"], "--angle"),
        (["scan", "--experiment", "pdc", "--beam", "1", "plane_wave", "0"], "--beam"),
        (["scan", "--experiment", "fig3", "--beam", "2", "gaussian", "0", "1e-300"], "--beam"),
        (["scan", "--experiment", "fig1", "--geometry", "1+0i", "1+0i", "1+0i", "1+0i"], "--geometry"),
        (["scan", "--experiment", "cascade", "--state", "psi_e"], "--state"),
        (["scan", "--experiment", "fig9"], "--experiment"),
        (["chsh", "--state", "psi_x"], "--state"),
    ],
)
def test_flag_errors_name_the_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: argument {flag}: ") and err.count("\n") == 1
    assert "line " not in err


@pytest.mark.parametrize("argv, flag, text, message", REPEATED_FLAGS, ids=[" ".join(c[0]) for c in REPEATED_FLAGS])
def test_a_repeated_flag_gets_the_message_of_a_repeated_line(tmp_path, capsys, argv, flag, text, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: argument {flag}: {message}\n")
    line = text.count("\n")
    assert run_cli(capsys, "run", write_spec(tmp_path, text)) == (1, "", f"error: line {line}: {message}\n")


@pytest.mark.parametrize(
    "argv, text, err",
    [
        (
            ["scan", "--experiment", "fig3", "--beam", "1", "gaussian", "0", "-1", "--beam", "2", "gaussian", "0", "0"],
            None,
            "error: argument --beam: beam 1: gaussian beams need width > 0\n",
        ),
        (
            ["run"],
            "experiment fig1\nangle theta1 0\nangle theta1 5\n",
            "error: line 3: angle theta1 given more than once\n",
        ),
        (
            ["run"],
            "experiment pdc\ngeometry 1+0i 0+0i 0+0i 1+0i\n",
            "error: line 2: geometry only applies to the cascade experiment\n",
        ),
    ],
    ids=["two bad beams", "angle given twice", "geometry outside cascade"],
)
def test_a_validation_error_names_its_flag_or_line(tmp_path, capsys, argv, text, err):
    if text is not None:
        argv = [*argv, write_spec(tmp_path, text)]
    assert run_cli(capsys, *argv) == (1, "", err)


def test_well_formed_requests_skip_the_top_level_parser(monkeypatch, tmp_path, capsys):
    def refuse(*_):
        raise AssertionError("argparse parsed a well-formed request")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    path = write_spec(tmp_path, FIG1_SCAN)
    for argv in (
        ["scan", "--experiment", "pdc", "--angle", "theta1", "-1e-3", "--format", "json"],
        ["scan", "--experiment", "fig3", "--beam", "1", "plane_wave", "0.5", "0", "--beam", "2", "plane_wave", "0"],
        ["chsh", "--state", "psi_u", "--a", "5"],
        ["selfcheck", "--tolerance", "1e-6"],
        ["run", path, "--format=json"],
    ):
        assert run_cli(capsys, *argv)[0] == 0


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


@pytest.mark.parametrize("g", ["1e3", "3e76", "1e-7"])
def test_scaled_cascade_rows_pass_their_gate(capsys, g):
    # Each coincidence row is gated at 1e-9 of its source's peak 0.5 |g11 g22|^2, not at an absolute 1e-9.
    # At 1e-7 the engine prunes the rate to 0 against a closed form of 5e-29, under the EPS_PRUNE ** 2 floor.
    code, out, err = run_cli(
        capsys, "scan", "--experiment", "cascade", "--geometry", f"{g}+0i", "1+0i", "1+0i", f"{g}+0i",
        "--angle", "theta1", "10", "--scan", "theta2", "0", "90", "15",
    )
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 8


def test_a_wrong_closed_form_at_a_small_geometry_is_a_mismatch(monkeypatch, capsys):
    build = ex._build_source

    def doubled(kind, geometry, split):
        src = build(kind, geometry, split)
        return ex.Source(src.ket, src.arm1, src.arm2, 2.0 * src.peak, src.law)

    monkeypatch.setattr(ex, "_build_source", doubled)
    argv = ["scan", "--experiment", "cascade", "--geometry", "1e-3+0i", "1+0i", "1+0i", "1e-3+0i"]
    code, out, err = run_cli(capsys, *argv)
    # value 5e-13 against closed form 1e-12: under an absolute 1e-9 this passed.
    assert code == 2 and out.splitlines()[1].startswith("coincidence_rate,5e-13,1e-12,")
    assert err.startswith("mismatch: 1 of 1")
    monkeypatch.undo()
    assert run_cli(capsys, *argv)[0] == 0


def test_non_finite_value_is_a_mismatch(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--experiment", "cascade", "--geometry", "1e200+0i", "1+0i", "1+0i", "1e200+0i"
    )
    assert code == 2
    assert out.splitlines()[1] == "coincidence_rate,nan,inf,nan"


def assert_one_line_error(err):
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_out_directory_exits_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "chsh", "--out", str(tmp_path))
    assert code == 1
    assert_one_line_error(err)


@pytest.mark.parametrize("existing", [None, "directory", "file"])
def test_out_path_ending_in_a_separator_exits_1_and_writes_nothing(monkeypatch, tmp_path, capsys, existing):
    # Path("table/") drops the separator: the table would be written to a file named table.
    monkeypatch.chdir(tmp_path)
    if existing == "directory":
        (tmp_path / "table").mkdir()
    elif existing == "file":
        (tmp_path / "table").write_text("kept")
    code, out, err = run_cli(capsys, "chsh", "--out", "table" + os.sep)
    assert code == 1 and out == ""
    assert_one_line_error(err)
    if existing is None:
        assert list(tmp_path.iterdir()) == []
    elif existing == "directory":
        assert list((tmp_path / "table").iterdir()) == []
    else:
        assert (tmp_path / "table").read_text() == "kept"


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


@pytest.mark.parametrize(
    ("bounds", "message"),
    [
        # k * step overflows, though the grid's top points are finite.
        (["-1.7e308", "1.7e308", "1e308"], "overflow"),
        (["-1e308", "1e308", "5e307"], "overflow"),
        # start + step == start: every point of the grid is start.
        (["1e300", "1e300", "1"], "float spacing"),
    ],
)
def test_scan_that_floats_cannot_hold_exits_1(capsys, bounds, message):
    argv = ["scan", "--experiment", "pdc", "--angle", "theta1", "0", "--scan", "theta2", *bounds]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert_one_line_error(err)
    assert message in err


def test_overflowing_rate_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "scan", "--experiment", "cascade", "--geometry", "1+0i", "1+0i", "1+0i", "1e155+1e155i"
    )
    assert code == 2
    assert out == ""
    assert_one_line_error(err)


def test_chsh_at_huge_angles_prints_its_rows_and_exits_0(capsys):
    # At 1e308 degrees t + pi/2 rounds to t, yet the correlation matrix of K
    # gives every E from cos t and sin t, and so does the closed form.
    point = ["chsh", "--state", "psi_u", "--a", "1e308", "--b", "1e308"]
    scan = ["scan", "--experiment", "chsh", "--state", "psi_u", "--angle", "a", "1e308", "--angle", "b", "1e308"]
    for argv, n in ((point, 1), ([*scan, "--scan", "ap", "0", "90", "5"], 19)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv
        rows = out.splitlines()[1:]
        assert len(rows) == n and all(math.isfinite(float(row.split(",")[1])) for row in rows)


@pytest.mark.parametrize(
    "argv,value",
    [
        ("chsh --a 1e12 --b 2e12", "0.0124234098371"),
        ("scan --experiment fig1 --angle theta1 1e15 --angle theta2 3", "0.246338040436"),
        ("scan --experiment cascade --angle theta1 1e14 --angle theta2 7", "0.00137020149791"),
        ("chsh --state psi_u --a 1e308 --b 1e308", "0.944865895189"),
    ],
)
def test_a_large_angle_row_agrees_with_its_closed_form(argv, value, capsys):
    # The difference of two large angles rounds; a closed form of each
    # angle's own cos and sin does not take it.
    code, out, err = run_cli(capsys, *argv.split())
    _, got, closed_form, abs_error = out.splitlines()[1].split(",")
    assert (code, err, got, closed_form) == (0, "", value, value) and float(abs_error) <= 1e-15


@pytest.mark.parametrize(
    "beam1,beam2,value",
    [("1e10 0.3", "-1e10", "0.999083165598"), ("1e17", "-3e16", "0.998736615627")],
)
def test_a_fig3_row_at_huge_tilts_agrees_with_its_closed_form(beam1, beam2, value, capsys):
    # p1 - p2 rounds at these phases; the closed form takes each phase's own
    # cos and sin, as the engine takes one phasor per beam.
    beams = ["--beam", "1", "plane_wave", *beam1.split(), "--beam", "2", "plane_wave", beam2]
    code, out, err = run_cli(capsys, "scan", "--experiment", "fig3", *beams)
    assert (code, err, out.splitlines()[1]) == (0, "", f"visibility,{value},{value},0")


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


#: The help each command prints at 80 columns, byte for byte.
HELP = {
    "-h": """\
usage: biphoton [-h] {run,scan,chsh,selfcheck} ...

Exact two-photon polarization-correlation scenarios.

positional arguments:
  {run,scan,chsh,selfcheck}
    run                 evaluate a scenario file
    scan                evaluate a scenario given as flags
    chsh                four-setting correlation sum
    selfcheck           recompute the verification table

options:
  -h, --help            show this help message and exit
""",
    "scan -h": """\
usage: biphoton scan [-h] [--format {csv,json}] [--out PATH]
                     [--tolerance TOLERANCE] --experiment EXPERIMENT
                     [--state STATE] [--angle NAME DEG]
                     [--scan NAME FROM TO STEP] [--beam SPEC [SPEC ...]]
                     [--geometry G11 G12 G21 G22]

options:
  -h, --help            show this help message and exit
  --format {csv,json}   override the output format
  --out PATH            write the table to a file instead of stdout
  --tolerance TOLERANCE
                        closed-form agreement tolerance (finite, >= 0)
  --experiment EXPERIMENT
  --state STATE
  --angle NAME DEG
  --scan NAME FROM TO STEP
  --beam SPEC [SPEC ...]
  --geometry G11 G12 G21 G22
""",
    "chsh -h": """\
usage: biphoton chsh [-h] [--format {csv,json}] [--out PATH]
                     [--tolerance TOLERANCE] [--state STATE] [--a DEG]
                     [--ap DEG] [--b DEG] [--bp DEG]

options:
  -h, --help            show this help message and exit
  --format {csv,json}   override the output format
  --out PATH            write the table to a file instead of stdout
  --tolerance TOLERANCE
                        closed-form agreement tolerance (finite, >= 0)
  --state STATE
  --a DEG
  --ap DEG
  --b DEG
  --bp DEG
""",
    "run -h": """\
usage: biphoton run [-h] [--format {csv,json}] [--out PATH]
                    [--tolerance TOLERANCE]
                    file

positional arguments:
  file                  scenario file path

options:
  -h, --help            show this help message and exit
  --format {csv,json}   override the output format
  --out PATH            write the table to a file instead of stdout
  --tolerance TOLERANCE
                        closed-form agreement tolerance (finite, >= 0)
""",
}


@pytest.mark.parametrize("argv", HELP)
def test_help_prints_its_pinned_bytes(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv.split()) == (0, HELP[argv], "")
