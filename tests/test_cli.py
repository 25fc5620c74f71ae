"""CLI harness tests: determinism, formats, exit codes, worker settings."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wpl
from wpl import cli
from wpl.errors import ConfigError
from wpl.sampler import effective_workers

# the child processes import the wpl these tests import, PYTHONPATH set or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(wpl.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def run_cli(args, tmp_path=None):
    return subprocess.run(
        [sys.executable, "-m", "wpl.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
        env=CHILD_ENV,
    )


def test_cli_import_leaves_scipy_unloaded():
    # scipy.linalg, sampler's one scipy use, cost half of wpl.cli's import time
    code = "import sys, wpl.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_sample_byte_identical_reruns(tmp_path):
    args = [
        "sample", "--r", "2", "--s", "1", "--N", "6", "--nu", "0,0", "--mu", "0",
        "--samples", "5", "--seed", "7",
    ]
    out1 = run_cli(args + ["--out", str(tmp_path / "a.csv")])
    out2 = run_cli(args + ["--out", str(tmp_path / "b.csv")])
    assert out1.returncode == 0 and out2.returncode == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_csv_header_and_metadata(tmp_path):
    path = tmp_path / "d.csv"
    res = run_cli(["density", "--r", "1", "--s", "1", "--grid", "0.5:2:4", "--out", str(path)])
    assert res.returncode == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,rho_closed,rho_solver,abs_diff"
    meta = [ln for ln in lines if ln.startswith("# ")]
    assert any("config_hash=" in ln for ln in meta)
    assert any("version=" in ln for ln in meta)
    # payload rows parse as floats and round-trip
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert abs(float(first[3])) < 1e-10


def test_density_discrepancy_small(tmp_path):
    path = tmp_path / "d.csv"
    res = run_cli(["density", "--r", "2", "--s", "0", "--grid", "0.5:5:6", "--out", str(path)])
    assert res.returncode == 0
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:7]]
    assert all(abs(float(row[3])) < 1e-7 for row in rows)


def _density_rows(args):
    res = run_cli(["density", *args])
    assert res.returncode == 0
    return [[float(v) for v in ln.split(",")] for ln in res.stdout.splitlines()[1:] if not ln.startswith("#")]


def test_density_both_columns_for_every_rs():
    rows = _density_rows(["--r", "2", "--s", "1", "--grid", "0.5:5:6"])
    assert len(rows) == 6
    assert not any(math.isnan(v) for row in rows for v in row)
    assert all(row[3] < 1e-9 for row in rows)


def test_density_r0_zero_below_edge():
    rows = _density_rows(["--r", "0", "--s", "1", "--grid", "0.1:2:6"])
    below = [row for row in rows if row[0] < 0.25]
    assert below and all(row[1] == 0.0 and row[2] == 0.0 for row in below)
    assert all(row[1] > 0.0 and row[3] < 1e-9 for row in rows if row[0] > 0.25)


def test_hardedge_diag_bessel_columns(tmp_path):
    path = tmp_path / "h.csv"
    res = run_cli(["hardedge", "--r", "1", "--nu", "0", "--diag", "0.1:10:10", "--out", str(path)])
    assert res.returncode == 0
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:11]]
    assert all(abs(float(row[5])) < 1e-6 for row in rows)


def test_json_format(tmp_path):
    path = tmp_path / "m.json"
    res = run_cli(["moments", "--r", "2", "--s", "0", "--pmax", "4", "--format", "json", "--out", str(path)])
    assert res.returncode == 0
    doc = json.loads(path.read_text())
    assert doc["columns"] == ["p", "moment_exact", "moment_float"]
    assert [row[1] for row in doc["rows"]] == ["1", "3", "12", "55"]


@pytest.mark.parametrize("args", [
    ["kernel", "--N", "3", "--r", "1", "--s", "1", "--x", "0.5", "--y", "1.5"],
    ["sample", "--N", "4", "--samples", "2", "--seed", "3"],
    ["charpoly", "--N", "3", "--lam", "0.5,2"],
])
def test_json_matches_csv(args):
    # the metadata carries EnsembleParams, which json cannot serialize natively
    res_json = run_cli(args + ["--format", "json"])
    res_csv = run_cli(args + ["--format", "csv"])
    assert res_json.returncode == 0 and res_csv.returncode == 0
    doc = json.loads(res_json.stdout)
    lines = [ln for ln in res_csv.stdout.splitlines() if not ln.startswith("# ")]
    assert doc["columns"] == lines[0].split(",")
    assert [",".join(row) for row in doc["rows"]] == lines[1:]
    assert len(doc["rows"]) > 0


def test_kernel_methods_agree(tmp_path):
    path = tmp_path / "k.csv"
    res = run_cli([
        "kernel", "--N", "3", "--r", "1", "--s", "1", "--nu", "0", "--mu", "0",
        "--x", "0.5", "--y", "1.5", "--method", "both", "--out", str(path),
    ])
    assert res.returncode == 0
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:3]]
    assert abs(float(rows[0][2]) - float(rows[1][2])) < 1e-9


def test_config_error_exit_code():
    res = run_cli(["density", "--r", "1", "--s", "0", "--grid", "nonsense"])
    assert res.returncode == cli.EXIT_CONFIG_ERROR
    res = run_cli(["moments", "--r", "2", "--s", "1", "--pmax", "3"])
    assert res.returncode == cli.EXIT_CONFIG_ERROR


@pytest.mark.parametrize("args", [
    ["density", "--r", "1", "--s", "1", "--grid", "0:2:3"],
    ["hardedge", "--r", "2", "--diag", "0:1:3"],
], ids=["density", "hardedge"])
def test_nonpositive_x_grid_is_config_error(args):
    # x = 0 is bad input, not a numerical failure
    res = run_cli(args)
    assert res.returncode == cli.EXIT_CONFIG_ERROR
    assert "x grid needs lo > 0" in res.stderr


@pytest.mark.parametrize("args, message", [
    (["kernel", "--N", "4", "--x", "nan", "--y", "1", "--method", "sum"], "finite"),
    (["kernel", "--N", "4", "--x", "inf", "--y", "1", "--method", "sum"], "finite"),
    (["kernel", "--N", "4", "--x", "-1", "--y", "1", "--method", "sum"], "> 0"),
    (["charpoly", "--N", "3", "--lam", "nan"], "finite"),
    (["hardedge", "--r", "2", "--x", "nan", "--y", "1"], "finite"),
    (["hardedge", "--r", "2", "--x", "1", "--y", "nan", "--method", "cd"], "finite"),
    (["density", "--r", "1", "--s", "0", "--grid", "1:inf:3"], "finite"),
], ids=["kernel-nan", "kernel-inf", "kernel-negative", "charpoly-nan", "hardedge-nan", "hardedge-cd-nan",
        "density-inf"])
def test_nonfinite_or_nonpositive_input_is_config_error(args, message):
    # these printed nan (or a value at x < 0) and exited 0, or exited 3
    res = run_cli(args)
    assert res.returncode == cli.EXIT_CONFIG_ERROR
    assert message in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("args, message", [
    (["kernel", "--N", "0"], "N must be a positive integer"),
    (["kernel", "--nu", "-1"], "nonnegative"),
    (["kernel", "--nu", "0,0"], "len(nu)"),
    (["hardedge", "--r", "0"], "r >= 1"),
    (["hardedge", "--r", "2", "--nu", "0"], "length r"),
    (["bulk", "--r", "0"], "r >= 1"),
    (["density", "--r", "0", "--s", "0", "--grid", "0.1:1:3"], "r + s >= 1"),
    (["cauchy", "--N", "0"], "N >= 1"),
    (["acceptance", "--only", "bogus"], "invalid choice"),
    (["sample", "--samples", "-1"], "count >= 1"),
    (["cauchy", "--draws", "-2"], "count >= 1"),
], ids=["kernel-N0", "kernel-nu-negative", "kernel-nu-length", "hardedge-r0", "hardedge-nu-length", "bulk-r0",
        "density-r0s0", "cauchy-N0", "acceptance-unknown", "sample-negative", "cauchy-draws-negative"])
def test_out_of_range_parameter_is_config_error(args, message):
    # these exited 3 (a numerical failure, or an internal KeyError), or 0
    # with an empty table for a negative count
    res = run_cli(args)
    assert res.returncode == cli.EXIT_CONFIG_ERROR
    assert message in res.stderr
    assert res.stdout == ""


def test_bulk_default_grid_starts_at_zero():
    # bulk's grid is in t = y - x, where the default 0:2:9 starts at t = 0
    res = run_cli(["bulk", "--r", "1"])
    assert res.returncode == 0
    assert float(res.stdout.splitlines()[1].split(",")[0]) == 0.0


def test_numerical_failure_exit_code():
    res = run_cli(["kernel", "--N", "120", "--r", "1", "--s", "1", "--nu", "0", "--mu", "0",
                   "--x", "1", "--y", "1", "--method", "contour"])
    assert res.returncode == cli.EXIT_NUMERICAL_FAILURE
    assert "nan" not in res.stdout


def test_kernel_overflowing_polynomial_is_numerical_failure():
    # P_n overflows float64 at x = 1e7, N = 60: the sum route raises, not K = nan
    res = run_cli(["kernel", "--N", "60", "--r", "1", "--x", "1e7", "--y", "1", "--method", "sum"])
    assert res.returncode == cli.EXIT_NUMERICAL_FAILURE
    assert "is not finite at x = 1e+07" in res.stderr and "nan" not in res.stdout
    assert "Traceback" not in res.stderr


def test_density_failure_names_every_x():
    # x = 4.0 is the (1,0) soft edge, where the Stieltjes cross-check cannot converge
    res = run_cli(["density", "--r", "1", "--s", "0", "--grid", "0.5:6:12"])
    assert res.returncode == cli.EXIT_NUMERICAL_FAILURE
    assert "Richardson estimates disagree" in res.stderr and res.stderr.rstrip().endswith("at x = 4.0")
    assert "Traceback" not in res.stderr


def test_kernel_overflowing_constant_is_numerical_failure():
    # C_99 = (99!)^2 at N = 100, r = 1 leaves the float64 range
    res = run_cli(["kernel", "--N", "100", "--r", "1", "--s", "0", "--nu", "0", "--x", "50", "--y", "50"])
    assert res.returncode == cli.EXIT_NUMERICAL_FAILURE
    assert "overflows float64" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("calls", [
    [(["moments", "--r", "2", "--pmax", "4"], 0), (["hardedge", "--r", "1", "--diag", "0.5:3:4"], 0),
     (["density", "--r", "1", "--s", "0", "--grid", "0.5:3:3"], 0), (["moments", "--r", "2", "--pmax", "4"], 0)],
    [(["hardedge", "--r", "1", "--x", "0.5,2", "--y", "3", "--method", "both"], 0),
     (["kernel", "--N", "120", "--r", "1", "--s", "1", "--mu", "0", "--method", "contour"], 3),
     (["hardedge", "--r", "2", "--diag", "0:1:3"], 2),
     (["hardedge", "--r", "1", "--x", "0.5,2", "--y", "3", "--method", "both"], 0)],
], ids=["ok", "with_failures"])
def test_import_time_parser_serves_successive_calls(calls, monkeypatch, capsys):
    # one parser for every call: the same output and exit codes as a fresh
    # parser a call
    def outcomes(fresh):
        results = []
        for argv, _ in calls:
            if fresh:
                monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
            code = cli.main(argv)
            results.append((code, *capsys.readouterr()))
        monkeypatch.undo()
        return results

    held = outcomes(fresh=False)
    assert [code for code, _, _ in held] == [code for _, code in calls]
    assert held == outcomes(fresh=True)


@pytest.mark.parametrize("argv", [
    ["moments"], ["moments", "--r", "two"], ["nosuch"], ["hardedge", "--r", "1", "--method", "x"],
])
def test_bad_arguments_exit_2_on_every_call(argv, capsys):
    # argparse rejects bad input with exit 2, on the held parser's every call
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_CONFIG_ERROR
        assert "error" in capsys.readouterr().err


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    # a non-WplError escaping a subcommand exits 3 with a one-line message
    def broken(args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "cmd_moments", broken)
    code = cli.main(["moments", "--r", "2"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_NUMERICAL_FAILURE == 3
    assert "internal error: ValueError: boom" in err
    assert "Traceback" not in err


def test_acceptance_list_and_single_check():
    res = run_cli(["acceptance", "--list"])
    assert res.returncode == 0
    assert "01_marchenko_pastur" in res.stdout
    res = run_cli(["acceptance", "--only", "01_marchenko_pastur"])
    assert res.returncode == 0
    assert "[PASS] 01_marchenko_pastur" in res.stdout


def test_acceptance_perturbed_tolerance_fails():
    # statistical checks must fail under a 100x tighter tolerance
    res = run_cli(["acceptance", "--only", "04_arcsine_spectrum", "--tol-scale", "0.01"])
    assert res.returncode == cli.EXIT_CHECK_FAILURE
    assert "[FAIL]" in res.stdout


@pytest.mark.parametrize("scale", ["0", "-1", "2", "nan", "inf"])
def test_acceptance_tol_scale_outside_unit_interval_is_config_error(scale, capsys):
    # the scale may only tighten: 1e9 passed every statistical check, nan printed tol=nan
    code = cli.main(["acceptance", "--only", "04_arcsine_spectrum", f"--tol-scale={scale}"])
    assert code == cli.EXIT_CONFIG_ERROR
    assert "--tol-scale must lie in (0, 1]" in capsys.readouterr().err


def test_workers_env_cap(monkeypatch):
    monkeypatch.setenv("WPL_THREADS", "2")
    assert effective_workers(8) == 2
    monkeypatch.setenv("WPL_THREADS", "junk")
    with pytest.raises(ConfigError):
        effective_workers(8)
    monkeypatch.delenv("WPL_THREADS")
    assert effective_workers(8) == 8


@pytest.mark.parametrize("samples", ["5", "-3"])
def test_charpoly_too_few_samples_is_config_error(samples):
    # these drew 100 samples, printed samples=5 (or -3) and exited 0
    res = run_cli(["charpoly", "--N", "3", "--lam", "1", "--samples", samples])
    assert res.returncode == cli.EXIT_CONFIG_ERROR
    assert "at least 100 samples" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command", ["sample", "charpoly"])
@pytest.mark.parametrize("workers", ["0", "-4"])
def test_nonpositive_workers_is_config_error(command, workers):
    # these ran one worker and exited 0
    res = run_cli([command, "--N", "3", "--samples", "100", "--workers", workers])
    assert res.returncode == cli.EXIT_CONFIG_ERROR
    assert "count >= 1" in res.stderr
    assert res.stdout == ""


def test_charpoly_overflowing_prefactor_is_numerical_failure():
    # Π_j Γ(ν_j+N+1) = (300!)^2 at N = 300, r = 2; it exited 3 as an internal OverflowError
    res = run_cli(["charpoly", "--N", "300", "--r", "2", "--lam", "1"])
    assert res.returncode == cli.EXIT_NUMERICAL_FAILURE
    assert "numerical failure: the charpoly prefactor" in res.stderr and "overflows float64" in res.stderr
    assert "Traceback" not in res.stderr
