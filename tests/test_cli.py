"""Command-line interface: output formats, grids, configs, exit codes."""

import csv
import io
import json
import math

import pytest

from opendicke import cli


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_meanfield_normal_phase_rows(capsys):
    code, out, _ = run_cli(["meanfield", "--delta-c=-2", "--kappa=2",
                            "--u=0", "--y-grid=0:2yc:200"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["y", "y_over_yc", "alpha0_sq", "beta0_sq", "status"]
    assert len(rows) == 200
    for row in rows:
        if float(row[0]) <= 2.0:
            assert float(row[3]) == 0.0


def test_correlations_columns_and_divergent_row(capsys):
    code, out, _ = run_cli(["correlations", "--delta-c=-2", "--kappa=2",
                            "--y-grid=0:2yc:9"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["y", "y_over_yc", "alpha0_re", "alpha0_im", "beta0_sq",
                      "delta_N", "n_photon", "status"]
    critical = rows[4]
    assert float(critical[0]) == 2.0
    assert critical[-1] == "divergent"
    assert math.isnan(float(critical[5])) and math.isnan(float(critical[6]))
    assert all(row[-1] == "ok" for i, row in enumerate(rows) if i != 4)


def test_csv_floats_round_trip(capsys):
    code, out, _ = run_cli(["correlations", "--delta-c=-2", "--kappa=2",
                            "--y-grid=0:1.8yc:7"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    # shortest round-trip decimals: re-parsing and re-printing is lossless
    for row in rows:
        for cell in row[:-1]:
            assert repr(float(cell)) == cell


def test_exponent_command(capsys):
    code, out, _ = run_cli(["exponent", "--delta-c=-2", "--kappa=2",
                            "--side=both"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:2] == ["side", "slope"]
    assert [row[0] for row in rows] == ["below", "above"]
    for row in rows:
        assert abs(float(row[1]) + 1.0) <= 0.02
        assert row[-1] == "ok"


def test_exponent_curve_flag(capsys):
    code, out, _ = run_cli(["exponent", "--delta-c=-2", "--kappa=2",
                            "--side=below", "--curve"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["side", "eps", "delta_N", "n_photon", "status"]
    assert len(rows) == 40


def test_spectrum_interval_report(capsys):
    code, out, err = run_cli(["spectrum", "--delta-c=-2", "--kappa=2"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-1] == "status"
    assert len(rows) == 241
    assert "real-axis interval" in err
    assert "lower defective=True" in err and "upper defective=True" in err
    # endpoints quoted in the report match the frozen refinement
    assert "1.93681670" in err and "2.03473906" in err


def test_entanglement_json_with_null(capsys):
    code, out, _ = run_cli(["entanglement", "--delta-c=-2", "--kappa=2",
                            "--y-grid=0:2yc:5", "--format=json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    assert rows[2]["status"] == "divergent"
    assert rows[2]["log_negativity"] is None
    assert rows[0]["status"] == "ok"


def test_spectrum_json_includes_intervals(capsys):
    code, out, _ = run_cli(["spectrum", "--delta-c=-2", "--kappa=2",
                            "--format=json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"rows", "real_intervals"}
    (interval,) = payload["real_intervals"]
    assert interval["lower"]["defective"] is True
    assert interval["upper"]["defective"] is True
    assert 0.0 < interval["lower"]["y"] < 2.0


def test_verify_open_system(capsys):
    code, out, _ = run_cli(["verify", "--delta-c=-2", "--kappa=2",
                            "--y=0.9yc"], capsys)
    assert code == 0
    assert "13/13 checks passed" in out
    assert "FAIL" not in out
    for name in ("m_conjugation_symmetry", "eigenmode_vs_lyapunov",
                 "tmsv_closed_form", "covariance_physicality"):
        assert name in out


def test_verify_closed_system(capsys):
    code, out, _ = run_cli(["verify", "--delta-c=-2", "--kappa=0",
                            "--y=0.9yc"], capsys)
    assert code == 0
    assert "12/12 checks passed" in out
    assert "bogoliubov_symplectic" in out


def test_verify_at_threshold_reports_numerical_error(capsys):
    code, _, err = run_cli(["verify", "--delta-c=-2", "--kappa=2",
                            "--y=1yc"], capsys)
    assert code == 3
    assert err.strip() != ""


def test_usage_errors(capsys):
    code, _, _ = run_cli(["meanfield", "--delta-c=-2", "--y-grid=bogus"],
                         capsys)
    assert code == 2
    code, _, _ = run_cli(["meanfield", "--y-grid=0:2:5"], capsys)
    assert code == 2
    code, _, _ = run_cli(["meanfield", "--delta-c=2", "--y-grid=0:2:5"],
                         capsys)
    assert code == 2  # no threshold for delta_c >= 0
    code, _, _ = run_cli(["meanfield", "--delta-c=-2", "--y-grid=2:0:5"],
                         capsys)
    assert code == 2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# reference point\ndelta-c = -2\nkappa = 0\nu = 0\n")
    code, out_file_only, _ = run_cli(
        ["meanfield", f"--config={cfg}", "--y-grid=0:2yc:5"], capsys)
    assert code == 0
    _, rows = parse_csv(out_file_only)
    assert float(rows[-1][0]) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    # explicit flags take precedence over config values
    code, out_override, _ = run_cli(
        ["meanfield", f"--config={cfg}", "--kappa=2", "--y-grid=0:2yc:5"],
        capsys)
    assert code == 0
    _, rows = parse_csv(out_override)
    assert float(rows[-1][0]) == pytest.approx(4.0, rel=1e-12)


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta-c = -2\nmystery = 3\n")
    code, _, _ = run_cli(["meanfield", f"--config={cfg}",
                          "--y-grid=0:2:5"], capsys)
    assert code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, out, _ = run_cli(["meanfield", "--delta-c=-2", "--kappa=2",
                            "--y-grid=0:2yc:5", f"--output={target}"], capsys)
    assert code == 0
    assert out == ""
    header, rows = parse_csv(target.read_text())
    assert header[0] == "y" and len(rows) == 5


def test_threads_deterministic(capsys):
    argv = ["correlations", "--delta-c=-2", "--kappa=2", "--y-grid=0:2yc:40"]
    _, single, _ = run_cli(argv + ["--threads=1"], capsys)
    _, multi, _ = run_cli(argv + ["--threads=4"], capsys)
    assert single == multi


def test_repeated_runs_identical(capsys):
    argv = ["entanglement", "--delta-c=-2", "--kappa=2", "--y-grid=0:1.9yc:11"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
