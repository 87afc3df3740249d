"""Command-line interface: output formats, grids, configs, exit codes."""

import csv
import io
import json
import math
import warnings

import pytest

from opendicke import analysis, cli, model


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


def test_exponent_summary_is_exponent_table(capsys):
    code, out, _ = run_cli(["exponent", "--delta-c=-2", "--kappa=2"], capsys)
    assert code == 0
    table = analysis.exponent_table(
        model.ModelParams(delta_c=-2.0, kappa=2.0, u=0.0, y=0.0))
    header, rows = parse_csv(out)
    assert header == list(table.columns)
    assert rows == [[str(cell) for cell in row] for row in table.rows]


def test_exponent_curve_fits_nothing(capsys):
    # on this window the fit does not converge; the curve needs no fit
    argv = ["exponent", "--delta-c=-2", "--kappa=2", "--u=-0.5",
            "--window-min=0.3", "--window-max=0.95"]
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert err == "numerical failure: power-law fit did not converge in 50 steps\n"
    code, out, err = run_cli(argv + ["--curve"], capsys)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["side", "eps", "delta_N", "n_photon", "status"]
    assert [row[0] for row in rows] == ["below"] * 40 + ["above"] * 40
    assert float(rows[0][1]) == 0.3 and float(rows[39][1]) == 0.95


@pytest.mark.parametrize("side", [[], ["--side=below"], ["--side=both"]])
@pytest.mark.parametrize("curve", [[], ["--curve"]])
def test_exponent_rejects_window_past_zero_pump(side, curve, capsys):
    # eps = |1 - y/yc| > 1 below threshold is a negative pump
    argv = ["exponent", "--delta-c=-2", "--kappa=2", "--window-min=0.5",
            "--window-max=2"]
    code, out, err = run_cli(argv + side + curve, capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: --window-max = 2.0 puts the pump below 0 on the side "
                   "below y_c; it must be <= 1 there\n")


def test_exponent_window_past_one_above_threshold(capsys):
    argv = ["exponent", "--delta-c=-2", "--kappa=2", "--window-min=0.5",
            "--window-max=2", "--side=above", "--curve"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert len(rows) == 40 and float(rows[-1][1]) == 2.0


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


def test_usage_errors(tmp_path, capsys):
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
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta-c = -2\nkappa\n")
    for argv, message in [
            (["--delta-c=-2", "--y-grid=0:1"],
             "grid spec '0:1' must be 'start:stop:count' or a single value"),
            (["--delta-c=-2", "--y-grid=0:2yc:1"], "grid count must be >= 2, got 1"),
            # the threshold is checked before a 'yc' token is read
            (["--delta-c=2", "--y-grid=0:2yc:5"],
             "no critical pump for delta_c = 2.0; need delta_c < 0"),
            ([f"--config={cfg}", "--y-grid=0:2:5"], f"{cfg}:2: expected key=value")]:
        code, out, err = run_cli(["meanfield", *argv], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("grid, bad", [("-1:1:3", "-1.0"), ("nan:1:3", "nan"),
                                       ("0:inf:3", "inf")])
@pytest.mark.parametrize("command", ["meanfield", "correlations", "spectrum"])
def test_grid_rejects_invalid_pumps(command, grid, bad, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli([command, "--delta-c=-2", "--kappa=2",
                                  f"--y-grid={grid}"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: pump y must be finite and >= 0, got {bad}\n"


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


def test_config_values_pass_the_flag_parser(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # side and curve belong to exponent; meanfield ignores them
    cfg.write_text("kappa = 0\nside = below\ncurve = yes\n")
    # an abbreviated flag wins over the config file
    code, out, _ = run_cli(["meanfield", f"--config={cfg}", "--kap=2",
                            "--delta-c=-2", "--y-grid=0:2yc:2"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[-1][0]) == 4.0

    code, out, _ = run_cli(["exponent", f"--config={cfg}", "--delta-c=-2",
                            "--points=8"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:2] == ["side", "eps"]
    assert {row[0] for row in rows} == {"below"} and len(rows) == 8


@pytest.mark.parametrize("command, line, flag", [
    ("exponent", "side = sideways", "--side"),
    ("meanfield", "format = xml", "--format"),
    ("meanfield", "kappa = two", "--kappa"),
])
def test_config_rejects_bad_values(command, line, flag, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"delta-c = -2\n{line}\n")
    code, out, err = run_cli([command, f"--config={cfg}"], capsys)
    assert code == 2
    assert out == ""
    assert f"error: argument {flag}: invalid" in err


@pytest.mark.parametrize("line, key", [("side = sideways", "side"),
                                       ("kappa = two", "kappa")])
def test_config_bad_value_names_file_and_line(line, key, tmp_path, capsys):
    cfg = tmp_path / "b.cfg"
    cfg.write_text(f"# reference point\n{line}\n")
    code, out, err = run_cli(["exponent", "--delta-c=-2", f"--config={cfg}"],
                             capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: argument --{key}: invalid ")
    assert err.endswith(f" ({cfg}:2, key {key!r})\n")


@pytest.mark.parametrize("value, curve", [
    ("1", True), ("true", True), ("Yes", True), ("TRUE", True),
    ("0", False), ("false", False), ("no", False), ("No", False),
    ("FALSE", False)])
def test_config_switch_spellings(value, curve, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"curve = {value}\n")
    code, out, _ = run_cli(["exponent", "--delta-c=-2", "--kappa=2",
                            "--points=8", "--side=below", f"--config={cfg}"],
                           capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header[1] == ("eps" if curve else "slope")
    assert len(rows) == (8 if curve else 1)


def test_config_switch_rejects_other_values(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("delta-c = -2\ncurve = maybe\n")
    code, out, err = run_cli(["exponent", f"--config={cfg}"], capsys)
    assert code == 2
    assert out == ""
    assert err == (f"error: {cfg}:2: curve = 'maybe'; a switch takes 1, true, "
                   "yes, 0, false or no\n")


@pytest.mark.parametrize("argv, delta_c", [
    (["meanfield", "--delta-c=-1e-300", "--y-grid=0:2:3"], "-1e-300"),
    (["meanfield", "--delta-c=-1e-170", "--y-grid=0:2yc:3"], "-1e-170"),
    (["correlations", "--delta-c=-1e-160", "--kappa=0", "--y-grid=0:2:3"],
     "-1e-160")])
def test_critical_pump_underflow_exits_2(argv, delta_c, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == (f"error: critical pump underflows for delta_c = {delta_c}, "
                   "kappa = 0.0\n")


def test_critical_pump_overflow_exits_2(capsys):
    code, out, err = run_cli(["meanfield", "--delta-c=-1e300", "--kappa=1e300"],
                             capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: critical pump overflows for delta_c = -1e+300, "
                   "kappa = 1e+300\n")


@pytest.mark.parametrize("points", ["7", "3", "0", "-1"])
@pytest.mark.parametrize("curve", [[], ["--curve"]])
def test_exponent_rejects_too_few_points(points, curve, capsys):
    code, out, err = run_cli(["exponent", "--delta-c=-2", "--kappa=2",
                              f"--points={points}"] + curve, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: points per side must be >= 8 for the fit, got {points}\n"


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


# Every kind of table the CLI writes: failed rows with NaN cells, a divergent
# row, the kappa = 0 route, the spectrum, the exponent fit and its curve.
TABLE_COMMANDS = [
    ["meanfield", "--delta-c=-2", "--kappa=2", "--y-grid=0:2yc:41"],
    ["correlations", "--delta-c=-1", "--kappa=1", "--u=-3", "--y-grid=0:2yc:9"],
    ["correlations", "--delta-c=-2", "--kappa=0", "--u=0.7", "--y-grid=0:2yc:41"],
    ["entanglement", "--delta-c=-2", "--kappa=2", "--y-grid=0:2yc:41"],
    ["spectrum", "--delta-c=-2", "--kappa=2", "--u=0.7"],
    ["exponent", "--delta-c=-2", "--kappa=2"],
    ["exponent", "--delta-c=-2", "--kappa=0", "--curve"],
]


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=lambda a: " ".join(a[:2]))
@pytest.mark.parametrize("to_file", [False, True])
def test_csv_bytes_equal_the_csv_module(argv, to_file, tmp_path, capsys,
                                        monkeypatch):
    """The format-string rows are byte for byte what ``csv.writer`` makes of
    the same table."""
    tables = []
    emit = cli._emit_table

    def record(table, args):
        tables.append(table)
        emit(table, args)

    monkeypatch.setattr(cli, "_emit_table", record)
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(argv + [f"--output={target}"] * to_file, capsys)
    assert code == 0
    if to_file:
        assert out == ""
        out = target.read_text(encoding="utf-8")
    (table,) = tables
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(table.rows)
    assert out == expected.getvalue()
    assert len(table.rows) > 1
    if argv[1:4] == ["--delta-c=-1", "--kappa=1", "--u=-3"]:
        assert {"failed", "divergent"} <= {row[-1] for row in table.rows}
        assert ",nan," in out


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    """A config call hands the parser's own actions to a one-line parser;
    a usage error and a plain call after it read as they do first."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta-c = -2\nkappa = 2\ny-grid = 0:2yc:5\nside = below\n")
    calls = [["correlations", f"--config={cfg}"],
             ["correlations", "--delta-c=-2", "--kappa=two"],
             ["exponent", "--delta-c=-2", "--kappa=2", "--side=sideways"],
             ["correlations", "--delta-c=-2", "--y-grid=0:2yc:5"],
             ["exponent", f"--config={cfg}", "--points=8"],
             ["exponent", "--delta-c=-2", "--points=8"]]
    first = []
    for argv in calls:
        cli.build_parser.cache_clear()
        first.append(run_cli(argv, capsys))
    cli.build_parser.cache_clear()
    assert cli.build_parser() is cli.build_parser()
    assert [run_cli(argv, capsys) for argv in calls] == first
    assert [code for code, _, _ in first] == [0, 2, 2, 0, 0, 0]


def test_verify_degenerate_frequencies_at_zero_pump(capsys):
    """At delta_c = -1, kappa = 0, y = 0 both mode pairs sit at +-i."""
    code, out, err = run_cli(["verify", "--delta-c=-1", "--kappa=0", "--y=0"],
                             capsys)
    assert code == 0 and err == ""
    assert "12/12 checks passed" in out
