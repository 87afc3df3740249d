"""Exponent fits, depletion curves, scan tables, status mapping."""

import re

import numpy as np
import pytest

from conftest import at_ratio
from opendicke.analysis import (DEFAULT_WINDOW, ExponentFit, ScanKind, Side,
                                critical_exponent, depletion_curve,
                                exponent_fit, exponent_grid, exponent_table,
                                figure_scan, status_of)
from opendicke.errors import (DefectiveMatrix, DivergentSteadyState,
                              DynamicalInstability, InvalidCurve,
                              UnstableState)
from opendicke.fluctuations import observables, steady_state_moments
from opendicke.groundstate import ground_state_moments
from opendicke.model import critical_pump

# Fit results over the standard window (frozen from this implementation).
# They are exponents of the singular part of delta_N = a * eps**nu + b.  A
# straight line through (ln eps, ln delta_N) gave (-0.99958, -0.99939) and
# (-0.51677, -0.52368): its slope mixes in the regular background b, which
# near threshold is -0.34 and -0.32 for the closed system.
OPEN_SLOPES = (-1.0000002250725382, -0.9999940481764035)     # below, above
GROUND_SLOPES = (-0.5005687312118625, -0.5013192221660588)   # below, above


def test_exponent_grid_spans_window():
    eps = exponent_grid()
    assert eps[0] == pytest.approx(np.exp(-14.0), rel=1e-12)
    assert eps[-1] == pytest.approx(np.exp(-5.0), rel=1e-12)
    assert len(eps) == 40
    ratios = eps[1:] / eps[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)


def test_exponent_grid_rejects_bad_window():
    with pytest.raises(ValueError):
        exponent_grid((0.0, 1.0))
    with pytest.raises(ValueError):
        exponent_grid((1e-3, 1e-5))


def test_fit_exact_inverse_law():
    eps = exponent_grid()
    fit = exponent_fit(np.column_stack([eps, 3.0 / eps]))
    assert abs(fit.slope + 1.0) <= 1e-6
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-6)
    assert fit.r_squared >= 0.999
    assert not fit.poor_fit


def test_fit_exact_power_law():
    eps = exponent_grid()
    fit = exponent_fit(np.column_stack([eps, 0.4 * eps ** 1.75]))
    assert abs(fit.slope - 1.75) <= 1e-6


def test_fit_rescaling_moves_only_intercept():
    eps = exponent_grid()
    base = exponent_fit(np.column_stack([eps, eps ** -0.5]))
    scaled = exponent_fit(np.column_stack([eps, 7.0 * eps ** -0.5]))
    assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
    assert scaled.intercept == pytest.approx(base.intercept + np.log(7.0),
                                             abs=1e-9)


@pytest.mark.parametrize("amplitude, expo, background", [
    (0.1, -0.5, -0.35),
    (0.25, -1.0, 0.25),
])
def test_fit_recovers_power_law_on_background(amplitude, expo, background):
    eps = exponent_grid()
    fit = exponent_fit(np.column_stack([eps, amplitude * eps ** expo
                                        + background]))
    assert fit.slope == pytest.approx(expo, abs=1e-9)
    assert np.exp(fit.intercept) == pytest.approx(amplitude, rel=1e-9)
    assert fit.background == pytest.approx(background, abs=1e-9)
    assert fit.r_squared >= 0.999


def test_fit_without_background_is_straight_line():
    eps = exponent_grid()
    values = 0.3 * eps ** -0.5
    slope, intercept = np.polyfit(np.log(eps), np.log(values), 1)
    fit = exponent_fit(np.column_stack([eps, values]))
    assert fit.background == 0.0
    assert fit.slope == pytest.approx(slope, abs=1e-12)
    assert fit.intercept == pytest.approx(intercept, abs=1e-12)


def test_fit_rejects_curve_it_cannot_follow():
    # rises to a finite value from below as eps -> 0, which needs a negative
    # amplitude; exp(intercept) > 0 cannot provide it and the iteration
    # runs away
    eps = exponent_grid()
    with pytest.raises(InvalidCurve):
        exponent_fit(np.column_stack([eps, 1.0 - 100.0 * eps]))


def test_fit_rejects_nonpositive_values():
    eps = exponent_grid()
    values = 1.0 / eps
    values[5] = 0.0
    with pytest.raises(InvalidCurve):
        exponent_fit(np.column_stack([eps, values]))


def test_fit_rejects_curve_that_is_not_pairs():
    with pytest.raises(InvalidCurve, match=re.escape(
            "curve must be pairs (eps, value), got shape (5, 3)")):
        exponent_fit(np.ones((5, 3)))


def test_fit_rejects_sparse_window():
    eps = exponent_grid(n=6)
    with pytest.raises(InvalidCurve):
        exponent_fit(np.column_stack([eps, 1.0 / eps]))


def test_fit_flags_poor_quality():
    eps = exponent_grid()
    noisy = (1.0 / eps) * np.where(np.arange(len(eps)) % 2 == 0, 2.0, 0.5)
    fit = exponent_fit(np.column_stack([eps, noisy]))
    assert fit.r_squared < 0.999
    assert fit.poor_fit


def test_window_cut_applies():
    eps = np.exp(np.linspace(-20.0, -2.0, 120))
    fit = exponent_fit(np.column_stack([eps, 1.0 / eps]))
    lo, hi = DEFAULT_WINDOW
    assert fit.n_points == int(np.sum((eps >= lo) & (eps <= hi)))
    assert fit.window == (lo, hi)


def test_open_system_exponents_frozen(open_params):
    below = critical_exponent(open_params, Side.BELOW)
    above = critical_exponent(open_params, Side.ABOVE)
    assert below.slope == pytest.approx(OPEN_SLOPES[0], abs=2e-6)
    assert above.slope == pytest.approx(OPEN_SLOPES[1], abs=2e-6)
    assert below.r_squared >= 0.999 and above.r_squared >= 0.999
    assert below.n_points == 40 and above.n_points == 40


def test_ground_system_exponents_frozen(closed_params):
    below = critical_exponent(closed_params, Side.BELOW)
    above = critical_exponent(closed_params, Side.ABOVE)
    assert below.slope == pytest.approx(GROUND_SLOPES[0], abs=2e-6)
    assert above.slope == pytest.approx(GROUND_SLOPES[1], abs=2e-6)


def test_sides_agree(open_params, closed_params):
    for params in (open_params, closed_params):
        below = critical_exponent(params, Side.BELOW)
        above = critical_exponent(params, Side.ABOVE)
        assert abs(below.slope - above.slope) <= 0.04


def test_depletion_curve_dispatch(open_params, closed_params):
    # kappa > 0 rows come from the damped steady state, kappa = 0 rows from
    # the Bogoliubov ground state
    curve = depletion_curve(open_params, Side.BELOW, n=9)
    eps = curve[4, 0]
    p = open_params.with_pump(critical_pump(open_params) * (1.0 - eps))
    ref = observables(steady_state_moments(p))
    assert curve[4, 1] == pytest.approx(ref[0], rel=1e-12)

    curve = depletion_curve(closed_params, Side.BELOW, n=9)
    eps = curve[4, 0]
    p = closed_params.with_pump(critical_pump(closed_params) * (1.0 - eps))
    ref = observables(ground_state_moments(p))
    assert curve[4, 1] == pytest.approx(ref[0], rel=1e-12)


def test_scans_reject_invalid_pumps(open_params):
    for kind in (ScanKind.MEAN_FIELD, ScanKind.MEAN_AND_FLUCT,
                 ScanKind.ENTANGLEMENT, ScanKind.SPECTRUM):
        for grid in ([-1.0, 0.0, 1.0], [0.0, np.nan, 1.0], [0.0, 1.0, np.inf]):
            with pytest.raises(ValueError, match="pump y must be finite and >= 0"):
                figure_scan(kind, open_params, y_grid=grid)
    # a window beyond eps = 1 puts the pumps below y_c under zero
    with pytest.raises(ValueError, match="got -"):
        depletion_curve(open_params, Side.BELOW, window=(0.5, 2.0), n=9)


def test_status_mapping():
    assert status_of(DivergentSteadyState("x")) == "divergent"
    assert status_of(DefectiveMatrix("x")) == "defective"
    assert status_of(UnstableState("x")) == "unstable"
    assert status_of(DynamicalInstability("x")) == "unstable"
    with pytest.raises(KeyError):
        status_of(KeyError("not a scan error"))


def test_excitation_table_keeps_divergent_rows(open_params):
    y_c = critical_pump(open_params)
    grid = np.linspace(0.0, 2.0 * y_c, 9)  # row 4 sits exactly at y_c
    table = figure_scan(ScanKind.MEAN_AND_FLUCT, open_params, grid)
    assert table.columns == ("y", "y_over_yc", "alpha0_re", "alpha0_im",
                             "beta0_sq", "delta_N", "n_photon", "status")
    assert len(table.rows) == 9
    statuses = [row[-1] for row in table.rows]
    assert statuses[4] == "divergent"
    assert all(s == "ok" for i, s in enumerate(statuses) if i != 4)
    divergent_row = table.rows[4]
    assert np.isnan(divergent_row[5]) and np.isnan(divergent_row[6])


def test_entanglement_table(open_params):
    y_c = critical_pump(open_params)
    table = figure_scan(ScanKind.ENTANGLEMENT, open_params,
                        np.linspace(0.0, 0.9 * y_c, 5))
    assert table.columns == ("y", "y_over_yc", "log_negativity", "nu_min",
                             "status")
    assert all(row[-1] == "ok" for row in table.rows)
    assert all(row[2] >= 0.0 for row in table.rows)


def test_spectrum_table(open_params):
    y_c = critical_pump(open_params)
    table = figure_scan(ScanKind.SPECTRUM, open_params,
                        np.linspace(0.0, 1.2 * y_c, 25))
    assert table.columns[0] == "y"
    assert table.columns[-1] == "status"
    assert len(table.rows) == 25
    assert "real_intervals" in table.meta


def test_exponent_table(open_params):
    table = exponent_table(open_params)
    assert table.columns == ("side", "slope", "intercept", "r_squared",
                             "n_points", "window_min", "window_max", "status")
    sides = [row[0] for row in table.rows]
    assert sides == ["below", "above"]
    for row in table.rows:
        assert abs(row[1] + 1.0) <= 0.02


def test_figure_scan_takes_pump_grids_only(open_params):
    with pytest.raises(ValueError, match="exponent_table"):
        figure_scan(ScanKind.EXPONENT, open_params, [0.5, 1.0])


def test_exponent_fit_dataclass_fields():
    fit = ExponentFit(slope=-1.0, intercept=0.5, r_squared=0.9999,
                      window=(1e-6, 1e-2), side=Side.BELOW, n_points=12)
    assert not fit.poor_fit
    bad = ExponentFit(slope=-1.0, intercept=0.5, r_squared=0.99,
                      window=(1e-6, 1e-2), side=Side.BELOW, n_points=12)
    assert bad.poor_fit
