"""Mean-field solutions: thresholds, closed forms, residuals, phase labels."""

import decimal
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import at_ratio
from opendicke.analysis import ScanKind, figure_scan
from opendicke.errors import DegenerateBranch, NoThreshold
from opendicke.model import (ModelParams, Phase, critical_pump,
                             mean_field_batch, mean_field_residuals,
                             solve_mean_field)


def test_critical_pump_closed_form(open_params, closed_params):
    # y_c = sqrt(-(delta_c^2 + kappa^2) / delta_c) in recoil units
    assert critical_pump(closed_params) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert critical_pump(open_params) == pytest.approx(2.0, abs=1e-15)
    p = ModelParams(delta_c=-3.0, kappa=1.5, u=0.5, y=0.0)
    assert critical_pump(p) == pytest.approx(math.sqrt((9.0 + 2.25) / 3.0),
                                             rel=1e-15)


def test_critical_pump_ignores_u_and_y(open_params):
    for u in (0.0, 0.5, 2.0):
        p = ModelParams(delta_c=-2.0, kappa=2.0, u=u, y=1.3)
        assert critical_pump(p) == critical_pump(open_params)


def test_no_threshold_for_nonnegative_detuning():
    for delta_c in (0.0, 1.0):
        with pytest.raises(NoThreshold):
            critical_pump(ModelParams(delta_c=delta_c, kappa=1.0, u=0.0, y=0.0))


def test_critical_pump_overflow_is_a_value_error():
    # delta_c^2 overflows (OverflowError), or the sum of squares does (inf)
    for delta_c, kappa in ((-1e300, 1e300), (-1.5e154, 0.0), (-1e154, 1e154)):
        p = ModelParams(delta_c=delta_c, kappa=kappa, u=0.0, y=0.0)
        with pytest.raises(ValueError, match=re.escape(
                f"delta_c = {delta_c!r}, kappa = {kappa!r}")):
            critical_pump(p)
    p = ModelParams(delta_c=-1e150, kappa=1e150, u=0.0, y=0.0)
    assert critical_pump(p) == math.sqrt(-(1e300 + 1e300) / -1e150)


def test_critical_pump_underflow_is_a_value_error():
    # delta_c^2 + kappa^2 below the smallest normal double
    for delta_c in (-1e-300, -1e-160, -1e-155):
        p = ModelParams(delta_c=delta_c, kappa=0.0, u=0.0, y=0.0)
        with pytest.raises(ValueError, match=re.escape(
                f"critical pump underflows for delta_c = {delta_c!r}, "
                "kappa = 0.0")):
            critical_pump(p)
    # a normal sum keeps its bits
    p = ModelParams(delta_c=-1e-150, kappa=0.0, u=0.0, y=0.0)
    assert critical_pump(p) == math.sqrt(-(1e-150 ** 2 + 0.0 ** 2) / -1e-150)
    p = ModelParams(delta_c=-1e-200, kappa=1.0, u=0.0, y=0.0)
    assert critical_pump(p) == 1e100


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(delta_c=-2.0, kappa=-0.1, u=0.0, y=0.0)
    with pytest.raises(ValueError):
        ModelParams(delta_c=-2.0, kappa=1.0, u=0.0, y=-0.5)
    with pytest.raises(ValueError):
        ModelParams(delta_c=float("nan"), kappa=1.0, u=0.0, y=0.0)


def test_with_pump_returns_new_instance(open_params):
    p = open_params.with_pump(1.5)
    assert p.y == 1.5 and open_params.y == 0.0
    assert p.delta_c == open_params.delta_c


def test_normal_phase_below_threshold(open_params):
    mf = solve_mean_field(at_ratio(open_params, 0.9))
    assert mf.phase is Phase.NORMAL
    assert mf.alpha0 == 0.0 and mf.beta0 == 0.0
    assert mf.mu == pytest.approx(-0.5, abs=1e-15)


def test_superradiant_closed_form_u_zero(open_params):
    # At u=0: beta0^2 = (y^2 - y_c^2) / (2 y^2); for y = 1.5 y_c this is 5/18,
    # and alpha0 = -y beta0 sqrt(1-beta0^2) / (i delta_c - kappa) = sqrt(65)(1-1j)/24.
    mf = solve_mean_field(at_ratio(open_params, 1.5))
    assert mf.phase is Phase.SUPERRADIANT
    assert mf.beta0 ** 2 == pytest.approx(5.0 / 18.0, abs=1e-15)
    expected = math.sqrt(65.0) * (1.0 - 1.0j) / 24.0
    assert mf.alpha0 == pytest.approx(expected, abs=1e-14)


def test_superradiant_residuals_u_zero(open_params):
    p = at_ratio(open_params, 1.5)
    mf = solve_mean_field(p)
    r_alpha, r_beta = mean_field_residuals(p, mf.alpha0, mf.beta0)
    assert abs(r_alpha) < 1e-12 and abs(r_beta) < 1e-12


def test_superradiant_residuals_with_collisions():
    p = ModelParams(delta_c=-2.0, kappa=2.0, u=0.5, y=0.0)
    p = at_ratio(p, 1.3)
    mf = solve_mean_field(p)
    r_alpha, r_beta = mean_field_residuals(p, mf.alpha0, mf.beta0)
    assert abs(r_alpha) < 1e-12 and abs(r_beta) < 1e-12
    assert 0.0 < mf.beta0 ** 2 < 0.5


def test_residuals_reject_beta0_of_one(open_params):
    with pytest.raises(DegenerateBranch) as info:
        mean_field_residuals(open_params, 0j, 1.0)
    assert type(info.value) is DegenerateBranch
    assert info.value.args == ("beta0 = 1 is outside the two-mode expansion",)


def test_order_parameter_continuous_at_threshold(open_params):
    mf = solve_mean_field(at_ratio(open_params, 1.0001))
    assert 0.0 < mf.beta0 ** 2 < 5e-4


def test_mean_field_curve_structure(open_params):
    y_c = critical_pump(open_params)
    grid = np.linspace(0.0, 2.0 * y_c, 41)
    table = figure_scan(ScanKind.MEAN_FIELD, open_params, grid)
    assert table.columns == ("y", "y_over_yc", "alpha0_sq", "beta0_sq", "status")
    assert len(table.rows) == 41
    y, _, alpha0_sq, beta0_sq, _ = map(np.array, zip(*table.rows))
    below = y <= y_c
    assert np.all(beta0_sq[below] == 0.0)
    assert np.all(alpha0_sq[below] == 0.0)
    assert np.all(beta0_sq[~below] > 0.0)


@settings(max_examples=40, deadline=None)
@given(delta_c=st.floats(-4.0, -0.5), kappa=st.floats(0.0, 4.0),
       u=st.sampled_from([0.0, 0.5]),
       ratio=st.floats(0.0, 2.0).filter(lambda r: abs(r - 1.0) > 1e-3))
def test_residuals_vanish_at_any_solution(delta_c, kappa, u, ratio):
    p = ModelParams(delta_c=delta_c, kappa=kappa, u=u, y=0.0)
    p = at_ratio(p, ratio)
    mf = solve_mean_field(p)
    r_alpha, r_beta = mean_field_residuals(p, mf.alpha0, mf.beta0)
    assert abs(r_alpha) < 1e-12
    assert abs(r_beta) < 1e-12


def test_residual_tolerance_scales_with_terms():
    # terms of 3.8e4: rounding leaves an absolute residual of 7.3e-12, which
    # the absolute 1e-12 tolerance rejected
    p = ModelParams(delta_c=-0.0006143435497894374, kappa=6238.16903214622,
                    u=1.6669718762316776, y=339770.1762731312)
    mf = solve_mean_field(p)
    assert mf.phase is Phase.SUPERRADIANT
    r_alpha, r_beta = mean_field_residuals(p, mf.alpha0, mf.beta0)
    terms = abs((1j * (p.delta_c - p.u * mf.beta0 ** 2) - p.kappa) * mf.alpha0)
    assert abs(r_alpha) <= 1e-15 * terms
    assert abs(r_beta) <= 1e-12


def test_order_parameter_without_cancellation():
    # ratio = u/delta_c (y^2 - y_c^2)/(y^2 + u) ~ 1e-4: delta_c/u (1 - sqrt(1 -
    # ratio)) lost four digits and failed the residual check
    p = ModelParams(delta_c=-3.12157, kappa=1.45292, u=1.973e-4, y=3.62067)
    mf = solve_mean_field(p)
    r_alpha, r_beta = mean_field_residuals(p, mf.alpha0, mf.beta0)
    assert abs(r_alpha) < 1e-15 and abs(r_beta) < 1e-15
    with decimal.localcontext(decimal.Context(prec=50)):
        dc, u, y = (decimal.Decimal(v) for v in (p.delta_c, p.u, p.y))
        y_c = decimal.Decimal(critical_pump(p))
        ratio = u / dc * (y ** 2 - y_c ** 2) / (y ** 2 + u)
        exact = float(dc / u * (1 - (1 - ratio).sqrt()))
    assert mf.beta0 ** 2 == pytest.approx(exact, rel=1e-14)


def test_mean_field_batch_rejects_what_model_params_rejects(open_params):
    """Every grid enters through mean_field_batch, which names the first pump
    value that ModelParams would reject."""
    for grid, bad in (([1.0, -2.0, math.nan], "-2.0"), ([0.0, math.nan], "nan"),
                      ([0.0, math.inf, -1.0], "inf")):
        with pytest.raises(ValueError, match=f"finite and >= 0, got {bad}$"):
            mean_field_batch(open_params, grid)
        with pytest.raises(ValueError):
            open_params.with_pump(float(bad))
    assert mean_field_batch(open_params, [0.0, 1.0]).errors.failed == 0
