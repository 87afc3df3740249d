"""Release acceptance checks.

One test per acceptance criterion, each asserting the stated tolerance (and
runtime budget where one applies), so `pytest -v tests/test_acceptance.py`
prints one pass/fail line per criterion.

The exponent checks (test_01, test_02) fit delta_N = a * eps**nu + b and
assert on nu, the exponent of the singular part.  For the closed system b
is about -0.34 below and -0.32 above threshold; a straight line through
(ln eps, ln delta_N) absorbs it into the slope and gives -0.5237 above
threshold over the required window [e^-14, e^-5].
"""

import time

import numpy as np
import pytest

from opendicke import cli
from opendicke.analysis import ScanKind, Side, critical_exponent, figure_scan
from opendicke.entanglement import log_negativity, quad_covariance
from opendicke.errors import (DefectiveMatrix, DivergentSteadyState,
                              DynamicalInstability, UnstableState)
from opendicke.fluctuations import (build_stability_matrix, decompose,
                                    mode_correlations, observables,
                                    spectrum_scan, steady_state_moments,
                                    system_moments)
from opendicke.groundstate import ground_state_moments
from opendicke.model import ModelParams, critical_pump
from opendicke.oracle import fock_ground_state, lyapunov_moments

OPEN = ModelParams(delta_c=-2.0, kappa=2.0, u=0.0, y=0.0)
CLOSED = ModelParams(delta_c=-2.0, kappa=0.0, u=0.0, y=0.0)


def test_01_open_system_critical_exponent():
    start = time.perf_counter()
    below = critical_exponent(OPEN, Side.BELOW)
    above = critical_exponent(OPEN, Side.ABOVE)
    elapsed = time.perf_counter() - start
    assert abs(below.slope - (-1.0)) <= 0.02, f"below: {below.slope}"
    assert abs(above.slope - (-1.0)) <= 0.02, f"above: {above.slope}"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_02_closed_system_critical_exponent():
    start = time.perf_counter()
    below = critical_exponent(CLOSED, Side.BELOW)
    above = critical_exponent(CLOSED, Side.ABOVE)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    assert abs(below.slope - (-0.5)) <= 0.02, f"below: {below.slope}"
    # the regular background b ~ -0.32 is fitted separately (module docstring)
    assert abs(above.slope - (-0.5)) <= 0.02, f"above: {above.slope}"


def test_03_mean_field_curves_coincide():
    ratios = np.linspace(0.0, 2.0, 200)
    curves = {}
    for kappa in (0.0, 2.0):
        params = ModelParams(delta_c=-2.0, kappa=kappa, u=0.0, y=0.0)
        y_c = critical_pump(params)
        table = figure_scan(ScanKind.MEAN_FIELD, params, ratios * y_c)
        assert all(row[-1] == "ok" for row in table.rows)
        curves[kappa] = {name: np.array(column)
                         for name, column in zip(table.columns, zip(*table.rows))}
    for column in ("beta0_sq", "alpha0_sq"):
        diff = np.max(np.abs(curves[0.0][column] - curves[2.0][column]))
        assert diff <= 1e-12, f"{column}: max pointwise diff {diff:.3e}"


def test_04_eigenmode_formula_matches_lyapunov_oracle():
    rng = np.random.default_rng(20260815)
    start = time.perf_counter()
    accepted = 0
    draws = 0
    worst = 0.0
    while accepted < 100:
        draws += 1
        assert draws < 1000, "rejection rate unexpectedly high"
        delta_c = rng.uniform(-4.0, -0.5)
        kappa = rng.uniform(0.1, 4.0)
        u = float(rng.choice([0.0, 0.5]))
        base = ModelParams(delta_c=delta_c, kappa=kappa, u=u, y=0.0)
        y_c = critical_pump(base)
        if rng.uniform() < 0.5:
            y = rng.uniform(0.0, 0.98) * y_c
        else:
            y = rng.uniform(1.02, 2.0) * y_c
        p = base.with_pump(y)
        try:
            stability = build_stability_matrix(p)
            q = decompose(stability)
            if max(lam.real for lam in q.lambdas) >= -1e-9:
                continue
            s_modes = system_moments(q, mode_correlations(q))
            s_oracle = lyapunov_moments(stability)
        except (DefectiveMatrix, UnstableState, DivergentSteadyState,
                DynamicalInstability):
            continue
        worst = max(worst, float(np.max(np.abs(s_modes.s - s_oracle.s))))
        accepted += 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, f"worst entrywise difference {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.1f} s"


def test_05_ground_state_matches_fock_oracle():
    y_c = critical_pump(CLOSED)
    start = time.perf_counter()
    for ratio in np.linspace(0.1, 0.9, 10):
        p = CLOSED.with_pump(ratio * y_c)
        delta_n, n_photon = observables(ground_state_moments(p))
        fock = fock_ground_state(p, cutoffs=(60, 60))
        assert fock.convergence <= 1e-3
        assert delta_n == pytest.approx(fock.delta_n, rel=1e-3, abs=1e-9), \
            f"delta_N at y = {ratio} y_c"
        assert n_photon == pytest.approx(fock.n_photon, rel=1e-3, abs=1e-9), \
            f"n_photon at y = {ratio} y_c"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_06_spectrum_start_and_defective_interval_endpoints():
    q = decompose(build_stability_matrix(OPEN))
    expected = sorted([-2.0 - 2.0j, -2.0 + 2.0j, -1.0j, 1.0j],
                      key=lambda z: (z.real, z.imag))
    got = sorted(q.lambdas, key=lambda z: (z.real, z.imag))
    for g, e in zip(got, expected):
        assert abs(g - e) <= 1e-12, f"eigenvalue {g} vs {e} at y=0"

    y_c = critical_pump(OPEN)
    scan = spectrum_scan(OPEN, np.linspace(0.0, 1.2 * y_c, 241))
    assert len(scan.real_intervals) == 1, "expected one real-axis interval"
    interval = scan.real_intervals[0]
    assert np.isfinite(interval.lower.y) and np.isfinite(interval.upper.y)
    assert interval.upper.y > interval.lower.y
    # the interval opens strictly inside (0, y_c); it closes on the
    # superradiant branch above y_c since Im lambda_- = 0 at y_c itself
    assert 0.0 < interval.lower.y < y_c
    for endpoint in (interval.lower, interval.upper):
        assert endpoint.defective, f"endpoint y = {endpoint.y} not defective"
        p = OPEN.with_pump(endpoint.y)
        with pytest.raises(DefectiveMatrix):
            decompose(build_stability_matrix(p))


def test_07_entanglement_regular_in_steady_state_growing_in_ground_state():
    distances = (1e-5, 1e-6, 1e-7)
    steady = []
    ground = []
    for eps in distances:
        p = OPEN.with_pump(critical_pump(OPEN) * (1.0 - eps))
        steady.append(log_negativity(quad_covariance(
            steady_state_moments(p))))
        p = CLOSED.with_pump(critical_pump(CLOSED) * (1.0 - eps))
        ground.append(log_negativity(quad_covariance(ground_state_moments(p))))
    spread = max(steady) - min(steady)
    assert spread < 1e-3, f"steady-state E_N drifts by {spread:.3e}"
    assert steady[-1] < 10.0, f"steady-state E_N {steady[-1]} unbounded"
    assert ground[0] < ground[1] < ground[2], \
        f"ground-state E_N not increasing: {ground}"


def test_08_invariant_suite_all_green(capsys):
    code = cli.run(["verify", "--delta-c=-2", "--kappa=2", "--u=0",
                    "--y=0.9yc"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "13/13 checks passed" in out
    for name in ("biorthonormality", "completeness", "m_conjugation_symmetry",
                 "commutator_preservation", "covariance_physicality",
                 "tmsv_closed_form", "exponent_fit_synthetic_inverse",
                 "exponent_fit_synthetic_power"):
        assert f"PASS  {name}" in out, f"missing PASS line for {name}"
