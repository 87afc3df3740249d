"""Cells against the test-only high-precision references (``mp_reference``).

Low pump, kappa > 0: at y/y_c <= 0.05 the atomic mode pair is damped at a
rate Re lambda ~ y^2, and a double-precision eigen-solve resolves that rate,
and with it delta_N and n_photon, only to about
eps * max|lambda| / min|Re lambda| relative, far above the 1e-12 of the
output rule.  A change of the steady-state route may
move these cells, but no cell may end up farther from the 50-digit solve of
the same M than the pinned output below.

Near threshold, kappa = 0: the soft frequency vanishes as sqrt(eps), and the
ground state's cells carry a forward error far above 1e-12.  Over the
``exponent --delta-c=-2 --kappa=0`` window the median and the largest
relative error against the 30-digit Williamson evaluation may not exceed
those of the complex eigen-solve that the symmetric route replaced.  On a
seeded box from 1e-11 off threshold down to 1e-4 y_c, the closed-form ground
state meets the 60-digit Williamson covariance of the same M to 1e-14.

Exceptional points: a refined real-axis endpoint of ``spectrum_scan`` is the
root of the eigenvalue discriminant of the double drift matrix A(y), and lies
within 1e-13 relative of the double y where the 60-digit discriminant of the
same A changes sign.  At u = 0 the same holds for the characteristic
polynomial written from the exact (Delta, omega, g) of ``exact_reference``,
with no matrix of the program.

Entries of M: on a seeded box, ``build_stability_matrix`` meets the exact
(Delta, omega, g) of ``exact_reference``, derived from the model's physics
in the normal phase at every u and in the superradiant phase at u = 0.

Steady state, kappa > 0: the ``ok`` rows of a correlations scan meet the
exact Lyapunov solve of ``exact_reference`` on the same inputs, away from
threshold, within a bound per parameter set.
"""

import contextlib
import csv
import io
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from exact_reference import critical_pump_squared, entries, steady_state
from mp_reference import (discriminant_root, reference_endpoint,
                          reference_ground_covariance,
                          reference_ground_observables, reference_observables)
from opendicke import cli
from opendicke.analysis import ScanKind, Side, depletion_curve, figure_scan
from opendicke.fluctuations import (build_stability_matrix, drift_batch, frame_batch,
                                    observables, spectrum_scan)
from opendicke.groundstate import ground_state_moments
from opendicke.model import ModelParams, critical_pump, mean_field_batch, mean_field_point

ARGV = ["correlations", "--delta-c=-2.0047", "--kappa=2.1802", "--u=0.3221",
        "--y-grid=0.001yc:0.05yc:6"]
# (delta_N, n_photon) of ARGV's rows, CLI output of the complex eigen-solve
# of M.
PINNED = [
    (0.7186484903191163, 2.728443404184584e-07),
    (0.7187117496644622, 3.1828244498670504e-05),
    (0.7188801545269136, 0.00011583326355738636),
    (0.7191538994266793, 0.0002523848175246554),
    (0.719533300565469, 0.00044164063603966325),
    (0.720018796972026, 0.0006838197184538049),
]


@pytest.fixture(scope="module")
def rows():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(ARGV) == 0
    return list(csv.DictReader(io.StringIO(out.getvalue())))


@pytest.mark.parametrize("index", range(len(PINNED)))
def test_low_pump_cells_no_farther_from_reference(rows, index):
    row = rows[index]
    assert row["status"] == "ok"
    p = ModelParams(delta_c=-2.0047, kappa=2.1802, u=0.3221, y=float(row["y"]))
    reference = reference_observables(build_stability_matrix(p).m, p.kappa)
    got = (float(row["delta_N"]), float(row["n_photon"]))
    for value, pinned, ref in zip(got, PINNED[index], reference):
        assert abs(value - ref) <= abs(pinned - ref)


# Median and largest relative error of (delta_N, n_photon) over both sides'
# 40-point window cells at delta_c = -2, u = 0, kappa = 0, from the complex
# eigen-solve of M with nearest-conjugate pairing (4.0800e-13, 7.7311e-11),
# rounded up.
GROUND_MEDIAN = 4.08e-13
GROUND_MAX = 7.74e-11


def test_near_threshold_ground_state_no_farther_from_reference():
    p = ModelParams(delta_c=-2.0, kappa=0.0, u=0.0, y=0.0)
    y_c = critical_pump(p)
    errors = []
    for side, sign in ((Side.BELOW, -1.0), (Side.ABOVE, 1.0)):
        for eps, delta_n, n_photon in depletion_curve(p, side):
            m = build_stability_matrix(p.with_pump(y_c * (1.0 + sign * eps))).m
            ref = reference_ground_observables(m, dps=30)
            errors += [abs(delta_n - ref[0]) / ref[0], abs(n_photon - ref[1]) / ref[1]]
    assert len(errors) == 160
    assert np.median(errors) <= GROUND_MEDIAN
    assert max(errors) <= GROUND_MAX


# Relative distances from threshold of the kappa = 0 box, both sides, down to
# y = 1e-4 y_c; its bound on each cell's error; and its 144 points less the
# eight superradiant rows without a branch.
GROUND_BOX_EPS = np.array([-1e-11, 1e-11, -1e-9, 1e-9, -1e-6, 1e-6,
                           -0.3, -0.9999, 0.5])
GROUND_BOX_TOL = 1e-14
GROUND_BOX_POINTS = 136


def test_ground_state_box_meets_the_60_digit_solve():
    """Over |delta_c| log-uniform in [1e-3, 1e3], u = 0 or uniform in
    [-5, 5], and the pumps (1 + eps) y_c of GROUND_BOX_EPS, the ground state
    meets the 60-digit Williamson covariance of the same M: the quadrature
    covariance within GROUND_BOX_TOL of its largest entry, and delta_N and
    n_photon within GROUND_BOX_TOL relative.  Superradiant rows without a
    branch (u < 0) fail in the mean field and are left out."""
    rng = np.random.default_rng(2027)
    q = np.array([[1, 1, 0, 0], [-1j, 1j, 0, 0],
                  [0, 0, 1, 1], [0, 0, -1j, 1j]]) / np.sqrt(2)
    compared = 0
    for n in range(16):
        base = ModelParams(delta_c=-10.0 ** rng.uniform(-3.0, 3.0), kappa=0.0,
                           u=0.0 if n % 2 == 0 else rng.uniform(-5.0, 5.0), y=0.0)
        grid = (1.0 + GROUND_BOX_EPS) * critical_pump(base)
        mf = mean_field_batch(base, grid)
        for y in grid[mf.errors.alive]:
            p = base.with_pump(y)
            moments = ground_state_moments(p)
            ref = reference_ground_covariance(build_stability_matrix(p).m, dps=60)
            with mp.workdps(60):
                want = np.array([[float(ref[i, j]) for j in range(4)] for i in range(4)])
                want_n = [float((ref[k, k] + ref[k + 1, k + 1] - 1) / 2) for k in (2, 0)]
            raw = q @ moments.s @ q.T
            cov = (0.5 * (raw + raw.T)).real
            assert np.abs(cov - want).max() <= GROUND_BOX_TOL * np.abs(want).max()
            for got, ref_n in zip(observables(moments), want_n):
                assert abs(got - ref_n) <= GROUND_BOX_TOL * ref_n
            compared += 1
    assert compared == GROUND_BOX_POINTS


# (delta_c, kappa, u, pump grid as multiples of y_c): the figure-scan
# workload's seed-1 spectrum set, the u != 0 reference set, and the two
# kappa >> |delta_c| sets of a seeded draw (numpy default_rng(7), sets of
# -10**U(-3, 3), 10**U(-3, 3), U(-5, 5) drawn in that order, the 3rd and the
# 39th) where bisecting the two-real-eigenvalue test was 4.3e-11 off.
ENDPOINT_SETS = [
    (-1.8342596668574498, 1.8947242026384399, 0.0, (1.2, 1201)),
    (-2.0, 2.0, 0.7, (1.2, 241)),
    (-0.0010754539707583221, 84.6000286855887, 2.9706942875204625, (2.0, 241)),
    (-0.0010741704350521954, 32.95072856331991, 3.1052683031724513, (2.0, 241)),
]


@pytest.mark.parametrize("delta_c, kappa, u, grid", ENDPOINT_SETS,
                         ids=["figure-scan", "u=0.7", "draw-3", "draw-39"])
def test_refined_endpoints_at_the_discriminant_root(delta_c, kappa, u, grid):
    p = ModelParams(delta_c=delta_c, kappa=kappa, u=u, y=0.0)
    y = np.linspace(0.0, grid[0] * critical_pump(p), grid[1])
    scan = spectrum_scan(p, y)

    def drift(pump):
        return drift_batch(p, mean_field_batch(p, [pump]))[0]

    ends = [(iv.lower, True) for iv in scan.real_intervals if iv.lower.refined]
    ends += [(iv.upper, False) for iv in scan.real_intervals if iv.upper.refined]
    assert ends
    for end, lower in ends:
        # The grid points around the endpoint, the inside one first: the
        # lower endpoint lies in (outside, inside], the upper in [inside, outside).
        if lower:
            inside, outside = y[y >= end.y][0], y[y < end.y][-1]
        else:
            inside, outside = y[y <= end.y][-1], y[y > end.y][0]
        ref = reference_endpoint(drift, float(inside), float(outside))
        assert abs(end.y - ref) <= 1e-13 * ref


# (delta_c, kappa) at u = 0: the figure-scan workload's seed-1 spectrum set
# and two more.
U0_SETS = [(-1.8342596668574498, 1.8947242026384399), (-2.0, 2.0), (-0.5, 3.0)]


@pytest.mark.parametrize("delta_c, kappa", U0_SETS,
                         ids=["figure-scan", "-2,2", "-0.5,3"])
def test_u0_endpoints_from_the_inputs_alone(delta_c, kappa):
    """Every refined endpoint meets the sign change of the 60-digit
    discriminant of A_c's characteristic polynomial x^4 + 2 kappa x^3
    + (Delta^2 + kappa^2 + omega^2) x^2 + 2 kappa omega^2 x
    + omega (Delta^2 omega + Delta g^2 + kappa^2 omega), its coefficients
    exact from the inputs: the reference takes no M from the program."""
    p = ModelParams(delta_c=delta_c, kappa=kappa, u=0.0, y=0.0)
    y = np.linspace(0.0, 1.2 * critical_pump(p), 1201)
    scan = spectrum_scan(p, y)
    k = Fraction(kappa)

    def charpoly(pump):
        d, w, g = entries(delta_c, kappa, 0.0, pump)
        exact = (1, 2 * k, d * d + k * k + w * w, 2 * k * w * w,
                 w * (d * d * w + d * g * g + k * k * w))
        return [mp.mpf(c.numerator) / c.denominator for c in map(Fraction, exact)]

    ends = [(iv.lower, True) for iv in scan.real_intervals if iv.lower.refined]
    ends += [(iv.upper, False) for iv in scan.real_intervals if iv.upper.refined]
    assert ends
    for end, lower in ends:
        if lower:
            inside, outside = y[y >= end.y][0], y[y < end.y][-1]
        else:
            inside, outside = y[y <= end.y][-1], y[y > end.y][0]
        ref = discriminant_root(charpoly, float(inside), float(outside))
        assert abs(end.y - ref) <= 1e-13 * ref


def test_stability_entries_meet_the_exact_reference():
    """Re M00 = -kappa, Im M00 = Delta, M20 = -conj(M02) and Re M22 = 0
    exactly; -Im M22 = omega and |2 M02| = g within 4 eps relative, times
    y^2 / y_c^2 above threshold, where 1 - 2 beta0^2 = y_c^2 / y^2 is the
    difference of two numbers near 1.  The frame's (Delta, omega, |g|) meet
    the same bounds."""
    eps = Fraction(np.finfo(float).eps)
    rng = np.random.default_rng(20111014)
    for _ in range(2000):
        delta_c = -10.0 ** rng.uniform(-3.0, 3.0)
        kappa = 0.0 if rng.uniform() < 0.2 else 10.0 ** rng.uniform(-3.0, 3.0)
        above = rng.uniform() < 0.5
        u = 0.0 if above else rng.uniform(-5.0, 5.0)
        p = ModelParams(delta_c=delta_c, kappa=kappa, u=u, y=0.0)
        p = p.with_pump((rng.uniform(1.01, 3.0) if above else rng.uniform(0.0, 0.99))
                        * critical_pump(p))
        m = build_stability_matrix(p).m
        delta, omega, g = entries(p.delta_c, p.kappa, p.u, p.y)
        assert (m[0, 0].real, m[0, 0].imag) == (-kappa, delta), p
        assert m[2, 0] == -np.conj(m[0, 2]) and m[2, 2].real == 0.0, p
        y_sq = Fraction(p.y) ** 2
        tol = 4 * eps * max(1, y_sq / critical_pump_squared(delta_c, kappa))
        assert abs(Fraction(-m[2, 2].imag) - omega) <= tol * omega, p
        assert abs(Fraction(float(abs(2 * m[0, 2]))) - g) <= tol * g, p
        f_delta, f_omega, f_g = (x[0] for x in frame_batch(p, mean_field_point(p)))
        assert f_delta == delta, p
        assert abs(Fraction(f_omega) - omega) <= tol * omega, p
        assert abs(Fraction(float(abs(f_g))) - g) <= tol * g, p


# (delta_c, kappa, u, bound): the U0_SETS on both sides of threshold, normal-
# phase sets at u != 0, and weak damping at u = 0.  Each bound is about three
# times the largest relative error of delta_N and n_photon measured on its
# grid.  The weak-damping bounds (kappa/|delta_c| = 1e-3 and 1e-6, and
# (-0.0156, 0.02, 2.2)) reflect today's eigenmode route, which resolves the
# damping rate of a slow pair only to eps max|lambda| / min|Re lambda|;
# ROADMAP item 14's closed form is what must tighten them.
STEADY_SETS = [
    (*U0_SETS[0], 0.0, 2e-12),       # measured 4.7e-13
    (*U0_SETS[1], 0.0, 2e-12),       # 5.5e-13
    (*U0_SETS[2], 0.0, 2e-12),       # 3.7e-13
    (-2.0, 2.0, 0.7, 3e-12),         # 9.2e-13
    (-0.21526, 0.3, 3.2521, 5e-11),  # 1.6e-11
    (-50.0, 40.0, -1.5, 2e-11),      # 5.8e-12
    (-0.0156, 0.02, 2.2, 1e-8),      # 3.4e-9
    (-2.0, 2e-3, 0.0, 2e-10),        # 6.9e-11
    (-2.0, 2e-6, 0.0, 3e-8),         # 8.7e-9
]


@pytest.mark.parametrize("delta_c, kappa, u, bound", STEADY_SETS)
def test_steady_state_rows_meet_the_exact_lyapunov_solve(delta_c, kappa, u, bound):
    """Every ``ok`` row with |1 - y/y_c| >= 1e-2 of 61 pumps on [0, 2 y_c]
    (u = 0, both phases) or [0, y_c] (u != 0, normal phase only) is within
    ``bound`` relative of the exact delta_N and n_photon.  The y = 0 row is
    left out: the Lyapunov equation leaves its undamped atom pair open."""
    p = ModelParams(delta_c=delta_c, kappa=kappa, u=u, y=0.0)
    y_c = critical_pump(p)
    table = figure_scan(ScanKind.MEAN_AND_FLUCT, p,
                        np.linspace(0.0, (2.0 if u == 0.0 else 1.0) * y_c, 61))
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    rows = [r for r in rows if r["status"] == "ok" and r["y"] > 0.0
            and abs(1.0 - r["y"] / y_c) >= 1e-2]
    assert len(rows) >= 50
    for r in rows:
        delta_n, n_photon = steady_state(delta_c, kappa, u, r["y"])
        assert abs(Fraction(r["delta_N"]) - delta_n) <= bound * abs(delta_n), r
        assert abs(Fraction(r["n_photon"]) - n_photon) <= bound * abs(n_photon), r
