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
those of the complex eigen-solve that the symmetric route replaced.

Exceptional points: a refined real-axis endpoint of ``spectrum_scan`` is the
root of the eigenvalue discriminant of the double drift matrix A(y), and lies
within 1e-13 relative of the double y where the 60-digit discriminant of the
same A changes sign.
"""

import contextlib
import csv
import io

import numpy as np
import pytest

from mp_reference import (reference_endpoint, reference_ground_observables,
                          reference_observables)
from opendicke import cli
from opendicke.analysis import Side, depletion_curve
from opendicke.fluctuations import build_stability_matrix, drift_batch, spectrum_scan
from opendicke.model import ModelParams, critical_pump, mean_field_batch

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
