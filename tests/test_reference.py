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
"""

import contextlib
import csv
import io

import numpy as np
import pytest

from mp_reference import reference_ground_observables, reference_observables
from opendicke import cli
from opendicke.analysis import Side, depletion_curve
from opendicke.fluctuations import build_stability_matrix
from opendicke.model import ModelParams, critical_pump

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
