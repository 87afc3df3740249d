"""Low-pump cells against the 50-digit reference (``mp_reference``).

At y/y_c <= 0.05 the atomic mode pair is damped at a rate Re lambda ~ y^2,
and a double-precision eigen-solve resolves that rate, and with it delta_N
and n_photon, only to about eps * max|lambda| / min|Re lambda| relative, far
above the 1e-12 of the output rule.  A change of the steady-state route may
move these cells, but no cell may end up farther from the 50-digit solve of
the same M than the pinned output below.
"""

import contextlib
import csv
import io

import pytest

from mp_reference import reference_observables
from opendicke import cli
from opendicke.fluctuations import build_stability_matrix
from opendicke.model import ModelParams

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
