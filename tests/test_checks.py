"""Row checks on hand-built stacks: a row that fails two checks of one stage
keeps the first, the shared commutator checker fails exactly the bad rows of
a stack with the message the routes report, and the Fock oracle's own
Hermiticity check names the defect of a perturbed coefficient matrix."""

import numpy as np
import pytest

from opendicke import fluctuations, oracle
from opendicke.errors import (DefectiveMatrix, NumericalFailure, RowErrors,
                              UnstableState)
from opendicke.fluctuations import (SecondMoments, StabilityMatrix,
                                    build_stability_matrix, check_commutators,
                                    decompose, observables)
from opendicke.model import ModelParams, critical_pump
from opendicke.oracle import fock_ground_state

OPEN = ModelParams(delta_c=-2.0, kappa=2.0, u=0.0, y=0.0)


def _near_defective_unpaired() -> StabilityMatrix:
    # cond(V) of 3.8e6 passes the defect screen but leaves a
    # biorthonormality residual above 1e-10, and -2 + 5i has no conjugate.
    rng = np.random.default_rng(3)
    for _ in range(3):
        v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        v[:, 1] = v[:, 0] + 10 ** rng.uniform(-7, -5) * v[:, 1]
    lam = np.array([-1 - 1j, -1 + 1j, -2 - 3j, -2 + 5j])
    return StabilityMatrix(m=v @ np.diag(lam) @ np.linalg.inv(v), params=OPEN)


def test_decompose_reports_residual_before_missing_partner(monkeypatch):
    stability = _near_defective_unpaired()
    with pytest.raises(DefectiveMatrix, match="^biorthonormalization residual "):
        decompose(stability)
    # The same row fails the pairing check once the residual check passes it.
    monkeypatch.setattr(fluctuations, "BIORTHO_TOL", 1.0)
    with pytest.raises(NumericalFailure, match="has no conjugate partner"):
        decompose(stability)


def _moments(r32: complex, r10: complex) -> SecondMoments:
    s = np.zeros((4, 4), dtype=complex)
    s[0, 1] = s[2, 3] = 1.0
    s[3, 2], s[1, 0] = r32, r10
    return SecondMoments(s=s)


@pytest.mark.parametrize("r32, r10, message", [
    (-0.5, 0.001j, "<R_3 R_2> = (-0.5+0j) is negative"),
    (-0.5 + 0.001j, 0.001j,
     "<R_3 R_2> = (-0.5+0.001j) has imaginary residue beyond 1e-10"),
    (0.25, -0.5 + 0.001j,
     "<R_1 R_0> = (-0.5+0.001j) has imaginary residue beyond 1e-10"),
])
def test_observables_keep_the_first_failing_check(r32, r10, message):
    with pytest.raises(NumericalFailure) as info:
        observables(_moments(r32, r10))
    assert str(info.value) == message


def _earlier_failure() -> RowErrors:
    """Errors of a 3-row stack whose row 2 has already failed."""
    errors = RowErrors(3)
    errors.fail(np.array([False, False, True]), lambda i: UnstableState("earlier"))
    return errors


def test_fock_oracle_rejects_a_non_hermitian_coefficient_matrix(monkeypatch):
    closed = ModelParams(delta_c=-2.0, kappa=0.0, u=0.7, y=0.0)
    p = closed.with_pump(0.5 * critical_pump(closed))
    m = build_stability_matrix(p).m.copy()
    # M[0, 1] is 0, so h = i eta M gains 1e-3 at (0, 1) and nowhere else.
    assert m[0, 1] == 0.0
    m[0, 1] = -1e-3j
    monkeypatch.setattr(oracle, "build_stability_matrix",
                        lambda params: StabilityMatrix(m=m, params=params))
    with pytest.raises(NumericalFailure) as info:
        fock_ground_state(p)
    assert type(info.value) is NumericalFailure
    assert str(info.value) == "coefficient matrix not Hermitian (defect 1.000e-03)"


def test_check_commutators_fail_the_bad_rows():
    s = np.zeros((3, 4, 4), dtype=complex)
    s[:, 0, 1] = s[:, 2, 3] = 1.0
    s[1, 2, 3] = 1.5
    s[2, 0, 1], s[2, 2, 3] = 2.0, 3.0
    scale = np.abs(s).max(axis=(1, 2))

    errors = _earlier_failure()
    earlier = errors.errors[2]
    check_commutators(s, scale, errors)
    assert errors.alive.tolist() == [True, False, False]
    assert errors.failed == 2 and errors.errors[0] is None
    assert type(errors.errors[1]) is NumericalFailure
    assert str(errors.errors[1]) == ("commutator [R_2, R_3] = (1.5+0j) deviates "
                                     "from 1 beyond 1e-08")
    assert errors.errors[2] is earlier

    # A row with both commutators off names the first.
    errors = RowErrors(3)
    check_commutators(s, scale, errors)
    assert errors.alive.tolist() == [True, False, False]
    assert str(errors.errors[2]) == ("commutator [R_0, R_1] = (2+0j) deviates "
                                     "from 1 beyond 1e-08")
