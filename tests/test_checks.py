"""Row checks on hand-built stacks: a row that fails two checks of one stage
keeps the first, in the decomposition, the mode correlations, the moment
reassembly and the observables; the shared commutator checker fails exactly
the bad rows of a stack with the message the routes report; a NaN or
infinite moment fails the moment or observable checks; and the Fock
oracle's own Hermiticity check names the defect of a perturbed coefficient
matrix."""

import numpy as np
import pytest

from opendicke import fluctuations, oracle
from opendicke.entanglement import covariance_batch
from opendicke.errors import (DefectiveMatrix, DivergentSteadyState,
                              NumericalFailure, RowErrors, UnstableState)
from opendicke.fluctuations import (SecondMoments, StabilityMatrix,
                                    _correlation_batch, _moment_batch,
                                    build_stability_matrix, check_commutators,
                                    decompose, hermitize_moments, observables)
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
    errors.fail(np.array([False, False, True]), UnstableState, lambda i: "earlier")
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
    check_commutators(s, scale, errors)
    assert errors.alive.tolist() == [True, False, False]
    assert errors.failed == 2 and 0 not in errors.pending
    assert type(errors.error(1)) is NumericalFailure
    assert str(errors.error(1)) == ("commutator [R_2, R_3] = (1.5+0j) deviates "
                                    "from 1 beyond 1e-08")
    assert repr(errors.error(2)) == "UnstableState('earlier')"
    assert errors.status == ["ok", "failed", "unstable"]

    # A row with both commutators off names the first.
    errors = RowErrors(3)
    check_commutators(s, scale, errors)
    assert errors.alive.tolist() == [True, False, False]
    assert str(errors.error(2)) == ("commutator [R_0, R_1] = (2+0j) deviates "
                                    "from 1 beyond 1e-08")


def test_moment_checks_keep_the_first_failing_check():
    """One stack through the moment reassembly: the adjoint-symmetry check
    comes before both commutators, [R_0, R_1] before [R_2, R_3], and a row
    that had already failed keeps its error."""
    s = np.zeros((5, 4, 4), dtype=complex)
    s[:, 0, 1] = s[:, 2, 3] = 1.0
    s[1, 0, 1] = 1.0 + 1.0j     # adjoint symmetry and [R_0, R_1] off
    s[2, 2, 3] = 1.5            # [R_2, R_3] off
    s[3, 0, 1], s[3, 2, 3] = 2.0, 3.0
    s[4, 0, 1] = 1.0 + 1.0j
    errors = RowErrors(5)
    errors.fail(np.arange(5) == 4, UnstableState, lambda i: "earlier")

    # With unit right eigenvectors the reassembled moments are s itself.
    got = _moment_batch(np.broadcast_to(np.eye(4), s.shape), s, errors)
    assert got.tobytes() == hermitize_moments(s).tobytes()
    assert errors.alive.tolist() == [True, False, False, False, False]
    assert all(type(errors.error(i)) is NumericalFailure for i in (1, 2, 3))
    assert [str(errors.error(i)) for i in (1, 2, 3)] == [
        "moment matrix violates adjoint symmetry by 2.000e+00 "
        "(tolerance 1.41421e-06)",
        "commutator [R_2, R_3] = (1.5+0j) deviates from 1 beyond 1e-08",
        "commutator [R_0, R_1] = (2+0j) deviates from 1 beyond 1e-08"]
    assert repr(errors.error(4)) == "UnstableState('earlier')"


def test_correlation_checks_keep_the_first_failing_check():
    """A growing mode is reported before an undamped noise-driven pair of the
    same row; a row with only that pair diverges, and a stable row stays."""
    lam = np.array([[1.0, -1.0, -2.0, -3.0],      # growing, and 1 - 1 = 0
                    [1j, -1j, -2.0, -3.0],        # undamped pair 1j - 1j = 0
                    [-1.0, -2.0, -3.0, -4.0]])
    lefts = np.ones((3, 4, 4), dtype=complex)
    errors = RowErrors(3)
    got = _correlation_batch(lam, lefts, 2.0, np.full(3, 4.0), errors)
    assert errors.alive.tolist() == [False, False, True]
    assert type(errors.error(0)) is UnstableState
    assert str(errors.error(0)).startswith("growing quasi-normal modes")
    assert type(errors.error(1)) is DivergentSteadyState
    assert str(errors.error(1)).startswith(
        "undamped noise-driven mode pairs [(0, 1), (1, 0)]")
    np.testing.assert_array_equal(got[2], -4.0 / (lam[2][:, None] + lam[2]))


def test_non_finite_moments_fail_their_checks():
    """A NaN <R_3 R_2> fails the observables under its own name, and a NaN
    or infinite moment that no observable reads fails the moment reassembly
    on adjoint symmetry; a clean row stays alive through both."""
    s = np.zeros((3, 4, 4), dtype=complex)
    s[:, 0, 1] = s[:, 2, 3] = 1.0
    s[1, 3, 2] = np.nan
    errors = RowErrors(2)
    delta_n, n_photon = fluctuations.observables_batch(s[:2], errors)
    assert errors.alive.tolist() == [True, False]
    assert type(errors.error(1)) is NumericalFailure
    assert str(errors.error(1)).startswith("<R_3 R_2> = (nan+0j) ")
    assert (delta_n[0], n_photon[0]) == (0.0, 0.0)

    s[1, 3, 2] = 0.0
    s[1, 0, 2], s[2, 0, 2] = np.nan, np.inf      # <R_0 R_2>
    errors = RowErrors(3)
    # The infinite entry times the zeros of the identity is a NaN, and numpy
    # warns of it.
    with np.errstate(invalid="ignore"):
        got = _moment_batch(np.broadcast_to(np.eye(4), s.shape), s, errors)
    assert errors.alive.tolist() == [True, False, False]
    for i in (1, 2):
        assert type(errors.error(i)) is NumericalFailure
        assert str(errors.error(i)).startswith(
            "moment matrix violates adjoint symmetry by ")
    assert got[0].tobytes() == hermitize_moments(s[0]).tobytes()


def test_an_infinite_commutator_fails_its_row():
    """An infinite <R_2 R_3> makes the scale, and with it the tolerance,
    infinite; the commutator still fails."""
    s = np.zeros((2, 4, 4), dtype=complex)
    s[:, 0, 1] = s[:, 2, 3] = 1.0
    s[1, 2, 3] = np.inf
    errors = RowErrors(2)
    check_commutators(s, np.abs(s).max(axis=(1, 2)), errors)
    assert errors.status == ["ok", "failed"]
    assert str(errors.error(1)) == ("commutator [R_2, R_3] = (inf+0j) deviates "
                                    "from 1 beyond inf")


def test_an_infinite_observable_fails_its_row():
    s = np.zeros((2, 4, 4), dtype=complex)
    s[1, 3, 2] = np.inf
    errors = RowErrors(2)
    delta_n, _ = fluctuations.observables_batch(s, errors)
    assert errors.status == ["ok", "failed"]
    assert str(errors.error(1)) == "<R_3 R_2> = (inf+0j) is not finite"
    assert delta_n[0] == 0.0


def test_a_nan_covariance_fails_before_its_determinants():
    """A NaN <R_0 R_2> fails the covariance check, so that the determinants
    never see it (every warning is an error); a vacuum row stays."""
    s = np.zeros((2, 4, 4), dtype=complex)
    s[:, 0, 1] = s[:, 2, 3] = 1.0
    s[1, 0, 2] = np.nan
    errors = RowErrors(2)
    _, _, nu_min = covariance_batch(s, errors)
    assert errors.status == ["ok", "failed"]
    assert str(errors.error(1)) == "covariance has a NaN or infinite entry"
    assert nu_min[0] == pytest.approx(0.5)
