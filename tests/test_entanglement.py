"""Quadrature covariance and logarithmic negativity between cavity and atoms."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import at_ratio
from opendicke.basis import OMEGA_SYMPL, QUAD_MAP
from opendicke.entanglement import (_symplectic_min, log_negativity,
                                    pt_nu_minus, pt_symplectic_min,
                                    quad_covariance, symplectic_eigenvalues,
                                    symplectic_min,
                                    two_mode_squeezed_covariance)
from opendicke.errors import NumericalFailure, RowErrors
from opendicke.fluctuations import SecondMoments, steady_state_moments
from opendicke.groundstate import ground_state_moments
from opendicke.model import ModelParams


def _vacuum_moments() -> np.ndarray:
    s = np.zeros((4, 4), dtype=complex)
    s[0, 1] = 1.0
    s[2, 3] = 1.0
    return s


def test_vacuum_covariance_and_separability():
    cov = quad_covariance(SecondMoments(s=_vacuum_moments()))
    np.testing.assert_allclose(cov, 0.5 * np.eye(4), atol=1e-14)
    assert log_negativity(cov) <= 1e-12
    np.testing.assert_allclose(symplectic_eigenvalues(cov), [0.5, 0.5],
                               atol=1e-12)


def test_covariance_blocks_symmetric(open_params):
    p = at_ratio(open_params, 0.9)
    cov = quad_covariance(steady_state_moments(p))
    np.testing.assert_allclose(cov, cov.T, atol=1e-12)


def test_covariance_rejects_imaginary_residue():
    s = _vacuum_moments()
    s[0, 2] = 0.5j
    with pytest.raises(NumericalFailure):
        quad_covariance(SecondMoments(s=s))


def test_tmsv_closed_form():
    for r in (0.3, 0.7, 1.0):
        cov = two_mode_squeezed_covariance(r)
        assert pt_nu_minus(cov) == pytest.approx(np.exp(-2.0 * r) / 2.0,
                                                 abs=1e-10)
        assert log_negativity(cov) == pytest.approx(2.0 * r, abs=1e-8)
        # pure state: both symplectic eigenvalues are 1/2
        np.testing.assert_allclose(symplectic_eigenvalues(cov), [0.5, 0.5],
                                   atol=1e-10)


def test_tmsv_zero_squeezing_is_vacuum():
    cov = two_mode_squeezed_covariance(0.0)
    np.testing.assert_allclose(cov, 0.5 * np.eye(4), atol=1e-14)
    assert log_negativity(cov) <= 1e-12


def test_pt_cross_check(open_params, closed_params):
    cases = [
        steady_state_moments(at_ratio(open_params, 0.9)),
        steady_state_moments(at_ratio(open_params, 1.5)),
        ground_state_moments(at_ratio(closed_params, 0.5)),
    ]
    for s in cases:
        cov = quad_covariance(s)
        assert pt_nu_minus(cov) == pytest.approx(pt_symplectic_min(cov),
                                                 abs=1e-10)


def test_physicality_of_steady_states(open_params):
    for ratio in (0.0, 0.5, 0.9, 1.3, 1.9):
        p = at_ratio(open_params, ratio)
        cov = quad_covariance(steady_state_moments(p))
        assert float(np.min(symplectic_eigenvalues(cov))) >= 0.5 - 1e-8


def test_frozen_values(open_params, closed_params):
    p = at_ratio(open_params, 0.9)
    cov = quad_covariance(steady_state_moments(p))
    assert log_negativity(cov) == pytest.approx(0.15243520574019814, abs=1e-10)
    cov = quad_covariance(ground_state_moments(at_ratio(closed_params, 0.5)))
    assert log_negativity(cov) == pytest.approx(0.2582920088921177, abs=1e-10)


def test_separable_thermal_photon_state():
    # independent thermal photon occupation cannot entangle the modes
    s = _vacuum_moments()
    s[1, 0] = 0.8
    s[0, 1] = 1.8
    cov = quad_covariance(SecondMoments(s=s))
    assert pt_nu_minus(cov) >= 0.5 - 1e-12
    assert log_negativity(cov) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(phi=st.floats(0.0, 2.0 * np.pi), chi=st.floats(0.0, 2.0 * np.pi))
def test_local_rotation_invariance(phi, chi):
    def rot(theta):
        return np.array([[np.cos(theta), np.sin(theta)],
                         [-np.sin(theta), np.cos(theta)]])

    cov = two_mode_squeezed_covariance(0.6)
    local = np.zeros((4, 4))
    local[:2, :2] = rot(phi)
    local[2:, 2:] = rot(chi)
    rotated = local @ cov @ local.T
    assert abs(log_negativity(rotated) - 1.2) <= 1e-10


def test_ground_state_entanglement_grows_toward_threshold(closed_params):
    values = []
    for ratio in (0.5, 0.9, 0.99):
        cov = quad_covariance(ground_state_moments(at_ratio(closed_params, ratio)))
        values.append(log_negativity(cov))
    assert values[0] < values[1] < values[2]


def test_nu_minus_without_cancellation():
    # nu_+ >> nu_-: (Sigma - sqrt(Sigma^2 - 4 det C)) / 2 cancelled to 0 here
    # and E_N read 0.0; det C / nu_+^2 keeps nu_- to the precision of the
    # brute-force partial-transpose spectrum.
    p = ModelParams(delta_c=-0.29307, kappa=1634.02, u=1.50872, y=1377.14)
    cov = quad_covariance(steady_state_moments(p))
    assert pt_nu_minus(cov) == pytest.approx(pt_symplectic_min(cov), abs=1e-8)
    assert log_negativity(cov) == pytest.approx(1.322e-7, rel=1e-3)


def test_nu_minus_of_nearly_separable_state():
    # nu_+ = 1.5e8 and nu_- ~ 1/2: the difference formula gave nu_- = 0
    base = ModelParams(delta_c=-0.041774, kappa=5084.99, u=4.36802, y=0.0)
    cov = quad_covariance(steady_state_moments(at_ratio(base, 0.05)))
    assert pt_nu_minus(cov) == pytest.approx(0.4999999986, abs=1e-9)
    assert pt_nu_minus(cov) == pytest.approx(pt_symplectic_min(cov), abs=1e-8)
    assert log_negativity(cov) >= 0.0


def _nu_min(c: np.ndarray) -> np.ndarray:
    """Invariant-route smallest symplectic eigenvalue of a stack; every row
    must pass the invariant checks."""
    errors = RowErrors(c.shape[0])
    _, nu = _symplectic_min(c, errors)
    assert errors.failed == 0
    return nu


def _moments_of(c: np.ndarray) -> SecondMoments:
    """Ladder-operator moments <R_i R_j> of a quadrature covariance:
    <u u^T> = C + i Omega / 2 with u = QUAD_MAP R."""
    back = np.linalg.inv(QUAD_MAP)
    return SecondMoments(s=back @ (c + 0.5j * OMEGA_SYMPL) @ back.T)


def _seeded_states(spread: float, n: int = 100):
    """(pure, mixed) covariances S S^T / 2 and S diag(nu1, nu1, nu2, nu2) S^T
    with S = exp(Omega H) symplectic, H symmetric of entries ~ ``spread``."""
    rng = np.random.default_rng(20040823)
    pure, mixed = [], []
    for _ in range(n):
        h = spread * rng.standard_normal((4, 4))
        s = scipy.linalg.expm(OMEGA_SYMPL @ (h + h.T))
        pure.append(0.5 * s @ s.T)
        mixed.append(s @ np.diag(np.repeat(rng.uniform(0.5, 3.0, 2), 2)) @ s.T)
    return np.array(pure), np.array(mixed)


def test_invariant_nu_min_matches_brute_force_on_physical_states():
    # Both routes lose about eps ||C||^2 relative; at ||C|| ~ 1e3 the two
    # forms of the discriminant differ by up to 1e-7, and each row must
    # take the one that keeps this precision.
    for spread in (0.3, 1.0):
        for c in _seeded_states(spread):
            brute = symplectic_eigenvalues(c).min(axis=1)
            tol = 1e-10 + 1e-15 * np.abs(c).max(axis=(1, 2)) ** 2
            assert np.all(np.abs(_nu_min(c) - brute) <= tol * brute)
    pure, _ = _seeded_states(0.3)
    np.testing.assert_allclose(_nu_min(pure), 0.5, rtol=1e-12)


def test_invariant_nu_min_of_vacuum_is_exactly_half():
    assert _nu_min(0.5 * np.eye(4)[None])[0] == 0.5


def test_invariant_nu_min_of_two_mode_squeezed_vacuum():
    # A pure state: both symplectic eigenvalues are 1/2 at any squeezing.
    # Delta = 1/2 is the sum of terms of size cosh(2 r)^2 / 4, so the
    # rounding error grows as eps cosh(2 r)^2 (2e-13 relative at r = 2).
    c = np.array([two_mode_squeezed_covariance(r) for r in (0.3, 0.7, 1.0, 2.0)])
    np.testing.assert_allclose(_nu_min(c), 0.5, rtol=1e-12)


def test_unphysical_covariance_fails_physicality():
    with pytest.raises(NumericalFailure, match="unphysical covariance"):
        quad_covariance(_moments_of(0.4 * np.eye(4)))
    assert symplectic_min(quad_covariance(_moments_of(0.5 * np.eye(4)))) == \
        pytest.approx(0.5, abs=1e-15)
