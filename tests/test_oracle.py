"""Independent numerical references: Lyapunov solver and truncated-Fock ground state."""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import at_ratio
from opendicke import oracle
from opendicke.basis import ETA
from opendicke.errors import (DivergentSteadyState, NumericalFailure,
                              UnstableState)
from opendicke.fluctuations import (NoiseSpec, build_stability_matrix,
                                    observables)
from opendicke.groundstate import ground_state_moments
from opendicke.model import MeanField, ModelParams, Phase, solve_mean_field
from opendicke.oracle import (_fock_occupations, fock_ground_state,
                              lyapunov_moments)


def _stability(params):
    return build_stability_matrix(params, solve_mean_field(params))


def test_lyapunov_solves_equation(open_params):
    for ratio in (0.4, 0.9, 1.5):
        p = at_ratio(open_params, ratio)
        stability = _stability(p)
        noise = NoiseSpec(kappa=p.kappa)
        s = lyapunov_moments(stability, noise).s
        residual = stability.m @ s + s @ stability.m.T + noise.matrix()
        assert np.max(np.abs(residual)) <= 1e-10


def test_lyapunov_vacuum_at_zero_pump(open_params):
    # undamped atom modes are noise-free at y=0: the system is singular but
    # consistent.  The damped photon sector is pinned to vacuum; the atom
    # sector is undetermined and the solver returns its minimum-norm value
    # (zeros).  Only the eigenmode route carries the physical vacuum there.
    stability = _stability(open_params)
    s = lyapunov_moments(stability).s
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = 1.0
    np.testing.assert_allclose(s, expected, atol=1e-10)
    noise = NoiseSpec(kappa=open_params.kappa)
    residual = stability.m @ s + s @ stability.m.T + noise.matrix()
    assert np.max(np.abs(residual)) <= 1e-8


def test_lyapunov_unstable_branch(open_params):
    p = at_ratio(open_params, 1.3)
    mf = MeanField(alpha0=0.0j, beta0=0.0, mu=-0.5, phase=Phase.NORMAL)
    with pytest.raises(UnstableState):
        lyapunov_moments(build_stability_matrix(p, mf))


def test_lyapunov_divergent_at_threshold(open_params):
    with pytest.raises(DivergentSteadyState):
        lyapunov_moments(_stability(at_ratio(open_params, 1.0)))


def test_lyapunov_rejects_fully_undamped_system(closed_params):
    with pytest.raises(DivergentSteadyState):
        lyapunov_moments(_stability(at_ratio(closed_params, 0.5)))


def test_lyapunov_default_noise_from_params(open_params):
    p = at_ratio(open_params, 0.8)
    stability = _stability(p)
    s_default = lyapunov_moments(stability).s
    s_explicit = lyapunov_moments(stability, NoiseSpec(kappa=p.kappa)).s
    np.testing.assert_array_equal(s_default, s_explicit)


def test_fock_requires_closed_system(open_params):
    with pytest.raises(ValueError):
        fock_ground_state(at_ratio(open_params, 0.5))


def test_fock_rejects_tiny_cutoffs(closed_params):
    with pytest.raises(ValueError):
        fock_ground_state(at_ratio(closed_params, 0.5), cutoffs=(10, 10))


def test_fock_reports_convergence(closed_params):
    fock = fock_ground_state(at_ratio(closed_params, 0.5), cutoffs=(20, 20))
    assert fock.cutoffs == (40, 40)
    assert fock.convergence <= 1e-3
    assert np.isfinite(fock.energy)


def test_fock_agrees_with_bogoliubov(closed_params):
    for ratio in (0.3, 0.7):
        p = at_ratio(closed_params, ratio)
        delta_n, n_photon = observables(ground_state_moments(p))
        fock = fock_ground_state(p, cutoffs=(20, 20))
        assert delta_n == pytest.approx(fock.delta_n, rel=1e-3, abs=1e-9)
        assert n_photon == pytest.approx(fock.n_photon, rel=1e-3, abs=1e-9)


def test_fock_agrees_with_bogoliubov_superradiant(closed_params):
    # far end of the closed-system exponent window, eps = e^-5 above y_c,
    # where the regular background of delta_N weighs most
    p = at_ratio(closed_params, 1.0 + np.exp(-5.0))
    delta_n, n_photon = observables(ground_state_moments(p))
    fock = fock_ground_state(p, cutoffs=(40, 40))
    assert fock.convergence <= 1e-3
    # the Fock tail decays geometrically, so the doubled cutoff resolves the
    # occupations far below the 1e-3 doubling criterion
    assert delta_n == pytest.approx(fock.delta_n, rel=1e-6)
    assert n_photon == pytest.approx(fock.n_photon, rel=1e-6)


def test_fock_deterministic(closed_params):
    p = at_ratio(closed_params, 0.6)
    a = fock_ground_state(p, cutoffs=(20, 20))
    b = fock_ground_state(p, cutoffs=(20, 20))
    assert a.delta_n == b.delta_n
    assert a.n_photon == b.n_photon
    assert a.energy == b.energy


def _full_space_ground_state(h, cutoffs):
    """Lowest eigenpair of the complex H = 1/2 sum_ij h[i,j] R_i^dag R_j on
    the whole truncated two-mode space, built from Kronecker products of
    truncated ladder matrices and diagonalized densely."""
    ladders = [np.diag(np.sqrt(np.arange(1, n + 1)), 1) for n in cutoffs]
    a = np.kron(ladders[0], np.eye(cutoffs[1] + 1))
    b = np.kron(np.eye(cutoffs[0] + 1), ladders[1])
    ops = (a, a.T, b, b.T)
    adjoint = (1, 0, 3, 2)
    ham = sum(0.5 * h[i, j] * (ops[adjoint[i]] @ ops[j])
              for i in range(4) for j in range(4))
    energies, vecs = np.linalg.eigh(ham)
    psi = vecs[:, 0]
    return (float(np.real(np.vdot(psi, b.T @ b @ psi))),
            float(np.real(np.vdot(psi, a.T @ a @ psi))), float(energies[0]))


@pytest.mark.parametrize("u, ratio", [(0.0, 0.5), (0.0, 1.5), (0.5, 0.6)])
def test_even_sector_in_photon_gauge_matches_full_space(u, ratio):
    p = at_ratio(ModelParams(delta_c=-2.0, kappa=0.0, u=u, y=0.0), ratio)
    h = 1j * ETA @ _stability(p).m
    gauge = np.array([1j, -1j, 1.0, 1.0])
    rotated = np.conj(gauge)[:, None] * h * gauge
    assert np.max(np.abs(rotated.imag)) == 0.0
    got = _fock_occupations(rotated.real, (20, 20))
    want = _full_space_ground_state(h, (20, 20))
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_fock_rejects_coefficients_not_real_in_photon_gauge(monkeypatch,
                                                            closed_params):
    # Hermitian, positive definite, but with a photon-atom coupling of phase
    # e^{i pi/4} that no rotation of the photon alone makes real together
    # with the a^dag b^dag coupling.
    g = 0.3 * np.exp(1j * np.pi / 4)
    h = np.array([[2.0, 0.0, g, 0.2],
                  [0.0, 2.0, 0.2, np.conj(g)],
                  [np.conj(g), 0.2, 1.0, 0.0],
                  [0.2, g, 0.0, 1.0]])
    np.testing.assert_array_equal(h, h.conj().T)
    m = -1j * ETA @ h
    monkeypatch.setattr(oracle, "build_stability_matrix",
                        lambda params, mf=None: SimpleNamespace(m=m))
    with pytest.raises(NumericalFailure, match="not real in the photon gauge"):
        fock_ground_state(at_ratio(closed_params, 0.5), cutoffs=(20, 20))
