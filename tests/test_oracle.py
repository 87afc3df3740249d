"""Independent numerical references: Lyapunov solver and truncated-Fock ground state."""

import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import at_ratio, normal_branch
from opendicke import oracle
from opendicke.basis import ETA
from opendicke.errors import (CutoffTooSmall, DivergentSteadyState,
                              NumericalFailure, UnstableState)
from opendicke.fluctuations import (SecondMoments, StabilityMatrix,
                                    build_stability_matrix,
                                    hermitize_moments, noise_matrix,
                                    observables, stability_batch,
                                    steady_state_moments)
from opendicke.groundstate import ground_state_moments
from opendicke.model import ModelParams
from opendicke.oracle import (_fock_occupations, _kron_sum,
                              _SectorHamiltonian, fock_ground_state,
                              lyapunov_moments)


def test_lyapunov_solves_equation(open_params):
    for ratio in (0.4, 0.9, 1.5):
        p = at_ratio(open_params, ratio)
        stability = build_stability_matrix(p)
        s = lyapunov_moments(stability).s
        residual = stability.m @ s + s @ stability.m.T + noise_matrix(p.kappa)
        assert np.max(np.abs(residual)) <= 1e-10


def test_lyapunov_vacuum_at_zero_pump(open_params):
    # undamped atom modes are noise-free at y=0: the system is singular but
    # consistent, and the atom block is undetermined.  Its minimum-norm value
    # (zeros) breaks the atom commutator, so the oracle raises and names the
    # pair; only the eigenmode route carries the physical vacuum there.
    with pytest.raises(NumericalFailure, match="consistent noise") as info:
        lyapunov_moments(build_stability_matrix(open_params))
    omega = abs(build_stability_matrix(open_params).m[2, 2])
    for lam in (complex(0.0, omega), complex(0.0, -omega)):
        assert f"{lam:.6g}" in str(info.value)


def test_lyapunov_unstable_branch(open_params):
    p = at_ratio(open_params, 1.3)
    with pytest.raises(UnstableState):
        lyapunov_moments(StabilityMatrix(m=stability_batch(p, normal_branch(p))[0],
                                         params=p))


def test_lyapunov_divergent_at_threshold(open_params):
    with pytest.raises(DivergentSteadyState):
        lyapunov_moments(build_stability_matrix(at_ratio(open_params, 1.0)))


def test_lyapunov_rejects_fully_undamped_system(closed_params):
    with pytest.raises(DivergentSteadyState):
        lyapunov_moments(build_stability_matrix(at_ratio(closed_params, 0.5)))


# Large kappa and pump: max|M| ~ 8.6e3 and max|S| ~ 7.3e6, so rounding in
# M S + S M^T (1.1e-5) alone exceeds the absolute bound 1e-10 max(1, 2 kappa).
LARGE_SCALE = ModelParams(delta_c=-0.5678787341247107, kappa=8598.150873883307,
                          u=0.6141315653044916, y=19485.103314442997)


def test_lyapunov_accepts_rounding_residual_at_large_scale():
    stability = build_stability_matrix(LARGE_SCALE)
    delta_n, n_photon = observables(lyapunov_moments(stability))
    # two routes that share nothing with the Kronecker solve
    sylvester = sla.solve_sylvester(stability.m, stability.m.T,
                                    -noise_matrix(LARGE_SCALE.kappa))
    for other in (observables(SecondMoments(s=hermitize_moments(sylvester))),
                  observables(steady_state_moments(LARGE_SCALE))):
        assert delta_n == pytest.approx(other[0], rel=1e-8)
        assert n_photon == pytest.approx(other[1], rel=1e-8)


@pytest.mark.parametrize("large", [False, True])
def test_lyapunov_rejects_perturbed_solve(monkeypatch, open_params, large):
    # An error of 1e-8 max|S| in every entry, in no special direction, is a
    # backward error of about 1e-8, 1e4 times the limit.
    p = LARGE_SCALE if large else at_ratio(open_params, 0.5)
    stability = build_stability_matrix(p)
    solve = np.linalg.solve

    def perturbed(a, b):
        x = solve(a, b)
        return x + 1e-8 * np.max(np.abs(x)) * np.linspace(1.0, 2.0, x.size)

    monkeypatch.setattr(np.linalg, "solve", perturbed)
    with pytest.raises(NumericalFailure, match="Lyapunov residual"):
        lyapunov_moments(stability)


def _figure_scan_stability_matrices():
    out = []
    for kappa in (2.0, 0.0):
        for u in (0.0, 0.7):
            base = ModelParams(delta_c=-2.0, kappa=kappa, u=u, y=0.0)
            out += [build_stability_matrix(at_ratio(base, r)).m
                    for r in (0.0, 0.5, 0.9, 1.2, 1.5)]
    return out


def test_kron_sum_is_byte_identical_to_np_kron():
    rng = np.random.default_rng(20261018)
    mats = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            for _ in range(50)]
    signed = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    signed[0, :] = [complex(-0.0, 0.0), complex(0.0, -0.0),
                    complex(-0.0, -0.0), 0.0]
    signed[:, 1] = [complex(-0.0, 1.0), complex(2.0, -0.0),
                    complex(-0.0, -0.0), complex(-3.0, 0.0)]
    mats += [signed, -signed, np.zeros((4, 4), dtype=complex) * -1.0]
    mats += _figure_scan_stability_matrices()
    eye = np.eye(4)
    for m in mats:
        want = np.kron(m, eye) + np.kron(eye, m)
        got = _kron_sum(m)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_lyapunov_moments_is_the_kronecker_solve():
    """The oracle's moments are, byte for byte, the hermitized dense solve of
    (M (x) I + I (x) M) vec(S) = -vec(D) with np.kron's matrix: on the seeded
    matrices of the Kronecker test, shifted to be stable, and on its
    figure-scan matrices with kappa > 0 and the pump on."""
    rng = np.random.default_rng(20261018)
    mats = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            for _ in range(50)]
    signed = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    signed[0, :] = [complex(-0.0, 0.0), complex(0.0, -0.0),
                    complex(-0.0, -0.0), 0.0]
    signed[:, 1] = [complex(-0.0, 1.0), complex(2.0, -0.0),
                    complex(-0.0, -0.0), complex(-3.0, 0.0)]
    mats += [signed, -signed, np.zeros((4, 4), dtype=complex) * -1.0]
    eye = np.eye(4)
    cases = [StabilityMatrix(m=m - (np.linalg.eigvals(m).real.max() + 1.0) * eye,
                             params=ModelParams(delta_c=-2.0, kappa=2.0, u=0.0, y=0.0))
             for m in mats]
    for u in (0.0, 0.7):
        base = ModelParams(delta_c=-2.0, kappa=2.0, u=u, y=0.0)
        cases += [build_stability_matrix(at_ratio(base, r))
                  for r in (0.5, 0.9, 1.2, 1.5)]
    for st in cases:
        rhs = -noise_matrix(st.params.kappa).reshape(16).astype(complex)
        want = hermitize_moments(np.linalg.solve(
            np.kron(st.m, eye) + np.kron(eye, st.m), rhs).reshape(4, 4))
        assert lyapunov_moments(st).s.tobytes() == want.tobytes()


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


def test_fock_rejects_unconverged_cutoffs(closed_params):
    # just below threshold the ground state spreads past 20 quanta per mode
    with pytest.raises(CutoffTooSmall, match=re.escape(
            "occupations changed by 3.109e-02 relative when doubling "
            "cutoffs (20, 20)")):
        fock_ground_state(at_ratio(closed_params, 0.99), cutoffs=(20, 20))


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


def _gauged(params):
    """The real coefficient matrix of ``params`` in the photon gauge."""
    h = 1j * ETA @ build_stability_matrix(params).m
    return (np.conj(oracle._GAUGE)[:, None] * h * oracle._GAUGE).real


def test_truncated_hamiltonian_rejects_non_symmetric_coefficients():
    # a^dag b without its partner b^dag a: H[k + offset, k] != H[k, k + offset]
    h = np.diag([2.0, 2.0, 1.0, 1.0])
    h[0, 2] = 0.3
    with pytest.raises(NumericalFailure, match="truncated Hamiltonian not Hermitian"):
        _SectorHamiltonian(h, (20, 20))


def test_fock_names_the_residual_at_the_iteration_cap(monkeypatch, closed_params):
    monkeypatch.setattr(oracle, "FOCK_MAX_ITER", 1)
    with pytest.raises(NumericalFailure, match=r"not converged in 1 LOBPCG "
                       r"iterations \(residual \d\.\d{3}e-\d\d\)") as info:
        fock_ground_state(at_ratio(closed_params, 1.0 + np.exp(-5.0)),
                          cutoffs=(20, 20))
    residual = float(re.search(r"residual (\S+)\)", str(info.value)).group(1))
    assert 1e-12 < residual < 1.0


def test_lowest_eigenpair_meets_the_stopping_rule_with_h_x_recomputed(
        closed_params):
    # H x is carried along the iteration, and its rounding drift grows with
    # the number of steps; the returned pair must hold with H x recomputed.
    ham = _SectorHamiltonian(_gauged(at_ratio(closed_params, 0.999)), (200, 200))
    start = np.zeros(ham.occ.shape[1])
    start[0] = 1.0
    theta, x = oracle._lowest_eigenpair(ham, start)
    hx = ham(x)
    assert theta == x @ hx
    assert (np.linalg.norm(hx - theta * x)
            <= oracle.FOCK_RESIDUAL_TOL * np.linalg.norm(ham.row_sums * x))


@pytest.mark.parametrize("ratio", [0.5, 1.0 + np.exp(-5.0)])
def test_fock_stopping_rule_is_relative(closed_params, ratio):
    # Scaling h by 2^k scales H and its eigenvalues exactly; the occupations
    # must not move.  An absolute residual bound would stop at the vacuum for
    # k = -40 and never stop for k = 40.
    h = _gauged(at_ratio(closed_params, ratio))
    base = _fock_occupations(h, (20, 20))[0]
    for k in (-40, 40):
        got = _fock_occupations(h * 2.0 ** k, (20, 20))[0]
        assert got[:2] == pytest.approx(base[:2], rel=1e-12)
        assert got[2] == pytest.approx(base[2] * 2.0 ** k, rel=1e-12)


def _full_space_hamiltonian(h, cutoffs):
    """H = 1/2 sum_ij h[i,j] R_i^dag R_j on the whole truncated two-mode
    space, state (n_a, n_b) at n_a (cutoffs[1] + 1) + n_b, built from
    Kronecker products of truncated ladder matrices, with a and b."""
    ladders = [np.diag(np.sqrt(np.arange(1, n + 1)), 1) for n in cutoffs]
    a = np.kron(ladders[0], np.eye(cutoffs[1] + 1))
    b = np.kron(np.eye(cutoffs[0] + 1), ladders[1])
    ops = (a, a.T, b, b.T)
    adjoint = (1, 0, 3, 2)
    ham = sum(0.5 * h[i, j] * (ops[adjoint[i]] @ ops[j])
              for i in range(4) for j in range(4))
    return ham, a, b


@pytest.mark.parametrize("cutoffs", [(20, 20), (21, 20), (20, 21), (21, 21)])
def test_stencil_applies_the_even_sector_of_the_truncated_hamiltonian(cutoffs):
    # A symmetric h with no zero entry makes all nine occupation shifts; odd
    # cutoffs[1] adds the padding column, which must stay zero.
    rng = np.random.default_rng(20261019)
    h = rng.normal(size=(4, 4))
    h = h + h.T
    ham = _SectorHamiltonian(h, cutoffs)
    inside = ham.occ[1] <= cutoffs[1]
    full = (ham.occ[0] * (cutoffs[1] + 1) + ham.occ[1])[inside]
    dense = _full_space_hamiltonian(h, cutoffs)[0]
    x = np.where(inside, rng.normal(size=inside.size), 0.0)
    got = ham(x)
    want = dense[np.ix_(full, full)] @ x[inside]
    np.testing.assert_allclose(got[inside], want, rtol=0.0,
                               atol=1e-13 * np.abs(want).max())
    assert not got[~inside].any()
    np.testing.assert_allclose(ham.diagonal[inside], np.diag(dense)[full],
                               rtol=1e-14)


def _full_space_ground_state(h, cutoffs):
    """Lowest eigenpair of the complex H = 1/2 sum_ij h[i,j] R_i^dag R_j on
    the whole truncated two-mode space, diagonalized densely."""
    ham, a, b = _full_space_hamiltonian(h, cutoffs)
    energies, vecs = np.linalg.eigh(ham)
    psi = vecs[:, 0]
    return (float(np.real(np.vdot(psi, b.T @ b @ psi))),
            float(np.real(np.vdot(psi, a.T @ a @ psi))), float(energies[0]))


@pytest.mark.parametrize("u, ratio", [(0.0, 0.5), (0.0, 1.5), (0.5, 0.6)])
def test_even_sector_in_photon_gauge_matches_full_space(u, ratio):
    p = at_ratio(ModelParams(delta_c=-2.0, kappa=0.0, u=u, y=0.0), ratio)
    h = 1j * ETA @ build_stability_matrix(p).m
    gauge = np.array([1j, -1j, 1.0, 1.0])
    rotated = np.conj(gauge)[:, None] * h * gauge
    assert np.max(np.abs(rotated.imag)) == 0.0
    got = _fock_occupations(rotated.real, (20, 20))[0]
    want = _full_space_ground_state(h, (20, 20))
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def _uniform_start(h, cutoffs):
    """The uniform start vector on the even sector, as a state (occ, vec)."""
    occ = _SectorHamiltonian(h, cutoffs).occ
    return occ, np.ones(occ.shape[1])


@pytest.mark.parametrize("ratio, truncated", [(0.9, False),
                                              (1.0 + np.exp(-5.0), True)])
def test_warm_start_does_not_bias_the_doubling_check(closed_params, ratio,
                                                     truncated):
    # LOBPCG stops on the Ritz residual, so the doubled-cutoff solve started
    # from the coarse ground state must land on the state that a solve from
    # the uniform vector finds, and the doubling drift must not move.
    p = at_ratio(closed_params, ratio)
    h = _gauged(p)
    coarse = _fock_occupations(h, (60, 60), _uniform_start(h, (60, 60)))[0]
    fine = _fock_occupations(h, (120, 120), _uniform_start(h, (120, 120)))[0]
    fock = fock_ground_state(p, cutoffs=(60, 60))
    np.testing.assert_allclose((fock.delta_n, fock.n_photon, fock.energy),
                               fine, rtol=1e-12, atol=0.0)
    drift = max(abs(f - c) / max(abs(f), 1e-9)
                for c, f in zip(coarse[:2], fine[:2]))
    if truncated:
        assert fock.convergence == pytest.approx(drift, rel=1e-6)
    else:
        # both cutoffs resolve the occupations to rounding, so the drift is
        # rounding noise of either start and no relative comparison holds
        assert max(fock.convergence, drift) <= 1e-12


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
                        lambda params: SimpleNamespace(m=m))
    with pytest.raises(NumericalFailure, match="not real in the photon gauge"):
        fock_ground_state(at_ratio(closed_params, 0.5), cutoffs=(20, 20))
