"""Independent brute-force verifiers for the analytic routes.

Two oracles, deliberately sharing no formula with the routes they check;
they take the same solved-mean-field stability matrix and input checks:

* ``lyapunov_moments`` solves M S + S M^T + D = 0 as a dense 16-unknown
  linear system; for a stable M this is the unique steady state of the
  linear Langevin dynamics and must equal the eigenmode-formula result.
* ``fock_ground_state`` diagonalizes the quadratic fluctuation Hamiltonian
  on a truncated two-mode Fock space and must reproduce the Bogoliubov
  ground-state occupations once the cutoff has converged.  It works on the
  even sector of the parity (-1)^(n_a + n_b) in the photon gauge a -> i a,
  where H is a real symmetric sparse matrix, by symmetric Lanczos.  The
  coarse solve starts from the Fock vacuum, the doubled-cutoff solve from
  the coarse ground state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import CONJ_PERM, ETA
from .errors import (CutoffTooSmall, DivergentSteadyState, NumericalFailure,
                     RowErrors, UnstableState)
from .fluctuations import (SecondMoments, StabilityMatrix,
                           build_stability_matrix, check_hermitian,
                           hermitize_moments, noise_matrix)
from .model import ModelParams

STABILITY_TOL = 1e-12
RESIDUAL_TOL = 1e-10
# Backward-error limit of the dense solve: a residual up to this times
# max|M| max|S| is rounding in M S + S M^T, whatever the scale of M and S.
BACKWARD_TOL = 1e-12


# Entry (4i + k, 4j + l) of M (x) I + I (x) M is M[i, j] I[k, l] + I[i, j] M[k, l]:
# flat indices into M and the 0/1 weights of both terms.
_HI, _LO = np.divmod(np.arange(16), 4)
_LEFT, _LEFT_W = 4 * _HI[:, None] + _HI, (_LO[:, None] == _LO).astype(float)
_RIGHT, _RIGHT_W = 4 * _LO[:, None] + _LO, (_HI[:, None] == _HI).astype(float)


def _kron_sum(m: np.ndarray) -> np.ndarray:
    """M (x) I + I (x) M for a 4x4 M, gathered from the flat M and weighted
    in np.kron's operand order, so that its bytes are those of np.kron."""
    flat = m.reshape(16)
    return flat[_LEFT] * _LEFT_W + _RIGHT_W * flat[_RIGHT]


def lyapunov_moments(stability: StabilityMatrix) -> SecondMoments:
    """Steady second moments from the Lyapunov equation M S + S M^T + D = 0,
    with D the cavity noise of the matrix's own kappa.

    Solved by row-major vectorization, (M (x) I + I (x) M) vec(S) = -vec(D),
    as a dense 16-unknown system.  The solve is rejected when its residual
    max|M S + S M^T + D| exceeds both 1e-10 max(1, 2 kappa) and the
    backward-error limit 1e-12 max|M| max|S|.

    Valid box: every |lambda_k + lambda_l| above 1e-12 max|lambda|.  Below
    that the system counts as singular: a consistent one returns the
    minimum-norm least-squares solution, an inconsistent one diverges
    physically.  The minimum-norm solution is right for undamped noise-free
    modes (zero pump), but wrong for a weakly damped pair that the noise
    drives: at delta_c = -916.62139, kappa = 1.6571e-4, u = -3.90154,
    y = 0.05 y_c (Re lambda ~ -4.9e-13) it gives delta_N = -2.04e-6, where a
    60-digit solve of the same M gives 228.943.  Inside the box the dense
    solve is backward stable, but its forward error grows with the condition
    number of M (x) I + I (x) M: at delta_c = -1.0056e-4, kappa = 3327.95,
    u = 1.36203, y = 2.386e5 that is 2e16, and delta_N is off by 0.9 %
    against a 50-digit solve.
    """
    kappa = stability.params.kappa
    m = stability.m
    lam = np.linalg.eigvals(m)
    scale = max(1.0, float(np.abs(lam).max()))
    if (lam.real > STABILITY_TOL * scale).any():
        raise UnstableState(
            f"unstable stability matrix, max Re lambda = {lam.real.max():.3e}")
    if np.abs(lam.real).max() <= STABILITY_TOL * scale:
        raise DivergentSteadyState("no damped mode at all; no steady state")

    d = noise_matrix(kappa)
    a = _kron_sum(m)
    rhs = -d.reshape(16).astype(complex)
    sums = lam[:, None] + lam[None, :]
    if np.abs(sums).min() <= STABILITY_TOL * scale:
        s = np.linalg.lstsq(a, rhs, rcond=None)[0].reshape(4, 4)
        residual = float(np.abs(m @ s + s @ m.T + d).max())
        if residual > 1e-8 * max(1.0, 2.0 * kappa):
            raise DivergentSteadyState(
                f"singular Lyapunov system with inconsistent noise "
                f"(residual {residual:.3e}); moments diverge")
        return SecondMoments(s=hermitize_moments(s))

    s = np.linalg.solve(a, rhs).reshape(4, 4)
    residual = float(np.abs(m @ s + s @ m.T + d).max())
    resid_tol = max(RESIDUAL_TOL, RESIDUAL_TOL * 2.0 * kappa)
    if residual > resid_tol:  # only then can the backward-error limit decide
        resid_tol = max(resid_tol, BACKWARD_TOL * float(np.abs(m).max())
                        * float(np.abs(s).max()))
        if residual > resid_tol:
            raise NumericalFailure(
                f"Lyapunov residual {residual:.3e} exceeds {resid_tol:g}")
    return SecondMoments(s=hermitize_moments(s))


@dataclass(frozen=True)
class FockGroundState:
    """Ground-state data from truncated-Fock diagonalization."""

    delta_n: float
    n_photon: float
    energy: float
    convergence: float
    cutoffs: tuple[int, int]


# Photon gauge a -> i a: R = _GAUGE * R', with R' the ladder vector of the
# rotated photon.  It leaves n_a and n_b unchanged, and the closed-system
# coefficient matrix is real in it (the mean-field alpha0 is imaginary).
_GAUGE = np.array([1j, -1j, 1.0, 1.0])
# Mode (0 photon, 1 atom) and occupation step of each slot of R.
_MODE = np.array([0, 0, 1, 1])
_STEP = np.array([-1, 1, -1, 1])


def _sector_hamiltonian(h: np.ndarray, cutoffs: tuple[int, int]):
    """H = 1/2 sum_ij h[i,j] R_i^dag R_j for real h on the states with
    n_a + n_b even inside the cutoffs, their occupations (n_a, n_b), and the
    map from (n_a, n_b) to sector index (-1 off the sector).

    Each term applies R_j, then R_i^dag, to every sector state by index
    arithmetic; a step out of the box has amplitude zero, exactly as in the
    product of two truncated ladder matrices.
    """
    # scipy.sparse is imported by the Fock oracle alone: it takes most of
    # the package's import time and memory.
    import scipy.sparse as sp

    box = np.indices((cutoffs[0] + 1, cutoffs[1] + 1), dtype=np.int32)
    even = (box[0] + box[1]) % 2 == 0
    occ = box[:, even]
    dim = occ.shape[1]
    index = np.arange(dim, dtype=np.int32)
    position = np.full(even.shape, -1, dtype=np.int32)
    position[even] = index
    rows, cols, values = [], [], []
    for i, j in zip(*np.nonzero(h)):
        n = occ.copy()
        amp = np.ones(dim)
        for slot in (j, CONJ_PERM[i]):
            mode = _MODE[slot]
            after = n[mode] + _STEP[slot]
            amp *= np.sqrt(np.maximum(n[mode], after).clip(min=0))
            amp *= (after >= 0) & (after <= cutoffs[mode])
            n[mode] = after
        keep = amp != 0.0
        rows.append(position[n[0, keep], n[1, keep]])
        cols.append(index[keep])
        values.append(0.5 * h[i, j] * amp[keep])
    # Rebinding drops the per-term pieces before the sparse construction,
    # which with int32 indices keeps the call's peak memory near ARPACK's.
    rows, cols, values = map(np.concatenate, (rows, cols, values))
    return sp.csr_matrix((values, (rows, cols)), shape=(dim, dim)), occ, position


def _fock_occupations(h: np.ndarray, cutoffs: tuple[int, int], start=None):
    """Ground-state (delta_n, n_photon, energy) at the given cutoffs, for a
    real coefficient matrix h in the photon gauge, and the ground state as
    (occ, vec).

    Lanczos starts from ``start``, a state (occ, vec) of a box inside this
    one copied onto the same (n_a, n_b) states with zeros elsewhere, or, if
    None, from the Fock vacuum |0, 0>, which is sector index 0.
    """
    ham, occ, position = _sector_hamiltonian(h, cutoffs)
    herm_defect = abs(ham - ham.T).max()
    if herm_defect > 1e-12 * max(1.0, abs(ham).max()):
        raise NumericalFailure(
            f"truncated Hamiltonian not Hermitian (defect {herm_defect:.3e})")

    # Deterministic start vector; eigsh would otherwise seed randomly.
    v0 = np.zeros(ham.shape[0])
    if start is None:
        v0[0] = 1.0
    else:
        v0[position[start[0][0], start[0][1]]] = start[1]
    import scipy.sparse.linalg as spla

    energy, vec = spla.eigsh(ham, k=1, which="SA", v0=v0)
    weight = vec[:, 0] ** 2
    return ((float(weight @ occ[1]), float(weight @ occ[0]), float(energy[0])),
            (occ, vec[:, 0]))


def fock_ground_state(params: ModelParams,
                      cutoffs: tuple[int, int] = (60, 60)) -> FockGroundState:
    """Ground-state occupations on a truncated two-mode Fock space.

    The Hamiltonian is H = 1/2 sum_ij h[i,j] R_i^dag R_j with h = i eta M and
    M = ``build_stability_matrix(params).m`` at the solved mean field,
    truncated at photon/atom occupations ``cutoffs``.  A quadratic H conserves
    the parity (-1)^(n_a + n_b), and its Gaussian ground state is even, so H
    is diagonalized on the even sector only.  In the photon gauge a -> i a,
    which leaves both occupations unchanged, h is real and H a real symmetric
    matrix; its lowest eigenpair comes from ARPACK's symmetric Lanczos solver,
    started from the Fock vacuum.  A coefficient matrix that is not real in
    that gauge raises NumericalFailure.  The run is repeated at doubled
    cutoffs, started from the coarse ground state copied onto the same
    (n_a, n_b) states; ARPACK stops on the Ritz residual, so the start changes
    the cost of that run, not the state it converges to.  The relative change
    of both occupations must stay below 1e-3, otherwise CutoffTooSmall is
    raised.  The doubled-cutoff values are returned.
    """
    if params.kappa != 0.0:
        raise ValueError("Fock oracle applies to the closed system (kappa = 0)")
    if min(cutoffs) < 20:
        raise ValueError(f"cutoffs {cutoffs!r} too small; need >= 20")

    h = 1j * ETA @ build_stability_matrix(params).m
    errors = RowErrors(1)
    check_hermitian(h[None], errors)
    errors.raise_first()
    h = np.conj(_GAUGE)[:, None] * h * _GAUGE
    imaginary = float(np.abs(h.imag).max())
    if imaginary > 1e-12 * float(np.abs(h).max()):
        raise NumericalFailure(
            f"coefficient matrix not real in the photon gauge a -> i a "
            f"(imaginary part {imaginary:.3e})")

    coarse, state = _fock_occupations(h.real, cutoffs)
    doubled = (2 * cutoffs[0], 2 * cutoffs[1])
    fine, _ = _fock_occupations(h.real, doubled, start=state)
    convergence = max(
        abs(fine[0] - coarse[0]) / max(abs(fine[0]), 1e-9),
        abs(fine[1] - coarse[1]) / max(abs(fine[1]), 1e-9))
    if convergence > 1e-3:
        raise CutoffTooSmall(
            f"occupations changed by {convergence:.3e} relative when doubling "
            f"cutoffs {cutoffs!r}")
    return FockGroundState(delta_n=fine[0], n_photon=fine[1], energy=fine[2],
                           convergence=convergence, cutoffs=doubled)
