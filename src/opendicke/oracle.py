"""Independent brute-force verifiers for the analytic routes.

Two oracles, deliberately sharing no formula with the routes they check;
they take the same solved-mean-field stability matrix and check it themselves:

* ``lyapunov_moments`` solves M S + S M^T + D = 0 as a dense 16-unknown
  linear system; for a stable M this is the unique steady state of the
  linear Langevin dynamics and must equal the eigenmode-formula result.
* ``fock_ground_state`` diagonalizes the quadratic fluctuation Hamiltonian
  on a truncated two-mode Fock space and must reproduce the Bogoliubov
  ground-state occupations once the cutoff has converged.  It checks that
  its coefficient matrix h = i eta M is Hermitian itself, and works on the
  even sector of the parity (-1)^(n_a + n_b) in the photon gauge a -> i a,
  where H is real symmetric and is applied as a stencil of at most nine
  occupation shifts; its lowest eigenpair comes from LOBPCG with the diagonal
  of H as preconditioner, in numpy alone.  The coarse solve starts from the
  Fock vacuum, the doubled-cutoff solve from the coarse ground state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import CONJ_PERM, ETA, PHOTON_GAUGE
from .errors import (CutoffTooSmall, DivergentSteadyState, NumericalFailure,
                     UnstableState)
from .fluctuations import (HERMITICITY_TOL, SecondMoments, StabilityMatrix,
                           build_stability_matrix, hermitize_moments,
                           noise_matrix)
from .model import ModelParams

STABILITY_TOL = 1e-12
RESIDUAL_TOL = 1e-10
# Backward-error limit of the dense solve: a residual up to this times
# max|M| max|S| is rounding in vec(M S + S M^T), whatever the scale of M and S.
BACKWARD_TOL = 1e-12


# Entry (4i + k, 4j + l) of M (x) I + I (x) M is M[i, j] I[k, l] + I[i, j] M[k, l]:
# flat indices into M and the 0/1 weights of both terms, cast to complex once.
_HI, _LO = np.divmod(np.arange(16), 4)
_LEFT, _LEFT_W = 4 * _HI[:, None] + _HI, (_LO[:, None] == _LO).astype(complex)
_RIGHT, _RIGHT_W = 4 * _LO[:, None] + _LO, (_HI[:, None] == _HI).astype(complex)


def _kron_sum(m: np.ndarray) -> np.ndarray:
    """M (x) I + I (x) M for a complex 4x4 M, gathered from the flat M and
    weighted in np.kron's operand order: its bytes are np.kron's."""
    flat = m.reshape(16)
    return flat.take(_LEFT) * _LEFT_W + _RIGHT_W * flat.take(_RIGHT)


def lyapunov_moments(stability: StabilityMatrix) -> SecondMoments:
    """Steady second moments from the Lyapunov equation M S + S M^T + D = 0,
    with D the cavity noise of the matrix's own kappa.

    Solved by row-major vectorization as the dense 16-unknown system
    A vec(S) = -vec(D), A = M (x) I + I (x) M, and rejected when the residual
    max|A vec(S) + vec(D)| of the system solved (vectorized M S + S M^T + D)
    exceeds both 1e-10 max(1, 2 kappa) and the limit 1e-12 max|M| max|S|.

    Valid box: every |lambda_k + lambda_l| above 1e-12 max|lambda|.  Below
    that the system counts as singular, and a least-squares solve only tells
    an inconsistent one, which diverges physically, from a consistent one,
    whose undamped pair it leaves undetermined (NumericalFailure).  Its
    minimum-norm solution is not returned: at zero pump it makes the atom
    pair's <b b^dag> - <b^dag b> 0, not 1, and at delta_c = -916.62139,
    kappa = 1.6571e-4, u = -3.90154, y = 0.05 y_c (Re lambda ~ -4.9e-13) it
    gave delta_N = -2.04e-6, where a 60-digit solve of the same M gives 228.943.
    Inside the box the dense solve is backward stable, but its forward error
    grows with the condition number of A: at delta_c = -1.0056e-4,
    kappa = 3327.95, u = 1.36203, y = 2.386e5 that is 2e16, and delta_N is
    off by 0.9 % against a 50-digit solve.
    """
    kappa, m = stability.params.kappa, stability.m
    lam = np.linalg.eigvals(m)
    # Four finite eigenvalues: Python's max and abs of their parts are numpy's.
    scale, re = max(1.0, *np.abs(lam).tolist()), lam.real.tolist()
    if max(re) > STABILITY_TOL * scale:
        raise UnstableState(f"unstable stability matrix, max Re lambda = {max(re):.3e}")
    if max(map(abs, re)) <= STABILITY_TOL * scale:
        raise DivergentSteadyState("no damped mode at all; no steady state")

    a = _kron_sum(m)
    rhs = -noise_matrix(kappa).reshape(16).astype(complex)
    sums = np.abs(lam[:, None] + lam)
    if sums.min() <= STABILITY_TOL * scale:
        x = np.linalg.lstsq(a, rhs, rcond=None)[0]
        residual = float(np.abs(a @ x - rhs).max())
        if residual > 1e-8 * max(1.0, 2.0 * kappa):
            raise DivergentSteadyState(
                f"singular Lyapunov system with inconsistent noise "
                f"(residual {residual:.3e}); moments diverge")
        i, j = divmod(int(sums.argmin()), 4)
        raise NumericalFailure(f"singular Lyapunov system with consistent noise: "
                               f"undamped pair {lam[i]:.6g}, {lam[j]:.6g} undetermined")

    x = np.linalg.solve(a, rhs)
    residual = float(np.abs(a @ x - rhs).max())
    resid_tol = max(RESIDUAL_TOL, RESIDUAL_TOL * 2.0 * kappa)
    if residual > resid_tol:  # only then can the backward-error limit decide
        resid_tol = max(resid_tol, BACKWARD_TOL * float(np.abs(m).max())
                        * float(np.abs(x).max()))
        if residual > resid_tol:
            raise NumericalFailure(
                f"Lyapunov residual {residual:.3e} exceeds {resid_tol:g}")
    return SecondMoments(s=hermitize_moments(x.reshape(4, 4)))


@dataclass(frozen=True)
class FockGroundState:
    """Ground-state data from truncated-Fock diagonalization."""

    delta_n: float
    n_photon: float
    energy: float
    convergence: float
    cutoffs: tuple[int, int]


# Mode (0 photon, 1 atom) and occupation step of each slot of R.
_MODE = np.array([0, 0, 1, 1])
_STEP = np.array([-1, 1, -1, 1])


# The Fock solve stops when ||H x - theta x|| <= FOCK_RESIDUAL_TOL ||A x|| for
# the unit Ritz vector x, with A the diagonal of the absolute row sums of H:
# each entry of H x sums terms of about A x in size, and rounding alone left
# residuals of 3e-16 to 1.5e-15 ||A x|| at the points tried, near threshold
# included.  The solve gives up after FOCK_MAX_ITER iterations.
FOCK_RESIDUAL_TOL = 1e-14
FOCK_MAX_ITER = 5000


class _SectorHamiltonian:
    """H = 1/2 sum_ij h[i,j] R_i^dag R_j for real h on the states with
    n_a + n_b even inside the cutoffs, applied as a stencil.

    State (n_a, n_b) has index k = (n_a w + n_b) / 2, with the odd row length
    w = cutoffs[1] + 1 | 1: the parity of n_a w + n_b is that of n_a + n_b,
    so the even sector is every other flat index of the box.  For odd
    cutoffs[1] the column n_b = cutoffs[1] + 1 pads the rows, and no term
    reaches it.  A term R_i^dag R_j moves every state by the same
    (dn_a, dn_b), that is by the index offset (dn_a w + dn_b) / 2, with an
    amplitude that is zero where a step leaves the box, exactly as in the
    product of two truncated ladder matrices.  The terms give at most nine
    offsets; the amplitudes of each offset are summed over its terms and
    indexed by the source state: (H x)[k + offset] holds amp[k] x[k].

    ``occ`` holds (n_a, n_b) of every index, ``diagonal`` the diagonal of H
    and ``row_sums`` its absolute row sums.
    """

    def __init__(self, h: np.ndarray, cutoffs: tuple[int, int]):
        self._width = cutoffs[1] + 1 | 1
        self.occ = np.stack(np.divmod(
            np.arange(0, (cutoffs[0] + 1) * self._width, 2), self._width))
        shifts: dict[int, np.ndarray] = {}
        for i, j in zip(*np.nonzero(h)):
            n = self.occ.copy()
            amp = 0.5 * h[i, j] * (n[1] <= cutoffs[1])
            for slot in (j, CONJ_PERM[i]):
                mode = _MODE[slot]
                after = n[mode] + _STEP[slot]
                amp = amp * np.sqrt(np.maximum(n[mode], after).clip(min=0))
                amp *= (after >= 0) & (after <= cutoffs[mode])
                n[mode] = after
            offset = int(self.index(n[:, 0]) - self.index(self.occ[:, 0]))
            shifts[offset] = shifts.get(offset, 0.0) + amp
        self.diagonal = shifts.get(0, np.zeros(self.occ.shape[1]))
        self.row_sums = sum(np.abs(amp) for amp in shifts.values())

        dim = self.occ.shape[1]
        # H[k + offset, k] against H[k, k + offset] for every k and offset.
        herm_defect = max(
            (float(np.abs(amp[:dim - offset] - shifts.get(
                -offset, np.zeros(dim))[offset:]).max())
             for offset, amp in shifts.items() if offset > 0),
            default=0.0)
        scale = max(float(np.abs(amp).max()) for amp in shifts.values())
        if herm_defect > 1e-12 * max(1.0, scale):
            raise NumericalFailure(
                f"truncated Hamiltonian not Hermitian (defect {herm_defect:.3e})")
        # (target slice, amplitudes, source slice) of every off-diagonal term
        self._terms = [
            (slice(offset, None), amp[:dim - offset], slice(None, dim - offset))
            if offset > 0 else
            (slice(None, dim + offset), amp[-offset:], slice(-offset, None))
            for offset, amp in sorted(shifts.items()) if offset != 0]

    def index(self, occ: np.ndarray) -> np.ndarray:
        """Index of the states with occupations occ = (n_a, n_b)."""
        return (occ[0] * self._width + occ[1]) // 2

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = self.diagonal * x
        for target, amp, source in self._terms:
            y[target] += amp * x[source]
        return y


def _lowest_eigenpair(ham: _SectorHamiltonian, x: np.ndarray):
    """Lowest eigenvalue of ``ham`` and its unit eigenvector, by LOBPCG with
    block size one (Knyazev, SIAM J. Sci. Comput. 23, 517 (2001)) from x.

    Each step takes the lowest Ritz pair of H on span(x, w, p): the Ritz
    vector x, the residual r = H x - theta x preconditioned by the diagonal
    of H, w = r / diag(H), and the previous step p.  The three are kept
    orthonormal.  w is made orthogonal to x and p before H is applied to it,
    so H w is exact and no small difference of carried vectors is ever
    rescaled; H x and H p follow x and p by the same linear combinations.  A
    Ritz vector that meets the stopping rule (FOCK_RESIDUAL_TOL) is tested
    again with H x recomputed.
    """
    inverse_diagonal = np.divide(1.0, ham.diagonal, out=np.zeros_like(x),
                                 where=ham.diagonal > 0)  # 0 on the padding
    x = x / np.linalg.norm(x)
    hx = ham(x)
    theta = x @ hx
    p = hp = None
    for iteration in range(FOCK_MAX_ITER + 1):
        residual = hx - theta * x
        norm = np.linalg.norm(residual)
        bound = FOCK_RESIDUAL_TOL * np.linalg.norm(ham.row_sums * x)
        if norm <= bound:
            hx = ham(x)
            theta = x @ hx
            residual = hx - theta * x
            norm = np.linalg.norm(residual)
            if norm <= bound:
                return float(theta), x
        if iteration == FOCK_MAX_ITER:
            raise NumericalFailure(
                f"Fock ground state not converged in {FOCK_MAX_ITER} LOBPCG "
                f"iterations (residual {norm:.3e})")
        w = residual * inverse_diagonal
        basis, images = ([x], [hx]) if p is None else ([x, p], [hx, hp])
        for _ in range(2):
            for b in basis:
                w -= (b @ w) * b
        w /= np.linalg.norm(w)
        basis.append(w)
        images.append(ham(w))
        basis, images = np.array(basis), np.array(images)
        projected = basis @ images.T
        values, vectors = np.linalg.eigh(0.5 * (projected + projected.T))
        theta, c = values[0], vectors[:, 0]
        p, hp = c[1:] @ basis[1:], c[1:] @ images[1:]
        x, hx = c[0] * x + p, c[0] * hx + hp
        length = np.linalg.norm(x)
        x, hx = x / length, hx / length
        # p is orthogonal to the old x, not to the new one
        length = np.linalg.norm(p)
        if length == 0.0:
            p = hp = None
            continue
        p, hp = p / length, hp / length
        overlap = x @ p
        p, hp = p - overlap * x, hp - overlap * hx
        length = np.linalg.norm(p)
        p, hp = p / length, hp / length


def _fock_occupations(h: np.ndarray, cutoffs: tuple[int, int], start=None):
    """Ground-state (delta_n, n_photon, energy) at the given cutoffs, for a
    real coefficient matrix h in the photon gauge, and the ground state as
    (occ, vec).

    The solve starts from ``start``, a state (occ, vec) of a box inside this
    one copied onto the same (n_a, n_b) states with zeros elsewhere, or, if
    None, from the Fock vacuum |0, 0>, which is sector index 0.
    """
    ham = _SectorHamiltonian(h, cutoffs)
    v0 = np.zeros(ham.occ.shape[1])
    if start is None:
        v0[0] = 1.0
    else:
        v0[ham.index(start[0])] = start[1]
    energy, vec = _lowest_eigenpair(ham, v0)
    weight = vec ** 2
    return ((float(weight @ ham.occ[1]), float(weight @ ham.occ[0]), energy),
            (ham.occ, vec))


def fock_ground_state(params: ModelParams,
                      cutoffs: tuple[int, int] = (60, 60)) -> FockGroundState:
    """Ground-state occupations on a truncated two-mode Fock space.

    The Hamiltonian is H = 1/2 sum_ij h[i,j] R_i^dag R_j with h = i eta M and
    M = ``build_stability_matrix(params).m`` at the solved mean field,
    truncated at photon/atom occupations ``cutoffs``.  A quadratic H conserves
    the parity (-1)^(n_a + n_b), and its Gaussian ground state is even, so H
    is diagonalized on the even sector only.  In the photon gauge a -> i a,
    which leaves both occupations unchanged, h is real and H a real symmetric
    matrix; its lowest eigenpair comes from block-size-one LOBPCG with the
    diagonal of H as preconditioner, started from the Fock vacuum.  A
    coefficient matrix off h = h^dag by more than HERMITICITY_TOL *
    max(1, max|h|) or not real in that gauge, a truncated H that is not
    symmetric, or a solve that reaches FOCK_MAX_ITER iterations raises
    NumericalFailure.  The run is repeated at doubled cutoffs, started from
    the coarse ground state copied onto the same (n_a, n_b) states; the solve
    stops on the Ritz residual ||H x - theta x||, relative to the size of the
    terms of H x (FOCK_RESIDUAL_TOL), so the start changes the cost of that
    run, not the state it converges to.  The relative change of both
    occupations must stay below 1e-3, otherwise CutoffTooSmall is raised.
    The doubled-cutoff values are returned.
    """
    if params.kappa != 0.0:
        raise ValueError("Fock oracle applies to the closed system (kappa = 0)")
    if min(cutoffs) < 20:
        raise ValueError(f"cutoffs {cutoffs!r} too small; need >= 20")

    h = 1j * ETA @ build_stability_matrix(params).m
    defect = float(np.abs(h - h.conj().T).max())
    if defect > HERMITICITY_TOL * max(1.0, float(np.abs(h).max())):
        raise NumericalFailure(f"coefficient matrix not Hermitian (defect {defect:.3e})")
    h = np.conj(PHOTON_GAUGE)[:, None] * h * PHOTON_GAUGE
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
