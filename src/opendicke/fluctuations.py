"""Linearized fluctuations around the mean field and their steady state.

The fluctuation vector is R = (da, da+, db, db+), where da is the cavity
field fluctuation and db the condensate side-mode orthogonal to the
macroscopically occupied wave function (the zero mode decouples and is
dropped).  The equations of motion are dR/dt = M R + xi with a non-normal
4x4 matrix M and cavity noise entering only the photon slots,
<xi(t) xi+(t')> = 2 kappa delta(t - t').

Steady-state second moments follow from the biorthogonal decomposition of M:
with right eigenvectors r^(k) (columns of V), left eigenvectors l^(k) (rows
of inv(V)) and quasi-normal modes rho_k = (l^(k), R),

    <rho_k rho_l> = -2 kappa L[k, 0] L[l, 1] / (lambda_k + lambda_l)
    <R_i R_j>     = sum_kl <rho_k rho_l> V[i, k] V[j, l]

which is the unique solution of the Lyapunov equation M S + S M^T + D = 0
whenever all modes are damped.

The spectrum scan decomposes the same dynamics in the quadratures
X = Q R = (x_c, p_c, x_a, p_a) instead, where the drift matrix A = Q M Q^-1
is real.  A real eigen-solve is cheaper than a complex one, returns
conjugate eigenvalues and eigenvectors as exact conjugates and a real
eigenvalue with imaginary part exactly 0, and has the eigenvalues of M.

Every stage runs on a stack of matrices, one per pump value: M is an
(N, 4, 4) array, and the eigen-solves, inversions, checks and moment
reassembly act on the whole stack.  Each check turns into a mask, and a row
keeps its first failing check (:class:`~opendicke.errors.RowErrors`).  The
scalar functions (``build_stability_matrix``, ``decompose``,
``mode_correlations``, ``system_moments``, ``steady_state_moments``) are
batches of one and raise the error of their row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import CONJ_PERM, J_COMM, OMEGA_R, QUAD_MAP, T_CONJ
from .errors import (DefectiveMatrix, DivergentSteadyState, NumericalFailure,
                     RowErrors, UnstableState, one_row)
from .model import (MeanFieldBatch, ModelParams, abs_squared,
                    mean_field_batch, mean_field_point, pump_grid)

# Eigenvector-matrix condition number and eigenvalue-cluster thresholds above
# which a matrix is treated as defective.  At an exactly defective point a
# backward-stable eigensolver still returns four eigenvalues, but they are
# only accurate to about sqrt(eps)*||M|| ~ 6e-8 and the eigenvector matrix
# condition number saturates near 1e8, so tighter thresholds can never fire.
# The steady-state route and the spectrum scan screen cond(V) with the bound
# 16 / |det V| of unit-column V (see ``_ill_conditioned``), so only rows with
# |det V| < 32 / DEFECT_COND_LIMIT pay for an SVD.
DEFECT_COND_LIMIT = 1e7
DEFECT_GAP_LIMIT = 1e-7
DEFECT_OVERLAP_LIMIT = 1.0 - 1e-6

BIORTHO_TOL = 1e-10
PAIRING_TOL = 1e-8
STABILITY_TOL = 1e-12
HERMITICITY_TOL = 1e-12
DIVERGENT_TOL = 1e-12

# Eigenvalue pairs (i, j), i < j, in itertools.combinations order, and the
# same pairs as a mask of a 4x4 matrix.
_PAIR_I, _PAIR_J = np.array(list(itertools.combinations(range(4), 2))).T
_PAIRS = np.triu(np.ones((4, 4), dtype=bool), 1)
# The 24 orderings of four branches, in itertools.permutations order.
_PERMS = np.array(list(itertools.permutations(range(4))))
_EYE = np.eye(4)
_EYE2 = np.concatenate((_EYE, _EYE))
_MODES = np.arange(4)


def noise_matrix(kappa: float) -> np.ndarray:
    """Diffusion matrix D with <xi_i(t) xi_j(t')> = D_ij delta(t-t') of the
    vacuum input noise of the lossy cavity at T = 0."""
    d = np.zeros((4, 4))
    d[0, 1] = 2.0 * kappa
    return d


@dataclass(frozen=True)
class StabilityMatrix:
    """Linear stability matrix with the parameters that produced it."""

    m: np.ndarray
    params: ModelParams


@dataclass(frozen=True)
class QuasiNormalSystem:
    """Biorthogonal eigensystem of a stability matrix.

    ``rights`` holds the right eigenvectors as columns, ``lefts`` the left
    eigenvectors as rows (the inverse of ``rights``), so that
    lefts @ rights = identity.  ``pairing[k]`` is the index of the mode with
    the conjugate eigenvalue (a real eigenvalue pairs with itself).
    """

    lambdas: np.ndarray
    rights: np.ndarray
    lefts: np.ndarray
    pairing: np.ndarray
    matrix: StabilityMatrix

    @property
    def cond(self) -> float:
        """Condition number of ``rights`` (an SVD, taken when read)."""
        return float(np.linalg.cond(self.rights))


@dataclass(frozen=True)
class SecondMoments:
    """Equal-time second moments s[i, j] = <R_i R_j>."""

    s: np.ndarray


def blank_failed(stack: np.ndarray, errors: RowErrors, fill=_EYE) -> np.ndarray:
    """Overwrite the rows that already failed with a harmless matrix, so that
    stacked linear algebra never sees their NaN, infinite or singular
    entries."""
    if errors.failed:
        stack[~errors.alive] = fill
    return stack


def live_rows(route, params: ModelParams, mf: MeanFieldBatch, *shapes):
    """``route(params, mf)`` for a batch with failed rows, run on a batch of
    its live rows: their results and first errors go back to their indices,
    and each failed row gets zeros of ``shapes``, one shape per result.
    Without a live row the route does not run."""
    errors = mf.errors
    live = np.flatnonzero(errors.alive)
    outs = [np.zeros((errors.alive.size,) + shape, complex) for shape in shapes]
    if live.size:
        sub = RowErrors(live.size)
        fields = (mf.y, mf.alpha0, mf.beta0, mf.mu)
        parts = route(params, MeanFieldBatch(*(f[live] for f in fields), sub))
        for out, part in zip(outs, parts if len(outs) > 1 else [parts]):
            out[live] = part
        hit = np.zeros_like(errors.alive)
        hit[live] = ~sub.alive
        errors.fail(hit, lambda i: sub.errors[np.searchsorted(live, i)])
    return tuple(outs) if len(outs) > 1 else outs[0]


# Index into (M00, M02, M20, M22, their conjugates, 0) of each entry of M:
# row 0 is (M00, 0, M02, M02), row 2 is (M20, M02, M22, 0), and rows 1 and 3
# are their conjugates with columns swapped.
_ENTRY = np.array([0, 8, 1, 1, 8, 4, 5, 5, 2, 1, 3, 8, 5, 6, 8, 7])


def _gather(entries: np.ndarray) -> np.ndarray:
    """M, (N, 4, 4), from its entries (M00, M02, M20, M22), (4, N) or (4,)."""
    entries = np.concatenate((entries, entries.conjugate(),
                              np.zeros((1,) + entries.shape[1:])))
    return entries[_ENTRY].T.reshape(-1, 4, 4)


# A = Q M Q^-1 is linear in (Re e, Im e), e = (M00, M02, M20, M22), with
# integer coefficients; column j is A at the j-th unit input.
_DRIFT = np.rint((QUAD_MAP @ _gather(np.concatenate((_EYE, 1j * _EYE), axis=1))
                  @ QUAD_MAP.conj().T).real).reshape(8, 16).T


def _entries(params: ModelParams, mf: MeanFieldBatch) -> np.ndarray:
    """(M[0, 0], M[0, 2], M[2, 0], M[2, 2]) of every row, (4, N), or (4,)
    for a batch of one with scalar fields."""
    alpha0, beta0, u = mf.alpha0, mf.beta0, params.u
    # Rows whose mean field failed may hold infinite values; no route
    # decomposes them (``live_rows``).
    with np.errstate(all="ignore"):
        bsq = beta0 * beta0
        one_minus = 1.0 - 2.0 * bsq
        half_y = 0.5 * mf.y * one_minus
        # drive is imaginary and atom is computed as i times a real number,
        # so that no product or quotient of two general complex numbers is
        # taken (their rounding differs between numpy scalars and arrays).
        # Complex factors come first: a Python complex combined with a numpy
        # scalar stays a fast Python complex.
        drive = 1j * u * beta0 * np.sqrt(1.0 - bsq)
        atom = -1j * ((OMEGA_R + u * abs_squared(alpha0)) / one_minus)
        return np.array((1j * (params.delta_c - u * bsq) - params.kappa,
                         -(drive * alpha0) + half_y,
                         -(drive * alpha0.conjugate()) - half_y, atom))


def stability_batch(params: ModelParams, mf: MeanFieldBatch) -> np.ndarray:
    """Stability matrices of every row of a mean-field batch, (N, 4, 4);
    a batch of one with scalar fields gives (1, 4, 4).

    Row 0 of each M is the cavity equation, row 2 the side-mode equation;
    rows 1 and 3 are their elementwise conjugates with columns swapped,
    M = T conj(M) T.  The batch has already failed the rows with
    1 - 2 beta0^2 ~ 0, where the linearization is singular.
    """
    return _gather(_entries(params, mf))


def drift_batch(params: ModelParams, mf: MeanFieldBatch) -> np.ndarray:
    """Real drift matrices A = Q M Q^-1 of the quadratures X = Q R of every
    row of a mean-field batch, (N, 4, 4).  An entry of A is one sum of at
    most two entries of M times 1 or 2: the exact Q M Q^-1, rounded once."""
    e = np.reshape(_entries(params, mf), (4, -1))
    return (_DRIFT @ np.concatenate((e.real, e.imag))).T.reshape(-1, 4, 4)


def build_stability_matrix(params: ModelParams) -> StabilityMatrix:
    """Stability matrix of the linearized equations of motion (batch of one
    of :func:`stability_batch`)."""
    batch = mean_field_point(params)
    return StabilityMatrix(m=batch.errors.first_row(stability_batch(params, batch)),
                           params=params)


def conjugation_defect(m: np.ndarray) -> float:
    """Max-norm violation of M = T conj(M) T (zero for a valid matrix)."""
    return float(np.abs(m - T_CONJ @ np.conj(m) @ T_CONJ).max())


def check_hermitian(h: np.ndarray, errors: RowErrors) -> None:
    """Fail every row of a stack of closed-system coefficient matrices,
    h = i eta M or the real G = -Omega A, whose max-norm violation of
    h = h^dag exceeds HERMITICITY_TOL * max(1, max|h|)."""
    defect = np.abs(h - np.conj(np.swapaxes(h, -1, -2))).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))
    errors.fail(defect > HERMITICITY_TOL * scale, lambda i: NumericalFailure(
        lambda: f"coefficient matrix not Hermitian (defect {defect[i]:.3e})"))


def _scale(lam: np.ndarray) -> np.ndarray:
    """max(1, max_k |lambda_k|) of every row."""
    return np.maximum(1.0, np.abs(lam).max(axis=-1))


def _ill_conditioned(vecs: np.ndarray) -> np.ndarray:
    """cond(V) > DEFECT_COND_LIMIT for every row of a stack of unit-column
    eigenvector matrices, with an SVD only where the bound cannot decide.

    With unit columns sigma_max <= ||V||_F = 2, so |det V| = prod sigma_i
    <= 8 sigma_min and cond(V) <= 16 / |det V|.  A row with
    |det V| >= 32 / DEFECT_COND_LIMIT (the factor 2 absorbs the rounding of
    det) therefore has cond(V) <= DEFECT_COND_LIMIT / 2, and only the other
    rows get ``np.linalg.cond``.
    """
    suspect = np.abs(np.linalg.det(vecs)) < 32.0 / DEFECT_COND_LIMIT
    if np.count_nonzero(suspect):
        suspect[suspect] = np.linalg.cond(vecs[suspect]) > DEFECT_COND_LIMIT
    return suspect


def _defects(lam, vecs, ill_conditioned, scale):
    """Defect test of every row: (defective, |lambda_i - lambda_j|).

    A row is defective when it is ``ill_conditioned`` (cond(V) above
    DEFECT_COND_LIMIT), or when two eigenvalues closer than
    DEFECT_GAP_LIMIT * scale have unit right eigenvectors whose overlap
    |<v_i, v_j>| exceeds DEFECT_OVERLAP_LIMIT.
    """
    gaps = np.abs(lam[:, :, None] - lam[:, None, :])
    defective = ill_conditioned
    close = (gaps < DEFECT_GAP_LIMIT * scale[:, None, None]) & _PAIRS
    if np.count_nonzero(close):
        overlaps = np.abs(vecs.conj().transpose(0, 2, 1) @ vecs)
        near = (close & (overlaps > DEFECT_OVERLAP_LIMIT)).any(axis=(1, 2))
        defective = defective | near
    return defective, gaps


def _closest_pair(gaps: np.ndarray, vecs: np.ndarray) -> tuple[float, float]:
    """(gap, overlap of the unit eigenvectors) of one row's closest
    eigenvalue pair i < j, the first in (0, 1), (0, 2), ... order on a tie."""
    k = int(np.argmin(gaps[_PAIR_I, _PAIR_J]))
    i, j = _PAIR_I[k], _PAIR_J[k]
    return float(gaps[i, j]), float(abs(np.vdot(vecs[:, i], vecs[:, j])))


def sort_modes(lam: np.ndarray, vecs: np.ndarray, order: np.ndarray):
    """Eigenvalues and eigenvector columns of every row in ``order``."""
    rows = np.arange(lam.shape[0])[:, None]
    return lam[rows, order], vecs.transpose(0, 2, 1)[rows, order].transpose(0, 2, 1)


def _decompose_batch(m: np.ndarray, errors: RowErrors):
    """Biorthogonal decomposition of a stack:
    (lam, rights, lefts, pairing, scale).

    Eigenvalues are sorted by (real part, imaginary part).  Rows fail, in
    this order, as defective (DefectiveMatrix), on the biorthonormality
    residual (DefectiveMatrix) and on the conjugate pairing
    (NumericalFailure).  ``scale`` is max(1, max |lambda|) of every row.
    The eigen-solve is the only dense decomposition of a passing row:
    cond(V) is screened by ``_ill_conditioned``, and the SVD value that a
    DefectiveMatrix reports is computed for its row only.
    """
    lam, vecs = np.linalg.eig(m)
    # numpy orders complex numbers by (real part, imaginary part).
    lam, vecs = sort_modes(lam, vecs, np.argsort(lam, axis=-1, kind="stable"))
    scale = _scale(lam)
    defective, gaps = _defects(lam, vecs, _ill_conditioned(vecs), scale)

    def defect(i: int, message: str, **values) -> DefectiveMatrix:
        # Reported: cond(V), and the closest pair if it is closer than the
        # gap limit.
        cond = float(np.linalg.cond(vecs[i]))
        gap, overlap = _closest_pair(gaps[i], vecs[i])
        if not gap < DEFECT_GAP_LIMIT * scale[i]:
            gap, overlap = math.inf, 0.0
        return DefectiveMatrix(lambda: message.format(
            cond=cond, gap=gap, overlap=overlap, **values), cond=cond, gap=gap,
            overlap=overlap)

    errors.fail(defective, lambda i: defect(
        i, "(near-)defective stability matrix: cond(V) = {cond:.3e}, "
           "closest eigenvalue gap {gap:.3e} with overlap {overlap:.10f}"))
    lefts = np.linalg.inv(blank_failed(vecs, errors))
    # max |L V - 1| and max |V L - 1| of every row
    resid = np.abs(np.concatenate((lefts @ vecs, vecs @ lefts), axis=1)
                   - _EYE2).max(axis=(1, 2))
    # pairing[n, k] minimizes |lambda_l - conj(lambda_k)| over l, miss[n, k] is that
    # distance; a live row whose modes tie for a partner takes the closest permutation.
    dist = np.abs(lam[:, None, :] - lam.conj()[:, :, None])
    pairing, rows = dist.argmin(axis=-1), np.arange(lam.shape[0])[:, None]
    not_involution = (pairing[rows, pairing] != _MODES).any(axis=1)
    clash = not_involution & errors.alive
    if np.count_nonzero(clash):
        pairing[clash] = _PERMS[dist[clash][:, _MODES, _PERMS].sum(-1).argmin(1)]
        not_involution = (pairing[rows, pairing] != _MODES).any(axis=1)
    miss = dist[rows, _MODES, pairing]
    unpaired = miss > PAIRING_TOL * scale[:, None]

    errors.fail(resid > BIORTHO_TOL, lambda i: defect(
        i, "biorthonormalization residual {resid:.3e} exceeds {tol:g}; "
           "matrix too close to defective", resid=resid[i], tol=BIORTHO_TOL))
    errors.fail(unpaired.any(axis=1), lambda i: NumericalFailure(lambda: (
        f"eigenvalue {lam[i][unpaired[i]][0]!r} has no conjugate partner "
        f"(closest miss {miss[i][unpaired[i]][0]:.3e})")))
    errors.fail(not_involution, lambda i: NumericalFailure(
        lambda: f"conjugate pairing {pairing[i]!r} is not an involution"))
    return lam, vecs, lefts, pairing, scale


def decompose(stability: StabilityMatrix) -> QuasiNormalSystem:
    """Biorthogonal quasi-normal decomposition of the stability matrix.

    Left eigenvectors are rows of the inverse of the right-eigenvector
    matrix, which makes biorthonormality and completeness hold by
    construction up to roundoff; both are still verified.  Eigenvalues are
    sorted by (real part, imaginary part) for reproducibility.
    """
    lam, vecs, lefts, pairing, _ = one_row(_decompose_batch, stability.m)
    return QuasiNormalSystem(lambdas=lam, rights=vecs, lefts=lefts,
                             pairing=pairing, matrix=stability)


def _correlation_batch(lam: np.ndarray, lefts: np.ndarray, kappa: float,
                       scale: np.ndarray, errors: RowErrors) -> np.ndarray:
    """<rho_k rho_l> of every row; growing rows fail, then divergent ones."""
    tol = STABILITY_TOL * scale[:, None]
    growing = lam.real > tol
    denom = lam[:, :, None] + lam[:, None, :]
    numer = (-2.0 * kappa * lefts[:, :, 0])[:, :, None] * lefts[:, None, :, 1]
    damped = np.abs(denom) > DIVERGENT_TOL * scale[:, None, None]
    coupled = numer != 0.0
    # (damped < coupled) is ~damped & coupled.
    divergent = damped < coupled

    errors.fail(growing.any(axis=1), lambda i: UnstableState(
        lambda: f"growing quasi-normal modes, Re lambda = {lam[i][growing[i]].real!r}"))
    errors.fail(divergent.any(axis=(1, 2)), lambda i: DivergentSteadyState(lambda: (
        f"undamped noise-driven mode pairs "
        f"{[(int(k), int(l)) for k, l in np.argwhere(divergent[i])]!r}: "
        "steady-state moments diverge")))
    g = np.divide(numer, denom, out=np.zeros(numer.shape, numer.dtype), where=damped)
    if damped.all():
        return g
    # A conservative mode pair left in its vacuum: <rho rho+> is the
    # commutator [rho_k, rho_l] and <rho+ rho> = 0.  The pair is undamped
    # and the noise does not couple to it at all (at zero pump the atom
    # decouples exactly), k lowers (Im lambda_k < 0, Re lambda_k ~ 0) and l
    # raises (Im lambda_l > 0); lambda_l = conj(lambda_k) to 3e-12 max|lambda|
    # then follows from lambda_k + lambda_l ~ 0.
    lowering = (lam.imag < 0.0) & (np.abs(lam.real) <= tol)
    vacuum = (damped | coupled) < (lowering[:, :, None] & (lam.imag > 0.0)[:, None, :])
    return np.where(vacuum, lefts @ J_COMM @ lefts.transpose(0, 2, 1), g)


def mode_correlations(q: QuasiNormalSystem) -> np.ndarray:
    """Steady-state quasi-normal-mode correlations <rho_k rho_l>, with the
    cavity noise of the matrix's own kappa.

    Damped entries follow -2 kappa L[k,0] L[l,1] / (lambda_k + lambda_l).
    An entry whose mode pair is undamped (lambda_k + lambda_l ~ 0) diverges
    unless its noise coupling L[k,0] L[l,1] is exactly 0; then the pair is
    a conservative normal mode left in its vacuum, for which <rho rho+>
    equals the commutator [rho_k, rho_l] and <rho+ rho> = 0.
    """
    kappa = q.matrix.params.kappa
    return one_row(lambda lam, lefts, errors: _correlation_batch(
        lam, lefts, kappa, _scale(lam), errors), q.lambdas, q.lefts)


# Flat index of T conj(s)^T T: entry (i, j) is conj(s[CONJ_PERM[j], CONJ_PERM[i]]).
_MIRROR = (4 * CONJ_PERM[None, :] + CONJ_PERM[:, None]).ravel()


def _mirror(s: np.ndarray) -> np.ndarray:
    """T conj(s)^T T: the adjoint partner <R_jbar R_ibar>* of every moment,
    for one matrix or a stack."""
    return s.conj().reshape(s.shape[:-2] + (16,))[..., _MIRROR].reshape(s.shape)


def hermitize_moments(s: np.ndarray) -> np.ndarray:
    """Project onto the exact adjoint symmetry s = T conj(s)^T T.

    The symmetry holds because <R_i R_j>* = <R_jbar R_ibar>; projecting
    removes the numerical residue and makes the occupations exactly real.
    The raw violation must already be small, which the caller checks.
    Works on one matrix or a stack.
    """
    return 0.5 * (s + _mirror(s))


def check_commutators(s: np.ndarray, scale: np.ndarray, errors: RowErrors) -> None:
    """Fail every row whose commutator [R_0, R_1] or [R_2, R_3] is further
    than max(1e-8, 1e-12 * scale) from 1, naming the first that is."""
    # Flat entries 1, 11 are (0, 1), (2, 3) and 4, 14 are (1, 0), (3, 2).
    flat = s.reshape(-1, 16)
    comms = flat[:, 1::10] - flat[:, 4::10]
    tol = np.maximum(1e-8, 1e-12 * scale)
    bad = np.abs(comms - 1.0) > tol[:, None]
    for k in range(2):
        errors.fail(bad[:, k], lambda i, k=k: NumericalFailure(lambda: (
            f"commutator [R_{2 * k}, R_{2 * k + 1}] = {complex(comms[i, k])!r} "
            f"deviates from 1 beyond {tol[i]:g}")))


def _moment_batch(rights: np.ndarray, mode_corrs: np.ndarray,
                  errors: RowErrors) -> np.ndarray:
    """<R_i R_j> of every row, checked and then hermitized.

    The raw adjoint-symmetry and commutator checks come before projection.
    Near the critical point the diverging entries carry a relative error of
    order eps_machine * ||M|| / |lambda_k + lambda_l|, so the tolerances
    scale with the magnitude of the moments.
    """
    s = rights @ mode_corrs @ rights.transpose(0, 2, 1)
    mirror = _mirror(s)
    scale = np.abs(s).max(axis=(1, 2))
    sym_tol = np.maximum(1e-8, 1e-6 * scale)
    asym = np.abs(s - mirror).max(axis=(1, 2))

    errors.fail(asym > sym_tol, lambda i: NumericalFailure(lambda: (
        f"moment matrix violates adjoint symmetry by {asym[i]:.3e} "
        f"(tolerance {sym_tol[i]:g})")))
    check_commutators(s, scale, errors)
    return 0.5 * (s + mirror)


def system_moments(q: QuasiNormalSystem, mode_corrs: np.ndarray) -> SecondMoments:
    """Reassemble <R_i R_j> from mode correlations, enforcing commutators."""
    return SecondMoments(s=one_row(_moment_batch, q.rights, mode_corrs))


def steady_state_batch(params: ModelParams, mf: MeanFieldBatch) -> np.ndarray:
    """Hermitized steady-state moments of every row of a mean-field batch;
    a batch with failed rows runs on its live rows (``live_rows``).

    Rows fail into ``mf.errors`` in the order degenerate branch, defective,
    biorthonormality, pairing, unstable, divergent, moment structure; their
    moments are then meaningless.
    """
    if mf.errors.failed:
        return live_rows(steady_state_batch, params, mf, (4, 4))
    m = stability_batch(params, mf)
    lam, rights, lefts, _, scale = _decompose_batch(m, mf.errors)
    corrs = _correlation_batch(lam, lefts, params.kappa, scale, mf.errors)
    return _moment_batch(rights, corrs, mf.errors)


def steady_state_moments(params: ModelParams) -> SecondMoments:
    """Convenience chain: mean field, stability matrix, modes, moments."""
    batch = mean_field_point(params)
    return SecondMoments(s=batch.errors.first_row(steady_state_batch(params, batch)))


def observables_batch(s: np.ndarray, errors: RowErrors) -> tuple[np.ndarray, np.ndarray]:
    """(<db+ db>, <da+ da>) of every row.  An imaginary residue beyond
    1e-10 * max(1, |value|) or a negative value fails the row."""
    # Flat entries 14 and 4 are (3, 2) and (1, 0): column k is <R_3-2k R_2-2k>.
    values = s.reshape(-1, 16)[:, 14:3:-10]
    tol = 1e-10 * np.maximum(1.0, np.abs(values))
    imaginary, negative = np.abs(values.imag) > tol, values.real < -tol
    for k in range(2):
        name = f"<R_{3 - 2 * k} R_{2 - 2 * k}>"
        errors.fail(imaginary[:, k], lambda r, k=k, name=name: NumericalFailure(
            lambda: f"{name} = {complex(values[r, k])!r} has "
                    f"imaginary residue beyond {tol[r, k]:g}"))
        errors.fail(negative[:, k], lambda r, k=k, name=name: NumericalFailure(
            lambda: f"{name} = {complex(values[r, k])!r} is negative"))
    return values[:, 0].real, values[:, 1].real


def observables(s: SecondMoments) -> tuple[float, float]:
    """(condensate depletion <db+ db>, incoherent photon number <da+ da>)."""
    delta_n, n_photon = one_row(observables_batch, s.s)
    return float(delta_n), float(n_photon)


@dataclass(frozen=True)
class EndpointReport:
    """Refined boundary of an interval where a mode pair sits on the real axis."""

    y: float
    refined: bool
    defective: bool
    cond: float
    gap: float
    overlap: float


@dataclass(frozen=True)
class RealInterval:
    lower: EndpointReport
    upper: EndpointReport


@dataclass(frozen=True)
class SpectrumScan:
    """Eigenvalue branches tracked along a pump grid.

    ``branches[i, k]`` is the eigenvalue of branch k at ``y[i]``; branches are
    matched between neighboring grid points by total eigenvalue displacement
    with an eigenvector-overlap tie-break.  ``real_intervals`` lists maximal
    runs where at least two eigenvalues are real, with root-refined,
    defectiveness-classified endpoints.
    """

    y: np.ndarray
    branches: np.ndarray
    status: list[str]
    real_intervals: list[RealInterval] = field(default_factory=list)


def _spectra(a: np.ndarray):
    """(lam, unit right eigenvectors, defective, gaps) of a stack of drift
    matrices, in the eigensolver's order; cond(V) is screened by
    ``_ill_conditioned``.  Q is unitary, so cond(V) and the overlaps are
    those of the eigenvectors of M.  The results are complex even where every
    eigenvalue of the stack is real, so that no row depends on the others."""
    lam, vecs = np.linalg.eig(a)
    lam, vecs = lam.astype(complex, copy=False), vecs.astype(complex, copy=False)
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    return (lam, vecs) + _defects(lam, vecs, _ill_conditioned(vecs), _scale(lam))


def _drift_at(params: ModelParams, y: float) -> np.ndarray:
    """Drift matrix at one pump value."""
    p = params.with_pump(y)
    batch = mean_field_point(p)
    return batch.errors.first_row(drift_batch(p, batch))


def _match_branches(lam: np.ndarray, vecs: np.ndarray):
    """Order every row's eigenvalues to continue the branches of the row
    before: (matched eigenvalues, ambiguous flags).

    Row 0 is sorted by (real part, imaginary part).  Each later row takes the
    permutation with the least total displacement from the previous matched
    row; permutations within 1e-12 of the least are told apart by their
    summed eigenvector overlaps, and a tie that remains marks the row
    ambiguous.

    The least displacement does not depend on the order of the row before,
    so it is found for every row at once against the raw order, and a row
    whose runner-up is clear of the 1e-12 tie band by more than the rounding
    of a reordered sum composes that permutation with the one before.  The
    other rows compare the 24 permutations against the matched order.
    """
    n = lam.shape[0]
    # dist[i - 1, a, b] = |lambda_i[a] - lambda_{i-1}[b]|
    dist = np.abs(lam[1:, :, None] - lam[:-1, None, :])
    raw = dist[:, _PERMS, _MODES]
    raw = raw[..., 0] + raw[..., 1] + raw[..., 2] + raw[..., 3]
    best, runner_up = np.sort(raw, axis=1)[:, :2].T
    clear = (runner_up - best > 1e-12 + 1e-15 * (runner_up + best)).tolist()
    moves = _PERMS[np.argmin(raw, axis=1)]
    perm = np.lexsort((lam[0].imag, lam[0].real))
    perms = [perm]
    ambiguous = [False] * n
    for i in range(1, n):
        if clear[i - 1]:
            perm = moves[i - 1][perm]
            perms.append(perm)
            continue
        d = dist[i - 1][_PERMS, perm]
        costs = d[:, 0] + d[:, 1] + d[:, 2] + d[:, 3]
        tied = np.flatnonzero(costs - costs.min() <= 1e-12)
        gram = np.abs(vecs[i - 1][:, perm].conj().T @ vecs[i])
        o = gram[np.arange(4), _PERMS[tied]]
        overlaps = o[:, 0] + o[:, 1] + o[:, 2] + o[:, 3]
        winners = tied[overlaps.max() - overlaps <= 1e-12]
        perm = _PERMS[winners[0]]
        ambiguous[i] = winners.size > 1
        perms.append(perm)
    return np.take_along_axis(lam, np.array(perms), 1), ambiguous


def _discriminant(params: ModelParams, y: float) -> float:
    """Re prod_{i<j} (lambda_i - lambda_j)^2 of the drift matrix at y by its
    real eigen-solve: < 0 with one real pair and one conjugate pair, > 0 with
    two conjugate pairs, and through 0 with a slope where a real pair merges."""
    lam = np.linalg.eig(_drift_at(params, y))[0].astype(complex)
    return float(np.prod((lam[_PAIR_I] - lam[_PAIR_J]) ** 2).real)


def _refine_endpoint(params: ModelParams, a: float, b: float) -> EndpointReport:
    """The edge of the real-axis region between an inside pump a and an outside
    pump b: the root of ``_discriminant`` by Illinois regula falsi down to adjacent
    floats, classified on the inside; a itself, unrefined, without a sign change."""
    fa, fb = _discriminant(params, a), _discriminant(params, b)
    refined, moved = fa <= 0.0 < fb, 0
    while refined:
        c = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < c < max(a, b):  # a step below the float spacing
            near, far = (a, b) if abs(c - a) <= abs(c - b) else (b, a)
            if (c := math.nextafter(near, far)) == far:
                break
        fc = _discriminant(params, c)
        # Illinois: an end kept twice in a row has its value halved.
        if fc <= 0.0:
            a, fa, fb, moved = c, fc, fb / (2.0 if moved > 0 else 1.0), 1
        else:
            b, fb, fa, moved = c, fc, fa / (2.0 if moved < 0 else 1.0), -1
    _, vecs, defective, gaps = _spectra(_drift_at(params, a)[None])
    gap, overlap = _closest_pair(gaps[0], vecs[0])
    return EndpointReport(y=a, refined=refined, defective=bool(defective[0]),
                          cond=float(np.linalg.cond(vecs[0])), gap=gap, overlap=overlap)


def spectrum_scan(params: ModelParams, y_grid) -> SpectrumScan:
    """Track the quasi-normal spectrum along a sorted pump grid.

    Grid points where the matrix is (near-)defective are kept, flagged with
    status 'defective'; points where branch matching stays ambiguous after
    the eigenvector tie-break are flagged 'ambiguous'.  The grid is one
    batch.  An interval that reaches an edge of the grid ends there,
    unrefined.
    """
    if np.ndim(y_grid) != 1 or np.size(y_grid) < 2:
        raise ValueError("y grid must be a 1-d array with at least 2 points")
    y_grid = pump_grid(y_grid)
    if (np.diff(y_grid) <= 0).any():
        raise ValueError("y grid must be strictly increasing")

    mf = mean_field_batch(params, y_grid)
    mf.errors.raise_first()
    lam, vecs, defective, _ = _spectra(drift_batch(params, mf))
    branches, ambiguous = _match_branches(lam, vecs)
    status = ["defective" if d else "ambiguous" if a else "ok"
              for d, a in zip(defective.tolist(), ambiguous)]

    def grid_edge(i: int) -> EndpointReport:
        return EndpointReport(y=y_grid[i], refined=False, defective=False,
                              cond=float(np.linalg.cond(vecs[i])),
                              gap=math.nan, overlap=math.nan)

    # Maximal runs of rows with two real eigenvalues (Im exactly 0): start to end - 1.
    real = np.count_nonzero(branches.imag == 0.0, axis=-1) >= 2
    padded = np.concatenate(([False], real, [False]))
    intervals = []
    for start, end in zip(np.flatnonzero(padded[1:] > padded[:-1]).tolist(),
                          np.flatnonzero(padded[1:] < padded[:-1]).tolist()):
        lower = (_refine_endpoint(params, y_grid[start], y_grid[start - 1])
                 if start > 0 else grid_edge(start))
        upper = (_refine_endpoint(params, y_grid[end - 1], y_grid[end])
                 if end < y_grid.size else grid_edge(end - 1))
        intervals.append(RealInterval(lower=lower, upper=upper))

    return SpectrumScan(y=y_grid, branches=branches, status=status,
                        real_intervals=intervals)
