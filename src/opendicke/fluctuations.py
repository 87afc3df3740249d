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
batches of one and raise the error of their row.  ``_map_batches`` runs a
long grid in batches of BATCH_ROWS pumps on one thread per usable CPU for the
spectrum and the kappa > 0 steady-state scans of ``analysis``.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .basis import CONJ_PERM, OMEGA_SYMPL, QUAD_MAP, T_CONJ
from .errors import (DefectiveMatrix, DivergentSteadyState, NumericalFailure,
                     RowErrors, UnstableState, one_row)
from .model import (MeanFieldBatch, ModelParams, mean_field_batch,
                    mean_field_point, pump_grid)

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
# Pump values per batch of a grid scan and per eigen-solve of the spectrum
# scan.  It bounds the (N, 4, 4) temporaries of a long grid to about a
# megabyte per thread; a batch adds a fixed cost of a few hundred
# microseconds.  A batch is the unit of work of every scan thread, the calling
# one included (``_map_batches``): a grid of one batch runs on the caller.
BATCH_ROWS = 256

# Eigenvalue pairs (i, j), i < j, in itertools.combinations order.
_PAIR_I, _PAIR_J = np.array(list(itertools.combinations(range(4), 2))).T
# The 24 orderings of four branches in itertools.permutations order;
# _THEN[a, b] is the index of their composition _PERMS[a][_PERMS[b]], and the
# ten involutions, the candidate conjugate pairings, are its diagonal's zeros.
_MODES = np.arange(4)
_PERMS = np.array(list(itertools.permutations(_MODES)))
_THEN = (_PERMS[:, _PERMS][:, :, None] == _PERMS).all(-1).argmax(-1)
_INVOLUTIONS = _PERMS[_THEN.diagonal() == 0]
# The involutions' |lambda_p(k) - conj(lambda_k)| in |lambda_j - conj(lambda_k)|.
_INVOLUTION_TERMS = (4 * _INVOLUTIONS + _MODES).ravel()
_EYE = np.eye(4)
_EYE2 = np.concatenate((_EYE, _EYE))


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
    lefts @ rights = identity.  ``pairing`` is an involution: ``pairing[k]``
    is the mode with the conjugate eigenvalue (a real one pairs with itself).
    """

    lambdas: np.ndarray
    rights: np.ndarray
    lefts: np.ndarray
    pairing: np.ndarray
    matrix: StabilityMatrix


@dataclass(frozen=True)
class SecondMoments:
    """Equal-time second moments s[i, j] = <R_i R_j>."""

    s: np.ndarray


def blank_failed(stack: np.ndarray, errors: RowErrors) -> np.ndarray:
    """``stack`` with the identity on the rows that already failed, a copy if
    any did, so that stacked linear algebra never sees their NaN, infinite or
    singular entries."""
    if errors.failed:
        return np.where(errors.alive[:, None, None], stack, _EYE)
    return stack


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_batches(compute, stack, threads: bool = True) -> list:
    """``compute`` of each slice of at most BATCH_ROWS rows of ``stack``, in
    grid order, on one thread per usable CPU if ``threads``, else serially.

    numpy's LAPACK calls release the GIL, so the eigen-solves of different
    batches overlap.  Helper threads take batches from the front and the
    calling thread from the back, up to the first one a helper has started:
    helpers start them in order, so every earlier batch is theirs.  Every
    helper is joined before this returns.  The first failing batch's
    exception in grid order is raised, as in a serial loop; a later batch
    may still have run, and its result is discarded.
    """
    batches = [stack[start:start + BATCH_ROWS]
               for start in range(0, len(stack), BATCH_ROWS)]
    workers = min(len(batches), _usable_cpus()) if threads and len(batches) > 1 else 1
    if workers < 2:
        return [compute(b) for b in batches]
    from concurrent.futures import Future, ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(compute, b) for b in batches]
        for i in reversed(range(len(batches))):
            if not futures[i].cancel():
                break
            futures[i] = Future()
            try:
                futures[i].set_result(compute(batches[i]))
            except Exception as err:
                futures[i].set_exception(err)
    return [future.result() for future in futures]


# Index into (M00, M02, M20, M22, their conjugates, 0) of each entry of M:
# row 0 is (M00, 0, M02, M02), row 2 is (M20, M02, M22, 0), and rows 1 and 3
# are their conjugates with columns swapped.
_ENTRY = np.array([0, 8, 1, 1, 8, 4, 5, 5, 2, 1, 3, 8, 5, 6, 8, 7])


def _gather(entries: np.ndarray) -> np.ndarray:
    """M, (N, 4, 4), from its entries (M00, M02, M20, M22), (4, N) or (4,)."""
    entries = np.concatenate((entries, entries.conjugate(),
                              np.zeros((1,) + entries.shape[1:])))
    return entries.take(_ENTRY, axis=0).T.reshape(-1, 4, 4)


# A = Q M Q^-1 is linear in (Re e, Im e), e = (M00, M02, M20, M22), with
# integer coefficients; column j is A at the j-th unit input.
_DRIFT = np.rint((QUAD_MAP @ _gather(np.concatenate((_EYE, 1j * _EYE), axis=1))
                  @ QUAD_MAP.conj().T).real).reshape(8, 16).T


def _entries(params: ModelParams, mf: MeanFieldBatch) -> np.ndarray:
    """(M[0, 0], M[0, 2], M[2, 0], M[2, 2]) = (i Delta - kappa, g/2, -conj(g/2),
    -i omega) of every row from kappa and the frame, (4, N), or (4,) for a
    batch of one with scalar fields.  Rows whose mean field failed are
    dropped or raised by the routes, and blanked by the ground state."""
    half_g = 0.5 * mf.g
    return np.array((1j * mf.delta - params.kappa, half_g, -half_g.conjugate(),
                     -1j * mf.omega))


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


def frame_batch(params: ModelParams, mf: MeanFieldBatch):
    """(Delta, omega, g) of every row, each (N,): the batch's frame, bit for
    bit A[1, 0], A[2, 3] and A[0, 2] + i A[1, 2] of :func:`drift_batch`."""
    return np.reshape(mf.delta, -1), np.reshape(mf.omega, -1), np.reshape(mf.g, -1)


def build_stability_matrix(params: ModelParams) -> StabilityMatrix:
    """Stability matrix of the linearized equations of motion (batch of one
    of :func:`stability_batch`)."""
    batch = mean_field_point(params)
    batch.errors.raise_first()
    return StabilityMatrix(m=stability_batch(params, batch)[0], params=params)


def conjugation_defect(m: np.ndarray) -> float:
    """Max-norm violation of M = T conj(M) T (zero for a valid matrix)."""
    return float(np.abs(m - T_CONJ @ np.conj(m) @ T_CONJ).max())


def _scale(lam: np.ndarray) -> np.ndarray:
    """max(1, max_k |lambda_k|) of every row."""
    return np.maximum.reduce(np.abs(lam), axis=-1, initial=1.0)


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
    """Defect test of every row: (defective, |lambda_i - lambda_j| per pair i < j).

    A row is defective when it is ``ill_conditioned`` (cond(V) above
    DEFECT_COND_LIMIT), or when two eigenvalues closer than
    DEFECT_GAP_LIMIT * scale have unit right eigenvectors whose overlap
    |<v_i, v_j>| exceeds DEFECT_OVERLAP_LIMIT.
    """
    gaps = np.abs(lam.take(_PAIR_I, axis=1) - lam.take(_PAIR_J, axis=1))
    defective = ill_conditioned
    close = gaps < DEFECT_GAP_LIMIT * scale[:, None]
    if np.count_nonzero(close):
        overlaps = np.abs(vecs.conj().transpose(0, 2, 1) @ vecs)[:, _PAIR_I, _PAIR_J]
        defective = defective | (close & (overlaps > DEFECT_OVERLAP_LIMIT)).any(axis=1)
    return defective, gaps


def _closest_pair(gaps: np.ndarray, vecs: np.ndarray) -> tuple[float, float]:
    """(gap, overlap of the unit eigenvectors) of one row's closest
    eigenvalue pair i < j, the first in (0, 1), (0, 2), ... order on a tie."""
    k = int(np.argmin(gaps))
    i, j = _PAIR_I[k], _PAIR_J[k]
    return float(gaps[k]), float(abs(np.vdot(vecs[:, i], vecs[:, j])))


def sort_modes(lam: np.ndarray, vecs: np.ndarray, order: np.ndarray):
    """Eigenvalues and eigenvector columns of every row in ``order``."""
    rows = np.arange(lam.shape[0])[:, None]
    return lam[rows, order], vecs.transpose(0, 2, 1)[rows, order].transpose(0, 2, 1)


def _decompose_batch(m: np.ndarray, errors: RowErrors):
    """Biorthogonal decomposition of a stack:
    (lam, rights, lefts, best, scale).

    Eigenvalues are sorted by (real part, imaginary part), and the pairing
    ``_INVOLUTIONS[best]`` is the involution p of least sum_k
    |lambda_p(k) - conj(lambda_k)| (the first on a tie).  Rows fail, in this
    order, as defective (DefectiveMatrix), on the biorthonormality residual
    (DefectiveMatrix) and on a term of that sum above PAIRING_TOL * scale
    (NumericalFailure).
    ``scale`` is max(1, max |lambda|) of every row.
    A passing row takes the eigen-solve, det(V) for the cond(V) screen of
    ``_ill_conditioned`` and inv(V).  An SVD runs only for a row that screen
    cannot clear, and for the cond(V) of a DefectiveMatrix that is built.
    """
    lam, vecs = np.linalg.eig(m)
    # numpy orders complex numbers by (real part, imaginary part).
    lam, vecs = sort_modes(lam, vecs, lam.argsort(axis=-1, kind="stable"))
    scale = _scale(lam)
    defective, gaps = _defects(lam, vecs, _ill_conditioned(vecs), scale)

    def defect(i: int, message: str, **values) -> tuple:
        # DefectiveMatrix's arguments from the unblanked V: cond(V), and the
        # closest pair if it is closer than the gap limit.
        cond = float(np.linalg.cond(vecs[i]))
        gap, overlap = _closest_pair(gaps[i], vecs[i])
        if not gap < DEFECT_GAP_LIMIT * scale[i]:
            gap, overlap = math.inf, 0.0
        return (message.format(cond=cond, gap=gap, overlap=overlap, **values),
                cond, gap, overlap)

    errors.fail(defective, DefectiveMatrix, lambda i: defect(
        i, "(near-)defective stability matrix: cond(V) = {cond:.3e}, "
           "closest eigenvalue gap {gap:.3e} with overlap {overlap:.10f}"))
    lefts = np.linalg.inv(blank_failed(vecs, errors))
    # |L V - 1| and |V L - 1| of every row; a screened V has a finite inverse
    resid = np.abs(np.concatenate((lefts @ vecs, vecs @ lefts), axis=1) - _EYE2)
    # terms[n, q, k] = |lambda_p(k) - conj(lambda_k)| for p = _INVOLUTIONS[q]
    table = np.abs(lam[:, :, None] - lam.conj()[:, None, :]).reshape(-1, 16)
    terms = table.take(_INVOLUTION_TERMS, axis=1).reshape(-1, 10, 4)
    # The sums in the order of terms.sum(-1), without its reduction overhead.
    best = (terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]).argmin(1)
    miss = terms[np.arange(best.size), best]
    unpaired = miss > PAIRING_TOL * scale[:, None]

    errors.fail(resid > BIORTHO_TOL, DefectiveMatrix, lambda i: defect(
        i, "biorthonormalization residual {resid:.3e} exceeds {tol:g}; "
           "matrix too close to defective", resid=resid[i].max(), tol=BIORTHO_TOL))
    errors.fail(unpaired, NumericalFailure, lambda i: (
        f"eigenvalue {lam[i][unpaired[i]][0]!r} has no conjugate partner "
        f"(closest miss {miss[i][unpaired[i]][0]:.3e})"))
    return lam, vecs, lefts, best, scale


def decompose(stability: StabilityMatrix) -> QuasiNormalSystem:
    """Biorthogonal quasi-normal decomposition of the stability matrix.

    Left eigenvectors are the rows of the inverse of the right-eigenvector
    matrix, so biorthonormality and completeness hold up to roundoff; both
    are still verified.  Eigenvalues are sorted by (real part, imaginary
    part) and paired with their conjugates by the least-distance involution.
    """
    lam, vecs, lefts, best, _ = one_row(_decompose_batch, stability.m)
    return QuasiNormalSystem(lambdas=lam, rights=vecs, lefts=lefts,
                             pairing=_INVOLUTIONS.take(best, axis=0), matrix=stability)


def _correlation_batch(lam: np.ndarray, lefts: np.ndarray, kappa: float,
                       scale: np.ndarray, errors: RowErrors) -> np.ndarray:
    """<rho_k rho_l> of every row; growing rows fail, then divergent ones."""
    tol = STABILITY_TOL * scale[:, None]
    growing = lam.real > tol
    denom = lam[:, :, None] + lam[:, None, :]
    numer = (-2.0 * kappa * lefts[:, :, 0])[:, :, None] * lefts[:, None, :, 1]
    damped = np.abs(denom) > DIVERGENT_TOL * scale[:, None, None]
    errors.fail(growing, UnstableState, lambda i:
                f"growing quasi-normal modes, Re lambda = {lam[i][growing[i]].real!r}")
    if np.count_nonzero(damped) == damped.size:
        return numer / denom
    coupled = numer != 0.0
    # (damped < coupled) is ~damped & coupled.
    divergent = damped < coupled
    errors.fail(divergent, DivergentSteadyState, lambda i: (
        f"undamped noise-driven mode pairs "
        f"{[(int(k), int(l)) for k, l in np.argwhere(divergent[i])]!r}: "
        "steady-state moments diverge"))
    g = np.divide(numer, denom, out=np.zeros(numer.shape, numer.dtype), where=damped)
    # A conservative mode pair left in its vacuum: <rho rho+> is the
    # commutator [rho_k, rho_l] and <rho+ rho> = 0.  The pair is undamped
    # and the noise does not couple to it at all (at zero pump the atom
    # decouples exactly), k lowers (Im lambda_k < 0, Re lambda_k ~ 0) and l
    # raises (Im lambda_l > 0); lambda_l = conj(lambda_k) to 3e-12 max|lambda|
    # then follows from lambda_k + lambda_l ~ 0.
    lowering = (lam.imag < 0.0) & (np.abs(lam.real) <= tol)
    vacuum = (damped | coupled) < (lowering[:, :, None] & (lam.imag > 0.0)[:, None, :])
    return np.where(vacuum, lefts @ OMEGA_SYMPL @ lefts.transpose(0, 2, 1), g)


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
    return s.reshape(-1, 16).take(_MIRROR, axis=1).conj().reshape(s.shape)


def hermitize_moments(s: np.ndarray) -> np.ndarray:
    """Project onto the exact adjoint symmetry s = T conj(s)^T T.

    The symmetry holds because <R_i R_j>* = <R_jbar R_ibar>; projecting
    removes the numerical residue and makes the occupations exactly real.
    The raw violation must already be small, which the caller checks.
    Works on one matrix or a stack.
    """
    return 0.5 * (s + _mirror(s))


def check_commutators(s: np.ndarray, scale: np.ndarray, errors: RowErrors) -> None:
    """Fail every row whose commutator [R_0, R_1] or [R_2, R_3] is not
    finite or further than max(1e-8, 1e-12 * scale) from 1, naming the first
    that is."""
    # Flat entries 1, 11 are (0, 1), (2, 3) and 4, 14 are (1, 0), (3, 2).
    flat = s.reshape(-1, 16)
    comms = flat[:, 1::10] - flat[:, 4::10]
    deviation = np.abs(comms - 1.0)
    tol = np.maximum(1e-8, 1e-12 * scale)
    # An infinite scale leaves an infinite tolerance.
    ok = (deviation <= tol[:, None]) & (deviation < math.inf)
    if np.count_nonzero(ok) < ok.size:
        bad = ~ok
        for k in range(2):
            errors.fail(bad[:, k], NumericalFailure, lambda i, k=k: (
                f"commutator [R_{2 * k}, R_{2 * k + 1}] = {complex(comms[i, k])!r} "
                f"deviates from 1 beyond {tol[i]:g}"))


def _moment_batch(rights: np.ndarray, mode_corrs: np.ndarray,
                  errors: RowErrors) -> np.ndarray:
    """<R_i R_j> of every row, checked and then hermitized.

    The raw adjoint-symmetry and commutator checks come before projection.
    Near the critical point the diverging entries carry a relative error of
    order eps_machine * ||M|| / |lambda_k + lambda_l|, so the tolerances
    scale with the magnitude of the moments.  A row with a NaN or infinite
    moment fails the adjoint-symmetry check: its scale is not finite.
    """
    s = rights @ mode_corrs @ rights.transpose(0, 2, 1)
    mirror = _mirror(s)
    scale = np.maximum.reduce(np.abs(s), axis=(1, 2))
    sym_tol = np.maximum(1e-8, 1e-6 * scale)
    asym = np.abs(s - mirror)
    symmetric = (asym <= sym_tol[:, None, None]) & (scale < math.inf)[:, None, None]

    errors.fail(~symmetric, NumericalFailure, lambda i: (
        f"moment matrix violates adjoint symmetry by {asym[i].max():.3e} "
        f"(tolerance {sym_tol[i]:g})"))
    check_commutators(s, scale, errors)
    return 0.5 * (s + mirror)


def system_moments(q: QuasiNormalSystem, mode_corrs: np.ndarray) -> SecondMoments:
    """Reassemble <R_i R_j> from mode correlations, enforcing commutators."""
    return SecondMoments(s=one_row(_moment_batch, q.rights, mode_corrs))


def steady_state_batch(params: ModelParams, mf: MeanFieldBatch) -> np.ndarray:
    """Hermitized steady-state moments of every row of a mean-field batch.

    A batch with failed rows runs on a batch of its live rows, if any, whose
    moments and failures go back to their indices; failed rows get zeros.
    Rows fail into ``mf.errors`` in the order degenerate branch, defective,
    biorthonormality, pairing, unstable, divergent, moment structure; their
    moments are then meaningless.
    """
    errors = mf.errors
    if errors.failed:
        live = errors.alive.nonzero()[0]
        s = np.zeros((errors.alive.size, 4, 4), complex)
        if live.size:
            sub = RowErrors(live.size)
            s[live] = steady_state_batch(params, mf.take(live, sub))
            errors.adopt(live, sub)
        return s
    m = stability_batch(params, mf)
    lam, rights, lefts, _, scale = _decompose_batch(m, errors)
    corrs = _correlation_batch(lam, lefts, params.kappa, scale, errors)
    return _moment_batch(rights, corrs, errors)


def steady_state_moments(params: ModelParams) -> SecondMoments:
    """Convenience chain: mean field, stability matrix, modes, moments."""
    batch = mean_field_point(params)
    return SecondMoments(s=batch.errors.first_row(steady_state_batch(params, batch)))


def observables_batch(s: np.ndarray, errors: RowErrors) -> tuple[np.ndarray, np.ndarray]:
    """(<db+ db>, <da+ da>) of every row.  An imaginary residue beyond
    1e-10 * max(1, |value|), a negative value, a NaN or an infinite value
    fails the row."""
    # Flat entries 14 and 4 are (3, 2) and (1, 0): column k is <R_3-2k R_2-2k>.
    values = s.reshape(-1, 16)[:, 14:3:-10]
    size = np.abs(values)
    tol = 1e-10 * np.maximum(1.0, size)
    # An infinite value has an infinite tolerance, so it gets its own check.
    checks = ((~(np.abs(values.imag) <= tol), "has imaginary residue beyond {tol:g}"),
              (~(values.real >= -tol), "is negative"), (size == math.inf, "is not finite"))
    for k in range(2):
        for bad, what in checks:
            errors.fail(bad[:, k], NumericalFailure, lambda r, k=k, what=what: (
                f"<R_{3 - 2 * k} R_{2 - 2 * k}> = {complex(values[r, k])!r} "
                + what.format(tol=tol[r, k])))
    return values[:, 0].real, values[:, 1].real


def observables(s: SecondMoments) -> tuple[float, float]:
    """(condensate depletion <db+ db>, incoherent photon number <da+ da>)."""
    delta_n, n_photon = one_row(observables_batch, s.s)
    return float(delta_n), float(n_photon)


@dataclass(frozen=True)
class EndpointReport:
    """End of an interval where a mode pair sits on the real axis: its pump, if
    it is a refined root, and the defect test of the drift matrix at that pump."""

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
    runs where at least two eigenvalues are real, with endpoints classified
    at their own pumps.
    """

    y: np.ndarray
    branches: np.ndarray
    status: list[str]
    real_intervals: list[RealInterval] = field(default_factory=list)


def _spectra(lam: np.ndarray, vecs: np.ndarray):
    """(lam, unit right eigenvectors, defective, gaps) of a stack of drift
    matrices from their real eigen-solve (lam, vecs), in the eigensolver's
    order; cond(V) is screened by ``_ill_conditioned``.  Q is unitary, so
    cond(V) and the overlaps are those of the eigenvectors of M.  The results
    are complex even where every eigenvalue is real: no row depends on others."""
    lam, vecs = lam.astype(complex, copy=False), vecs.astype(complex, copy=False)
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    return (lam, vecs) + _defects(lam, vecs, _ill_conditioned(vecs), _scale(lam))


def _drift_at(params: ModelParams, y: float) -> np.ndarray:
    """Drift matrix at one pump value."""
    p = params.with_pump(y)
    batch = mean_field_point(p)
    batch.errors.raise_first()
    return drift_batch(p, batch)[0]


def _match_branches(lam: np.ndarray, vecs: np.ndarray):
    """Order every row's eigenvalues to continue the branches of the row
    before: (matched eigenvalues, ambiguous flags).

    Row 0 is sorted by (real part, imaginary part).  Each later row keeps the
    permutations within 1e-12 of the least total displacement from the row
    before; where that keeps more than one, it keeps those within 1e-12 of
    the greatest summed eigenvector overlap, and more than one left marks the
    row ambiguous.  Neither sum depends on the order of the row before, so
    both are taken for every row at once against the raw order.  The branches
    go on with the survivor that comes first in matched order, which
    ``_THEN`` reads off the matched order of the row before.
    """
    # d[i - 1, p, k] = |lambda_i[_PERMS[p, k]] - lambda_{i-1}[k]|
    d = np.abs(lam[1:, :, None] - lam[:-1, None, :])[:, _PERMS, _MODES]
    costs = d[..., 0] + d[..., 1] + d[..., 2] + d[..., 3]
    keep = costs - costs.min(1, keepdims=True) <= 1e-12
    rows = np.flatnonzero(keep.sum(1) > 1)
    # gram[r, a, b] = |<v_{i-1}[a], v_i[b]>| for row i = rows[r] + 1
    gram = np.abs(vecs[rows].conj().swapaxes(1, 2) @ vecs[rows + 1])
    o = gram[:, _MODES, _PERMS]
    o = np.where(keep[rows], o[..., 0] + o[..., 1] + o[..., 2] + o[..., 3], -np.inf)
    keep[rows] = o.max(1, keepdims=True) - o <= 1e-12
    tied = keep.sum(1) > 1
    # then[i - 1, b]: row i's matched permutation after b on row i - 1
    then = _THEN[keep.argmax(1)]
    then[tied] = np.where(keep[tied, :, None], _THEN, 24).min(1)
    first = _PERMS.tolist().index(np.lexsort((lam[0].imag, lam[0].real)).tolist())
    perms = itertools.accumulate(then.tolist(), lambda b, row: row[b], initial=first)
    return np.take_along_axis(lam, _PERMS[list(perms)], 1), [False] + tied.tolist()


def _discriminant(lam: np.ndarray) -> float:
    """Re prod_{i<j} (lambda_i - lambda_j)^2 of one row's eigenvalues of the
    drift matrix: < 0 with one real pair and one conjugate pair, > 0 with two
    conjugate pairs, and through 0 with a slope where a real pair merges."""
    return float(np.prod((lam[_PAIR_I] - lam[_PAIR_J]).astype(complex) ** 2).real)


def _refine_endpoint(params: ModelParams, a: float, b: float, fa: float, fb: float):
    """The edge of the real-axis region between an inside pump a and an outside
    pump b of discriminants fa and fb: (y, refined, ``_spectra`` at y).  y is
    the root of ``_discriminant`` by Illinois regula falsi down to adjacent
    floats, classified on the inside; a, with None, if no step lands inside."""
    refined, moved, solve = fa <= 0.0 < fb, 0, None
    while refined:
        c = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < c < max(a, b):  # a step below the float spacing
            near, far = (a, b) if abs(c - a) <= abs(c - b) else (b, a)
            if (c := math.nextafter(near, far)) == far:
                break
        step = np.linalg.eig(_drift_at(params, c)[None])  # (lam, vecs)
        fc = _discriminant(step[0][0])
        # Illinois: an end kept twice in a row has its value halved.
        if fc <= 0.0:
            a, fa, fb, moved, solve = c, fc, fb / (2.0 if moved > 0 else 1.0), 1, step
        else:
            b, fb, fa, moved = c, fc, fa / (2.0 if moved < 0 else 1.0), -1
    return a, refined, solve and _spectra(*solve)


def spectrum_scan(params: ModelParams, y_grid) -> SpectrumScan:
    """Track the quasi-normal spectrum along a sorted pump grid.

    Grid points where the matrix is (near-)defective are kept, flagged with
    status 'defective'; points where branch matching stays ambiguous after
    the eigenvector tie-break are flagged 'ambiguous'; a point without a mean
    field raises for the whole grid, as branch matching needs every row.  The
    eigen-solves run in batches of BATCH_ROWS pumps on every scan thread
    (:func:`_map_batches`); branch matching and endpoint refinement run on
    the calling thread alone.  An interval's end is the refined root where
    the discriminant changes sign next to its inside grid row, else that row,
    and is classified from the solve at its own pump; none is solved twice.
    """
    if np.ndim(y_grid) != 1 or np.size(y_grid) < 2:
        raise ValueError("y grid must be a 1-d array with at least 2 points")
    y_grid = pump_grid(y_grid)
    if (np.diff(y_grid) <= 0).any():
        raise ValueError("y grid must be strictly increasing")

    mf = mean_field_batch(params, y_grid)
    mf.errors.raise_first()
    parts = _map_batches(lambda a: _spectra(*np.linalg.eig(a)), drift_batch(params, mf))
    spectra = lam, vecs, defective, _ = tuple(map(np.concatenate, zip(*parts)))
    branches, ambiguous = _match_branches(lam, vecs)
    status = ["defective" if d else "ambiguous" if a else "ok"
              for d, a in zip(defective.tolist(), ambiguous)]

    def endpoint(inside: int, outside: int) -> EndpointReport:
        y, refined, solved = y_grid[inside], False, None
        if 0 <= outside < y_grid.size:
            y, refined, solved = _refine_endpoint(params, y, y_grid[outside],
                                                  _discriminant(lam[inside]),
                                                  _discriminant(lam[outside]))
        _, v, d, g = (x[0] for x in solved) if solved else (x[inside] for x in spectra)
        gap, overlap = _closest_pair(g, v)
        return EndpointReport(y=y, refined=refined, defective=bool(d),
                              cond=float(np.linalg.cond(v)), gap=gap, overlap=overlap)

    # Maximal runs of rows with two real eigenvalues (Im exactly 0): start to end - 1.
    real = np.count_nonzero(branches.imag == 0.0, axis=-1) >= 2
    padded = np.concatenate(([False], real, [False]))
    starts = np.flatnonzero(padded[1:] > padded[:-1]).tolist()
    ends = np.flatnonzero(padded[1:] < padded[:-1]).tolist()
    return SpectrumScan(y=y_grid, branches=branches, status=status, real_intervals=[
        RealInterval(lower=endpoint(start, start - 1), upper=endpoint(end - 1, end))
        for start, end in zip(starts, ends)])
