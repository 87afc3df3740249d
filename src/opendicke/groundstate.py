"""Closed-system (kappa = 0) ground-state fluctuations.

Without photon loss the linearized dynamics is generated by a quadratic
Hamiltonian: M = -i eta H with eta = diag(1, -1, 1, -1) and H Hermitian.
H is recovered as H = i eta M from the shared stability-matrix builder, so
the open and closed treatments cannot drift apart.  The Bogoliubov modes are
the eigenmodes of M with symplectic normalization; the ground state is their
joint vacuum, and its second moments are

    <R_i R_j> = sum_k N_k V[i, k] V[j, pair(k)]

summed over the annihilation-side modes k (Im lambda_k < 0), where
N_k = [c_k, c_pair(k)] is the commutator of the mode pair; each term is
independent of the phases of the two eigenvectors.  Like the open-system
chain, the ground state is computed for a stack of matrices at once
(:func:`ground_state_batch`); the scalar functions are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import CONJ_PERM, ETA, J_COMM, T_CONJ
from .errors import DynamicalInstability, NumericalFailure
from .fluctuations import (PAIRING_TOL, SecondMoments, blank_failed,
                           commutator_errors, commutator_failure,
                           conjugate_partners, hermiticity_errors,
                           hermiticity_failure, hermitize_moments, sort_modes,
                           stability_batch)
from .model import MeanField, MeanFieldBatch, ModelParams, point_batch

FREQUENCY_TOL = 1e-10


@dataclass(frozen=True)
class BogoliubovModes:
    """Normal modes of the closed-system quadratic Hamiltonian.

    ``frequencies`` are the two positive mode frequencies in increasing
    order.  ``transform`` maps R = (da, da+, db, db+) to the normal-mode
    ladder vector (c1, c1+, c2, c2+) and is symplectic with respect to
    eta = diag(1, -1, 1, -1).
    """

    frequencies: np.ndarray
    transform: np.ndarray


def _eigenmodes(params: ModelParams, mf: MeanFieldBatch):
    """Eigen-decomposition of M(kappa = 0) for every row, with its checks.

    Returns eigenvalues sorted by imaginary part, right eigenvectors
    (columns), left eigenvectors (rows), the right eigenvectors of the
    conjugate partners of the two annihilation-side modes 0 and 1 (columns),
    the commutators [c_k, c_kbar] of those two modes with their partners, and
    their symplectic norms [c_k, c_k^dag].
    Rows fail, in this order, on the Hermiticity of i eta M, a non-oscillatory
    spectrum, a zero frequency, an unpaired eigenvalue, a pair count other
    than two and a non-positive symplectic norm.
    """
    if params.kappa != 0.0:
        raise ValueError("ground state is defined for kappa = 0 only")
    errors = mf.errors
    m = stability_batch(params, mf)
    defect, bad = hermiticity_errors(1j * ETA @ m)
    errors.fail(bad, lambda i: hermiticity_failure(defect[i]))

    lam, vecs = np.linalg.eig(m)
    scale = np.maximum(1.0, np.abs(lam).max(axis=1))
    damping = np.abs(lam.real).max(axis=1)
    errors.fail(damping > FREQUENCY_TOL * scale, lambda i: DynamicalInstability(
        f"spectrum not purely oscillatory, Re lambda up to {damping[i]:.3e}; "
        "no stable ground state"))
    errors.fail(np.abs(lam).min(axis=1) <= FREQUENCY_TOL * scale,
                lambda i: DynamicalInstability(
                    "zero-frequency mode: the system sits at the critical point"))

    lam, vecs = sort_modes(lam, vecs, np.argsort(lam.imag, axis=1))
    lefts = np.linalg.inv(blank_failed(vecs, errors))

    partner, miss = conjugate_partners(lam)
    lowering = lam.imag < 0.0
    unpaired = lowering & (miss > PAIRING_TOL * scale[:, None])
    errors.fail(unpaired.any(axis=1), lambda i: NumericalFailure(
        f"eigenvalue {lam[i, int(np.argmax(unpaired[i]))]!r} has no conjugate partner"))
    count = lowering.sum(axis=1)
    errors.fail(count != 2, lambda i: DynamicalInstability(
        f"expected two oscillatory mode pairs, found {int(count[i])}"))

    # With two pairs the annihilation-side modes are 0 and 1.  LAPACK fixes
    # the phase of each eigenvector on its own, so [c_k, c_kbar] carries the
    # inverse of the phases of v_k and v_kbar, and v_k^T T v_kbar the phases
    # themselves; their product is the symplectic norm [c_k, c_k^dag] for any
    # phases (the two factors are that norm and 1 when v_kbar = T conj(v_k)).
    comms = lefts @ J_COMM @ lefts.transpose(0, 2, 1)
    norms = np.take_along_axis(comms[:, :2], partner[:, :2, None], 2)[..., 0]
    pairs = np.take_along_axis(vecs, partner[:, None, :2], 2)
    symplectic = norms * (vecs[:, :, :2] * pairs[:, CONJ_PERM]).sum(axis=1)
    bad = ((np.abs(symplectic.imag)
            > np.maximum(1e-10, 1e-8 * np.abs(symplectic)))
           | (symplectic.real <= 0.0))

    def non_positive(i: int) -> DynamicalInstability:
        k = int(np.argmax(bad[i]))
        return DynamicalInstability(
            f"mode pair ({k}, {int(partner[i, k])}) has non-positive symplectic "
            f"norm {symplectic[i, k]!r}; Hamiltonian not positive definite")

    errors.fail(bad.any(axis=1), non_positive)
    return lam, vecs, lefts, pairs, norms, symplectic.real


def ground_state_batch(params: ModelParams, mf: MeanFieldBatch) -> np.ndarray:
    """Hermitized Bogoliubov-vacuum moments of every row of a mean-field
    batch; failures go to ``mf.errors``, then the commutator check."""
    _, vecs, _, pairs, norms, _ = _eigenmodes(params, mf)
    s = np.zeros(vecs.shape, dtype=complex)
    for k in (0, 1):
        s += norms[:, k, None, None] * (vecs[:, :, k, None] * pairs[:, None, :, k])
    comms, tol, bad = commutator_errors(s, np.abs(s).max(axis=(1, 2)))
    mf.errors.fail(bad.any(axis=1),
                   lambda i: commutator_failure(comms, tol, bad, i))
    return hermitize_moments(s)


def bogoliubov_modes(params: ModelParams,
                     mf: MeanField | None = None) -> BogoliubovModes:
    """Symplectically normalized normal modes of the closed system."""
    batch = point_batch(params, mf)
    lam, _, lefts, _, _, norms = batch.errors.first_row(_eigenmodes(params, batch))

    rows = []
    for k in (0, 1):
        lowering = lefts[k] / math.sqrt(norms[k])
        raising = np.conj(lowering) @ T_CONJ
        rows.extend([lowering, raising])
    # Order mode pairs by increasing frequency.
    frequencies = -lam.imag[:2]
    if frequencies[0] > frequencies[1]:
        rows = rows[2:] + rows[:2]
    transform = np.array(rows)

    defect = float(np.max(np.abs(transform @ ETA @ transform.conj().T - ETA)))
    if defect > 1e-10:
        raise NumericalFailure(
            f"Bogoliubov transform not symplectic (defect {defect:.3e})")
    return BogoliubovModes(frequencies=np.sort(frequencies), transform=transform)


def ground_state_moments(params: ModelParams,
                         mf: MeanField | None = None) -> SecondMoments:
    """Second moments of the Bogoliubov vacuum in the lab basis."""
    if params.kappa != 0.0:
        raise ValueError("ground state is defined for kappa = 0 only")
    batch = point_batch(params, mf)
    return SecondMoments(s=batch.errors.first_row(ground_state_batch(params, batch)))
