"""Closed-system (kappa = 0) ground-state fluctuations.

Without photon loss the linearized dynamics is generated by a quadratic
Hamiltonian: M = -i eta H with eta = diag(1, -1, 1, -1) and H Hermitian.
H is recovered as H = i eta M from the shared stability-matrix builder, so
the open and closed treatments cannot drift apart.  The Bogoliubov modes are
the eigenmodes of M with symplectic normalization; the ground state is their
joint vacuum, and its second moments are

    <R_i R_j> = sum_k N_k V[i, k] V[j, pair(k)]

summed over the annihilation-side modes k (Im lambda_k < 0), where N_k is
the commutator norm of the mode pair.  Like the open-system chain, the
ground state is computed for a stack of matrices at once
(:func:`ground_state_batch`); the scalar functions are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import ETA, J_COMM, T_CONJ
from .errors import DynamicalInstability, NumericalFailure
from .fluctuations import (PAIRING_TOL, SecondMoments, blank_failed,
                           commutator_errors, commutator_failure,
                           conjugate_partners, hermitize_moments,
                           observables_batch, sort_modes, stability_batch)
from .model import (MeanField, MeanFieldBatch, ModelParams, critical_pump,
                    mean_field_batch, point_batch)

HERMITICITY_TOL = 1e-12
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
    (columns), left eigenvectors (rows), the conjugate partner of each mode
    and the commutator norms of the two annihilation-side modes 0 and 1.
    Rows fail, in this order, on the Hermiticity of i eta M, a non-oscillatory
    spectrum, a zero frequency, an unpaired eigenvalue, a pair count other
    than two and a non-positive symplectic norm.
    """
    if params.kappa != 0.0:
        raise ValueError("ground state is defined for kappa = 0 only")
    errors = mf.errors
    m = stability_batch(params, mf)
    h = 1j * ETA @ m
    defect = np.abs(h - h.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    errors.fail(defect > HERMITICITY_TOL * np.maximum(1.0, np.abs(h).max(axis=(1, 2))),
                lambda i: NumericalFailure(
                    f"coefficient matrix not Hermitian (defect {defect[i]:.3e}); "
                    "is kappa nonzero?"))

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

    # With two pairs the annihilation-side modes are 0 and 1.
    comms = lefts @ J_COMM @ lefts.transpose(0, 2, 1)
    norms = np.take_along_axis(comms[:, :2], partner[:, :2, None], 2)[..., 0]
    bad = ((np.abs(norms.imag) > np.maximum(1e-10, 1e-8 * np.abs(norms)))
           | (norms.real <= 0.0))

    def non_positive(i: int) -> DynamicalInstability:
        k = int(np.argmax(bad[i]))
        return DynamicalInstability(
            f"mode pair ({k}, {int(partner[i, k])}) has non-positive symplectic "
            f"norm {norms[i, k]!r}; Hamiltonian not positive definite")

    errors.fail(bad.any(axis=1), non_positive)
    return lam, vecs, lefts, partner, norms.real


def ground_state_batch(params: ModelParams, mf: MeanFieldBatch) -> np.ndarray:
    """Hermitized Bogoliubov-vacuum moments of every row of a mean-field
    batch; failures go to ``mf.errors``, then the commutator check."""
    _, vecs, _, partner, norms = _eigenmodes(params, mf)
    s = np.zeros(vecs.shape, dtype=complex)
    for k in (0, 1):
        kbar = np.take_along_axis(vecs, partner[:, k, None, None], 2)[:, :, 0]
        s += norms[:, k, None, None] * (vecs[:, :, k, None] * kbar[:, None, :])
    comms, tol, bad = commutator_errors(s, np.abs(s).max(axis=(1, 2)))
    mf.errors.fail(bad.any(axis=1),
                   lambda i: commutator_failure(comms, tol, bad, i))
    return hermitize_moments(s)


def bogoliubov_modes(params: ModelParams,
                     mf: MeanField | None = None) -> BogoliubovModes:
    """Symplectically normalized normal modes of the closed system."""
    batch = point_batch(params, mf)
    lam, _, lefts, partner, norms = _eigenmodes(params, batch)
    batch.errors.raise_first()
    lam, lefts, norms = lam[0], lefts[0], norms[0]

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
    s = ground_state_batch(params, batch)
    batch.errors.raise_first()
    return SecondMoments(s=s[0])


@dataclass(frozen=True)
class GroundPoint:
    y: float
    y_over_yc: float
    delta_n: float
    n_photon: float
    moments: SecondMoments


def ground_state_curve(params: ModelParams, y_grid) -> list[GroundPoint]:
    """Ground-state observables along a pump grid (kappa = 0); raises the
    error of the first row that fails."""
    y_c = critical_pump(params)
    batch = mean_field_batch(params, y_grid)
    s = ground_state_batch(params, batch)
    delta_n, n_photon = observables_batch(s, batch.errors)
    batch.errors.raise_first()
    return [GroundPoint(y=y, y_over_yc=y / y_c, delta_n=dn, n_photon=nph,
                        moments=SecondMoments(s=s[i]))
            for i, (y, dn, nph) in enumerate(zip(batch.y.tolist(), delta_n.tolist(),
                                                 n_photon.tolist()))]
