"""Closed-system (kappa = 0) ground-state fluctuations by Williamson's theorem.

Without photon loss the fluctuations follow the quadratic Hamiltonian
X^T G X / 2 of the quadratures X = Q R = (x_c, p_c, x_a, p_a): the drift
matrix of the shared builder (``fluctuations.drift_batch``) is A = Omega G,
so G = -Omega A is real symmetric, and a ground state exists when G is
positive definite.  Williamson (Am. J. Math. 58, 141 (1936)) diagonalizes
it with two Hermitian eigen-solves per row: eigh(G) gives G^(+-1/2), and
eigh(i B) of the antisymmetric B = G^(1/2) Omega G^(1/2) the frequencies
+-omega_k.  The real and imaginary parts of the +omega_k eigenvectors v_k
form an orthogonal O, and S^-1 = G^(-1/2) O D^(1/2), D = diag(omega_1,
omega_1, omega_2, omega_2), is symplectic and takes G to D.  A degenerate
pair needs nothing special: the real and imaginary parts of any orthonormal
basis of its eigenspace are orthonormal.

In the ladder basis T^-1 = Q^dag S^-1 Q maps the normal-mode ladders
C = (c1, c1+, c2, c2+) to R.  O Q has the columns (-i v_k, i conj(v_k)), so
up to a phase of each mode the columns of T^-1 are Q^dag z_k and
Q^dag conj(z_k), z_k = sqrt(omega_k) G^(-1/2) v_k.  The ground state is the
vacuum of C, <R R^T> = T^-1 V0 T^-T with V0[0, 1] = V0[2, 3] = 1: a sum of
products of Bogoliubov coefficients, which does not cancel at low pump.
As in the open-system chain, every stage runs on a stack of matrices
(:func:`ground_state_batch`), and the scalar functions are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ETA, OMEGA_SYMPL
from .errors import DynamicalInstability, NumericalFailure
from .fluctuations import (SecondMoments, blank_failed, check_commutators,
                           check_hermitian, drift_batch, hermitize_moments,
                           live_rows)
from .model import MeanFieldBatch, ModelParams, mean_field_point

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


def _williamson(params: ModelParams, mf: MeanFieldBatch):
    """(frequencies, T^-1) of every row, frequencies in increasing order; a
    batch with failed rows runs on its live rows (``live_rows``).

    Rows fail, in this order, on the symmetry of G, on a non-positive
    eigenvalue of G and on a zero frequency.
    """
    if params.kappa != 0.0:
        raise ValueError("ground state is defined for kappa = 0 only")
    errors = mf.errors
    if errors.failed:
        return live_rows(_williamson, params, mf, (2,), (4, 4))
    g = -OMEGA_SYMPL @ drift_batch(params, mf)
    check_hermitian(g, errors)

    gamma, u = np.linalg.eigh(blank_failed(g, errors))
    lowest = gamma[:, 0].copy()  # blank_failed overwrites gamma
    errors.fail(lowest <= 0.0, lambda i: DynamicalInstability(lambda: (
        f"quadrature Hamiltonian G has eigenvalue {lowest[i]:.3e} <= 0: not "
        "positive definite, no stable ground state")))
    root = np.sqrt(blank_failed(gamma, errors, 1.0))
    half = (u * root[:, None]) @ u.transpose(0, 2, 1)
    omega, v = np.linalg.eigh(1j * (half @ OMEGA_SYMPL @ half))
    freqs = omega[:, 2:]
    errors.fail(freqs[:, 0] <= FREQUENCY_TOL * np.maximum(1.0, freqs[:, 1]),
                lambda i: DynamicalInstability(
                    "zero-frequency mode: the system sits at the critical point"))
    z = ((u / root[:, None]) @ (u.transpose(0, 2, 1) @ v[:, :, 2:])
         * np.sqrt(0.5 * blank_failed(freqs, errors, 1.0))[:, None])
    # Q^dag z = (x + i p, x - i p) per mode (1 / sqrt(2) is in z) and Q^dag
    # conj(z) = conj(x - i p, x + i p), elementwise: a matrix product's fused
    # multiply-adds leave a residue where the two terms cancel.
    x, ip = z[:, 0::2], 1j * z[:, 1::2]
    lower, upper = np.stack((x + ip, x - ip), 2), np.stack((x - ip, x + ip), 2)
    return freqs, np.stack((lower, upper.conj()), axis=-1).reshape(-1, 4, 4)


def ground_state_batch(params: ModelParams, mf: MeanFieldBatch) -> np.ndarray:
    """Hermitized Bogoliubov-vacuum moments of every row of a mean-field
    batch; failures go to ``mf.errors``, then the commutator check."""
    _, t_inv = _williamson(params, mf)
    s = t_inv[:, :, 0::2] @ t_inv[:, :, 1::2].transpose(0, 2, 1)
    check_commutators(s, np.abs(s).max(axis=(1, 2)), mf.errors)
    return hermitize_moments(s)


def bogoliubov_modes(params: ModelParams) -> BogoliubovModes:
    """Symplectically normalized normal modes of the closed system."""
    batch = mean_field_point(params)
    frequencies, t_inv = batch.errors.first_row(_williamson(params, batch))
    # T^-1 eta T^-dag = eta gives T = eta T^-dag eta.
    transform = ETA @ t_inv.conj().T @ ETA
    defect = float(np.abs(transform @ ETA @ transform.conj().T - ETA).max())
    if defect > 1e-10:
        raise NumericalFailure(
            f"Bogoliubov transform not symplectic (defect {defect:.3e})")
    return BogoliubovModes(frequencies=frequencies, transform=transform)


def ground_state_moments(params: ModelParams) -> SecondMoments:
    """Second moments of the Bogoliubov vacuum in the lab basis."""
    batch = mean_field_point(params)
    return SecondMoments(s=batch.errors.first_row(ground_state_batch(params, batch)))
