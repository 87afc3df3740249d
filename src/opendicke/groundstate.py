"""Closed-system (kappa = 0) ground-state fluctuations in closed form.

Without photon loss the fluctuations follow a quadratic Hamiltonian fixed by
each row's frame (``fluctuations.frame_batch``): the cavity detuning Delta,
the side-mode frequency w and the pump coupling g, which is real at
kappa = 0, where alpha0 is imaginary.  With D = -Delta, in the quadratures
(x_c, p_c, x_a, p_a) it is X^T G X / 2,

    H = D (x_c^2 + p_c^2) / 2 + w (x_a^2 + p_a^2) / 2 + g p_c x_a,

and a ground state exists when G is positive definite.  In the canonical
pairs x = (p_c, x_a), p = (-x_c, p_a) it reads
H = (x^T K x + p^T P p) / 2 with K = [[D, g], [g, w]] and P = diag(D, w),
and x = P^(1/2) xi, p = P^(-1/2) pi leaves the oscillators
(xi^T W xi + pi^T pi) / 2 of the 2x2 W = P^(1/2) K P^(1/2).  With
half = (W11 - W22) / 2 and rho = |half| + hypot(half, W12), W's eigenvectors are a
rotation by t = W12 / rho (t = 0 where rho = 0), and the normal-mode
frequencies are the roots of its eigenvalues,

    nu_big^2   = W_jj + W12^2 / rho     (j the pair with the larger W_jj),
    nu_small^2 = D w det K / nu_big^2   (= W_ii - W12^2 / rho).

det K = D w - g^2 is formed from error-free products (Dekker): it is the
only difference of nearly equal numbers in the problem, and it vanishes at
threshold.  The pair (x_j, p_j) has the Bogoliubov coefficients

    u_jk = U_jk (P_j + nu_k) / (2 sqrt(P_j nu_k)),
    v_jk = U_jk (P_j^2 - nu_k^2) / ((P_j + nu_k) 2 sqrt(P_j nu_k)),

where each P_j^2 - nu_k^2 is +-W12^2 / rho or +-rho, never a cancelling
difference.  The ladder of the first pair is -i a, so
T^-1 = diag(i, -i, 1, 1) T_b^-1, with T_b^-1 the real matrix of u and v, maps
the normal-mode ladders C = (c1, c1+, c2, c2+) to R.  The ground state is
the vacuum of C, <R R^T> = T^-1 V0 T^-T with V0[0, 1] = V0[2, 3] = 1: sums of
products of u and v, the occupations sums of squares.  Every step is
elementwise over a stack of rows (:func:`ground_state_batch`), failed rows
blanked, and the scalar functions are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ETA, PHOTON_GAUGE
from .errors import DynamicalInstability, NumericalFailure
from .fluctuations import (HERMITICITY_TOL, SecondMoments, check_commutators,
                           frame_batch)
from .model import MeanFieldBatch, ModelParams, mean_field_point

FREQUENCY_TOL = 1e-10

# (D, g, w) of a failed row: two bare oscillators of unit frequency.
_BLANK = np.array([[1.0], [0.0], [1.0]])
# Phase of each moment: R = (i b1, -i b1+, b2, b2+) in the photon gauge.
_PHASES = PHOTON_GAUGE[:, None] * PHOTON_GAUGE
# Veltkamp's splitting constant of double precision, 2^27 + 1.
_SPLIT = 134217729.0


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


def _split(a: np.ndarray):
    """(hi, lo) with hi + lo = a exactly, each of at most 26 bits."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _two_product(a: np.ndarray, b: np.ndarray):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker's TwoProduct)."""
    p = a * b
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    return p, a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _hamiltonian(params: ModelParams, mf: MeanFieldBatch):
    """(D, g, w, det K) of every row, with (1, 0, 1, 1) on the failed rows.

    Rows fail, in this order, where the frame is not finite or g is not real
    beyond HERMITICITY_TOL * max(1, |Delta|, |g|, |omega|), and where G is
    not positive definite (D <= 0, w <= 0 or det K <= 0).
    """
    if params.kappa != 0.0:
        raise ValueError("ground state is defined for kappa = 0 only")
    errors = mf.errors
    delta, omega, g = frame_batch(params, mf)
    h = np.where(errors.alive, np.stack((-delta, g, omega)), _BLANK)
    # g is real at kappa = 0, where alpha0 is imaginary.  Written so that a
    # non-finite frame fails too.
    defect = np.where(np.isfinite(h).all(axis=0), np.abs(h[1].imag), np.nan)
    tol = HERMITICITY_TOL * np.maximum(1.0, np.abs(h).max(axis=0))
    errors.fail(~(defect <= tol), NumericalFailure, lambda i: (
        f"quadrature Hamiltonian G departs from its closed-system block form "
        f"by {defect[i]:.3e}"))
    d, c, w = np.where(errors.alive, h.real, _BLANK)

    dw, dw_err = _two_product(d, w)
    cc, cc_err = _two_product(c, c)
    det_k = (dw - cc) + (dw_err - cc_err)

    def lowest(i: int) -> float:
        # The lower eigenvalue of K, which is also G's lowest.
        mean, radius = 0.5 * (d[i] + w[i]), np.hypot(0.5 * (d[i] - w[i]), c[i])
        return det_k[i] / (mean + radius) if mean > 0.0 else mean - radius

    errors.fail((d <= 0.0) | (w <= 0.0) | (det_k <= 0.0), DynamicalInstability,
                lambda i: (f"quadrature Hamiltonian G has eigenvalue {lowest(i):.3e} "
                           "<= 0: not positive definite, no stable ground state"))
    alive = errors.alive
    return (*np.where(alive, (d, c, w), _BLANK), np.where(alive, det_k, 1.0))


def _bogoliubov(params: ModelParams, mf: MeanFieldBatch):
    """(frequencies, T_b^-1[:, 0::2], T_b^-1[:, 1::2]) of every row: the
    frequencies, (N, 2), in increasing order, and the two halves of T_b^-1
    with the row index last, (4, 2, N).  The checks of ``_hamiltonian`` come
    first, then a zero frequency fails a row."""
    d, c, w, det_k = _hamiltonian(params, mf)
    w11, w22, w12 = d * d, w * w, c * np.sqrt(d * w)
    half = 0.5 * (d - w) * (d + w)
    rho = np.abs(half) + np.hypot(half, w12)
    t = w12 / np.where(rho > 0.0, rho, 1.0)
    tw = t * w12
    # The fast mode leans to the photon pair where half >= 0, else to the atom.
    photon = half >= 0.0
    big = np.where(photon, w11, w22) + tw
    small = d * w * det_k / big
    freqs = np.sqrt(np.stack((small, big), axis=1))
    mf.errors.fail(freqs[:, 0] <= FREQUENCY_TOL * np.maximum(1.0, freqs[:, 1]),
                   DynamicalInstability,
                   lambda i: "zero-frequency mode: the system sits at the critical point")
    nu = np.where(mf.errors.alive[:, None], freqs, 1.0)

    cos = 1.0 / np.sqrt(1.0 + t * t)
    sin = t * cos
    # U and P_j^2 - nu_k^2, pairs j = (photon, atom) down, modes k = (slow,
    # fast) across.
    lean, off = np.where(photon, cos, sin), np.where(photon, sin, cos)
    near, far = np.where(photon, rho, tw), np.where(photon, tw, rho)
    rot = np.array(((-off, lean), (lean, off)))
    gap = np.array(((near, -far), (far, -near)))
    p = np.stack((d, w))[:, None]
    plus, scale = p + nu.T, 2.0 * np.sqrt(p * nu.T)
    u = rot * plus / scale
    v = rot * gap / (plus * scale)
    # Row 2 j of T_b^-1 is (u_j1, v_j1, u_j2, v_j2), row 2 j + 1 (v_j1, u_j1, ...).
    lower, upper = np.stack((u, v), 1), np.stack((v, u), 1)
    return freqs, lower.reshape(4, 2, -1), upper.reshape(4, 2, -1)


def ground_state_batch(params: ModelParams, mf: MeanFieldBatch) -> np.ndarray:
    """Bogoliubov-vacuum moments of every row of a mean-field batch, exactly
    adjoint-symmetric (a moment and its partner are the same products in the
    same order); failures go to ``mf.errors``, then the commutator check."""
    _, lower, upper = _bogoliubov(params, mf)
    # <R_i R_l> = sum_k T^-1[i, 2 k] T^-1[l, 2 k + 1], as <c_k c_k+> = 1.
    s_b = (lower[:, None, 0] * upper[None, :, 0]
           + lower[:, None, 1] * upper[None, :, 1])
    s = s_b.transpose(2, 0, 1) * _PHASES
    check_commutators(s, np.abs(s).max(axis=(1, 2)), mf.errors)
    return s


def bogoliubov_modes(params: ModelParams) -> BogoliubovModes:
    """Symplectically normalized normal modes of the closed system."""
    batch = mean_field_point(params)
    freqs, lower, upper = _bogoliubov(params, batch)
    batch.errors.raise_first()
    t_inv = PHOTON_GAUGE[:, None] * np.stack((lower[..., 0], upper[..., 0]), -1).reshape(4, 4)
    # T^-1 eta T^-dag = eta gives T = eta T^-dag eta.
    transform = ETA @ t_inv.conj().T @ ETA
    defect = float(np.abs(transform @ ETA @ transform.conj().T - ETA).max())
    if defect > 1e-10:
        raise NumericalFailure(
            f"Bogoliubov transform not symplectic (defect {defect:.3e})")
    return BogoliubovModes(frequencies=freqs[0], transform=transform)


def ground_state_moments(params: ModelParams) -> SecondMoments:
    """Second moments of the Bogoliubov vacuum in the lab basis."""
    batch = mean_field_point(params)
    return SecondMoments(s=batch.errors.first_row(ground_state_batch(params, batch)))
