"""Gaussian entanglement between the cavity field and the atomic side mode.

The symmetrized quadrature covariance C over u = (dx, dy, dX, dY), with
dx = (da + da+)/sqrt(2) etc., fixes the Gaussian state of the fluctuations.
Both symplectic eigenvalues of a two-mode covariance follow from its
invariants (Adesso, Serafini & Illuminati, PRA 70, 022318 (2004)),

    nu_plus^2  = (Delta + sqrt(Delta^2 - 4 det C)) / 2
    nu_minus^2 = det C / nu_plus^2
    Delta      = det P + det A + 2 det X

with P, A, X the photon, atom, and cross 2x2 blocks.  The partial transpose
flips the sign of det X and nothing else, so one set of determinants
gives the smallest symplectic eigenvalue of C (its physicality, >= 1/2) and
of the partial transpose (Sigma = det P + det A - 2 det X), whence

    E_N = max(0, -ln(2 nu_minus~)).

nu_minus^2 is taken from the product nu_plus^2 nu_minus^2 = det C, not as
the difference (Delta - sqrt(...)) / 2, which cancels when
nu_plus >> nu_minus.  The discriminant of C itself, which vanishes for a
pure state (nu_plus = nu_minus = 1/2), is taken in whichever of two equal
forms cancels less (``_discriminant``).  ``symplectic_eigenvalues`` is the
brute-force route, an eigen-solve of i Omega C, kept as the cross-check of
the invariants.  The natural logarithm is used throughout; the state is
separable (E_N = 0) iff nu_minus~ >= 1/2.  The covariance and the
negativity are computed for a stack of moment matrices at once; the scalar
functions take one covariance array and are batches of one.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import OMEGA_SYMPL, QUAD_MAP
from .errors import NumericalFailure, RowErrors, one_row
from .fluctuations import SecondMoments, blank_failed

PHYSICALITY_TOL = 1e-8


def symplectic_eigenvalues(c: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix (|eig(i Omega C)|, paired);
    works on one matrix or a stack.

    Brute-force route: the scans take the smallest value from the invariants
    instead, and this eigen-solve cross-checks them.
    """
    freqs = np.abs(np.linalg.eigvals(1j * OMEGA_SYMPL @ c))
    return np.sort(freqs, axis=-1)[..., ::2]


def _invariants(c: np.ndarray) -> tuple[np.ndarray, ...]:
    """(det P, det A, det X, det K, det C) of every covariance in a stack,
    with K = P J X + X J A, the top right block of C Omega C (J the one-mode
    symplectic form; see ``_discriminant``).  The 2x2 determinants are one
    stacked call."""
    k = c[:, :2] @ OMEGA_SYMPL @ c[:, :, 2:]
    blocks = np.linalg.det(np.array((c[:, :2, :2], c[:, 2:, 2:], c[:, :2, 2:], k)))
    return tuple(blocks) + (np.linalg.det(c),)


def _discriminant(invariants, delta: np.ndarray) -> np.ndarray:
    """Delta^2 - 4 det C of every covariance, in whichever of two equal forms
    has the smaller terms to cancel (for a physical C, 4 det C <= Delta^2).

    The second form is (det P - det A)^2 + 4 det K.  K transforms as
    L1 K L2^T under local symplectic maps and vanishes for every pure
    state, so at a degenerate spectrum nu_plus = nu_minus, where
    Delta^2 - 4 det C cancels to rounding and its square root carries an
    error of sqrt(eps) ||C||, the second form keeps full precision.  With
    unequal local purities its own terms cancel, and the first form is the
    better one.
    """
    det_p, det_a, _, det_k, det_c = invariants
    split = (det_p - det_a) ** 2
    square = delta ** 2
    k4 = 4.0 * det_k
    return np.where(split + np.abs(k4) < square, split + k4, square - 4.0 * det_c)


def _nu_minus(sigma: np.ndarray, disc: np.ndarray, det_c: np.ndarray,
              errors: RowErrors) -> np.ndarray:
    """Smaller symplectic eigenvalue of every covariance in a stack from its
    invariants: nu_plus^2 = (sigma + sqrt(disc)) / 2, nu_minus^2 =
    det C / nu_plus^2.

    A row fails on a discriminant or a nu_minus^2 below -1e-10 of
    max(1, sigma^2); a physical covariance has neither, and rounding is
    clamped at 0.  The vacuum gives 0.4999999999999999 (E_N 2.2e-16), not
    1/2: its covariance takes QUAD_MAP's (1/sqrt(2))^2, which rounds down.
    """
    floor = -1e-10 * np.maximum(1.0, sigma ** 2)
    errors.fail(disc < floor, NumericalFailure,
                lambda i: f"negative discriminant {disc[i]:.3e} in symplectic invariants")
    nu_plus_sq = 0.5 * (sigma + np.sqrt(np.maximum(disc, 0.0)))
    arg = np.divide(det_c, nu_plus_sq, out=np.zeros(det_c.shape),
                    where=nu_plus_sq > 0.0)
    errors.fail(arg < floor, NumericalFailure,
                lambda i: f"negative nu_minus^2 = {arg[i]:.3e}")
    return np.sqrt(np.maximum(arg, 0.0))


def _pt_nu_minus(invariants, errors: RowErrors) -> np.ndarray:
    """nu_minus of the partial transpose of every covariance in a stack: the
    partial transpose flips the sign of det X and leaves det P, det A and
    det C alone."""
    det_p, det_a, det_x, _, det_c = invariants
    sigma = det_p + det_a - 2.0 * det_x
    return _nu_minus(sigma, sigma ** 2 - 4.0 * det_c, det_c, errors)


def _symplectic_min(c: np.ndarray, errors: RowErrors):
    """(``_invariants``, smallest symplectic eigenvalue) of every covariance
    in a stack."""
    invariants = _invariants(c)
    det_p, det_a, det_x, _, det_c = invariants
    delta = det_p + det_a + 2.0 * det_x
    return invariants, _nu_minus(delta, _discriminant(invariants, delta),
                                 det_c, errors)


def covariance_batch(s: np.ndarray, errors: RowErrors):
    """(covariances, their ``_invariants``, smallest symplectic eigenvalues)
    of a stack of moments.

    Rows fail, in this order, on a NaN or infinite entry of the symmetrized
    covariance, on its imaginary residue, on the symplectic invariants (see
    ``_nu_minus``) and on a symplectic eigenvalue below 1/2.
    """
    raw = QUAD_MAP @ s @ QUAD_MAP.T
    sym = 0.5 * (raw + raw.transpose(0, 2, 1))
    scale = np.maximum(1.0, np.maximum.reduce(np.abs(sym), axis=(1, 2)))
    imag_resid = np.maximum.reduce(np.abs(sym.imag), axis=(1, 2))
    # A NaN scale is not below infinity either.
    errors.fail(~(scale < math.inf), NumericalFailure,
                lambda i: "covariance has a NaN or infinite entry")
    errors.fail(imag_resid > 1e-10 * scale, NumericalFailure, lambda i: (
        f"covariance imaginary residue {imag_resid[i]:.3e} exceeds tolerance"))
    c = blank_failed(sym.real.copy(), errors)
    invariants, nu_min = _symplectic_min(c, errors)
    errors.fail(nu_min < 0.5 - PHYSICALITY_TOL * scale, NumericalFailure, lambda i: (
        f"unphysical covariance: min symplectic eigenvalue {nu_min[i]!r} < 1/2"))
    return c, invariants, nu_min


def quad_covariance(s: SecondMoments) -> np.ndarray:
    """Checked quadrature covariance from ladder-operator second moments."""
    return one_row(covariance_batch, s.s)[0]


def symplectic_min(c: np.ndarray) -> float:
    """Smallest symplectic eigenvalue of a covariance from its invariants,
    the value :func:`covariance_batch` checks."""
    return float(one_row(_symplectic_min, c)[1])


def pt_symplectic_min(c: np.ndarray) -> float:
    """Smallest symplectic eigenvalue of the partial transpose.

    Brute-force route (momentum-sign flip on the atom mode followed by an
    eigen-solve); serves as the cross-check of the invariant formula.
    """
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    return float(symplectic_eigenvalues(flip @ c @ flip).min())


def log_negativity_batch(invariants, errors: RowErrors) -> np.ndarray:
    """E_N = max(0, -ln(2 nu_minus)) of every covariance in a stack, from
    its ``_invariants``; a row with nu_minus = 0 fails."""
    nu = _pt_nu_minus(invariants, errors)
    singular = nu <= 0.0
    errors.fail(singular, NumericalFailure,
                lambda i: "nu_minus = 0; covariance is singular")
    e_n = -np.log(2.0 * np.where(singular, 0.5, nu))
    return np.where(e_n > 0.0, e_n, 0.0)


def pt_nu_minus(c: np.ndarray) -> float:
    """nu_minus via the symplectic invariants of the partial transpose."""
    return float(one_row(lambda cs, errors: _pt_nu_minus(_invariants(cs), errors), c))


def log_negativity(c: np.ndarray) -> float:
    """Logarithmic negativity E_N = max(0, -ln(2 nu_minus))."""
    return float(one_row(
        lambda cs, errors: log_negativity_batch(_invariants(cs), errors), c))


def two_mode_squeezed_covariance(r: float) -> np.ndarray:
    """Covariance of the two-mode squeezed vacuum with squeezing r.

    Closed form used by the verification suite: nu_minus = exp(-2r)/2, so
    E_N = 2r.
    """
    ch = 0.5 * math.cosh(2.0 * r)
    sh = 0.5 * math.sinh(2.0 * r)
    return np.array([
        [ch, 0.0, sh, 0.0],
        [0.0, ch, 0.0, -sh],
        [sh, 0.0, ch, 0.0],
        [0.0, -sh, 0.0, ch],
    ])
