"""Gaussian entanglement between the cavity field and the atomic side mode.

The symmetrized quadrature covariance C over u = (dx, dy, dX, dY), with
dx = (da + da+)/sqrt(2) etc., fixes the Gaussian state of the fluctuations.
The logarithmic negativity follows from the smallest symplectic eigenvalue
of the partial transpose,

    nu_plus^2  = (Sigma + sqrt(Sigma^2 - 4 det C)) / 2
    nu_minus^2 = det C / nu_plus^2
    Sigma      = det P + det A - 2 det X
    E_N        = max(0, -ln(2 nu_minus))

with P, A, X the photon, atom, and cross 2x2 blocks.  nu_minus^2 is taken
from the product nu_plus^2 nu_minus^2 = det C, not as the difference
(Sigma - sqrt(...)) / 2, which cancels when nu_plus >> nu_minus.  The natural
logarithm is used throughout; the state is separable (E_N = 0) iff
nu_minus >= 1/2.  The covariance and the negativity are computed for a stack
of moment matrices at once; the scalar functions are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import OMEGA_SYMPL, QUAD_MAP
from .errors import NumericalFailure, RowErrors
from .fluctuations import SecondMoments, blank_failed

PHYSICALITY_TOL = 1e-8


def symplectic_eigenvalues(c: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix (|eig(i Omega C)|, paired);
    works on one matrix or a stack."""
    freqs = np.abs(np.linalg.eigvals(1j * OMEGA_SYMPL @ c))
    return np.sort(freqs, axis=-1)[..., ::2]


@dataclass(frozen=True)
class QuadCovariance:
    """Symmetrized quadrature covariance with its symplectic floor."""

    c: np.ndarray
    nu_min: float

    @property
    def photon_block(self) -> np.ndarray:
        return self.c[:2, :2]

    @property
    def atom_block(self) -> np.ndarray:
        return self.c[2:, 2:]

    @property
    def cross_block(self) -> np.ndarray:
        return self.c[:2, 2:]


def covariance_batch(s: np.ndarray, errors: RowErrors) -> tuple[np.ndarray, np.ndarray]:
    """(covariances, smallest symplectic eigenvalues) of a stack of moments.

    Rows fail on an imaginary residue of the symmetrized covariance and on a
    symplectic eigenvalue below 1/2.
    """
    raw = QUAD_MAP @ s @ QUAD_MAP.T
    sym = 0.5 * (raw + raw.transpose(0, 2, 1))
    scale = np.maximum(1.0, np.abs(sym).max(axis=(1, 2)))
    imag_resid = np.abs(sym.imag).max(axis=(1, 2))
    errors.fail(imag_resid > 1e-10 * scale, lambda i: NumericalFailure(
        f"covariance imaginary residue {imag_resid[i]:.3e} exceeds tolerance"))
    c = blank_failed(sym.real.copy(), errors, 0.5 * np.eye(4))
    nu_min = symplectic_eigenvalues(c).min(axis=1)
    errors.fail(nu_min < 0.5 - PHYSICALITY_TOL * scale, lambda i: NumericalFailure(
        f"unphysical covariance: min symplectic eigenvalue {nu_min[i]!r} < 1/2"))
    return c, nu_min


def quad_covariance(s: SecondMoments | np.ndarray) -> QuadCovariance:
    """Quadrature covariance from ladder-operator second moments."""
    mat = s.s if isinstance(s, SecondMoments) else s
    errors = RowErrors(1)
    c, nu_min = covariance_batch(np.asarray(mat)[None], errors)
    errors.raise_first()
    return QuadCovariance(c=c[0], nu_min=float(nu_min[0]))


def pt_symplectic_min(cov: QuadCovariance | np.ndarray) -> float:
    """Smallest symplectic eigenvalue of the partial transpose.

    Brute-force route (momentum-sign flip on the atom mode followed by an
    eigen-solve); serves as the cross-check of the invariant formula.
    """
    c = cov.c if isinstance(cov, QuadCovariance) else cov
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    return float(np.min(symplectic_eigenvalues(flip @ c @ flip)))


def _nu_minus_batch(c: np.ndarray, errors: RowErrors) -> np.ndarray:
    """nu_minus of the partial transpose of every covariance in a stack."""
    det = np.linalg.det
    sigma = det(c[:, :2, :2]) + det(c[:, 2:, 2:]) - 2.0 * det(c[:, :2, 2:])
    det_c = det(c)
    scale = np.maximum(1.0, sigma ** 2)
    disc = sigma ** 2 - 4.0 * det_c
    errors.fail(disc < -1e-10 * scale, lambda i: NumericalFailure(
        f"negative discriminant {disc[i]:.3e} in symplectic invariants"))
    nu_plus_sq = 0.5 * (sigma + np.sqrt(np.maximum(disc, 0.0)))
    arg = np.divide(det_c, nu_plus_sq, out=np.zeros_like(det_c),
                    where=nu_plus_sq > 0.0)
    errors.fail(arg < -1e-10 * scale, lambda i: NumericalFailure(
        f"negative nu_minus^2 = {arg[i]:.3e}"))
    return np.sqrt(np.maximum(arg, 0.0))


def log_negativity_batch(c: np.ndarray, errors: RowErrors) -> np.ndarray:
    """E_N = max(0, -ln(2 nu_minus)) of every covariance in a stack; a row
    with nu_minus = 0 fails."""
    nu = _nu_minus_batch(c, errors)
    singular = nu <= 0.0
    errors.fail(singular, lambda i: NumericalFailure(
        "nu_minus = 0; covariance is singular"))
    e_n = -np.log(2.0 * np.where(singular, 0.5, nu))
    return np.where(e_n > 0.0, e_n, 0.0)


def pt_nu_minus(cov: QuadCovariance | np.ndarray) -> float:
    """nu_minus via the symplectic invariants of the partial transpose."""
    c = cov.c if isinstance(cov, QuadCovariance) else cov
    errors = RowErrors(1)
    nu = _nu_minus_batch(np.asarray(c, dtype=float)[None], errors)
    errors.raise_first()
    return float(nu[0])


def log_negativity(cov: QuadCovariance | np.ndarray) -> float:
    """Logarithmic negativity E_N = max(0, -ln(2 nu_minus))."""
    c = cov.c if isinstance(cov, QuadCovariance) else cov
    errors = RowErrors(1)
    e_n = log_negativity_batch(np.asarray(c, dtype=float)[None], errors)
    errors.raise_first()
    return float(e_n[0])


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
