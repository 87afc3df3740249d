"""Correctness checks made apart from the program.

Everything here is computed by the benchmark itself with numpy and scipy:
the stationarity residuals of the mean field, the steady state as a
Bartels-Stewart Sylvester solve, quadrature covariances, symplectic spectra,
the partial-transpose log-negativity, the real-pair test of the spectrum
and the growing-mode and driven-undamped-pair tests that bear out a row's
``unstable`` or ``divergent`` status.  The program contributes only the
stability matrix M, whose entries are the model's definition.  No check
compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# Ladder vector (a, a+, b, b+) -> quadratures (x_c, p_c, x_a, p_a).
_QUAD = np.array([[1.0, 1.0, 0.0, 0.0],
                  [-1.0j, 1.0j, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 1.0],
                  [0.0, 0.0, -1.0j, 1.0j]]) / math.sqrt(2.0)
_OMEGA = np.array([[0.0, 1.0, 0.0, 0.0],
                   [-1.0, 0.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0, 1.0],
                   [0.0, 0.0, -1.0, 0.0]])
_PT_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])

# |Im lambda| below which an eigenvalue counts as real in the real-pair test.
REAL_TOL = 1e-8
# min |lambda_k + lambda_l| / max |lambda| below which M S + S M^T = -D is
# treated as singular.
SINGULAR_TOL = 1e-12
# |w_k[0] w_l[1]| of unit left eigenvectors above which the cavity noise
# drives the mode pair (k, l); roundoff leaves about 1e-16.
DRIVE_TOL = 1e-12


def close(value: float, reference: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(value - reference) <= max(abs_, rel * abs(reference))


def mean_field_residual(delta_c, kappa, u, y, alpha: complex, beta_sq: float) -> float:
    """Largest stationarity residual relative to the size of its terms.

    The two conditions are
      [i (delta_c - u b^2) - kappa] a + y b sqrt(1 - b^2) = 0,
      (1 + u |a|^2) b + y Im(a) (1 - 2 b^2) / sqrt(1 - b^2) = 0.
    """
    beta = math.sqrt(beta_sq)
    root = math.sqrt(1.0 - beta_sq)
    t1 = (1j * (delta_c - u * beta_sq) - kappa) * alpha
    t2 = y * beta * root
    t3 = (1.0 + u * abs(alpha) ** 2) * beta
    t4 = y * alpha.imag * (1.0 - 2.0 * beta_sq) / root
    worst = 0.0
    for a, b in ((t1, t2), (t3, t4)):
        scale = abs(a) + abs(b)
        if scale > 0.0:
            worst = max(worst, abs(a + b) / scale)
    return worst


def sylvester_moments(m: np.ndarray, kappa: float) -> np.ndarray:
    """Steady state of M S + S M^T + D = 0 by Bartels-Stewart."""
    # Imported here, after the workload's peak resident set has been read,
    # so that the benchmark's own imports do not show in peak_rss_mb.
    import scipy.linalg

    d = np.zeros((4, 4))
    d[0, 1] = 2.0 * kappa
    return scipy.linalg.solve_sylvester(m, m.T, -d)


def sylvester_singular(m: np.ndarray) -> bool:
    """Some lambda_k + lambda_l vanishes: the steady state is not unique."""
    lam = np.linalg.eigvals(m)
    sums = np.abs(lam[:, None] + lam[None, :])
    return float(np.min(sums)) <= SINGULAR_TOL * float(np.max(np.abs(lam)))


def has_growing_mode(m: np.ndarray) -> bool:
    """Some eigenvalue of M has Re lambda > 0 (beyond SINGULAR_TOL)."""
    lam = np.linalg.eigvals(m)
    return float(np.max(lam.real)) > SINGULAR_TOL * float(np.max(np.abs(lam)))


def has_driven_undamped_pair(m: np.ndarray) -> bool:
    """Some lambda_k + lambda_l vanishes (SINGULAR_TOL) on a mode pair that
    the cavity noise drives: the drive of <rho_k rho_l> is proportional to
    conj(w_k[0]) conj(w_l[1]), w the unit left eigenvectors of M, and is
    exactly zero for a mode the cavity does not couple to."""
    import scipy.linalg

    lam, left = scipy.linalg.eig(m, left=True, right=False)
    left = left / np.linalg.norm(left, axis=0)
    limit = SINGULAR_TOL * float(np.max(np.abs(lam)))
    for k in range(4):
        for l in range(4):
            if (abs(lam[k] + lam[l]) <= limit
                    and abs(left[0, k] * left[1, l]) > DRIVE_TOL):
                return True
    return False


def quad_covariance(s: np.ndarray) -> np.ndarray:
    raw = _QUAD @ s @ _QUAD.T
    return (0.5 * (raw + raw.T)).real


def symplectic_spectrum(c: np.ndarray) -> np.ndarray:
    """The two symplectic eigenvalues of a 4x4 covariance."""
    return np.sort(np.abs(np.linalg.eigvals(1j * _OMEGA @ c)))[::2]


def log_negativity(c: np.ndarray) -> float:
    nu = float(np.min(symplectic_spectrum(_PT_FLIP @ c @ _PT_FLIP)))
    return max(0.0, -math.log(2.0 * nu))


def stationarity_defect(m: np.ndarray, s: np.ndarray) -> float:
    """|M S + S M^T| relative to |M| |S| (zero for a closed-system ground state)."""
    scale = float(np.max(np.abs(m))) * float(np.max(np.abs(s)))
    return float(np.max(np.abs(m @ s + s @ m.T))) / scale


def has_real_pair(m: np.ndarray) -> bool:
    return int(np.sum(np.abs(np.linalg.eigvals(m).imag) <= REAL_TOL)) >= 2


def same_multiset(got, expected, tol: float) -> bool:
    """Greedy one-to-one matching of two complex multisets within tol."""
    left = list(expected)
    for z in got:
        k = min(range(len(left)), key=lambda i: abs(left[i] - z))
        if abs(left[k] - z) > tol:
            return False
        left.pop(k)
    return not left


class Failures:
    """Collects failed checks under a label, keeping the first few messages."""

    def __init__(self):
        self.count = 0
        self.checked = 0
        self.skipped = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message) -> None:
        self.checked += 1
        if not ok:
            self.count += 1
            if len(self.messages) < 5:
                self.messages.append(message() if callable(message) else message)
