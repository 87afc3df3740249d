"""Mean-field phase diagram of the driven-damped two-mode condensate model.

Parameters are expressed in recoil units (omega_r = 1).  The model is the
transversally pumped condensate in a lossy cavity reduced to one photon mode
and one atomic side mode:

* ``delta_c``  cavity detuning (must be negative for a threshold to exist),
* ``kappa``    photon loss rate (half width), zero for the closed system,
* ``u``        dispersive shift per atom times atom number,
* ``y``        pump strength.

The stationary mean field satisfies

    [i (delta_c - u beta0^2) - kappa] alpha0 = -y beta0 sqrt(1 - beta0^2)
    (omega_r + u |alpha0|^2) beta0 = -y Im(alpha0) (1 - 2 beta0^2) / sqrt(1 - beta0^2)

with the chemical potential mu = -(omega_r + u |alpha0|^2) / (2 (1 - 2 beta0^2)).
Below the critical pump the normal solution alpha0 = beta0 = 0 is the stable
one; above it the condensate acquires a density modulation beta0 > 0 and the
cavity a coherent amplitude.

The mean field is computed for a whole pump grid at once
(:func:`mean_field_batch`) or for one pump value (:func:`mean_field_point`,
behind :func:`solve_mean_field` and the other scalar functions); both share
the formulas and the checks.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .basis import OMEGA_R
from .errors import DegenerateBranch, NoThreshold, NumericalFailure, RowErrors

# Residuals of the stationarity conditions must close to this level, relative
# to the larger of 1 and the magnitude of their terms.
RESIDUAL_TOL = 1e-12


class Phase(enum.Enum):
    NORMAL = "normal"
    SUPERRADIANT = "superradiant"


@dataclass(frozen=True)
class ModelParams:
    """Model parameters in recoil units."""

    delta_c: float
    kappa: float
    u: float
    y: float

    def __post_init__(self):
        for name in ("delta_c", "kappa", "u", "y"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa!r}")
        if self.y < 0:
            raise ValueError(f"y must be >= 0, got {self.y!r}")

    def with_pump(self, y: float) -> "ModelParams":
        return replace(self, y=float(y))


@dataclass(frozen=True)
class MeanField:
    """Stationary mean-field solution at one parameter point."""

    alpha0: complex
    beta0: float
    mu: float
    phase: Phase


@dataclass
class MeanFieldBatch:
    """Mean fields along a pump grid at fixed (delta_c, kappa, u).

    One row per pump value: the fields are arrays for a grid
    (:func:`mean_field_batch`) and scalars for a single pump value
    (:func:`mean_field_point`).
    Rows whose mean field failed keep their error in ``errors``; their
    amplitudes are meaningless (zero where the superradiant branch does not
    exist).
    """

    y: np.ndarray
    alpha0: np.ndarray
    beta0: np.ndarray
    mu: np.ndarray
    errors: RowErrors


def critical_pump(params: ModelParams) -> float:
    """Pump strength at which the normal phase loses stability.

    y_c = sqrt(-omega_r (delta_c^2 + kappa^2) / delta_c), defined only for
    delta_c < 0; otherwise the pumped mode is never softened and there is no
    transition.  The pump value stored in ``params`` plays no role.  Raises
    ValueError where y_c^2 overflows (|delta_c| or kappa above about 1e154)
    or delta_c^2 + kappa^2 is below the smallest normal double, where it has
    lost precision (|delta_c| below about 1.49e-154 at kappa = 0).
    """
    if not (params.delta_c < 0.0):
        raise NoThreshold(
            f"no critical pump for delta_c = {params.delta_c!r}; need delta_c < 0")
    try:
        norm_sq = params.delta_c ** 2 + params.kappa ** 2
    except OverflowError:
        norm_sq = math.inf
    if norm_sq < sys.float_info.min:
        raise ValueError(f"critical pump underflows for delta_c = {params.delta_c!r}, "
                         f"kappa = {params.kappa!r}")
    y_c_sq = -OMEGA_R * norm_sq / params.delta_c
    if y_c_sq == math.inf:
        raise ValueError(f"critical pump overflows for delta_c = {params.delta_c!r}, "
                         f"kappa = {params.kappa!r}")
    return math.sqrt(y_c_sq)


def abs_squared(z):
    """|z|^2 in real arithmetic, which rounds alike for numpy scalars and
    arrays (complex multiplication and division need not)."""
    return z.real * z.real + z.imag * z.imag


def mean_field_residuals(params: ModelParams, alpha0: complex,
                         beta0: float) -> tuple[complex, float]:
    """Residuals of the two stationarity conditions (zero at a solution)."""
    root = math.sqrt(max(0.0, 1.0 - beta0 ** 2))
    res_a = ((1j * (params.delta_c - params.u * beta0 ** 2) - params.kappa)
             * alpha0 + params.y * beta0 * root)
    if root == 0.0:
        raise DegenerateBranch("beta0 = 1 is outside the two-mode expansion")
    res_b = ((OMEGA_R + params.u * abs(alpha0) ** 2) * beta0
             + params.y * alpha0.imag * (1.0 - 2.0 * beta0 ** 2) / root)
    return res_a, res_b


def _order_parameter(params: ModelParams, y, y_c: float):
    """(beta0^2 of the superradiant branch at pump y, the radicand 1 - ratio).

    beta0^2 = delta_c/u * ratio / (1 + sqrt(1 - ratio)) with
    ratio = u/delta_c * (y^2 - y_c^2) / (y^2 + u omega_r) does not cancel
    for small ratio (u = 0: (y^2 - y_c^2) / (2 y^2)); a negative radicand
    leaves it NaN.  Scalars or arrays.
    """
    y_sq = y * y
    if params.u == 0.0:
        return (y_sq - y_c ** 2) / (2.0 * y_sq), 1.0
    dc, u = params.delta_c, params.u
    ratio = u / dc * (y_sq - y_c ** 2) / (y_sq + u * OMEGA_R)
    return dc / u * ratio / (1.0 + np.sqrt(1.0 - ratio)), 1.0 - ratio


def _branch_fields(params: ModelParams, y, beta0):
    """(alpha0, mu, 1 - 2 beta0^2, stationarity residuals) at a given beta0.

    The residuals are (|t1 + t2|, |t1| + |t2|, |t3 + t4|, |t3| + |t4|) for
    the conditions t1 + t2 = 0 and t3 + t4 = 0.  Scalars or arrays, in real
    arithmetic (and products of a real with a complex number), which rounds
    alike for both; general complex products and quotients need not.
    """
    bsq = beta0 * beta0
    root = np.sqrt(1.0 - bsq)
    one_minus = 1.0 - 2.0 * bsq
    c = params.delta_c - params.u * bsq
    t2 = y * beta0 * root
    # alpha0 = -t2 / (i c - kappa); +0 in the normal phase, where t2 = +0 and
    # c = delta_c < 0.  The complex factor comes first: a Python complex
    # times a numpy scalar stays a fast Python complex.
    alpha0 = (params.kappa + 1j * c) * (t2 / (params.kappa ** 2 + c * c))
    gain = OMEGA_R + params.u * abs_squared(alpha0)
    mu = -0.5 * gain / one_minus
    t1 = (1j * c - params.kappa) * alpha0
    t3 = gain * beta0
    t4 = y * alpha0.imag * one_minus / root
    return alpha0, mu, one_minus, (abs(t1 + t2), abs(t1) + abs(t2),
                                   abs(t3 + t4), abs(t3) + abs(t4))


def _residuals_exceed(res_a, size_a, res_b, size_b):
    """res > RESIDUAL_TOL * max(1, size) for either condition, written with
    operators only so that it works on scalars and arrays."""
    return (((res_a > RESIDUAL_TOL) & (res_a > RESIDUAL_TOL * size_a))
            | ((res_b > RESIDUAL_TOL) & (res_b > RESIDUAL_TOL * size_b)))


def _missing_branch(radicand, bsq, y) -> NumericalFailure:
    return NumericalFailure(lambda: (
        f"superradiant branch undefined: radicand {float(radicand)!r} < 0"
        if radicand < 0.0 else
        f"beta0^2 = {float(bsq)!r} outside (0, 1) for y = {float(y)!r}"))


def _degenerate_branch(one_minus) -> DegenerateBranch:
    return DegenerateBranch(lambda: f"1 - 2 beta0^2 = {float(one_minus)!r}; "
                                    "chemical potential singular")


def _residual_failure(res_a, size_a, res_b, size_b) -> NumericalFailure:
    return NumericalFailure(lambda: (
        f"mean-field residuals ({res_a:.3e}, {res_b:.3e}) exceed "
        f"{RESIDUAL_TOL:g} times max(1, size of their terms) "
        f"({max(1.0, size_a):.3e}, {max(1.0, size_b):.3e})"))


def pump_grid(y_grid) -> np.ndarray:
    """``y_grid`` as a flat float array; raises ValueError naming the first
    pump value that is not finite and >= 0."""
    y = np.asarray(y_grid, dtype=float).reshape(-1)
    good = (0.0 <= y) & (y < math.inf)
    if not good.all():
        raise ValueError(f"pump y must be finite and >= 0, got {float(y[~good][0])!r}")
    return y


def mean_field_batch(params: ModelParams, y_grid) -> MeanFieldBatch:
    """Stationary mean fields on the physical (stable) branch along a grid.

    At and below the critical pump a row is in the normal phase; above it on
    the superradiant branch with beta0 > 0 (:func:`_order_parameter`).
    Superradiant rows fail when the branch does not exist (radicand < 0 or
    beta0^2 outside (0, 1)), when 1 - 2 beta0^2 ~ 0, and when a stationarity
    residual exceeds RESIDUAL_TOL times the larger of 1 and the size of its
    terms.  The pump value stored in ``params`` is ignored; a pump value
    that is not finite and >= 0 raises ValueError (:func:`pump_grid`).
    """
    y = pump_grid(y_grid)
    y_c = critical_pump(params)
    errors = RowErrors(y.size)
    # Rows off the superradiant branch may overflow or take a root of a
    # negative number here; they are masked or failed below.
    with np.errstate(all="ignore"):
        branch, radicand = _order_parameter(params, y, y_c)
        sr = y > y_c
        missing = sr & ~((0.0 < branch) & (branch < 1.0))
        beta0 = np.sqrt(np.where(sr & ~missing, branch, 0.0))
        alpha0, mu, one_minus, residuals = _branch_fields(params, y, beta0)
        degenerate = np.abs(one_minus) < 1e-12
        bad = _residuals_exceed(*residuals)

    errors.fail(missing, lambda i: _missing_branch(
        radicand[i] if params.u else radicand, branch[i], y[i]))
    errors.fail(degenerate, lambda i: _degenerate_branch(one_minus[i]))
    errors.fail(bad, lambda i: _residual_failure(*(r[i] for r in residuals)))
    return MeanFieldBatch(y, alpha0, beta0, mu, errors)


def mean_field_point(params: ModelParams) -> MeanFieldBatch:
    """The mean field at ``params.y`` as a batch of one with scalar fields,
    its errors not yet raised.

    The formulas and checks are those of :func:`mean_field_batch`; a single
    pump value takes its branch by conditionals instead of masks, because the
    array operations would cost several times the arithmetic.
    """
    y = np.float64(params.y)
    y_c = critical_pump(params)
    errors = RowErrors(1)
    if not y > y_c:
        return MeanFieldBatch(y, 0j, 0.0, -0.5 * OMEGA_R, errors)
    with np.errstate(all="ignore"):
        branch, radicand = _order_parameter(params, y, y_c)
        if not 0.0 < branch < 1.0:
            errors.fail(True, lambda i: _missing_branch(radicand, branch, y))
            return MeanFieldBatch(y, 0j, 0.0, -0.5 * OMEGA_R, errors)
        beta0 = np.sqrt(branch)
        alpha0, mu, one_minus, residuals = _branch_fields(params, y, beta0)
    errors.fail(abs(one_minus) < 1e-12, lambda i: _degenerate_branch(one_minus))
    errors.fail(_residuals_exceed(*residuals), lambda i: _residual_failure(*residuals))
    return MeanFieldBatch(y, alpha0, beta0, mu, errors)


def solve_mean_field(params: ModelParams) -> MeanField:
    """Stationary mean field on the physical (stable) branch.

    Below and at the critical pump this is the normal phase; above it the
    superradiant branch with beta0 > 0.  Raises the first failing check of
    :func:`mean_field_point`.
    """
    batch = mean_field_point(params)
    batch.errors.raise_first()
    return MeanField(alpha0=complex(batch.alpha0), beta0=float(batch.beta0),
                     mu=float(batch.mu),
                     phase=Phase.SUPERRADIANT if batch.beta0 > 0.0 else Phase.NORMAL)
