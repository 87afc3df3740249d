"""Parameter scans, critical-exponent fits, and figure-table assembly.

The exponent protocol fixes a log-spaced grid of relative distances
eps = |1 - y/y_c| and fits delta_n = a * eps**nu + b, a singular power law
on a regular background, so that nu is the exponent of the singular part
alone.  A straight line through (ln eps, ln delta_n) would measure the
slope of singular part and background together.  The observable comes from
the steady state when kappa > 0 and from the ground state when kappa = 0;
the analytic critical pump is used for centering.

Scan tables carry one row per grid point with a status column; points where
the model fails (divergence at the critical point, defective matrices,
instability) are reported, never dropped.  Every scan computes its grid as
batches of arrays, BATCH_ROWS pump values at a time; a row's status is its
first failing check, in the order mean field, defective, biorthonormality,
pairing, unstable, divergent, moment structure, observables.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .entanglement import covariance_batch, log_negativity_batch
from .errors import (DefectiveMatrix, DegenerateBranch, DivergentSteadyState,
                     DynamicalInstability, InvalidCurve, NumericalFailure,
                     UnstableState)
from .fluctuations import observables_batch, spectrum_scan, steady_state_batch
from .groundstate import ground_state_batch
from .model import ModelParams, critical_pump, mean_field_batch

DEFAULT_WINDOW = (math.exp(-14.0), math.exp(-5.0))
DEFAULT_POINTS_PER_SIDE = 40
MIN_FIT_POINTS = 8
GOOD_FIT_R_SQUARED = 0.999
# Gauss-Newton stops once a step would move the fitted curve by less than
# this, relative to the data; it gives up after FIT_MAX_ITER steps.
FIT_STEP_TOL = 1e-10
FIT_MAX_ITER = 50
# Pump values per batch of a grid scan.  It bounds the (N, 4, 4)
# temporaries of a long grid to about a megabyte; a batch adds a fixed cost
# of a few hundred microseconds.
BATCH_ROWS = 256


class Side(enum.Enum):
    BELOW = "below"
    ABOVE = "above"


class ScanKind(enum.Enum):
    MEAN_FIELD = "mean_field"
    MEAN_AND_FLUCT = "mean_and_fluct"
    EXPONENT = "exponent"
    ENTANGLEMENT = "entanglement"
    SPECTRUM = "spectrum"


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of value = exp(intercept) * eps**slope + background.

    ``r_squared`` compares ln(value) with the logarithm of the fitted curve.
    """

    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    side: Side
    n_points: int
    background: float = 0.0

    @property
    def poor_fit(self) -> bool:
        return self.r_squared < GOOD_FIT_R_SQUARED


@dataclass(frozen=True)
class Table:
    """Scan result: fixed columns, one tuple per row, extras in meta."""

    kind: ScanKind
    columns: tuple[str, ...]
    rows: list[tuple]
    meta: dict = field(default_factory=dict)


def exponent_grid(window: tuple[float, float] = DEFAULT_WINDOW,
                  n: int = DEFAULT_POINTS_PER_SIDE) -> np.ndarray:
    """Log-spaced grid of relative distances spanning the fit window."""
    lo, hi = window
    if not (0.0 < lo < hi):
        raise ValueError(f"invalid window {window!r}; need 0 < min < max")
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


def exponent_fit(curve, window: tuple[float, float] = DEFAULT_WINDOW,
                 side: Side = Side.BELOW) -> ExponentFit:
    """Fit value = exp(intercept) * eps**slope + background inside the window.

    ``curve`` is a sequence of (eps, value) pairs with eps = |1 - y/y_c|.
    Values must be positive inside the window and at least 8 points must
    survive the window cut.  The fit minimizes the relative residuals by
    Gauss-Newton, starting from the straight line through (ln eps, ln value)
    with zero background; on an exact power law that start is already the
    solution and is returned unchanged.  Raises InvalidCurve when the
    iteration does not converge or the fitted curve is not positive.
    """
    arr = np.asarray(list(curve), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidCurve(f"curve must be pairs (eps, value), got shape {arr.shape}")
    lo, hi = window
    mask = (arr[:, 0] >= lo) & (arr[:, 0] <= hi)
    pts = arr[mask]
    if pts.shape[0] < MIN_FIT_POINTS:
        raise InvalidCurve(f"only {pts.shape[0]} points inside window "
                           f"{window!r}; need >= {MIN_FIT_POINTS}")
    if np.any(pts[:, 1] <= 0.0):
        raise InvalidCurve("non-positive values inside the fit window")

    lx = np.log(pts[:, 0])
    values = pts[:, 1]
    ly = np.log(values)
    design = np.column_stack([lx, np.ones_like(lx)])
    params = np.append(np.linalg.lstsq(design, ly, rcond=None)[0], 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(FIT_MAX_ITER):
            slope, intercept, background = params
            power = np.exp(intercept + slope * lx)
            residual = (power + background - values) / values
            jac = np.column_stack([power * lx, power,
                                   np.ones_like(lx)]) / values[:, None]
            if not (np.all(np.isfinite(jac)) and np.all(np.isfinite(residual))):
                raise InvalidCurve(
                    f"power-law fit diverged at slope {slope:.6g}, "
                    f"intercept {intercept:.6g}, background {background:.6g}")
            step = np.linalg.lstsq(jac, -residual, rcond=None)[0]
            if np.max(np.abs(jac @ step)) <= FIT_STEP_TOL:
                break
            params = params + step
        else:
            raise InvalidCurve(
                f"power-law fit did not converge in {FIT_MAX_ITER} steps")

    fitted = power + background
    if np.any(fitted <= 0.0):
        raise InvalidCurve("fitted curve is not positive inside the window")
    log_residual = ly - np.log(fitted)
    total = ly - np.mean(ly)
    ss_tot = float(total @ total)
    r_squared = 1.0 if ss_tot == 0.0 else \
        1.0 - float(log_residual @ log_residual) / ss_tot
    return ExponentFit(slope=float(slope), intercept=float(intercept),
                       r_squared=r_squared, window=(lo, hi), side=side,
                       n_points=pts.shape[0], background=float(background))


def _moments(params: ModelParams, y_grid):
    """(mean fields, rows whose mean field holds, fluctuation moments) of a
    pump grid, with the kappa = 0 (ground state) / kappa > 0 (steady state)
    dispatch.  Failed rows keep their error in the batch's ``errors``."""
    mf = mean_field_batch(params, y_grid)
    mean_ok = mf.errors.alive.copy()
    moments = ground_state_batch if params.kappa == 0.0 else steady_state_batch
    return mf, mean_ok, moments(params, mf)


def depletion_curve(params: ModelParams, side: Side,
                    window: tuple[float, float] = DEFAULT_WINDOW,
                    n: int = DEFAULT_POINTS_PER_SIDE) -> np.ndarray:
    """(eps, delta_n, n_photon) rows approaching y_c from one side; raises
    the error of the first row that fails."""
    y_c = critical_pump(params)
    eps = exponent_grid(window, n)
    sign = -1.0 if side is Side.BELOW else 1.0
    mf, _, s = _moments(params, y_c * (1.0 + sign * eps))
    delta_n, n_photon = observables_batch(s, mf.errors)
    mf.errors.raise_first()
    return np.column_stack([eps, delta_n, n_photon])


def critical_exponent(params: ModelParams, side: Side,
                      window: tuple[float, float] = DEFAULT_WINDOW,
                      n: int = DEFAULT_POINTS_PER_SIDE) -> ExponentFit:
    """Exponent of the singular part of the depletion on one side of y_c."""
    curve = depletion_curve(params, side, window, n)
    return exponent_fit(curve[:, :2], window, side)


_STATUS_BY_ERROR = (
    (DivergentSteadyState, "divergent"),
    (DefectiveMatrix, "defective"),
    (UnstableState, "unstable"),
    (DynamicalInstability, "unstable"),
    (DegenerateBranch, "degenerate"),
    (NumericalFailure, "failed"),
)


def status_of(err: Exception) -> str:
    """Status-column label for a scan-protected error."""
    for cls, label in _STATUS_BY_ERROR:
        if isinstance(err, cls):
            return label
    raise err


def _masked(ok, *columns) -> tuple:
    """The columns with NaN on the rows where ``ok`` is False."""
    return tuple(np.where(ok, c, math.nan) for c in columns)


def _mean_field_columns(params: ModelParams, y):
    mf = mean_field_batch(params, y)
    return mf.errors, _masked(mf.errors.alive, np.abs(mf.alpha0) ** 2,
                              mf.beta0 ** 2)


def _excitation_columns(params: ModelParams, y):
    mf, mean_ok, s = _moments(params, y)
    delta_n, n_photon = observables_batch(s, mf.errors)
    return mf.errors, (_masked(mean_ok, mf.alpha0.real, mf.alpha0.imag,
                               mf.beta0 ** 2)
                       + _masked(mf.errors.alive, delta_n, n_photon))


def _entanglement_columns(params: ModelParams, y):
    mf, _, s = _moments(params, y)
    _, invariants, nu_min = covariance_batch(s, mf.errors)
    e_n = log_negativity_batch(invariants, mf.errors)
    return mf.errors, _masked(mf.errors.alive, e_n, nu_min)


# The columns between (y, y_over_yc) and status of each grid scan, and the
# function that computes them, with the rows' errors, for a batch of pumps.
_GRID_SCANS = {
    ScanKind.MEAN_FIELD: (("alpha0_sq", "beta0_sq"), _mean_field_columns),
    ScanKind.MEAN_AND_FLUCT: (("alpha0_re", "alpha0_im", "beta0_sq", "delta_N",
                               "n_photon"), _excitation_columns),
    ScanKind.ENTANGLEMENT: (("log_negativity", "nu_min"), _entanglement_columns),
}


def _grid_table(kind: ScanKind, params: ModelParams, y_grid) -> Table:
    """The table of a grid scan, computed in batches of at most BATCH_ROWS
    pumps."""
    names, columns_of = _GRID_SCANS[kind]
    y = np.asarray(y_grid, dtype=float).reshape(-1)
    y_c = critical_pump(params)
    rows = []
    for start in range(0, y.size, BATCH_ROWS):
        batch = y[start:start + BATCH_ROWS]
        errors, columns = columns_of(params, batch)
        rows += zip(batch.tolist(), (batch / y_c).tolist(),
                    *(c.tolist() for c in columns),
                    ["ok" if e is None else status_of(e) for e in errors.errors])
    return Table(kind=kind, columns=("y", "y_over_yc") + names + ("status",),
                 rows=rows)


def _spectrum_table(params: ModelParams, y_grid) -> Table:
    scan = spectrum_scan(params, y_grid)
    columns = [scan.y.tolist(), (scan.y / critical_pump(params)).tolist()]
    names = ("y", "y_over_yc")
    for k in range(4):
        columns += [scan.branches[:, k].real.tolist(),
                    scan.branches[:, k].imag.tolist()]
        names += (f"lambda{k + 1}_re", f"lambda{k + 1}_im")
    return Table(kind=ScanKind.SPECTRUM, columns=names + ("status",),
                 rows=list(zip(*columns, scan.status)),
                 meta={"real_intervals": scan.real_intervals})


def exponent_table(params: ModelParams,
                   window: tuple[float, float] = DEFAULT_WINDOW,
                   n: int = DEFAULT_POINTS_PER_SIDE,
                   sides: tuple[Side, ...] = (Side.BELOW, Side.ABOVE)) -> Table:
    """One :func:`critical_exponent` fit per side, with ``n`` points per side
    on its log-spaced grid; raises ValueError when ``n`` is below the fit's
    minimum before it computes anything."""
    _check_fit_points(n)
    rows = []
    for side in sides:
        fit = critical_exponent(params, side, window, n)
        rows.append((side.value, fit.slope, fit.intercept, fit.r_squared,
                     fit.n_points, window[0], window[1],
                     "poor_fit" if fit.poor_fit else "ok"))
    return Table(kind=ScanKind.EXPONENT,
                 columns=("side", "slope", "intercept", "r_squared",
                          "n_points", "window_min", "window_max", "status"),
                 rows=rows)


def _check_fit_points(n: int) -> None:
    if n < MIN_FIT_POINTS:
        raise ValueError(f"points per side must be >= {MIN_FIT_POINTS} "
                         f"for the fit, got {n}")


def figure_scan(kind: ScanKind, params: ModelParams, y_grid) -> Table:
    """The table of a scan along the pump grid ``y_grid``, computed as
    batches of arrays: MEAN_FIELD, MEAN_AND_FLUCT, ENTANGLEMENT or SPECTRUM.
    Exponent tables have their own grid (:func:`exponent_table`)."""
    if kind is ScanKind.SPECTRUM:
        return _spectrum_table(params, y_grid)
    if kind not in _GRID_SCANS:
        raise ValueError(f"{kind!r} is not a pump-grid scan; exponent tables "
                         "come from exponent_table")
    return _grid_table(kind, params, y_grid)
