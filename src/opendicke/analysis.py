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
pairing, unstable, divergent, moment structure, observables.  ``threads``
arguments are accepted for compatibility and have no effect.
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
    if pts.shape[0] < 8:
        raise InvalidCurve(
            f"only {pts.shape[0]} points inside window {window!r}; need >= 8")
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
                    n: int = DEFAULT_POINTS_PER_SIDE,
                    threads: int = 1) -> np.ndarray:
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
                      n: int = DEFAULT_POINTS_PER_SIDE,
                      threads: int = 1) -> ExponentFit:
    """Exponent of the singular part of the depletion on one side of y_c."""
    curve = depletion_curve(params, side, window, n, threads)
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


def _status_column(errors) -> list[str]:
    return ["ok" if err is None else status_of(err) for err in errors.errors]


def _mean_field_table(params: ModelParams, y_grid) -> Table:
    mf = mean_field_batch(params, y_grid)
    ok = mf.errors.alive
    alpha0_sq = np.where(ok, np.abs(mf.alpha0) ** 2, math.nan)
    beta0_sq = np.where(ok, mf.beta0 ** 2, math.nan)
    rows = list(zip(mf.y.tolist(), (mf.y / critical_pump(params)).tolist(),
                    alpha0_sq.tolist(), beta0_sq.tolist(),
                    _status_column(mf.errors)))
    return Table(kind=ScanKind.MEAN_FIELD,
                 columns=("y", "y_over_yc", "alpha0_sq", "beta0_sq", "status"),
                 rows=rows)


def _grid_rows(rows_of, params: ModelParams, y_grid) -> list[tuple]:
    """Rows of a pump grid, computed in batches of at most BATCH_ROWS pumps."""
    y = np.asarray(y_grid, dtype=float).reshape(-1)
    y_c = critical_pump(params)
    rows = []
    for start in range(0, y.size, BATCH_ROWS):
        rows += rows_of(params, y[start:start + BATCH_ROWS], y_c)
    return rows


def _excitation_rows(params: ModelParams, y, y_c: float) -> list[tuple]:
    mf, mean_ok, s = _moments(params, y)
    delta_n, n_photon = observables_batch(s, mf.errors)
    ok = mf.errors.alive
    nan = math.nan
    return list(zip(y.tolist(), (y / y_c).tolist(),
                    np.where(mean_ok, mf.alpha0.real, nan).tolist(),
                    np.where(mean_ok, mf.alpha0.imag, nan).tolist(),
                    np.where(mean_ok, mf.beta0 ** 2, nan).tolist(),
                    np.where(ok, delta_n, nan).tolist(),
                    np.where(ok, n_photon, nan).tolist(),
                    _status_column(mf.errors)))


def _excitation_table(params: ModelParams, y_grid) -> Table:
    return Table(kind=ScanKind.MEAN_AND_FLUCT,
                 columns=("y", "y_over_yc", "alpha0_re", "alpha0_im",
                          "beta0_sq", "delta_N", "n_photon", "status"),
                 rows=_grid_rows(_excitation_rows, params, y_grid))


def _entanglement_rows(params: ModelParams, y, y_c: float) -> list[tuple]:
    mf, _, s = _moments(params, y)
    _, invariants, nu_min = covariance_batch(s, mf.errors)
    e_n = log_negativity_batch(invariants, mf.errors)
    ok = mf.errors.alive
    return list(zip(y.tolist(), (y / y_c).tolist(),
                    np.where(ok, e_n, math.nan).tolist(),
                    np.where(ok, nu_min, math.nan).tolist(),
                    _status_column(mf.errors)))


def _entanglement_table(params: ModelParams, y_grid) -> Table:
    return Table(kind=ScanKind.ENTANGLEMENT,
                 columns=("y", "y_over_yc", "log_negativity", "nu_min",
                          "status"),
                 rows=_grid_rows(_entanglement_rows, params, y_grid))


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


def _exponent_table(params: ModelParams, window: tuple[float, float],
                    n: int, sides) -> Table:
    rows = []
    curves = {}
    for side in sides:
        curve = depletion_curve(params, side, window, n)
        fit = exponent_fit(curve[:, :2], window, side)
        curves[side.value] = curve
        rows.append((side.value, fit.slope, fit.intercept, fit.r_squared,
                     fit.n_points, window[0], window[1],
                     "poor_fit" if fit.poor_fit else "ok"))
    return Table(kind=ScanKind.EXPONENT,
                 columns=("side", "slope", "intercept", "r_squared",
                          "n_points", "window_min", "window_max", "status"),
                 rows=rows, meta={"curves": curves})


_GRID_TABLES = {
    ScanKind.MEAN_FIELD: _mean_field_table,
    ScanKind.MEAN_AND_FLUCT: _excitation_table,
    ScanKind.ENTANGLEMENT: _entanglement_table,
    ScanKind.SPECTRUM: _spectrum_table,
}


def figure_scan(kind: ScanKind, params: ModelParams, y_grid=None,
                window: tuple[float, float] = DEFAULT_WINDOW,
                points_per_side: int = DEFAULT_POINTS_PER_SIDE,
                sides: tuple[Side, ...] = (Side.BELOW, Side.ABOVE),
                threads: int = 1) -> Table:
    """Assemble the scan table behind one of the figure kinds.

    MEAN_FIELD, MEAN_AND_FLUCT, ENTANGLEMENT and SPECTRUM compute ``y_grid``
    as batches of arrays; EXPONENT builds its own log-centered grid from ``window``
    and ``points_per_side`` on the requested ``sides``.  ``threads`` is
    accepted for compatibility and has no effect.
    """
    if kind is ScanKind.EXPONENT:
        return _exponent_table(params, window, points_per_side, sides)
    if y_grid is None:
        raise ValueError(f"{kind.value} scan requires a y grid")
    if kind not in _GRID_TABLES:
        raise ValueError(f"unknown scan kind {kind!r}")
    return _GRID_TABLES[kind](params, y_grid)
