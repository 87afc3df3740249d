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
instability) are reported, never dropped, save that a point without a mean
field fails the whole spectrum (``spectrum_scan``).  Every scan computes its
grid as batches of arrays, BATCH_ROWS pump values at a time; a row's status
is the label of its first failing check (:class:`~opendicke.errors.RowErrors`),
in the order mean field, defective, biorthonormality, pairing, unstable,
divergent, moment structure, observables, and no error is built for it.  A
kappa > 0 steady-state scan runs its batches on one thread per usable CPU
(``fluctuations._map_batches``), other grid scans on the calling thread, and
the rows join in grid order, so a table does not depend on the threads
(:func:`figure_scan` says where ``render`` renders them).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .entanglement import covariance_batch, log_negativity_batch
from .errors import InvalidCurve
from .fluctuations import (_map_batches, observables_batch, spectrum_scan,
                           steady_state_batch)
from .groundstate import ground_state_batch
from .model import ModelParams, critical_pump, mean_field_batch, pump_grid

DEFAULT_WINDOW = (math.exp(-14.0), math.exp(-5.0))
DEFAULT_POINTS_PER_SIDE = 40
MIN_FIT_POINTS = 8
GOOD_FIT_R_SQUARED = 0.999
# Gauss-Newton stops once a step would move the fitted curve by less than
# this, relative to the data; it gives up after FIT_MAX_ITER steps.
FIT_STEP_TOL = 1e-10
FIT_MAX_ITER = 50


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
    No eps may be NaN, values must be finite and positive inside the window,
    and at least 8 points must survive the window cut.  The fit minimizes
    the relative residuals by Gauss-Newton, starting from the straight line
    through (ln eps, ln value) with zero background; on an exact power law
    that start is already the solution and is returned unchanged.  Raises
    InvalidCurve when the iteration does not converge or the fitted curve is
    not positive.
    """
    arr = np.asarray(list(curve), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidCurve(f"curve must be pairs (eps, value), got shape {arr.shape}")
    nan_eps = np.isnan(arr[:, 0]).nonzero()[0]
    if nan_eps.size:
        raise InvalidCurve(f"eps is NaN at point {nan_eps[0]} of the curve")
    lo, hi = window
    pts = arr[(arr[:, 0] >= lo) & (arr[:, 0] <= hi)]
    if not np.isfinite(pts[:, 1]).all():
        eps, value = pts[~np.isfinite(pts[:, 1])][0].tolist()
        raise InvalidCurve(f"non-finite value {value!r} at eps = {eps!r} "
                           "inside the fit window")
    if pts.shape[0] < MIN_FIT_POINTS:
        raise InvalidCurve(f"only {pts.shape[0]} points inside window "
                           f"{window!r}; need >= {MIN_FIT_POINTS}")
    if (pts[:, 1] <= 0.0).any():
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
            if not (np.isfinite(jac).all() and np.isfinite(residual).all()):
                raise InvalidCurve(
                    f"power-law fit diverged at slope {slope:.6g}, "
                    f"intercept {intercept:.6g}, background {background:.6g}")
            step = np.linalg.lstsq(jac, -residual, rcond=None)[0]
            if np.abs(jac @ step).max() <= FIT_STEP_TOL:
                break
            params = params + step
        else:
            raise InvalidCurve(
                f"power-law fit did not converge in {FIT_MAX_ITER} steps")

    fitted = power + background
    if (fitted <= 0.0).any():
        raise InvalidCurve("fitted curve is not positive inside the window")
    log_residual = ly - np.log(fitted)
    total = ly - np.mean(ly)
    ss_tot = float(total @ total)
    r_squared = 1.0 if ss_tot == 0.0 else \
        1.0 - float(log_residual @ log_residual) / ss_tot
    return ExponentFit(slope=float(slope), intercept=float(intercept),
                       r_squared=r_squared, window=(lo, hi), side=side,
                       n_points=pts.shape[0], background=float(background))


def _moments(params: ModelParams, mf) -> np.ndarray:
    """Fluctuation moments of a mean-field batch, with the kappa = 0 (ground
    state) / kappa > 0 (steady state) dispatch.  Failed rows are failed in
    the batch's ``errors``."""
    moments = ground_state_batch if params.kappa == 0.0 else steady_state_batch
    return moments(params, mf)


def depletion_curve(params: ModelParams, side: Side,
                    window: tuple[float, float] = DEFAULT_WINDOW,
                    n: int = DEFAULT_POINTS_PER_SIDE) -> np.ndarray:
    """(eps, delta_n, n_photon) rows approaching y_c from one side; raises
    the error of the first row that fails."""
    y_c = critical_pump(params)
    eps = exponent_grid(window, n)
    sign = -1.0 if side is Side.BELOW else 1.0
    mf = mean_field_batch(params, y_c * (1.0 + sign * eps))
    delta_n, n_photon = observables_batch(_moments(params, mf), mf.errors)
    mf.errors.raise_first()
    return np.column_stack([eps, delta_n, n_photon])


def critical_exponent(params: ModelParams, side: Side,
                      window: tuple[float, float] = DEFAULT_WINDOW,
                      n: int = DEFAULT_POINTS_PER_SIDE) -> ExponentFit:
    """Exponent of the singular part of the depletion on one side of y_c."""
    curve = depletion_curve(params, side, window, n)
    return exponent_fit(curve[:, :2], window, side)


def _masked(ok, *columns) -> tuple:
    """The columns with NaN on the rows where ``ok`` is False."""
    if np.count_nonzero(ok) == ok.size:
        return columns
    return tuple(np.where(ok, c, math.nan) for c in columns)


def _mean_field_columns(params: ModelParams, mf):
    # Masked first: a failed row's |alpha0| may overflow when squared.
    alpha0, beta0 = _masked(mf.errors.alive, mf.alpha0, mf.beta0)
    return np.abs(alpha0) ** 2, beta0 ** 2


def _excitation_columns(params: ModelParams, mf):
    # Masked before the moments fail more rows.
    mean = _masked(mf.errors.alive, mf.alpha0.real, mf.alpha0.imag, mf.beta0 ** 2)
    delta_n, n_photon = observables_batch(_moments(params, mf), mf.errors)
    return mean + _masked(mf.errors.alive, delta_n, n_photon)


def _entanglement_columns(params: ModelParams, mf):
    _, invariants, nu_min = covariance_batch(_moments(params, mf), mf.errors)
    e_n = log_negativity_batch(invariants, mf.errors)
    return _masked(mf.errors.alive, e_n, nu_min)


# The columns between (y, y_over_yc) and status of each grid scan, and the
# function that computes them from a batch's mean field, failing its rows.
_GRID_SCANS = {
    ScanKind.MEAN_FIELD: (("alpha0_sq", "beta0_sq"), _mean_field_columns),
    ScanKind.MEAN_AND_FLUCT: (("alpha0_re", "alpha0_im", "beta0_sq", "delta_N",
                               "n_photon"), _excitation_columns),
    ScanKind.ENTANGLEMENT: (("log_negativity", "nu_min"), _entanglement_columns),
}


# The spectrum's columns between (y, y_over_yc) and status.
_SPECTRUM_COLUMNS = tuple(f"lambda{k}_{part}" for k in range(1, 5)
                          for part in ("re", "im"))


def scan_columns(kind: ScanKind) -> tuple[str, ...]:
    """The columns of the :func:`figure_scan` table of a pump-grid ``kind``."""
    names = _SPECTRUM_COLUMNS if kind is ScanKind.SPECTRUM else _GRID_SCANS[kind][0]
    return ("y", "y_over_yc") + names + ("status",)


def _rows(rows, render) -> list:
    """The row tuples, or ``render`` of each."""
    return list(rows if render is None else map(render, rows))


def _grid_table(kind: ScanKind, params: ModelParams, y_grid, render) -> Table:
    """The table of a grid scan, in batches of at most BATCH_ROWS pumps, each
    rendered as it finishes, on the scan threads (:func:`_map_batches`) only
    for the kappa > 0 steady state, whose eigen-solves release the GIL;
    raises ValueError naming the first bad pump before any batch runs."""
    columns_of = _GRID_SCANS[kind][1]
    y = pump_grid(y_grid)
    y_c = critical_pump(params)

    def batch_rows(batch):
        mf = mean_field_batch(params, batch)
        columns = columns_of(params, mf)
        return _rows(zip(batch.tolist(), (batch / y_c).tolist(),
                         *(c.tolist() for c in columns), mf.errors.status), render)

    threads = kind is not ScanKind.MEAN_FIELD and params.kappa > 0.0
    return Table(kind=kind, columns=scan_columns(kind),
                 rows=[row for part in _map_batches(batch_rows, y, threads)
                       for row in part])


def _spectrum_table(params: ModelParams, y_grid, render) -> Table:
    scan = spectrum_scan(params, y_grid)
    columns = [scan.y.tolist(), (scan.y / critical_pump(params)).tolist()]
    for k in range(4):
        columns += [scan.branches[:, k].real.tolist(),
                    scan.branches[:, k].imag.tolist()]
    return Table(kind=ScanKind.SPECTRUM, columns=scan_columns(ScanKind.SPECTRUM),
                 rows=_rows(zip(*columns, scan.status), render),
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


def figure_scan(kind: ScanKind, params: ModelParams, y_grid, *,
                render=None) -> Table:
    """The table of a scan along the pump grid ``y_grid``, computed as
    batches of arrays: MEAN_FIELD, MEAN_AND_FLUCT, ENTANGLEMENT or SPECTRUM.
    Exponent tables have their own grid (:func:`exponent_table`).

    With ``render``, a function of a row tuple, the table's rows are
    ``render(row)`` in place of the tuples.  A grid scan renders each batch's
    rows on the thread that computed the batch, while other batches are
    still computing; the spectrum renders after its branches are matched.
    """
    if kind is ScanKind.SPECTRUM:
        return _spectrum_table(params, y_grid, render)
    if kind not in _GRID_SCANS:
        raise ValueError(f"{kind!r} is not a pump-grid scan; exponent tables "
                         "come from exponent_table")
    return _grid_table(kind, params, y_grid, render)
