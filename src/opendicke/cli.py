"""Command-line front end.

Subcommands: meanfield, spectrum, correlations, exponent, entanglement,
verify.  All scans emit CSV (default) or JSON with a fixed column set and a
status column per row; output is byte-deterministic for identical
invocations (shortest round-trip float formatting, fixed row order).  Scans
compute their pump grids as batches of arrays; ``--threads`` is accepted for
compatibility and has no effect.

Pump values and grid endpoints accept the token ``yc`` scaled by an optional
prefix, e.g. ``--y=0.9yc`` or ``--y-grid=0:2yc:200``; the analytic critical
pump for the given (delta_c, kappa) is substituted.

Exit codes: 0 success, 2 invalid parameters, 3 numerical failure outside the
per-row protection of scans, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import analysis, entanglement, fluctuations, groundstate, model, oracle
from .basis import ETA
from .errors import NoThreshold, OpenDickeError

_CONFIG_TYPES = {
    "delta_c": float,
    "kappa": float,
    "u": float,
    "y": str,
    "y_grid": str,
    "side": str,
    "window_min": float,
    "window_max": float,
    "points": int,
    "threads": int,
    "format": str,
    "output": str,
    "curve": lambda s: s.lower() in ("1", "true", "yes"),
}


def _parse_scalar(token: str, y_c: float | None) -> float:
    """Parse a pump value, resolving the literal token 'yc'."""
    text = token.strip()
    if text.endswith("yc"):
        if y_c is None:
            raise ValueError("'yc' token needs delta_c < 0 to resolve")
        head = text[:-2]
        factor = 1.0 if head == "" else float(head)
        return factor * y_c
    return float(text)


def _parse_grid(spec: str, y_c: float | None) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) == 1:
        return np.array([_parse_scalar(parts[0], y_c)])
    if len(parts) != 3:
        raise ValueError(
            f"grid spec {spec!r} must be 'start:stop:count' or a single value")
    start = _parse_scalar(parts[0], y_c)
    stop = _parse_scalar(parts[1], y_c)
    count = int(parts[2])
    if count < 2:
        raise ValueError(f"grid count must be >= 2, got {count}")
    if stop <= start:
        raise ValueError(f"grid stop {stop!r} must exceed start {start!r}")
    return np.linspace(start, stop, count)


def _load_config(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, raw = text.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _CONFIG_TYPES[key](raw.strip())
    return values


def _apply_config(args: argparse.Namespace, argv: list[str]) -> None:
    if not getattr(args, "config", None):
        return
    explicit = set()
    for token in argv:
        if token.startswith("--"):
            explicit.add(token[2:].split("=", 1)[0].replace("-", "_"))
    for key, value in _load_config(args.config).items():
        if key not in explicit and hasattr(args, key):
            setattr(args, key, value)


def _emit_table(table: analysis.Table, args, extra_json: dict | None = None) -> None:
    out = sys.stdout if args.output is None else open(args.output, "w",
                                                      encoding="utf-8")
    try:
        if args.format == "json":
            rows = [dict(zip(table.columns, _json_row(row))) for row in table.rows]
            payload: object = rows
            if extra_json:
                payload = {"rows": rows, **extra_json}
            out.write(json.dumps(payload, indent=2, allow_nan=False))
            out.write("\n")
        else:
            # csv writes floats in their shortest round-trip form, repr.
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(table.columns)
            writer.writerows(table.rows)
    finally:
        if out is not sys.stdout:
            out.close()


def _json_row(row) -> list:
    clean = []
    for v in row:
        if isinstance(v, float):
            clean.append(None if math.isnan(v) else float(v))
        elif isinstance(v, (int, np.integer)):
            clean.append(int(v))
        else:
            clean.append(v)
    return clean


def _model_params(args, y: float = 0.0) -> model.ModelParams:
    return model.ModelParams(delta_c=args.delta_c, kappa=args.kappa,
                             u=args.u, y=y)


def _cmd_meanfield(args) -> int:
    params = _model_params(args)
    grid = _parse_grid(args.y_grid, model.critical_pump(params))
    _emit_table(analysis.figure_scan(analysis.ScanKind.MEAN_FIELD, params,
                                     y_grid=grid), args)
    return 0


def _cmd_correlations(args) -> int:
    params = _model_params(args)
    grid = _parse_grid(args.y_grid, model.critical_pump(params))
    table = analysis.figure_scan(analysis.ScanKind.MEAN_AND_FLUCT, params,
                                 y_grid=grid)
    _emit_table(table, args)
    return 0


def _cmd_entanglement(args) -> int:
    params = _model_params(args)
    grid = _parse_grid(args.y_grid, model.critical_pump(params))
    table = analysis.figure_scan(analysis.ScanKind.ENTANGLEMENT, params,
                                 y_grid=grid)
    _emit_table(table, args)
    return 0


def _interval_json(interval: fluctuations.RealInterval) -> dict:
    def endpoint(e: fluctuations.EndpointReport) -> dict:
        return {"y": e.y, "refined": e.refined, "defective": e.defective,
                "cond": e.cond,
                "gap": None if math.isnan(e.gap) else e.gap,
                "overlap": None if math.isnan(e.overlap) else e.overlap}
    return {"lower": endpoint(interval.lower), "upper": endpoint(interval.upper)}


def _cmd_spectrum(args) -> int:
    params = _model_params(args)
    grid = _parse_grid(args.y_grid, model.critical_pump(params))
    table = analysis.figure_scan(analysis.ScanKind.SPECTRUM, params,
                                 y_grid=grid)
    intervals = table.meta["real_intervals"]
    if args.format == "json":
        _emit_table(table, args, extra_json={
            "real_intervals": [_interval_json(iv) for iv in intervals]})
    else:
        _emit_table(table, args)
        for iv in intervals:
            print("real-axis interval: y in "
                  f"[{float(iv.lower.y)!r}, {float(iv.upper.y)!r}]"
                  f" lower defective={iv.lower.defective}"
                  f" (cond={iv.lower.cond:.3e})"
                  f" upper defective={iv.upper.defective}"
                  f" (cond={iv.upper.cond:.3e})", file=sys.stderr)
    return 0


def _cmd_exponent(args) -> int:
    params = _model_params(args)
    sides = {"below": (analysis.Side.BELOW,),
             "above": (analysis.Side.ABOVE,),
             "both": (analysis.Side.BELOW, analysis.Side.ABOVE)}[args.side]
    window = (args.window_min, args.window_max)
    table = analysis.figure_scan(analysis.ScanKind.EXPONENT, params,
                                 window=window, points_per_side=args.points,
                                 sides=sides)
    if args.curve:
        rows = []
        for side in sides:
            for eps, delta_n, n_photon in table.meta["curves"][side.value]:
                rows.append((side.value, float(eps), float(delta_n),
                             float(n_photon), "ok"))
        table = analysis.Table(kind=analysis.ScanKind.EXPONENT,
                               columns=("side", "eps", "delta_N", "n_photon",
                                        "status"),
                               rows=rows)
    _emit_table(table, args)
    return 0


def _verify_checks(args) -> list[tuple[str, bool, str]]:
    params = _model_params(args)
    y_c = model.critical_pump(params)
    y = _parse_scalar(args.y, y_c)
    params = params.with_pump(y)

    checks: list[tuple[str, bool, str]] = []

    def record(name: str, err: float, tol: float) -> None:
        checks.append((name, err <= tol, f"max |err| = {err:.3e}, tol {tol:g}"))

    stability = fluctuations.build_stability_matrix(params)
    record("m_conjugation_symmetry",
           fluctuations.conjugation_defect(stability.m), 1e-14)

    q = fluctuations.decompose(stability)
    eye = np.eye(4)
    record("biorthonormality",
           float(np.max(np.abs(q.lefts @ q.rights - eye))), 1e-10)
    record("completeness",
           float(np.max(np.abs(q.rights @ q.lefts - eye))), 1e-10)
    pair_err = max(abs(q.lambdas[k].real - q.lambdas[q.pairing[k]].real)
                   for k in range(4))
    record("conjugate_pair_real_parts", pair_err, 1e-10)

    if params.kappa > 0.0:
        moments = fluctuations.system_moments(q, fluctuations.mode_correlations(q))
        reference = oracle.lyapunov_moments(stability)
        record("eigenmode_vs_lyapunov",
               float(np.max(np.abs(moments.s - reference.s))), 1e-8)
        noise = fluctuations.NoiseSpec(kappa=params.kappa).matrix()
        resid = float(np.max(np.abs(stability.m @ reference.s
                                    + reference.s @ stability.m.T + noise)))
        record("lyapunov_residual", resid, 1e-10)
    else:
        moments = groundstate.ground_state_moments(params)
        modes = groundstate.bogoliubov_modes(params)
        record("bogoliubov_symplectic",
               float(np.max(np.abs(modes.transform @ ETA
                                   @ modes.transform.conj().T - ETA))), 1e-10)

    comm_err = max(abs(moments.s[0, 1] - moments.s[1, 0] - 1.0),
                   abs(moments.s[2, 3] - moments.s[3, 2] - 1.0))
    record("commutator_preservation", float(comm_err), 1e-8)

    cov = entanglement.quad_covariance(moments)
    margin = 0.5 - cov.nu_min
    checks.append(("covariance_physicality", margin <= 1e-8,
                   f"min symplectic eigenvalue = {cov.nu_min!r}"))
    record("pt_cross_check",
           abs(entanglement.pt_nu_minus(cov) - entanglement.pt_symplectic_min(cov)),
           1e-10)
    record("nu_min_cross_check",
           abs(cov.nu_min - float(np.min(entanglement.symplectic_eigenvalues(cov.c)))),
           1e-10)

    tmsv = entanglement.two_mode_squeezed_covariance(0.7)
    record("tmsv_closed_form",
           abs(entanglement.log_negativity(tmsv) - 1.4), 1e-8)

    eps = analysis.exponent_grid()
    for name, expo, amp in (("exponent_fit_synthetic_inverse", -1.0, 3.0),
                            ("exponent_fit_synthetic_power", 1.75, 0.4)):
        fit = analysis.exponent_fit(np.column_stack([eps, amp * eps ** expo]))
        record(name, abs(fit.slope - expo), 1e-6)
    return checks


def _cmd_verify(args) -> int:
    checks = _verify_checks(args)
    width = max(len(name) for name, _, _ in checks)
    failed = 0
    for name, ok, detail in checks:
        label = "PASS" if ok else "FAIL"
        print(f"{label}  {name:<{width}}  {detail}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opendicke",
        description="Critical behavior of the driven-damped Dicke model "
                    "(recoil units, omega_r = 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--delta-c", type=float, default=None,
                        help="cavity detuning (negative for a threshold)")
    common.add_argument("--kappa", type=float, default=0.0,
                        help="photon loss rate (0 = closed system)")
    common.add_argument("--u", type=float, default=0.0,
                        help="dispersive shift parameter")
    common.add_argument("--config", default=None,
                        help="key=value file; command-line flags override it")
    common.add_argument("--output", default=None,
                        help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; no effect, grids "
                             "are computed as batches")

    def add_grid_command(name: str, handler, default_grid: str, help_: str):
        p = sub.add_parser(name, parents=[common], help=help_)
        p.add_argument("--y-grid", default=default_grid,
                       help="pump grid start:stop:count; endpoints may use "
                            "the 'yc' token (e.g. 0:2yc:200)")
        p.set_defaults(handler=handler)
        return p

    add_grid_command("meanfield", _cmd_meanfield, "0:2yc:200",
                     "mean-field amplitudes |alpha0|^2 and beta0^2")
    add_grid_command("correlations", _cmd_correlations, "0:2yc:200",
                     "depletion and photon fluctuations along a pump grid")
    add_grid_command("entanglement", _cmd_entanglement, "0:2yc:200",
                     "logarithmic negativity along a pump grid")
    add_grid_command("spectrum", _cmd_spectrum, "0:1.2yc:241",
                     "quasi-normal spectrum and real-axis interval report")

    p_exp = sub.add_parser("exponent", parents=[common],
                           help="critical-exponent fit of the depletion")
    p_exp.add_argument("--side", choices=("below", "above", "both"),
                       default="both")
    p_exp.add_argument("--window-min", type=float,
                       default=analysis.DEFAULT_WINDOW[0],
                       help="inner |1-y/yc| of the fit window")
    p_exp.add_argument("--window-max", type=float,
                       default=analysis.DEFAULT_WINDOW[1],
                       help="outer |1-y/yc| of the fit window")
    p_exp.add_argument("--points", type=int,
                       default=analysis.DEFAULT_POINTS_PER_SIDE,
                       help="log-spaced points per side")
    p_exp.add_argument("--curve", action="store_true",
                       help="emit the raw (eps, delta_N, n_photon) curve "
                            "instead of the fit summary")
    p_exp.set_defaults(handler=_cmd_exponent)

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run the invariant and oracle-equivalence suite")
    p_ver.add_argument("--y", default="0.9yc",
                       help="pump value for the point checks (yc token allowed)")
    p_ver.set_defaults(handler=_cmd_verify)
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config(args, list(argv))
        if args.delta_c is None:
            print(f"{parser.prog}: error: --delta-c is required "
                  "(flag or config file)", file=sys.stderr)
            return 2
        return args.handler(args)
    except (ValueError, NoThreshold, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OpenDickeError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
