"""Command-line front end.

Subcommands: meanfield, spectrum, correlations, exponent, entanglement,
verify.  All scans emit CSV (default) or JSON with a fixed column set and a
status column per row; output is byte-deterministic for identical
invocations (shortest round-trip float formatting, fixed row order).  CSV
rows are ``%s`` format strings written at once, as ``csv`` would write them:
floats as their ``str``, and no cell or name needs quoting.  Scans compute
their pump grids as batches of arrays, on one thread per usable CPU for the
spectrum and kappa > 0 correlations and entanglement; ``--threads`` is
accepted for compatibility and ignored.  A grid scan's CSV lines are rendered
per batch, on the thread that computed the batch, and a spectrum's after its
branches are matched; JSON and exponent tables are written from the row tuples.

Pump values and grid endpoints accept the token ``yc`` scaled by an optional
prefix, e.g. ``--y=0.9yc`` or ``--y-grid=0:2yc:200``; the analytic critical
pump for the given (delta_c, kappa) is substituted.

Exit codes: 0 success, 2 invalid parameters (a grid too large to allocate
among them), 3 numerical failure outside the per-row protection of scans,
4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import analysis, entanglement, fluctuations, groundstate, model, oracle
from .basis import ETA
from .errors import NoThreshold, OpenDickeError

def _parse_scalar(token: str, y_c: float) -> float:
    """Parse a pump value, resolving the literal token 'yc'."""
    text = token.strip()
    if text.endswith("yc"):
        head = text[:-2]
        factor = 1.0 if head == "" else float(head)
        return factor * y_c
    return float(text)


def _parse_grid(spec: str, y_c: float) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) == 1:
        return np.array([_parse_scalar(parts[0], y_c)])
    if len(parts) != 3:
        raise ValueError(
            f"grid spec {spec!r} must be 'start:stop:count' or a single value")
    start = _parse_scalar(parts[0], y_c)
    stop = _parse_scalar(parts[1], y_c)
    model.pump_grid([start, stop])
    count = int(parts[2])
    if count < 2:
        raise ValueError(f"grid count must be >= 2, got {count}")
    if stop <= start:
        raise ValueError(f"grid stop {stop!r} must exceed start {start!r}")
    return np.linspace(start, stop, count)


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The ``key=value`` lines of ``args.config`` as flags of the parsed
    subcommand: a key of another subcommand is dropped, an unknown key or a
    bad value raises ValueError naming the file and line, and a switch
    (``curve``) is set by 1, true or yes and left off by 0, false or no."""
    flags = []
    with open(args.config, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            where = f"{args.config}:{lineno}"
            if "=" not in text:
                raise ValueError(f"{where}: expected key=value")
            key, _, raw = text.partition("=")
            key, value = key.strip().replace("-", "_"), raw.strip()
            action = args.config_keys.get(key)
            if action is None:
                raise ValueError(f"{where}: unknown key {key!r}")
            if not hasattr(args, key):
                continue
            flag = action.option_strings[0]
            if action.nargs == 0:
                on = value.lower() in ("1", "true", "yes")
                if not on and value.lower() not in ("0", "false", "no"):
                    raise ValueError(f"{where}: {key} = {value!r}; a switch "
                                     "takes 1, true, yes, 0, false or no")
                flags += [flag] if on else []
                continue
            flag = f"{flag}={value}"
            # A one-line parse checks the value with the flag's own type and
            # choices, and raises instead of exiting.
            one = argparse.ArgumentParser(exit_on_error=False)
            one._add_action(action)
            try:
                one.parse_args([flag])
            except argparse.ArgumentError as err:
                raise ValueError(f"{err} ({where}, key {key!r})") from None
            flags.append(flag)
    return flags


def _csv_format(columns: tuple[str, ...]) -> str:
    """The CSV line of a row of ``columns``: one ``%s`` per cell."""
    return ",".join(["%s"] * len(columns)) + "\n"


def _emit_table(table: analysis.Table, args) -> None:
    """Write the table as ``args.format``; ``str`` rows are CSV lines already."""
    out = sys.stdout if args.output is None else open(args.output, "w",
                                                      encoding="utf-8")
    try:
        if args.format == "json":
            rows = [dict(zip(table.columns, map(_json_value, row)))
                    for row in table.rows]
            payload: object = rows
            if "real_intervals" in table.meta:
                payload = {"rows": rows, "real_intervals": [
                    _interval_json(iv) for iv in table.meta["real_intervals"]]}
            out.write(json.dumps(payload, indent=2, allow_nan=False))
            out.write("\n")
        else:
            fmt = _csv_format(table.columns)
            lines = (r if isinstance(r, str) else fmt % r for r in table.rows)
            out.write(fmt % table.columns + "".join(lines))
    finally:
        if out is not sys.stdout:
            out.close()


def _json_value(v):
    """A table cell or endpoint field for JSON, NaN as null."""
    return None if isinstance(v, float) and math.isnan(v) else v


def _interval_json(interval: fluctuations.RealInterval) -> dict:
    """Both endpoints with every EndpointReport field, NaN as null."""
    return {end: {key: _json_value(v) for key, v in fields.items()}
            for end, fields in dataclasses.asdict(interval).items()}


def _model_params(args, y: float = 0.0) -> model.ModelParams:
    return model.ModelParams(delta_c=args.delta_c, kappa=args.kappa,
                             u=args.u, y=y)


def _cmd_scan(args) -> int:
    params = _model_params(args)
    grid = _parse_grid(args.y_grid, model.critical_pump(params))
    csv = args.format == "csv"
    render = _csv_format(analysis.scan_columns(args.kind)).__mod__ if csv else None
    table = analysis.figure_scan(args.kind, params, grid, render=render)
    _emit_table(table, args)
    if csv:
        # JSON carries the spectrum's intervals; CSV reports them here.
        for iv in table.meta.get("real_intervals", ()):
            print("real-axis interval: y in "
                  f"[{float(iv.lower.y)!r}, {float(iv.upper.y)!r}]"
                  f" lower defective={iv.lower.defective}"
                  f" (cond={iv.lower.cond:.3e})"
                  f" upper defective={iv.upper.defective}"
                  f" (cond={iv.upper.cond:.3e})", file=sys.stderr)
    return 0


def _cmd_exponent(args) -> int:
    params = _model_params(args)
    sides = tuple(analysis.Side) if args.side == "both" else \
        (analysis.Side(args.side),)
    window = (args.window_min, args.window_max)
    if analysis.Side.BELOW in sides and args.window_max > 1.0:
        raise ValueError(f"--window-max = {args.window_max!r} puts the pump below 0 "
                         "on the side below y_c; it must be <= 1 there")
    if args.curve:
        # The curve is held to the fit's rule on points, as exponent_table is.
        analysis._check_fit_points(args.points)
        table = analysis.Table(
            kind=analysis.ScanKind.EXPONENT,
            columns=("side", "eps", "delta_N", "n_photon", "status"),
            rows=[(side.value, *point, "ok") for side in sides
                  for point in analysis.depletion_curve(
                      params, side, window, args.points).tolist()])
    else:
        table = analysis.exponent_table(params, window, args.points, sides)
    _emit_table(table, args)
    return 0


def _verify_checks(args) -> list[tuple[str, bool, str]]:
    params = _model_params(args)
    y_c = model.critical_pump(params)
    y = _parse_scalar(args.y, y_c)
    params = params.with_pump(y)

    checks: list[tuple[str, bool, str]] = []

    def record(name: str, err: float, tol: float, limit: float = 0.0) -> None:
        tol = max(tol, limit)  # limit: a precision limit times the size compared
        checks.append((name, err <= tol, f"max |err| = {err:.3e}, tol {tol:g}"))

    stability = fluctuations.build_stability_matrix(params)
    record("m_conjugation_symmetry",
           fluctuations.conjugation_defect(stability.m), 1e-14)

    q = fluctuations.decompose(stability)
    eye = np.eye(4)
    record("biorthonormality",
           float(np.abs(q.lefts @ q.rights - eye).max()), 1e-10)
    record("completeness",
           float(np.abs(q.rights @ q.lefts - eye).max()), 1e-10)
    pair_err = max(abs(q.lambdas[k].real - q.lambdas[q.pairing[k]].real)
                   for k in range(4))
    record("conjugate_pair_real_parts", pair_err, 1e-10)

    if params.kappa > 0.0:
        moments = fluctuations.system_moments(q, fluctuations.mode_correlations(q))
        reference = oracle.lyapunov_moments(stability)
        s_max = float(np.abs(reference.s).max())
        record("eigenmode_vs_lyapunov",
               float(np.abs(moments.s - reference.s).max()), 1e-8, 1e-8 * s_max)
        noise = fluctuations.noise_matrix(params.kappa)
        resid = float(np.abs(stability.m @ reference.s
                             + reference.s @ stability.m.T + noise).max())
        record("lyapunov_residual", resid, 1e-10,
               oracle.BACKWARD_TOL * float(np.abs(stability.m).max()) * s_max)
    else:
        moments = groundstate.ground_state_moments(params)
        modes = groundstate.bogoliubov_modes(params)
        record("bogoliubov_symplectic",
               float(np.abs(modes.transform @ ETA
                            @ modes.transform.conj().T - ETA).max()), 1e-10)

    comm_err = max(abs(moments.s[0, 1] - moments.s[1, 0] - 1.0),
                   abs(moments.s[2, 3] - moments.s[3, 2] - 1.0))
    record("commutator_preservation", float(comm_err), 1e-8,
           1e-12 * float(np.abs(moments.s).max()))  # check_commutators' limit

    cov = entanglement.quad_covariance(moments)
    nu_min = entanglement.symplectic_min(cov)
    checks.append(("covariance_physicality", 0.5 - nu_min <= 1e-8,
                   f"min symplectic eigenvalue = {nu_min!r}"))
    cov_limit = 1e-14 * float(np.abs(cov).max())  # about 45 eps times max|C|
    record("pt_cross_check",
           abs(entanglement.pt_nu_minus(cov) - entanglement.pt_symplectic_min(cov)),
           1e-10, cov_limit)
    record("nu_min_cross_check",
           abs(nu_min - float(entanglement.symplectic_eigenvalues(cov).min())),
           1e-10, cov_limit)

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it was."""
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
                        help="accepted for compatibility and ignored; the "
                             "number of worker threads follows the CPUs the "
                             "process may use")

    def add_grid_command(name: str, kind: analysis.ScanKind, default_grid: str,
                         help_: str):
        p = sub.add_parser(name, parents=[common], help=help_)
        p.add_argument("--y-grid", default=default_grid,
                       help="pump grid start:stop:count; endpoints may use "
                            "the 'yc' token (e.g. 0:2yc:200)")
        p.set_defaults(handler=_cmd_scan, kind=kind)

    add_grid_command("meanfield", analysis.ScanKind.MEAN_FIELD, "0:2yc:200",
                     "mean-field amplitudes |alpha0|^2 and beta0^2")
    add_grid_command("correlations", analysis.ScanKind.MEAN_AND_FLUCT, "0:2yc:200",
                     "depletion and photon fluctuations along a pump grid")
    add_grid_command("entanglement", analysis.ScanKind.ENTANGLEMENT, "0:2yc:200",
                     "logarithmic negativity along a pump grid")
    add_grid_command("spectrum", analysis.ScanKind.SPECTRUM, "0:1.2yc:241",
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
    # The keys a config file may set: the options of every subcommand.
    parser.set_defaults(config_keys={
        a.dest: a for p in sub.choices.values() for a in p._actions
        if a.option_strings and a.dest not in ("help", "config")})
    return parser


def run(argv) -> int:
    parser = build_parser()
    argv = list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Config values pass the same parser ahead of the command line,
            # so they get the flags' types and choices and every flag wins.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args) + argv[at:])
        if args.delta_c is None:
            print(f"{parser.prog}: error: --delta-c is required "
                  "(flag or config file)", file=sys.stderr)
            return 2
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, NoThreshold, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OpenDickeError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
