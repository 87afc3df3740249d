"""The three benchmark workloads: inputs, operations and correctness checks.

A workload is a list of operations, one round.  Every operation is one
call into the package's public API (``cli.run`` or a module function) and
counts a fixed number of parameter points.  ``tally`` turns the result of a
call into (failed points, digest); the digest shows that later rounds of
the same operations return the same result.  ``check`` verifies one
round's results with the independent computations of ``checks.py``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from opendicke import (analysis, cli, entanglement, fluctuations, groundstate,
                       model, oracle)
from opendicke.errors import OpenDickeError

# Tolerances of the independent checks.
MEAN_FIELD_TOL = 1e-10      # stationarity residual relative to its terms
SYLVESTER_REL = 1e-7        # (delta_N, n_photon) against Bartels-Stewart
NEGATIVITY_ABS = 1e-7       # log-negativity against the benchmark's own
GROUND_REL = 1e-12          # printed kappa = 0 observables against the moments
PURITY_TOL = 1e-9           # symplectic eigenvalues of the ground state = 1/2
STATIONARY_TOL = 1e-11      # |M S + S M^T| / (|M| |S|) of the ground state
SPECTRUM_TOL = 1e-6         # eigenvalues vs eigvals(M), times max(1, |lambda|)
EXPONENT_TOL = 0.02
ORACLE_TOL = 1e-8           # eigenmode vs Lyapunov moments, times max(1, |S|)
FOCK_REL = 1e-6             # Bogoliubov vs Fock occupations

FIGURE_GRID = 2000          # pump points of the long correlations/entanglement grids
SPECTRUM_GRID = 1201
SWEEP_SEED = 11074323       # fixed: the failed share must not depend on --seed
SWEEP_SETS = 100
SWEEP_RATIOS = np.linspace(0.05, 2.0, 25)
ORACLE_POINTS = 2000
STABLE_MARGIN = 1e-6        # oracle points: max Re lambda <= -margin * max |lambda|
FOCK_RATIOS = (0.5, 0.9, 1.5, 1.0 + math.exp(-5.0))


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    points: int
    tally: Callable[[object], tuple[int, str]]
    scale: bool = True      # quote the call at reference speed (run.Clock)


@dataclass
class Workload:
    """``check(results)`` returns (correct, report lines, rejected points):
    rejected points are ones the checks reject that count as failed."""

    ops: list[Op]
    check: Callable[[list], tuple[bool, list[str], int]]
    call_size: int = 1      # consecutive operations that make one call


def _digest(*parts) -> str:
    """SHA-256 of the parts; a single text part hashes as its UTF-8 bytes."""
    if len(parts) == 1 and isinstance(parts[0], str):
        return hashlib.sha256(parts[0].encode()).hexdigest()
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _rows(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def _critical_pump(delta_c: float, kappa: float) -> float:
    return math.sqrt(-(delta_c ** 2 + kappa ** 2) / delta_c)


def _stability(delta_c, kappa, u, y) -> np.ndarray:
    # float(): numpy scalars would take other rounding paths than the scans.
    return fluctuations.build_stability_matrix(model.ModelParams(
        delta_c=float(delta_c), kappa=float(kappa), u=float(u), y=float(y))).m


def _check_mean_field(f: checks.Failures, delta_c, kappa, u, y, alpha, beta_sq):
    resid = checks.mean_field_residual(delta_c, kappa, u, y, alpha, beta_sq)
    f.expect(resid <= MEAN_FIELD_TOL,
             lambda: f"mean-field residual {resid:.3e} at y={float(y)!r}")
    if u == 0.0:
        y_c = _critical_pump(delta_c, kappa)
        exact = max(0.0, (y * y - y_c * y_c) / (2.0 * y * y)) if y > 0 else 0.0
        f.expect(abs(beta_sq - exact) <= 1e-12,
                 lambda: f"beta0^2 {beta_sq!r} vs {exact!r} at y={float(y)!r}")


def _check_open_point(f: checks.Failures, delta_c, kappa, u, y,
                      delta_n=None, n_photon=None, negativity=None):
    """kappa > 0 row against the Sylvester steady state.

    Where a mode pair is undamped (y = 0 leaves the atom uncoupled) the
    Sylvester operator is singular and the row is counted as skipped.
    """
    m = _stability(delta_c, kappa, u, y)
    if checks.sylvester_singular(m):
        f.skipped += 1
        return
    s = checks.sylvester_moments(m, kappa)
    if delta_n is not None:
        for name, got, ref in (("delta_N", delta_n, s[3, 2].real),
                               ("n_photon", n_photon, s[1, 0].real)):
            f.expect(checks.close(got, ref, SYLVESTER_REL, 1e-300),
                     lambda: f"{name} {got!r} vs Sylvester {ref!r} at "
                             f"({delta_c!r}, {kappa!r}, {u!r}, y={float(y)!r})")
    if negativity is not None:
        ref = checks.log_negativity(checks.quad_covariance(s))
        f.expect(abs(negativity - ref) <= NEGATIVITY_ABS,
                 lambda: f"log-negativity {negativity!r} vs {ref!r} at "
                         f"({delta_c!r}, {kappa!r}, {u!r}, y={float(y)!r})")


def _confirmed(status: str, m: np.ndarray) -> bool:
    """The benchmark's own eigenvalues of M bear out a row status other than
    ``ok`` and ``failed``: a growing mode for ``unstable``, an undamped mode
    pair that the noise drives for ``divergent``.  Every other status is
    taken as a failed point."""
    if status == "unstable":
        return checks.has_growing_mode(m)
    if status == "divergent":
        return not checks.has_growing_mode(m) and checks.has_driven_undamped_pair(m)
    return False


def _unconfirmed(statuses: Counter) -> int:
    return sum(n for (_, confirmed), n in statuses.items() if not confirmed)


def _status_line(statuses: Counter) -> str:
    """Rows whose status is neither ``ok`` nor ``failed``, by status."""
    parts = [f"{status} {'confirmed' if confirmed else 'not confirmed, failed'} {n}"
             for (status, confirmed), n in sorted(statuses.items())]
    return "other row statuses: " + (", ".join(parts) if parts else "none")


def _cli_tally(raw) -> tuple[int, str]:
    code, out, err = raw
    failed = sum(1 for line in out.splitlines()[1:] if line.endswith(",failed"))
    return failed, _digest(code, out, err)


def _report(checks_by_name: dict[str, checks.Failures]) -> tuple[bool, list[str]]:
    lines = []
    ok = True
    for name, f in checks_by_name.items():
        ok &= f.count == 0 and f.checked > 0
        skipped = f", {f.skipped} skipped (singular)" if f.skipped else ""
        lines.append(f"check {name}: {f.checked - f.count}/{f.checked} passed{skipped}")
        lines.extend(f"  FAIL {m}" for m in f.messages)
    return ok, lines


# ---------------------------------------------------------------- figure-scan

def figure_scan(seed: int) -> Workload:
    """The CLI commands behind the paper's figures, on dense pump grids.

    The seed draws delta_c and kappa within 10 % of the figures' (-2, 2) and
    the dispersive shift u of the u != 0 scan from [0.25, 0.75].
    """
    rng = np.random.default_rng(seed)
    delta_c = -2.0 * rng.uniform(0.9, 1.1)
    kappa = 2.0 * rng.uniform(0.9, 1.1)
    u = rng.uniform(0.25, 0.75)
    open_ = [f"--delta-c={delta_c!r}", f"--kappa={kappa!r}"]
    closed = [f"--delta-c={delta_c!r}", "--kappa=0"]
    exponent_points = 2 * analysis.DEFAULT_POINTS_PER_SIDE
    commands = [
        (["correlations", *open_, f"--y-grid=0:2yc:{FIGURE_GRID}"], FIGURE_GRID),
        (["entanglement", *open_, f"--y-grid=0:2yc:{FIGURE_GRID}"], FIGURE_GRID),
        (["correlations", *closed, f"--y-grid=0:2yc:{FIGURE_GRID}"], FIGURE_GRID),
        (["correlations", *open_, f"--u={u!r}",
          f"--y-grid=0:2yc:{FIGURE_GRID // 2}"], FIGURE_GRID // 2),
        (["spectrum", *open_, f"--y-grid=0:1.2yc:{SPECTRUM_GRID}"], SPECTRUM_GRID),
        (["exponent", *closed, "--side=both"], exponent_points),
        (["exponent", *open_, "--side=both"], exponent_points),
    ]
    ops = [Op(" ".join(argv), lambda argv=argv: _run_cli(argv), points, _cli_tally)
           for argv, points in commands]

    def check(raws) -> tuple[bool, list[str], int]:
        found = {name: checks.Failures() for name in (
            "exit_code", "mean_field", "open_vs_sylvester", "negativity",
            "ground_state", "spectrum", "exponent")}
        statuses = Counter()
        for op, (code, out, err) in zip(ops, raws):
            found["exit_code"].expect(code == 0, f"exit {code}: {op.label}")
            argv = op.label.split()
            params = {a.split("=")[0]: a.split("=", 1)[1] for a in argv[1:]}
            dc = float(params["--delta-c"])
            k = float(params["--kappa"])
            uu = float(params.get("--u", "0"))
            if argv[0] in ("correlations", "entanglement"):
                rows = _rows(out)
                for r in rows:
                    if r["status"] not in ("ok", "failed"):
                        m = _stability(dc, k, uu, float(r["y"]))
                        statuses[r["status"], _confirmed(r["status"], m)] += 1
            if argv[0] == "correlations":
                _check_correlations(found, rows, dc, k, uu)
            elif argv[0] == "entanglement":
                for r in rows:
                    if r["status"] == "ok":
                        _check_open_point(found["negativity"], dc, k, uu,
                                          float(r["y"]),
                                          negativity=float(r["log_negativity"]))
            elif argv[0] == "spectrum":
                _check_spectrum(found["spectrum"], statuses, _rows(out), err,
                                dc, k, uu)
            elif argv[0] == "exponent":
                expected = -0.5 if k == 0.0 else -1.0
                for r in _rows(out):
                    slope = float(r["slope"])
                    found["exponent"].expect(
                        r["status"] == "ok" and abs(slope - expected) <= EXPONENT_TOL,
                        f"{r['side']} slope {slope!r} ({r['status']}), "
                        f"expected {expected}")
        ok, lines = _report(found)
        lines.append(_status_line(statuses))
        # Not a gate: equal digests show equal results, and a change that
        # corrects the method changes them.
        lines += [f"sha256 {_digest(out)}  PYTHONPATH=src python3 -m "
                  f"opendicke.cli {op.label}"
                  for op, (_, out, _) in zip(ops, raws)]
        return ok, lines, _unconfirmed(statuses)

    # A call is one pass over the command set.
    return Workload(ops, check, call_size=len(ops))


def _check_correlations(found, rows, delta_c, kappa, u):
    for r in rows:
        if r["status"] != "ok":
            continue
        y = float(r["y"])
        alpha = complex(float(r["alpha0_re"]), float(r["alpha0_im"]))
        _check_mean_field(found["mean_field"], delta_c, kappa, u, y, alpha,
                          float(r["beta0_sq"]))
        delta_n, n_photon = float(r["delta_N"]), float(r["n_photon"])
        if kappa > 0.0:
            _check_open_point(found["open_vs_sylvester"], delta_c, kappa, u, y,
                              delta_n, n_photon)
        else:
            _check_ground_point(found["ground_state"], delta_c, u, y,
                                delta_n, n_photon)


def _check_ground_point(f, delta_c, u, y, delta_n, n_photon):
    """The kappa = 0 state must be pure and stationary."""
    p = model.ModelParams(delta_c=delta_c, kappa=0.0, u=u, y=y)
    s = groundstate.ground_state_moments(p).s
    f.expect(checks.close(delta_n, s[3, 2].real, GROUND_REL, 1e-300)
             and checks.close(n_photon, s[1, 0].real, GROUND_REL, 1e-300),
             lambda: f"printed ({delta_n!r}, {n_photon!r}) differ from the "
                     f"moments at y={float(y)!r}")
    nus = checks.symplectic_spectrum(checks.quad_covariance(s))
    f.expect(np.max(np.abs(nus - 0.5)) <= PURITY_TOL * max(1.0, float(np.max(nus))),
             lambda: f"symplectic eigenvalues {nus!r} != 1/2 at y={float(y)!r}")
    defect = checks.stationarity_defect(_stability(delta_c, 0.0, u, y), s)
    f.expect(defect <= STATIONARY_TOL,
             lambda: f"M S + S M^T = {defect:.3e} relative at y={float(y)!r}")


def _check_spectrum(f, statuses, rows, err, delta_c, kappa, u):
    """Eigenvalues against eigvals(M) and the interval endpoints against the
    real-pair test.  A row flagged ``ambiguous`` or ``defective`` is borne
    out where the real-pair test changes between it and a neighbour: two
    branches meet there."""
    real = []
    for r in rows:
        y = float(r["y"])
        got = [complex(float(r[f"lambda{k}_re"]), float(r[f"lambda{k}_im"]))
               for k in range(1, 5)]
        m = _stability(delta_c, kappa, u, y)
        ref = np.linalg.eigvals(m)
        tol = SPECTRUM_TOL * max(1.0, float(np.max(np.abs(ref))))
        f.expect(checks.same_multiset(got, ref, tol),
                 lambda: f"eigenvalues {got!r} vs eigvals(M) {ref!r} at y={float(y)!r}")
        real.append(checks.has_real_pair(m))
    for i, r in enumerate(rows):
        if r["status"] != "ok":
            change = any(real[j] != real[i] for j in (i - 1, i + 1)
                         if 0 <= j < len(rows))
            statuses[r["status"], change] += 1
    y_lo, y_hi = float(rows[0]["y"]), float(rows[-1]["y"])
    h = 1e-6 * _critical_pump(delta_c, kappa)
    intervals = [line for line in err.splitlines()
                 if line.startswith("real-axis interval")]
    f.expect(bool(intervals), "no real-axis interval reported")
    for line in intervals:
        lower, upper = (float(v) for v in line.split("[", 1)[1].split("]")[0].split(","))
        for end, inside, outside in ((lower, lower + h, lower - h),
                                     (upper, upper - h, upper + h)):
            if end in (y_lo, y_hi):
                continue  # the interval reaches the grid edge: not refined
            real_in = checks.has_real_pair(_stability(delta_c, kappa, u, inside))
            real_out = checks.has_real_pair(_stability(delta_c, kappa, u, outside))
            f.expect(real_in and not real_out,
                     f"endpoint {end!r} not bracketed: real pair inside "
                     f"{real_in}, outside {real_out}")


# ----------------------------------------------------------------- sweep-wide

def sweep_sets() -> list[tuple[float, float, float]]:
    """(delta_c, kappa, u): |delta_c|, kappa log-uniform in [1e-4, 1e4], u in [-5, 5]."""
    rng = np.random.default_rng(SWEEP_SEED)
    return [(-10.0 ** rng.uniform(-4.0, 4.0), 10.0 ** rng.uniform(-4.0, 4.0),
             rng.uniform(-5.0, 5.0)) for _ in range(SWEEP_SETS)]


def _table_tally(table) -> tuple[int, str]:
    return (sum(1 for row in table.rows if row[-1] == "failed"),
            _digest(repr(table.rows)))


def failure_cause(kind, params) -> str:
    """Re-run a failed row through the public chain and name its cause."""
    try:
        moments = fluctuations.steady_state_moments(params)
        if kind is analysis.ScanKind.ENTANGLEMENT:
            entanglement.log_negativity(entanglement.quad_covariance(moments))
        else:
            fluctuations.observables(moments)
    except OpenDickeError as err:
        text = str(err)
        for cause, marker in (("commutator check", "commutator"),
                              ("no superradiant branch", "radicand"),
                              ("no superradiant branch", "outside (0, 1)"),
                              ("adjoint symmetry", "adjoint symmetry"),
                              ("nu_minus = 0", "nu_minus = 0"),
                              ("residual tolerance", "mean-field residuals")):
            if marker in text:
                return cause
        return f"other: {type(err).__name__}: {text[:60]}"
    return "not reproduced"


def sweep_wide(seed: int) -> Workload:
    """Wide random parameter sets on short grids; the seed orders the calls."""
    calls = []
    for delta_c, kappa, u in sweep_sets():
        base = model.ModelParams(delta_c=delta_c, kappa=kappa, u=u, y=0.0)
        grid = SWEEP_RATIOS * model.critical_pump(base)
        for kind in (analysis.ScanKind.MEAN_AND_FLUCT, analysis.ScanKind.ENTANGLEMENT):
            calls.append((base, Op(f"{kind.value} {delta_c!r} {kappa!r} {u!r}",
                                   lambda kind=kind, base=base, grid=grid:
                                   analysis.figure_scan(kind, base, y_grid=grid),
                                   len(grid), _table_tally)))
    order = np.random.default_rng(seed).permutation(len(calls))
    bases = [calls[i][0] for i in order]
    ops = [calls[i][1] for i in order]

    def check(raws) -> tuple[bool, list[str], int]:
        found = {name: checks.Failures()
                 for name in ("mean_field", "open_vs_sylvester", "negativity")}
        causes = Counter()
        statuses = Counter()
        for base, table in zip(bases, raws):
            for row in table.rows:
                y = row[0]
                if row[-1] == "failed":
                    causes[failure_cause(table.kind, base.with_pump(y))] += 1
                elif row[-1] != "ok":
                    m = _stability(base.delta_c, base.kappa, base.u, y)
                    statuses[row[-1], _confirmed(row[-1], m)] += 1
                if row[-1] != "ok":
                    continue
                if table.kind is analysis.ScanKind.MEAN_AND_FLUCT:
                    _check_mean_field(found["mean_field"], base.delta_c, base.kappa,
                                      base.u, y, complex(row[2], row[3]), row[4])
                    _check_open_point(found["open_vs_sylvester"], base.delta_c,
                                      base.kappa, base.u, y, row[5], row[6])
                else:
                    _check_open_point(found["negativity"], base.delta_c,
                                      base.kappa, base.u, y, negativity=row[2])
        # A wrong log-negativity is a fault of the program on these fixed
        # inputs (the invariant formula cancels when nu_+ >> nu_-): it is
        # counted as a failed point, not as an incorrect run.
        rejected = found.pop("negativity")
        causes["log-negativity off by > 1e-7"] = rejected.count
        for (status, confirmed), n in statuses.items():
            if not confirmed:
                causes[f"{status} not confirmed"] = n
        ok, lines = _report(found)
        lines.append(_status_line(statuses))
        lines.append(f"check negativity: {rejected.checked - rejected.count}/"
                     f"{rejected.checked} agree, the rest count as failed")
        lines.extend(f"  {m}" for m in rejected.messages)
        lines.append("failed points by cause: " + ", ".join(
            f"{cause} {n}" for cause, n in sorted(causes.items()))
            + f"; total {sum(causes.values())}")
        return ok, lines, rejected.count + _unconfirmed(statuses)

    return Workload(ops, check)


# --------------------------------------------------------------- oracle-check

def oracle_points(seed: int) -> list[model.ModelParams]:
    """Seeded kappa > 0 points whose modes are all damped (STABLE_MARGIN)."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < ORACLE_POINTS:
        # u = 0 or u in [0.1, 1]: below u ~ 1e-3 the superradiant branch
        # formula cancels and its residual check fails (see CHANGES.md).
        u = 0.0 if rng.uniform() < 0.5 else rng.uniform(0.1, 1.0)
        base = model.ModelParams(delta_c=rng.uniform(-4.0, -0.5),
                                 kappa=rng.uniform(0.1, 4.0), u=u, y=0.0)
        ratio = (rng.uniform(0.1, 0.95) if rng.uniform() < 0.5
                 else rng.uniform(1.05, 2.0))
        p = base.with_pump(ratio * model.critical_pump(base))
        lam = np.linalg.eigvals(fluctuations.build_stability_matrix(p).m)
        if np.max(lam.real) <= -STABLE_MARGIN * np.max(np.abs(lam)):
            points.append(p)
    return points


def _guarded(call):
    """Run one comparison; a domain error is the result, a failed point."""
    def run():
        try:
            return call()
        except OpenDickeError as err:
            return err
    return run


def _steady_pair(p):
    mine = fluctuations.steady_state_moments(p)
    ref = oracle.lyapunov_moments(fluctuations.build_stability_matrix(p))
    return mine.s, ref.s


def _fock_pair(p):
    mine = fluctuations.observables(groundstate.ground_state_moments(p))
    fock = oracle.fock_ground_state(p)
    return mine, (fock.delta_n, fock.n_photon)


def _pair_tally(raw) -> tuple[int, str]:
    if isinstance(raw, Exception):
        return 1, _digest(repr(raw))
    return 0, _digest(*(np.asarray(v).tobytes() for v in raw))


def _verify_tally(raw) -> tuple[int, str]:
    code, out, err = raw
    return int(code != 0), _digest(code, out, err)


def oracle_check(seed: int) -> Workload:
    """Scalar eigenmode-vs-Lyapunov points, Fock points and both verify runs.

    The Fock points are spread evenly among the scalar points, so that both
    kinds of call see the same stretches of the run.
    """
    steady = [Op(f"steady {p!r}", _guarded(lambda p=p: _steady_pair(p)), 1,
                 _pair_tally) for p in oracle_points(seed)]
    closed = model.ModelParams(delta_c=-2.0, kappa=0.0, u=0.0, y=0.0)
    y_c = model.critical_pump(closed)
    block = len(steady) // len(FOCK_RATIOS)
    ops = []
    for k, ratio in enumerate(FOCK_RATIOS):
        ops += steady[k * block:(k + 1) * block]
        # Quoted by the wall clock: ARPACK's sparse iterations do not follow
        # the reference unit (eight calls in a row stayed within 8 % while
        # the reference unit swung between 2.6 and 4.9 ms).
        ops.append(Op(f"fock {ratio!r} y_c",
                      _guarded(lambda p=closed.with_pump(ratio * y_c): _fock_pair(p)),
                      1, _pair_tally, scale=False))
    ops += [Op(" ".join(argv), lambda argv=argv: _run_cli(argv), 1, _verify_tally)
            for argv in (["verify", "--delta-c=-2", "--kappa=2"],
                         ["verify", "--delta-c=-2", "--kappa=0"])]

    def check(raws) -> tuple[bool, list[str], int]:
        found = {name: checks.Failures() for name in
                 ("eigenmode_vs_lyapunov", "bogoliubov_vs_fock", "verify_exit")}
        for op, raw in zip(ops, raws):
            if op.label.startswith("verify"):
                found["verify_exit"].expect(raw[0] == 0, f"exit {raw[0]}: {op.label}")
            elif isinstance(raw, Exception):
                key = ("bogoliubov_vs_fock" if op.label.startswith("fock")
                       else "eigenmode_vs_lyapunov")
                found[key].expect(False, f"{op.label}: {raw!r}")
            elif op.label.startswith("fock"):
                (dn, ph), (fdn, fph) = raw
                found["bogoliubov_vs_fock"].expect(
                    checks.close(dn, fdn, FOCK_REL) and checks.close(ph, fph, FOCK_REL),
                    f"{op.label}: ({dn!r}, {ph!r}) vs Fock ({fdn!r}, {fph!r})")
            else:
                mine, ref = raw
                err = float(np.max(np.abs(mine - ref)))
                tol = ORACLE_TOL * max(1.0, float(np.max(np.abs(ref))))
                found["eigenmode_vs_lyapunov"].expect(
                    err <= tol, f"{op.label}: max |diff| {err:.3e} > {tol:.3e}")
        return (*_report(found), 0)

    return Workload(ops, check)


WORKLOAD_BUILDERS = {"figure-scan": figure_scan, "sweep-wide": sweep_wide,
                     "oracle-check": oracle_check}
