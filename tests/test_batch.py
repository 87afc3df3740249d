"""Batched scans against the batch-of-one API and against pinned rows.

Every scan computes its pump grid as one stack of 4x4 matrices, and the
scalar functions are batches of one, except that the mean field of a single
pump value takes its branch by conditionals where a grid uses masks.  The
property below checks that a row of a scan is the scalar chain at that
point, status for status and value for value, so that no row leaks into
another through the masks of failed rows and the two mean-field drivers
agree.
The pinned rows are CLI output of the per-point implementation that the
batched pipeline replaced; the batched arithmetic rounds differently in the
last bits, so they are compared to 1e-12 relative.  Rows re-pinned since
(the spectrum's real eigen-solve, the ground state's symmetric eigen-solves)
say why in their comments.
"""

import contextlib
import csv
import hashlib
import io
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_thread_starts, dead_row_params, pin_cpus
from opendicke import analysis, cli, fluctuations
from opendicke.analysis import ScanKind, figure_scan
from opendicke.entanglement import (log_negativity, quad_covariance,
                                    symplectic_min)
from opendicke.errors import NumericalFailure, OpenDickeError
from opendicke.fluctuations import (BATCH_ROWS, build_stability_matrix,
                                    observables, steady_state_moments)
from opendicke.groundstate import bogoliubov_modes, ground_state_moments
from opendicke.model import (ModelParams, Phase, critical_pump, mean_field_batch,
                             mean_field_point, solve_mean_field)
from opendicke.oracle import lyapunov_moments

RATIOS = np.linspace(0.05, 2.0, 25)


def _close(got: float, want: float, rel: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= rel * abs(want)


def _point_rows(p: ModelParams) -> tuple[tuple, tuple]:
    """(correlations row, entanglement row) of one point from the scalar API."""
    nan = math.nan
    try:
        mf = solve_mean_field(p)
    except OpenDickeError as err:
        return (nan,) * 5 + (err.status,), (nan, nan, err.status)
    mean = (mf.alpha0.real, mf.alpha0.imag, mf.beta0 ** 2)
    try:
        moments = (ground_state_moments(p) if p.kappa == 0.0
                   else steady_state_moments(p))
    except OpenDickeError as err:
        return mean + (nan, nan, err.status), (nan, nan, err.status)
    try:
        excitation = mean + observables(moments) + ("ok",)
    except OpenDickeError as err:
        excitation = mean + (nan, nan, err.status)
    try:
        cov = quad_covariance(moments)
        negativity = (log_negativity(cov), symplectic_min(cov), "ok")
    except OpenDickeError as err:
        negativity = (nan, nan, err.status)
    return excitation, negativity


log_uniform = st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e)


@settings(max_examples=40, deadline=None)
@given(delta_c=log_uniform, kappa=st.one_of(st.just(0.0), log_uniform),
       u=st.floats(-5.0, 5.0))
def test_scan_rows_equal_batch_of_one(delta_c, kappa, u):
    base = ModelParams(delta_c=-delta_c, kappa=kappa, u=u, y=0.0)
    grid = RATIOS * critical_pump(base)
    excitation = figure_scan(ScanKind.MEAN_AND_FLUCT, base, grid).rows
    negativity = figure_scan(ScanKind.ENTANGLEMENT, base, grid).rows
    for y, row, ent in zip(grid, excitation, negativity):
        want, want_ent = _point_rows(base.with_pump(y))
        assert row[-1] == want[-1], f"y = {y!r}: {row} vs {want}"
        assert ent[-1] == want_ent[-1], f"y = {y!r}: {ent} vs {want_ent}"
        for got, value in zip(row[2:-1] + ent[2:-1], want[:-1] + want_ent[:-1]):
            assert _close(got, value, 1e-14), f"y = {y!r}: {row} vs {want}"


@settings(max_examples=40, deadline=None)
@given(delta_c=log_uniform, kappa=st.one_of(st.just(0.0), log_uniform),
       u=st.floats(-5.0, 5.0),
       mask=st.lists(st.booleans(), min_size=RATIOS.size, max_size=RATIOS.size))
def test_rows_do_not_depend_on_batch_mates(delta_c, kappa, u, mask):
    """A scan of some pumps of a grid has, by repr, the rows of the whole
    grid's scan at those pumps.  Batching a grid and running a route on the
    rows whose mean field holds both rest on this."""
    base = ModelParams(delta_c=-delta_c, kappa=kappa, u=u, y=0.0)
    grid = RATIOS * critical_pump(base)
    for kind in (ScanKind.MEAN_AND_FLUCT, ScanKind.ENTANGLEMENT):
        rows = figure_scan(kind, base, grid).rows
        want = [row for row, keep in zip(rows, mask) if keep]
        assert repr(figure_scan(kind, base, grid[np.array(mask)]).rows) == repr(want)


def _cli_rows(argv) -> list[list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.run(argv) == 0
    return list(csv.reader(io.StringIO(out.getvalue())))[1:]


# Rows of the per-point implementation: (argv, {row index: cells}).
PINNED = {
    "meanfield": (
        ["meanfield", "--delta-c=-2", "--kappa=2", "--u=-1.5", "--y-grid=0:3yc:7"], {
            1: ("1.0", "0.5", "0.0", "0.0", "ok"),
            3: ("3.0", "1.5", "0.3570226039551584", "0.39052429175126996", "ok"),
            6: ("6.0", "3.0", "1.6590516936330142", "0.5977636208435061", "ok")}),
    "meanfield without branch": (
        ["meanfield", "--delta-c=-0.5", "--kappa=1", "--u=-3", "--y-grid=0:3yc:7"], {
            2: ("1.5811388300841898", "1.0", "0.0", "0.0", "ok"),
            3: ("2.3717082451262845", "1.5", "nan", "nan", "failed")}),
    "correlations kappa > 0": (
        ["correlations", "--delta-c=-2", "--kappa=2", "--y-grid=0:2yc:9"], {
            1: ("0.5", "0.25", "0.0", "0.0", "0.0", "0.6583333333333411",
                "0.016666666666666892", "ok"),
            4: ("2.0", "1.0", "0.0", "0.0", "0.0", "nan", "nan", "divergent"),
            6: ("3.0", "1.5", "0.33592740617910627", "-0.33592740617910627",
                "0.2777777777777778", "0.2803952991452995", "0.06153846153846161",
                "ok"),
            8: ("4.0", "2.0", "0.48412291827592707", "-0.48412291827592707",
                "0.37499999999999994", "0.2583333333333299", "0.01666666666666645",
                "ok")}),
    "correlations kappa = 0": (
        ["correlations", "--delta-c=-2", "--kappa=0", "--y-grid=0:2yc:9"], {
            2: ("0.7071067811865476", "0.5", "0.0", "0.0", "0.0",
                "0.019147653481905752", "0.01736665374103312", "ok"),
            4: ("1.4142135623730951", "1.0", "0.0", "0.0", "0.0", "nan", "nan",
                "unstable"),
            7: ("2.4748737341529163", "1.7499999999999998", "0.0",
                "-0.5848043890647434", "0.336734693877551", "0.006999591605267266",
                "0.007168606274767807", "ok")}),
    "correlations u != 0": (
        ["correlations", "--delta-c=-1", "--kappa=0.5", "--u=0.5",
         "--y-grid=0:2yc:9"], {
            3: ("0.8385254915624212", "0.75", "0.0", "0.0", "0.0",
                "0.26339285714285765", "0.20089285714285746", "ok"),
            6: ("1.6770509831248424", "1.5", "0.23505230670472713",
                "-0.522609413739594", "0.2233749630719273", "0.14975842996561753",
                "0.033600325391768465", "ok"),
            8: ("2.23606797749979", "2.0", "0.3267109582831973",
                "-0.7566470875139744", "0.3159525823376357", "0.3825238493433536",
                "0.007648459057201094", "ok")}),
    "correlations u != 0 kappa = 0": (
        ["correlations", "--delta-c=-1", "--kappa=0", "--u=0.5", "--y-grid=0:2yc:9"], {
            3: ("0.75", "0.75", "0.0", "0.0", "0.0", "0.07235057519384369",
                "0.07235057519384369", "ok"),
            6: ("1.5", "1.5", "0.0", "-0.5568626505610705", "0.21564683762798914",
                "0.01149795351972898", "0.0121765606026888", "ok")}),
    "entanglement kappa = 0": (
        ["entanglement", "--delta-c=-2", "--kappa=0", "--y-grid=0:2yc:9"], {
            2: ("0.7071067811865476", "0.5", "0.25829200889211756", "0.5", "ok"),
            6: ("2.121320343559643", "1.5", "0.23844964054604767",
                "0.4999999999999997", "ok")}),
    "entanglement": (
        ["entanglement", "--delta-c=-2", "--kappa=2", "--y-grid=0:2yc:9"], {
            3: ("1.5", "0.75", "0.11278700298268074", "0.5005735242247541", "ok"),
            4: ("2.0", "1.0", "nan", "nan", "divergent"),
            7: ("3.5", "1.75", "0.08415250780404", "0.5008318725121134", "ok")}),
    "spectrum": (
        ["spectrum", "--delta-c=-2", "--kappa=2", "--y-grid=0:1.2yc:25"], {
            0: ("0.0", "0.0", "-2.0", "-2.0", "-2.0", "2.0", "0.0", "-1.0", "0.0",
                "1.0", "ok"),
            # Branches 3 and 4 meet on the real axis and part again at two
            # rows flagged 'ambiguous'.  A real eigen-solve returns the pair
            # as exact conjugates, so the matching ties exactly there and
            # takes the first permutation; the per-point implementation
            # broke the tie by rounding.  Branches 3 and 4 swap labels.
            24: ("2.4", "1.2", "-1.7071671643333097", "-1.9745732676777292",
                 "-1.7071671643333062", "1.974573267677726", "-0.2928328356666932",
                 "1.0838963083223996", "-0.2928328356666919", "-1.0838963083223998",
                 "ok")}),
    "exponent kappa > 0": (
        ["exponent", "--delta-c=-2", "--kappa=2"], {
            0: ("below", "-1.0000002250725382", "-1.3862970468683786",
                "0.9999999999999551", "40", "8.315287191035679e-07",
                "0.006737946999085467", "ok"),
            1: ("above", "-0.9999940481764035", "-2.079370510015999",
                "0.9999999999689569", "40", "8.315287191035679e-07",
                "0.006737946999085467", "ok")}),
    # Re-pinned when the ground state moved to its closed form: the fit takes
    # near-threshold cells, whose forward error exceeded 1e-12.  The slopes
    # equal those of the fit of the 60-digit curve, below to the last digit
    # and above to one ulp, and the intercepts are within 9e-16 of it.  The
    # two symmetric eigen-solves before were off by 7.8e-13 and 8.3e-13 in
    # the slopes and by 7.9e-12 and 8.5e-12 in the intercepts.
    "exponent kappa = 0": (
        ["exponent", "--delta-c=-2", "--kappa=0"], {
            0: ("below", "-0.5005687312124203", "-1.8518493227018453",
                "0.9999998338184233", "40", "8.315287191035679e-07",
                "0.006737946999085467", "ok"),
            1: ("above", "-0.5013192221612196", "-2.208165843874273",
                "0.9999990885030013", "40", "8.315287191035679e-07",
                "0.006737946999085467", "ok")}),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_rows(name):
    argv, pinned = PINNED[name]
    rows = _cli_rows(argv)
    for index, want in pinned.items():
        got = rows[index]
        assert len(got) == len(want)
        for cell, ref in zip(got, want):
            try:
                value = float(ref)
            except ValueError:
                assert cell == ref, f"row {index}: {got} vs {want}"
                continue
            if value == 0.0:
                # exact zeros keep their printed sign: alpha0 is +0.0 in the
                # normal phase and, at kappa = 0, its real part is +0.0 on the
                # superradiant branch (the per-point implementation printed
                # -0.0 there)
                assert cell == ref, f"row {index}: {got} vs {want}"
            else:
                assert _close(float(cell), value, 1e-12), f"row {index}: {got} vs {want}"


def _count_linalg(monkeypatch, names, matrices: dict | None = None) -> dict:
    """Count the calls of each ``np.linalg`` function in ``names``; with a
    ``matrices`` dict, also sum there the matrices handed to each (the
    leading dimension of a stack, 1 for a single matrix)."""
    calls = dict.fromkeys(names, 0)
    if matrices is not None:
        matrices.update(dict.fromkeys(names, 0))
    # The batches of a long grid call numpy.linalg from several threads.
    lock = threading.Lock()

    def counted(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            with lock:
                calls[name] += 1
                if matrices is not None:
                    matrices[name] += np.shape(args[0])[0] if np.ndim(args[0]) > 2 else 1
            return real(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


def test_entanglement_scan_makes_one_eigen_solve(monkeypatch):
    """A 256-row entanglement scan is one batch whose only dense
    decomposition is the eigen-solve of M: cond(V) is screened by a
    determinant bound, and nu_min comes from the symplectic invariants."""
    calls = _count_linalg(monkeypatch, ("eig", "svd", "cond", "eigvals"))
    base = ModelParams(delta_c=-2.0, kappa=2.0, u=0.0, y=0.0)
    table = figure_scan(ScanKind.ENTANGLEMENT, base,
                        np.linspace(0.0, 2.0 * critical_pump(base), 256))
    assert len(table.rows) == 256
    assert calls == {"eig": 1, "svd": 0, "cond": 0, "eigvals": 0}


@pytest.mark.parametrize("points", [1201, 241])
def test_spectrum_solves_each_row_once(monkeypatch, open_params, points):
    """A spectrum grid makes one eig per batch of BATCH_ROWS pumps and hands
    it one matrix per row; the endpoint refinement, stubbed here, makes its
    own."""
    matrices = {}
    calls = _count_linalg(monkeypatch, ("eig",), matrices)
    monkeypatch.setattr(fluctuations, "_refine_endpoint", lambda params, a, b: None)
    pin_cpus(monkeypatch, 3)
    grid = np.linspace(0.0, 1.2 * critical_pump(open_params), points)
    assert len(fluctuations.spectrum_scan(open_params, grid).real_intervals) == 1
    assert matrices == {"eig": points}
    assert calls == {"eig": -(-points // BATCH_ROWS)}


@pytest.mark.parametrize("ratio", [0.5, 1.5])
def test_scalar_steady_pair_linalg_calls(monkeypatch, ratio):
    """One eigenmode-vs-Lyapunov comparison: the eigenmode route makes one
    eig, det and inv, the Lyapunov oracle one eigvals and solve, and neither
    takes an SVD, a condition number or a least-squares solve."""
    names = ("eig", "det", "inv", "eigvals", "solve", "svd", "cond", "lstsq")
    calls = _count_linalg(monkeypatch, names)
    p = ModelParams(delta_c=-2.0, kappa=2.0, u=0.7, y=0.0)
    p = p.with_pump(ratio * critical_pump(p))
    steady_state_moments(p)
    assert calls == dict(zip(names, (1, 1, 1, 0, 0, 0, 0, 0)))
    lyapunov_moments(build_stability_matrix(p))
    assert calls == dict(zip(names, (1, 1, 1, 1, 1, 0, 0, 0)))


@pytest.mark.parametrize("u", [0.0, 0.7])
@pytest.mark.parametrize("ratio", [0.6, 1.5])
def test_injected_mean_field_is_the_solved_one(u, ratio):
    """``solve_mean_field``, which every scalar route linearizes around, is
    the row of the grid's mean field, in the normal and in the superradiant
    phase, and its mu is the model's formula on that row's fields."""
    for kappa in (2.0, 0.0):
        p = ModelParams(delta_c=-2.0, kappa=kappa, u=u, y=0.0)
        p = p.with_pump(ratio * critical_pump(p))
        mf = solve_mean_field(p)
        batch = mean_field_batch(p, [p.y])
        assert batch.errors.failed == 0
        alpha0, beta0 = batch.alpha0[0], batch.beta0[0]
        gain = 1.0 + u * (alpha0.real ** 2 + alpha0.imag ** 2)
        mu = -0.5 * gain / (1.0 - 2.0 * beta0 ** 2)
        assert (mf.alpha0, mf.beta0, mf.mu) == (alpha0, beta0, mu)
        assert mf.phase is (Phase.SUPERRADIANT if ratio > 1.0 else Phase.NORMAL)


def test_batch_of_one_builds_the_bytes_of_a_one_row_batch():
    """The scalar fields of ``mean_field_point`` and a one-row array batch
    of the same pump build the same stability and drift matrices and frames,
    byte for byte, and the same kappa > 0 steady-state moments: seeded points
    in both phases, with u = 0 and u != 0, kappa = 0 and kappa > 0.  The
    frame's (Delta, omega, Re g, Im g) are A[1, 0], A[2, 3], A[0, 2] and
    A[1, 2] of the drift matrix, signed zeros included."""
    rng = np.random.default_rng(31)
    seen = set()
    for i in range(240):
        base = ModelParams(delta_c=-10.0 ** rng.uniform(-2.0, 2.0),
                           kappa=0.0 if i % 4 == 0 else 10.0 ** rng.uniform(-3.0, 2.0),
                           u=0.0 if i % 3 == 0 else rng.uniform(-5.0, 5.0), y=0.0)
        p = base.with_pump(rng.uniform(0.05, 2.5) * critical_pump(base))
        point, row = mean_field_point(p), mean_field_batch(p, [p.y])
        assert point.errors.failed == row.errors.failed
        if row.errors.failed:
            continue
        seen.add((p.kappa > 0.0, p.u != 0.0, row.beta0[0] > 0.0))
        for build in (fluctuations.stability_batch, fluctuations.drift_batch):
            assert build(p, point).tobytes() == build(p, row).tobytes()
        frame = fluctuations.frame_batch(p, row)
        assert ([x.tobytes() for x in fluctuations.frame_batch(p, point)]
                == [x.tobytes() for x in frame])
        delta, omega, g = frame
        a = fluctuations.drift_batch(p, row)[0]
        assert (np.concatenate((delta, omega, g.real, g.imag)).tobytes()
                == a[[1, 2, 0, 1], [0, 3, 2, 2]].tobytes())
        if p.kappa > 0.0:
            s_point = fluctuations.steady_state_batch(p, point)
            s_row = fluctuations.steady_state_batch(p, row)
            assert point.errors.failed == row.errors.failed
            assert s_point.tobytes() == s_row.tobytes()
    assert len(seen) == 8


def test_mean_field_table_joins_batches(monkeypatch):
    """A 600-point mean-field table runs as three batches and equals, bit
    for bit, the rows of one mean-field batch of the whole grid, its failed
    rows included.  The batches may run on several threads, in any order."""
    base = ModelParams(delta_c=-0.0021305, kappa=28.73, u=-1.4257, y=0.0)
    y_c = critical_pump(base)
    grid = np.linspace(0.0, 2.0 * y_c, 600)
    mf = mean_field_batch(base, grid)
    ok = mf.errors.alive
    want = list(zip(grid.tolist(), (grid / y_c).tolist(),
                    np.where(ok, np.abs(mf.alpha0) ** 2, math.nan).tolist(),
                    np.where(ok, mf.beta0 ** 2, math.nan).tolist(),
                    mf.errors.status))
    sizes = []

    def counted(params, y):
        sizes.append(len(y))
        return mean_field_batch(params, y)

    monkeypatch.setattr(analysis, "mean_field_batch", counted)
    rows = figure_scan(ScanKind.MEAN_FIELD, base, grid).rows
    assert sorted(sizes) == [600 - 2 * BATCH_ROWS, BATCH_ROWS, BATCH_ROWS]
    assert {row[-1] for row in rows} == {"ok", "failed"}
    assert repr(rows) == repr(want)


# A grid of 600 pumps on [0, 2 y_c] whose 300 superradiant rows have no
# branch (u < 0), at kappa > 0 and at kappa = 0: sha256 of repr(rows) of its
# correlations and entanglement tables, pinned before failed rows left the
# stack (at kappa = 0, re-pinned when the ground state moved to its closed
# form), and the error of the point at 1.025 y_c.
DEAD_ROWS = {
    28.73: ("0fb1184a1766e976", "50f368d3156f93b8",
            "superradiant branch undefined: radicand -31.245226928564698 < 0"),
    0.0: ("9fd751f593de3e54", "fd5861df5ca44293",
          "beta0^2 = -3.741686956964145e-05 outside (0, 1) for y = "
          "0.047311273101661507"),
}
_LINALG = tuple(name for name in np.linalg.__all__
                if callable(getattr(np.linalg, name))
                and not isinstance(getattr(np.linalg, name), type))


@pytest.mark.parametrize("kappa", sorted(DEAD_ROWS))
def test_failed_rows_skip_the_linear_algebra(monkeypatch, kappa):
    """Rows whose mean field failed never reach an eigen-solve, determinant
    or inverse: each stage of the correlations scan sees the 300 live rows,
    and at kappa = 0, where the ground state is a closed form, the scan makes
    no ``numpy.linalg`` call at all.  The tables keep their pinned rows."""
    base = dead_row_params(kappa)
    grid = np.linspace(0.0, 2.0 * critical_pump(base), 600)
    names = ("eig", "det", "inv") if kappa else _LINALG
    matrices = {}
    _count_linalg(monkeypatch, names, matrices)
    rows = figure_scan(ScanKind.MEAN_AND_FLUCT, base, grid).rows
    assert matrices == dict.fromkeys(names, 300 if kappa else 0)
    tables = (rows, figure_scan(ScanKind.ENTANGLEMENT, base, grid).rows)
    for table, digest in zip(tables, DEAD_ROWS[kappa]):
        assert sum(row[-1] == "failed" for row in table) == 300
        assert hashlib.sha256(repr(table).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("kappa", sorted(DEAD_ROWS))
def test_failed_point_raises_without_eigen_solve(monkeypatch, kappa):
    """A point without a superradiant branch raises its mean-field error
    from every scalar route (the ground state's routes first reject
    kappa > 0), with no eigen-solve and no warning."""
    calls = _count_linalg(monkeypatch, ("eig", "eigh"))
    base = dead_row_params(kappa)
    p = base.with_pump(1.025 * critical_pump(base))
    for route in (steady_state_moments, build_stability_matrix,
                  ground_state_moments, bogoliubov_modes):
        if kappa and route in (ground_state_moments, bogoliubov_modes):
            cls, message = ValueError, "ground state is defined for kappa = 0 only"
        else:
            cls, message = NumericalFailure, DEAD_ROWS[kappa][2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(cls) as info:
                route(p)
        assert type(info.value) is cls
        assert info.value.args == (message,) and str(info.value) == message
    assert calls == {"eig": 0, "eigh": 0}


# Threaded grid scans; ``pin_cpus`` fixes the CPU count they see.

@pytest.mark.parametrize("kind", [ScanKind.MEAN_AND_FLUCT, ScanKind.ENTANGLEMENT])
@pytest.mark.parametrize("kappa", sorted(DEAD_ROWS))
def test_threaded_scan_joins_single_batch_scans(monkeypatch, kind, kappa):
    """A 600-pump scan on three CPUs equals, by repr, its three single-batch
    scans end to end.  Its failed rows fill the second batch in part and the
    third wholly.  At kappa > 0 the batches run on three threads, so both
    failed rows and their live-row re-entry run off the calling thread, and
    every thread is joined on return; at kappa = 0 no eigen-solve releases
    the GIL, and no thread starts."""
    base = dead_row_params(kappa)
    grid = np.linspace(0.0, 2.0 * critical_pump(base), 600)
    want = []
    for start in range(0, grid.size, BATCH_ROWS):
        want += figure_scan(kind, base, grid[start:start + BATCH_ROWS]).rows
    pin_cpus(monkeypatch, 3)
    started = count_thread_starts(monkeypatch)
    rows = figure_scan(kind, base, grid).rows
    assert bool(started) is (kappa > 0.0)
    assert not any(thread.is_alive() for thread in started)
    assert repr(rows) == repr(want)


@pytest.mark.parametrize("cpus, points", [(1, 600), (4, BATCH_ROWS)])
def test_serial_scan_starts_no_thread(monkeypatch, cpus, points):
    """A one-CPU process, and a grid of one batch, compute the scan on the
    calling thread, with the rows of a threaded scan."""
    base = dead_row_params(28.73)
    grid = np.linspace(0.0, 2.0 * critical_pump(base), points)
    pin_cpus(monkeypatch, 2)
    want = figure_scan(ScanKind.MEAN_AND_FLUCT, base, grid).rows
    pin_cpus(monkeypatch, cpus)

    def refuse(self):
        raise AssertionError(f"thread {self.name} started")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert repr(figure_scan(ScanKind.MEAN_AND_FLUCT, base, grid).rows) == repr(want)


def test_no_thread_outlives_a_scan(monkeypatch, open_params):
    pin_cpus(monkeypatch, 2)
    before = threading.active_count()
    grid = np.linspace(0.0, 2.0 * critical_pump(open_params), 600)
    figure_scan(ScanKind.ENTANGLEMENT, open_params, grid)
    assert threading.active_count() == before


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    pin_cpus(monkeypatch, 3)
    assert fluctuations._usable_cpus() == 3
    monkeypatch.delattr(fluctuations.os, "sched_getaffinity")
    monkeypatch.setattr(fluctuations.os, "cpu_count", lambda: None)
    assert fluctuations._usable_cpus() == 1


def _batch_index(batch) -> int:
    """The index of a batch of ``np.arange(n * BATCH_ROWS)``."""
    return int(batch[0]) // BATCH_ROWS


@pytest.mark.parametrize("cpus", [2, 3, 4])
@pytest.mark.parametrize("batches", [2, 5, 8, 9])
def test_threaded_batches_run_once_and_the_caller_takes_a_share(monkeypatch, cpus,
                                                               batches):
    """Every batch runs exactly once and the results come back in grid
    order; the calling thread runs batches beside the helpers, and no helper
    outlives the call.  A helper's first batch waits until the calling thread
    has entered one, and the caller's until a helper has: the helpers hold at
    most one batch each meanwhile, so the caller's share does not depend on
    how the threads are scheduled."""
    pin_cpus(monkeypatch, cpus)
    lock = threading.Lock()
    ran = []
    caller = threading.get_ident()
    caller_in, helper_in = threading.Event(), threading.Event()

    def index(b):
        if threading.get_ident() == caller:
            caller_in.set()
            helper_in.wait(10.0)
        else:
            helper_in.set()
            caller_in.wait(10.0)
        with lock:
            ran.append((_batch_index(b), threading.get_ident()))
        return _batch_index(b)
    before = threading.active_count()
    result = fluctuations._map_batches(index, np.arange(batches * BATCH_ROWS))
    assert result == list(range(batches))
    assert threading.active_count() == before
    assert sorted(i for i, _ in ran) == list(range(batches))
    callers = [thread == threading.get_ident() for _, thread in ran]
    assert any(callers) and not all(callers)


def test_threaded_batches_raise_the_first_failing_batch(monkeypatch):
    """Batches 2 to 5 raise: the error is batch 2's, whichever thread ran
    it, as in a serial loop."""
    pin_cpus(monkeypatch, 3)

    def square(b):
        i = _batch_index(b)
        if i >= 2:
            raise ValueError(f"batch {i}")
        return i * i
    with pytest.raises(ValueError, match="^batch 2$"):
        fluctuations._map_batches(square, np.arange(6 * BATCH_ROWS))
    assert fluctuations._map_batches(square, np.arange(2 * BATCH_ROWS)) == [0, 1]


@pytest.mark.parametrize("cpus", [2, 3])
def test_threaded_batches_raise_in_grid_order_not_in_time(monkeypatch, cpus):
    """Batch 3 fails first in time and batch 0 after it, on another thread:
    the error raised is batch 0's."""
    pin_cpus(monkeypatch, cpus)
    failed = threading.Event()

    def compute(b):
        i = _batch_index(b)
        if i == 3:
            failed.set()
            raise ValueError("batch 3")
        if i == 0:
            failed.wait(timeout=10)
            raise ValueError("batch 0")
        return i
    with pytest.raises(ValueError, match="^batch 0$"):
        fluctuations._map_batches(compute, np.arange(4 * BATCH_ROWS))


def test_bad_pump_raises_before_any_batch(monkeypatch, open_params):
    """A grid checks all of its pumps before it splits: the first bad one is
    named, and no batch and no thread starts."""
    grid = np.linspace(0.0, 1.0, 600)
    grid[300], grid[500] = -1.0, math.nan
    names, _ = analysis._GRID_SCANS[ScanKind.MEAN_AND_FLUCT]

    def never(params, y):
        raise AssertionError("a batch ran")
    monkeypatch.setitem(analysis._GRID_SCANS, ScanKind.MEAN_AND_FLUCT, (names, never))
    pin_cpus(monkeypatch, 2)
    started = count_thread_starts(monkeypatch)
    with pytest.raises(ValueError, match=r"^pump y must be finite and >= 0, got -1\.0$"):
        figure_scan(ScanKind.MEAN_AND_FLUCT, open_params, grid)
    assert started == []
