"""Stability matrix, quasi-normal decomposition, steady moments, spectrum scan."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import at_ratio, count_thread_starts, normal_branch, pin_cpus
from opendicke import fluctuations
from opendicke.analysis import ScanKind, figure_scan
from opendicke.basis import CONJ_PERM, OMEGA_SYMPL, QUAD_MAP, T_CONJ
from opendicke.errors import (DefectiveMatrix, DegenerateBranch,
                              DivergentSteadyState, NumericalFailure,
                              UnstableState)
from opendicke.errors import RowErrors
from opendicke.fluctuations import (_INVOLUTIONS, _PERMS, _THEN,
                                    DEFECT_COND_LIMIT, DIVERGENT_TOL,
                                    STABILITY_TOL, SecondMoments, StabilityMatrix,
                                    _correlation_batch, _decompose_batch, _defects,
                                    _ill_conditioned, _match_branches,
                                    _scale, _spectra,
                                    build_stability_matrix,
                                    conjugation_defect, decompose, drift_batch,
                                    hermitize_moments, mode_correlations,
                                    noise_matrix, observables, sort_modes,
                                    spectrum_scan,
                                    stability_batch, steady_state_moments,
                                    system_moments)
from opendicke.groundstate import ground_state_moments
from opendicke.model import (ModelParams, critical_pump, mean_field_batch,
                             solve_mean_field)
from opendicke.oracle import lyapunov_moments

# Real-axis interval endpoints for delta_c=-2, kappa=2, u=0 (frozen from an
# earlier bisection of the two-real-eigenvalue predicate).
INTERVAL_LOWER = 1.9368167091351347
INTERVAL_UPPER = 2.0347390614027807


def test_block_diagonal_at_zero_pump(open_params):
    m = build_stability_matrix(open_params).m
    expected = np.diag([1j * -2.0 - 2.0, -1j * -2.0 - 2.0, -1j, 1j])
    np.testing.assert_allclose(m, expected, atol=1e-15)


def test_conjugation_symmetry_both_branches(open_params):
    for ratio in (0.0, 0.5, 0.9, 1.2, 1.8):
        p = at_ratio(open_params, ratio)
        m = build_stability_matrix(p).m
        assert conjugation_defect(m) <= 1e-14
        np.testing.assert_allclose(m, T_CONJ @ np.conj(m) @ T_CONJ, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(delta_c=st.floats(-4.0, -0.5), kappa=st.floats(0.0, 4.0),
       u=st.sampled_from([0.0, 0.5]),
       ratio=st.floats(0.0, 2.0).filter(lambda r: abs(r - 1.0) > 1e-3))
def test_conjugation_symmetry_property(delta_c, kappa, u, ratio):
    p = at_ratio(ModelParams(delta_c=delta_c, kappa=kappa, u=u, y=0.0), ratio)
    m = build_stability_matrix(p).m
    assert conjugation_defect(m) <= 1e-14


def test_degenerate_branch_rejected():
    """At 1e7 y_c the solved branch has 1 - 2 beta0^2 = 9.9e-15: the mean
    field and every route from it raise, open or closed."""
    for kappa in (2.0, 0.0):
        p = at_ratio(ModelParams(delta_c=-2.0, kappa=kappa, u=0.0, y=0.0), 1e7)
        moments = steady_state_moments if kappa else ground_state_moments
        for route in (solve_mean_field, build_stability_matrix, moments):
            with pytest.raises(DegenerateBranch) as info:
                route(p)
            assert str(info.value) == ("1 - 2 beta0^2 = 9.880984919163893e-15; "
                                       "chemical potential singular")


def test_zero_pump_eigenvalues(open_params):
    q = decompose(build_stability_matrix(open_params))
    got = sorted(q.lambdas, key=lambda z: (round(z.real, 9), z.imag))
    expected = sorted([-2.0 - 2.0j, -2.0 + 2.0j, -1.0j, 1.0j],
                      key=lambda z: (round(z.real, 9), z.imag))
    for g, e in zip(got, expected):
        assert abs(g - e) < 1e-12


def test_biorthonormality_and_completeness(open_params):
    for ratio in (0.5, 0.9, 1.5):
        p = at_ratio(open_params, ratio)
        q = decompose(build_stability_matrix(p))
        eye = np.eye(4)
        assert np.max(np.abs(q.lefts @ q.rights - eye)) <= 1e-10
        assert np.max(np.abs(q.rights @ q.lefts - eye)) <= 1e-10


def test_conjugate_pairs_share_real_parts(open_params):
    p = at_ratio(open_params, 0.8)
    q = decompose(build_stability_matrix(p))
    for k in range(4):
        kbar = q.pairing[k]
        assert q.pairing[kbar] == k
        assert abs(q.lambdas[k].real - q.lambdas[kbar].real) <= 1e-10
        assert abs(q.lambdas[k] - np.conj(q.lambdas[kbar])) <= 1e-8


def test_vacuum_moments_at_zero_pump(open_params):
    s = steady_state_moments(open_params).s
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = 1.0
    expected[2, 3] = 1.0
    np.testing.assert_allclose(s, expected, atol=1e-12)


def test_steady_observables_frozen(open_params):
    p = at_ratio(open_params, 0.9)
    delta_n, n_photon = observables(steady_state_moments(p))
    assert delta_n == pytest.approx(2.756578947368418, abs=1e-12)
    assert n_photon == pytest.approx(1.0657894736842097, abs=1e-12)


def test_superradiant_observables_frozen(open_params):
    p = at_ratio(open_params, 1.5)
    delta_n, n_photon = observables(steady_state_moments(p))
    assert delta_n == pytest.approx(0.2803952991452995, abs=1e-12)
    assert n_photon == pytest.approx(0.06153846153846161, abs=1e-12)


def test_commutator_preservation(open_params):
    for ratio in (0.3, 0.9, 1.4):
        p = at_ratio(open_params, ratio)
        s = steady_state_moments(p).s
        assert abs(s[0, 1] - s[1, 0] - 1.0) <= 1e-10
        assert abs(s[2, 3] - s[3, 2] - 1.0) <= 1e-10


def test_eigenmode_matches_lyapunov_oracle(open_params):
    points = [(open_params, r) for r in (0.3, 0.6, 0.9, 1.2, 1.8)]
    points.append((ModelParams(delta_c=-1.0, kappa=0.5, u=0.5, y=0.0), 0.7))
    for base, ratio in points:
        p = at_ratio(base, ratio)
        stability = build_stability_matrix(p)
        q = decompose(stability)
        s_modes = system_moments(q, mode_correlations(q))
        s_oracle = lyapunov_moments(stability)
        assert np.max(np.abs(s_modes.s - s_oracle.s)) <= 1e-10


def test_unstable_normal_branch_above_threshold(open_params):
    p = at_ratio(open_params, 1.2)
    stability = StabilityMatrix(m=stability_batch(p, normal_branch(p))[0],
                                params=p)
    q = decompose(stability)
    with pytest.raises(UnstableState):
        mode_correlations(q)


def test_divergent_at_threshold(open_params):
    p = at_ratio(open_params, 1.0)
    with pytest.raises(DivergentSteadyState):
        steady_state_moments(p)


def test_hermitize_is_projection():
    rng = np.random.default_rng(7)
    s = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = hermitize_moments(s)
    assert np.max(np.abs(h - T_CONJ @ np.conj(h).T @ T_CONJ)) < 1e-15
    np.testing.assert_allclose(hermitize_moments(h), h, atol=1e-15)
    # already-symmetric input is untouched
    sym = 0.5 * (s + T_CONJ @ np.conj(s).T @ T_CONJ)
    np.testing.assert_allclose(hermitize_moments(sym), sym, atol=1e-15)


def test_occupations_real_after_symmetrization(open_params):
    # the adjoint symmetry s = T conj(s)^T T forces real diagonal occupations
    p = at_ratio(open_params, 1.0 - np.exp(-14.0))
    s = steady_state_moments(p).s
    assert s[1, 0].imag == 0.0
    assert s[3, 2].imag == 0.0


def test_observables_reject_imaginary_occupation():
    s = np.zeros((4, 4), dtype=complex)
    s[0, 1] = 1.0
    s[2, 3] = 1.0
    s[1, 0] = 0.001j
    with pytest.raises(NumericalFailure):
        observables(SecondMoments(s=s))


def test_conj_perm_is_involution():
    assert list(CONJ_PERM[CONJ_PERM]) == [0, 1, 2, 3]


def test_pairing_of_equal_eigenvalues_is_an_involution():
    """At delta_c = -1 or +1, kappa = 0, y = 0, M is diagonal with
    eigenvalues -i, i, -i, i or i, -i, -i, i: each copy of -i takes its own
    copy of i, where the nearest conjugate of both copies is the first i.
    delta_c = +1 has no threshold; its M is the normal branch's."""
    red, blue = (ModelParams(delta_c=d, kappa=0.0, u=0.0, y=0.0) for d in (-1.0, 1.0))
    for q in (decompose(build_stability_matrix(red)), decompose(StabilityMatrix(
            m=stability_batch(blue, normal_branch(blue))[0], params=blue))):
        assert np.count_nonzero(q.matrix.m - np.diag(np.diag(q.matrix.m))) == 0
        nearest = np.abs(q.lambdas[None, :] - q.lambdas.conj()[:, None]).argmin(-1)
        assert list(nearest[nearest]) != [0, 1, 2, 3]
        assert list(q.pairing[q.pairing]) == [0, 1, 2, 3]
        assert np.array_equal(q.lambdas[q.pairing], q.lambdas.conj())


def _pairing_box(sets: int):
    """M of the rows whose mean field exists, on a seeded box: |delta_c| and
    kappa log-uniform in [1e-4, 1e4], a fifth of the sets at kappa = 0,
    u in [-5, 5], 25 pumps on [0, 2] y_c; with kappa and the superradiant
    rows of each set."""
    rng = np.random.default_rng(24)
    for _ in range(sets):
        kappa = 0.0 if rng.uniform() < 0.2 else 10.0 ** rng.uniform(-4.0, 4.0)
        p = ModelParams(delta_c=-10.0 ** rng.uniform(-4.0, 4.0), kappa=kappa,
                        u=rng.uniform(-5.0, 5.0), y=0.0)
        ratio = np.linspace(0.0, 2.0, 25)
        mf = mean_field_batch(p, ratio * critical_pump(p))
        live = mf.errors.alive
        yield p.kappa, ratio[live] > 1.0, stability_batch(p, mf)[live]


def test_pairing_is_the_nearest_conjugate_where_that_is_an_involution():
    """The pairing is the map to each eigenvalue's nearest conjugate on every
    row where that map is an involution, and an involution on every row,
    also where no eigenvalue has a conjugate (random complex matrices, which
    fail as unpaired)."""
    box = list(_pairing_box(100))
    rng = np.random.default_rng(2011)
    noise = rng.standard_normal((200, 4, 4)) + 1j * rng.standard_normal((200, 4, 4))
    m = np.concatenate([rows for *_, rows in box] + [noise])
    errors = RowErrors(m.shape[0])
    lam, _, _, pairing, _ = _decompose_batch(m, errors)
    rows = np.arange(m.shape[0])[:, None]
    assert np.all(pairing[rows, pairing] == np.arange(4))
    nearest = np.abs(lam[:, None, :] - lam.conj()[:, :, None]).argmin(-1)
    involution = (nearest[rows, nearest] == np.arange(4)).all(axis=1)
    assert np.array_equal(pairing[involution], nearest[involution])
    box_rows = m.shape[0] - noise.shape[0]
    assert np.count_nonzero(errors.alive[:box_rows]) >= 2000
    assert not errors.alive[box_rows:].any()
    assert all("no conjugate partner" in str(errors.error(i))
               for i in range(box_rows, m.shape[0]))
    above = np.concatenate([above for _, above, _ in box])
    assert 0 < np.count_nonzero(above) < box_rows
    assert any(kappa == 0.0 for kappa, *_ in box)


def test_spectrum_scan_start_and_interval(open_params):
    y_c = critical_pump(open_params)
    scan = spectrum_scan(open_params, np.linspace(0.0, 1.2 * y_c, 241))
    first = sorted(scan.branches[0], key=lambda z: (z.real, z.imag))
    expected = sorted([-2.0 - 2.0j, -2.0 + 2.0j, -1.0j, 1.0j],
                      key=lambda z: (z.real, z.imag))
    for g, e in zip(first, expected):
        assert abs(g - e) < 1e-12

    assert len(scan.real_intervals) == 1
    iv = scan.real_intervals[0]
    assert iv.lower.y == pytest.approx(INTERVAL_LOWER, abs=1e-9)
    assert iv.upper.y == pytest.approx(INTERVAL_UPPER, abs=1e-9)
    assert iv.lower.refined and iv.upper.refined
    assert iv.lower.defective and iv.upper.defective
    assert 0.0 < iv.lower.y < y_c


@pytest.mark.parametrize("grid, message", [
    ([1.0], "y grid must be a 1-d array with at least 2 points"),
    ([[0.0, 1.0]], "y grid must be a 1-d array with at least 2 points"),
    ([0.0, 1.0, 0.5], "y grid must be strictly increasing"),
    ([0.0, 0.0], "y grid must be strictly increasing")])
def test_spectrum_scan_rejects_bad_grid(open_params, grid, message):
    with pytest.raises(ValueError, match=message):
        spectrum_scan(open_params, grid)


def test_decompose_defective_at_interval_endpoints(open_params):
    for y in (INTERVAL_LOWER, INTERVAL_UPPER):
        p = open_params.with_pump(y)
        with pytest.raises(DefectiveMatrix) as exc:
            decompose(build_stability_matrix(p))
        assert exc.value.cond > 1e7 or exc.value.gap < 1e-7


def test_two_real_eigenvalues_inside_interval(open_params):
    p = open_params.with_pump(1.99)
    q = decompose(build_stability_matrix(p))
    n_real = sum(1 for lam in q.lambdas if abs(lam.imag) <= 1e-8)
    assert n_real >= 2


def test_not_defective_away_from_endpoints(open_params):
    for ratio in (0.5, 0.9, 1.5):
        p = at_ratio(open_params, ratio)
        decompose(build_stability_matrix(p))


def test_scan_statuses_and_ambiguity(open_params):
    y_c = critical_pump(open_params)
    scan = spectrum_scan(open_params, np.linspace(0.0, 1.2 * y_c, 241))
    assert set(scan.status) <= {"ok", "ambiguous"}
    iv = scan.real_intervals[0]
    for y, status in zip(scan.y, scan.status):
        if status == "ambiguous":
            # ambiguity may only happen right after an eigenvalue collision
            assert (abs(y - iv.lower.y) < 0.02 or abs(y - iv.upper.y) < 0.02)


def _spectrum_grid(params: ModelParams, points: int) -> np.ndarray:
    return np.linspace(0.0, 1.2 * critical_pump(params), points)


@pytest.mark.parametrize("points", [1201, 241])
def test_batched_spectrum_does_not_depend_on_cpus(monkeypatch, open_params, points):
    """The spectrum's eigen-solves run in batches of BATCH_ROWS pumps: on one
    and on three CPUs the branches, statuses and intervals (every endpoint
    field) are those of one eigen-solve of the whole grid, bit for bit."""
    grid = _spectrum_grid(open_params, points)
    monkeypatch.setattr(fluctuations, "BATCH_ROWS", grid.size)
    scans = [spectrum_scan(open_params, grid)]
    monkeypatch.undo()
    for cpus in (1, 3):
        pin_cpus(monkeypatch, cpus)
        scans.append(spectrum_scan(open_params, grid))
    whole = scans[0]
    assert len(whole.real_intervals) == 1 and "ambiguous" in whole.status
    for scan in scans[1:]:
        assert scan.branches.tobytes() == whole.branches.tobytes()
        assert scan.status == whole.status
        assert repr(scan.real_intervals) == repr(whole.real_intervals)


@pytest.mark.parametrize("cpus, points", [(1, 1201), (3, 241)])
def test_serial_spectrum_starts_no_thread(monkeypatch, open_params, cpus, points):
    """A one-CPU process, and a spectrum grid of one batch, run every
    eigen-solve on the calling thread."""
    pin_cpus(monkeypatch, cpus)

    def refuse(self):
        raise AssertionError(f"thread {self.name} started")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    scan = spectrum_scan(open_params, _spectrum_grid(open_params, points))
    assert len(scan.status) == points


def test_no_thread_outlives_a_spectrum_scan(monkeypatch, open_params):
    pin_cpus(monkeypatch, 3)
    started = count_thread_starts(monkeypatch)
    before = threading.active_count()
    spectrum_scan(open_params, _spectrum_grid(open_params, 1201))
    assert started and threading.active_count() == before


def test_depletion_monotone_near_threshold(open_params):
    y_c = critical_pump(open_params)
    eps = np.logspace(-2, -4, 7)
    values = []
    for e in eps:
        p = open_params.with_pump(y_c * (1.0 - e))
        values.append(observables(steady_state_moments(p))[0])
    diffs = np.diff(values)
    assert np.all(diffs > 0.0)


def test_noise_spec_matrix():
    d = noise_matrix(1.5)
    expected = np.zeros((4, 4))
    expected[0, 1] = 3.0
    np.testing.assert_allclose(d, expected, atol=0.0)


def _near_exceptional_stack() -> np.ndarray:
    """Stability matrices at and next to the exceptional points of
    ``spectrum --delta-c=-2 --kappa=2 --u=0.7``: relative pump offsets from
    0 to +-1e-4 on both refined endpoints."""
    p = ModelParams(delta_c=-2.0, kappa=2.0, u=0.7, y=0.0)
    scan = spectrum_scan(p, np.linspace(0.0, 1.2 * critical_pump(p), 241))
    ends = [e.y for iv in scan.real_intervals for e in (iv.lower, iv.upper)
            if e.refined]
    assert len(ends) == 2
    offsets = np.logspace(-16.0, -4.0, 49)
    offsets = np.concatenate((-offsets, [0.0], offsets))
    mf = mean_field_batch(p, np.concatenate([y * (1.0 + offsets) for y in ends]))
    assert mf.errors.failed == 0
    return stability_batch(p, mf)


def _sorted_eigenvectors(m: np.ndarray) -> np.ndarray:
    """Unit right eigenvectors of a stack in the decomposition's order."""
    lam, vecs = np.linalg.eig(m)
    return sort_modes(lam, vecs, np.argsort(lam, axis=-1, kind="stable"))[1]


def _screen_stacks() -> list[np.ndarray]:
    """Seeded random eigenvector stacks, random near-Jordan matrices and the
    exceptional-point neighborhood."""
    rng = np.random.default_rng(20261018)

    def complex_stack(n):
        return rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))

    random = complex_stack(400)
    jordan = np.diag(np.ones(3), 1) + np.diag([1.0, 1.0, 1.0, 2.0])
    basis = complex_stack(200)
    bumps = (np.logspace(-16.0, -2.0, 200)[:, None, None]
             * rng.standard_normal((200, 4, 4)))
    near_jordan = basis @ (jordan + bumps) @ np.linalg.inv(basis)
    return [_sorted_eigenvectors(m) for m in (random, near_jordan,
                                              _near_exceptional_stack())]


def test_cond_bounded_by_determinant():
    for vecs in _screen_stacks():
        cond = np.linalg.cond(vecs)
        bound = 16.0 / np.abs(np.linalg.det(vecs))
        assert np.all(cond <= bound * (1.0 + 1e-9))


def test_screened_defect_mask_equals_svd_mask():
    for vecs in _screen_stacks():
        svd_mask = np.linalg.cond(vecs) > DEFECT_COND_LIMIT
        np.testing.assert_array_equal(_ill_conditioned(vecs), svd_mask)
    # The exceptional-point stack holds rows on both sides of the limit.
    assert 0 < np.count_nonzero(svd_mask) < svd_mask.size


def test_reported_cond_is_the_svd_value():
    m = _near_exceptional_stack()
    errors = RowErrors(m.shape[0])
    _decompose_batch(m.copy(), errors)
    cond = np.linalg.cond(_sorted_eigenvectors(m))
    messages = set()
    for i in errors.pending:
        err = errors.error(i)
        if isinstance(err, DefectiveMatrix):
            assert err.cond == pytest.approx(cond[i], rel=1e-12)
            messages.add(str(err).split()[0])
    # Both the cond path and the biorthonormality path report.
    assert messages == {"(near-)defective", "biorthonormalization"}


# Upper refined endpoint of the u = 0.7 grid below.
EXCEPTIONAL_PUMP = 2.03432461710045
SPECTRUM_GRIDS = (
    # the figure-scan spectrum grid, the u != 0 grid, a grid whose real-axis
    # interval reaches both of its edges, and the 41 floats around an
    # exceptional point, where cond(V) > DEFECT_COND_LIMIT decides the status
    # of rows that the eigenvalue gap does not flag
    (0.0, lambda y_c: np.linspace(0.0, 1.2 * y_c, 1201)),
    (0.7, lambda y_c: np.linspace(0.0, 1.5 * y_c, 301)),
    (0.0, lambda y_c: np.linspace(1.95, 2.0, 50)),
    (0.7, lambda y_c: EXCEPTIONAL_PUMP + np.spacing(EXCEPTIONAL_PUMP)
     * np.arange(-20.0, 21.0)),
)


def _svd_defects(a: np.ndarray):
    """(defective, cond(V)) of a stack of drift matrices with the SVD of
    every row, the unscreened test of the spectrum scan."""
    lam, vecs = np.linalg.eig(a)
    cond = np.linalg.cond(vecs / np.linalg.norm(vecs, axis=1, keepdims=True))
    return _defects(lam, vecs, cond > DEFECT_COND_LIMIT, _scale(lam))[0], cond


@pytest.mark.parametrize("u, grid", SPECTRUM_GRIDS)
def test_spectrum_scan_screen_matches_svd_mask(u, grid):
    """The determinant screen gives the statuses of an SVD of every row, and
    every reported cond is the SVD value at the endpoint."""
    p = ModelParams(delta_c=-2.0, kappa=2.0, u=u, y=0.0)
    y = grid(critical_pump(p))
    scan = spectrum_scan(p, y)
    defective, _ = _svd_defects(drift_batch(p, mean_field_batch(p, y)))
    np.testing.assert_array_equal(np.array(scan.status) == "defective", defective)
    ends = [e for iv in scan.real_intervals for e in (iv.lower, iv.upper)]
    assert ends
    for e in ends:
        defective, cond = _svd_defects(drift_batch(p, mean_field_batch(p, [e.y])))
        assert e.cond == pytest.approx(cond[0], rel=1e-12)
        assert e.defective == (e.refined and defective[0])


def _match_every_row(lam, vecs):
    """Branch matching with all 24 permutations compared against the
    matched order of the row before, one row at a time."""
    dist = np.abs(lam[1:, :, None] - lam[:-1, None, :])
    perm = np.lexsort((lam[0].imag, lam[0].real))
    perms, ambiguous = [perm], [False] * lam.shape[0]
    for i in range(1, lam.shape[0]):
        d = dist[i - 1][_PERMS, perm]
        costs = d[:, 0] + d[:, 1] + d[:, 2] + d[:, 3]
        tied = np.flatnonzero(costs - costs.min() <= 1e-12)
        if tied.size > 1:
            gram = np.abs(vecs[i - 1][:, perm].conj().T @ vecs[i])
            o = gram[np.arange(4), _PERMS[tied]]
            overlaps = o[:, 0] + o[:, 1] + o[:, 2] + o[:, 3]
            tied = tied[overlaps.max() - overlaps <= 1e-12]
            ambiguous[i] = tied.size > 1
        perm = _PERMS[tied[0]]
        perms.append(perm)
    return np.take_along_axis(lam, np.array(perms), 1), ambiguous


def _branch_stacks():
    """(eigenvalues, eigenvectors) of the spectrum grids, and seeded random
    walks of four eigenvalues with exact degeneracies, exact conjugates and
    coarse steps, shuffled within each row."""
    for u, grid in SPECTRUM_GRIDS:
        p = ModelParams(delta_c=-2.0, kappa=2.0, u=u, y=0.0)
        yield _spectra(drift_batch(p, mean_field_batch(p, grid(critical_pump(p)))))[:2]
    rng = np.random.default_rng(20261018)
    for trial in range(60):
        steps = rng.standard_normal((200, 4)) + 1j * rng.standard_normal((200, 4))
        lam = np.cumsum(steps * 10.0 ** rng.uniform(-14.0, 4.0), axis=0)
        if trial % 3 == 0:
            lam[:, 1] = lam[:, 0]
        if trial % 4 == 0:
            lam[:, 3] = lam[:, 2].conj()
        if trial % 5 == 0:
            lam = np.round(lam, 1)
        lam = np.take_along_axis(lam, np.argsort(rng.random((200, 4)), axis=1), 1)
        vecs = rng.standard_normal((200, 4, 4)) + 1j * rng.standard_normal((200, 4, 4))
        if trial % 2 == 0:
            vecs[:, :, 1] = vecs[:, :, 0]
        yield lam, vecs
    # A single eigenvalue with a single eigenvector on every row: all 24
    # permutations tie on both sums, so the matched-order choice decides
    # every row after the first, and each of them is ambiguous.
    lam = rng.standard_normal((300, 1)) + 1j * rng.standard_normal((300, 1))
    vecs = rng.standard_normal((300, 4, 1)) + 1j * rng.standard_normal((300, 4, 1))
    lam, vecs = np.repeat(lam, 4, 1), np.repeat(vecs, 4, 2)
    yield np.take_along_axis(lam, np.argsort(rng.random((300, 4)), axis=1), 1), vecs


def test_composition_table_indexes_the_composed_permutation():
    for a in range(24):
        for b in range(24):
            assert np.array_equal(_PERMS[_THEN[a, b]], _PERMS[a][_PERMS[b]])


def test_involutions_square_to_the_identity():
    square = np.take_along_axis(_PERMS, _PERMS, 1)
    assert np.array_equal(_INVOLUTIONS, _PERMS[(square == np.arange(4)).all(1)])


def test_branch_matching_equals_row_by_row_comparison():
    for lam, vecs in _branch_stacks():
        expected, expected_ambiguous = _match_every_row(lam, vecs)
        matched, ambiguous = _match_branches(lam, vecs)
        assert np.array_equal(matched, expected)
        assert ambiguous == expected_ambiguous


def _pairing_stacks():
    """(params, pump grid) of the figure-scan sets (delta_c = -2.0047,
    kappa = 2.1802, u = 0 and 0.3221, 2000 pumps on [0, 2 y_c]) and of the
    first 20 sets of the benchmark's sweep-wide workload (seed 11074323,
    25 pumps on [0.05, 2] y_c)."""
    for u in (0.0, 0.3221):
        p = ModelParams(delta_c=-2.0047, kappa=2.1802, u=u, y=0.0)
        yield p, np.linspace(0.0, 2.0 * critical_pump(p), 2000)
    rng = np.random.default_rng(11074323)
    for _ in range(20):
        p = ModelParams(delta_c=-10.0 ** rng.uniform(-4.0, 4.0),
                        kappa=10.0 ** rng.uniform(-4.0, 4.0),
                        u=rng.uniform(-5.0, 5.0), y=0.0)
        yield p, np.linspace(0.05, 2.0, 25) * critical_pump(p)


def test_real_eigen_solve_pairs_exactly():
    """The drift matrix is real and built exactly: its eigen-solve returns
    every complex eigenvalue next to its exact conjugate, with the exactly
    conjugate eigenvector, so conjugate pairing needs no tolerance."""
    pairs = 0
    for p, y in _pairing_stacks():
        mf = mean_field_batch(p, y)
        m, a = stability_batch(p, mf), drift_batch(p, mf)
        assert a.dtype == np.float64
        ref = QUAD_MAP @ m @ QUAD_MAP.conj().T
        assert np.all(np.abs(a - ref).max(axis=(1, 2))
                      <= 1e-15 * np.abs(m).max(axis=(1, 2)))
        lam, vecs = np.linalg.eig(a[mf.errors.alive])
        lam = lam.astype(complex)
        vecs = vecs.astype(complex)
        real = lam.imag == 0.0
        assert np.all(vecs.imag[np.broadcast_to(real[:, None, :], vecs.shape)] == 0.0)
        # LAPACK puts the member with Im lambda > 0 first, its partner next.
        rows, first = np.nonzero(lam.imag > 0.0)
        assert np.all(lam.imag[rows, first + 1] < 0.0)
        assert np.count_nonzero(lam.imag < 0.0) == first.size
        # Bit for bit, signed zeros included.
        assert np.array_equal(lam[rows, first + 1].view(np.uint64),
                              lam[rows, first].conj().view(np.uint64))
        assert np.array_equal(vecs[rows, :, first + 1].view(np.uint64),
                              vecs[rows, :, first].conj().view(np.uint64))
        pairs += first.size
    assert pairs > 4000


def _correlations_with_vacuum_everywhere(lam, lefts, kappa, scale):
    """<rho_k rho_l> with the vacuum commutator L J L^T merged in by
    np.where on every batch, undamped pair or not."""
    denom = lam[:, :, None] + lam[:, None, :]
    numer = (-2.0 * kappa * lefts[:, :, 0])[:, :, None] * lefts[:, None, :, 1]
    damped = np.abs(denom) > DIVERGENT_TOL * scale[:, None, None]
    coupled = numer != 0.0
    g = np.divide(numer, denom, out=np.zeros_like(numer), where=damped)
    lowering = (lam.imag < 0.0) & (np.abs(lam.real) <= STABILITY_TOL * scale[:, None])
    vacuum = (damped | coupled) < (lowering[:, :, None] & (lam.imag > 0.0)[:, None, :])
    return np.where(vacuum, lefts @ OMEGA_SYMPL @ lefts.transpose(0, 2, 1), g), vacuum.any()


@pytest.mark.parametrize("zero_pump", [False, True])
def test_vacuum_commutator_only_where_a_pair_is_undamped(zero_pump):
    """Skipping L J L^T on batches whose pairs are all damped changes no bit;
    a y = 0 row leaves the atom undamped, and there the commutator enters."""
    rng = np.random.default_rng(2011)
    for _ in range(20):
        p = ModelParams(delta_c=-10.0 ** rng.uniform(-2.0, 2.0),
                        kappa=10.0 ** rng.uniform(-2.0, 2.0),
                        u=rng.uniform(-1.0, 1.0), y=0.0)
        y = np.sort(rng.uniform(0.01, 2.0, 12)) * critical_pump(p)
        if zero_pump:
            y[0] = 0.0
        mf = mean_field_batch(p, y)
        lam, _, lefts, _, scale = _decompose_batch(stability_batch(p, mf), mf.errors)
        got = _correlation_batch(lam, lefts, p.kappa, scale, RowErrors(y.size))
        want, vacuum = _correlations_with_vacuum_everywhere(lam, lefts, p.kappa, scale)
        assert vacuum == zero_pump
        assert got.tobytes() == want.tobytes()


def test_undamped_pair_with_noise_coupling_diverges():
    """Here one mode pair is undamped to 1e-12 max|lambda| while the noise
    couples to it: the exact delta_N is 17,102.2 (the rational u = 0 steady
    state), and the vacuum commutator taken for that pair printed 7.66e-8 as
    an ok row.  Only a pair with zero noise coupling is left in its vacuum."""
    base = ModelParams(delta_c=-1.0157e-4, kappa=3.762e-6, u=0.0, y=0.0)
    p = base.with_pump(2.636 * critical_pump(base))
    assert figure_scan(ScanKind.MEAN_AND_FLUCT, p, [p.y]).rows[0][-1] == "divergent"
    with pytest.raises(DivergentSteadyState, match="undamped noise-driven"):
        steady_state_moments(p)


def test_slow_oscillation_is_not_a_real_axis_interval():
    """At y = 29.0814 of this grid the soft pair is -7.0e-9 +- 3.3e-9 i, two
    conjugate pairs with a positive discriminant on both sides: no real-axis
    interval, which an absolute 1e-8 bound on Im lambda reported."""
    p = ModelParams(delta_c=-845.72562775662, kappa=0.005018095366428384,
                    u=-3.2319244086310395, y=0.0)
    y = np.linspace(0.0, 2.0 * critical_pump(p), 241)
    scan = spectrum_scan(p, y)
    assert scan.real_intervals == []
    i = int(np.argmin(np.abs(y - 29.0814)))
    soft = scan.branches[i][np.argsort(np.abs(scan.branches[i]))[:2]]
    assert np.all(np.abs(soft) < 1e-8) and np.all(soft.imag != 0.0)
