"""Stability matrix, quasi-normal decomposition, steady moments, spectrum scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import at_ratio
from opendicke.basis import CONJ_PERM, T_CONJ
from opendicke.errors import (DefectiveMatrix, DegenerateBranch,
                              DivergentSteadyState, NumericalFailure,
                              UnstableState)
from opendicke.errors import RowErrors
from opendicke.fluctuations import (DEFECT_COND_LIMIT, NoiseSpec,
                                    SecondMoments, _decompose_batch,
                                    _ill_conditioned, build_stability_matrix,
                                    conjugation_defect, decompose,
                                    hermitize_moments, mode_correlations,
                                    observables, sort_modes, spectrum_scan,
                                    stability_batch, steady_state_moments,
                                    system_moments)
from opendicke.model import (MeanField, ModelParams, Phase, critical_pump,
                             mean_field_batch, solve_mean_field)
from opendicke.oracle import lyapunov_moments

# Real-axis interval endpoints for delta_c=-2, kappa=2, u=0 (bisection-refined
# against the two-real-eigenvalue predicate; frozen from this implementation).
INTERVAL_LOWER = 1.9368167091351347
INTERVAL_UPPER = 2.0347390614027807


def _normal_mean_field() -> MeanField:
    return MeanField(alpha0=0.0j, beta0=0.0, mu=-0.5, phase=Phase.NORMAL)


def test_block_diagonal_at_zero_pump(open_params):
    m = build_stability_matrix(open_params, solve_mean_field(open_params)).m
    expected = np.diag([1j * -2.0 - 2.0, -1j * -2.0 - 2.0, -1j, 1j])
    np.testing.assert_allclose(m, expected, atol=1e-15)


def test_conjugation_symmetry_both_branches(open_params):
    for ratio in (0.0, 0.5, 0.9, 1.2, 1.8):
        p = at_ratio(open_params, ratio)
        m = build_stability_matrix(p, solve_mean_field(p)).m
        assert conjugation_defect(m) <= 1e-14
        np.testing.assert_allclose(m, T_CONJ @ np.conj(m) @ T_CONJ, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(delta_c=st.floats(-4.0, -0.5), kappa=st.floats(0.0, 4.0),
       u=st.sampled_from([0.0, 0.5]),
       ratio=st.floats(0.0, 2.0).filter(lambda r: abs(r - 1.0) > 1e-3))
def test_conjugation_symmetry_property(delta_c, kappa, u, ratio):
    p = at_ratio(ModelParams(delta_c=delta_c, kappa=kappa, u=u, y=0.0), ratio)
    m = build_stability_matrix(p, solve_mean_field(p)).m
    assert conjugation_defect(m) <= 1e-14


def test_degenerate_branch_rejected(open_params):
    mf = MeanField(alpha0=0.1j, beta0=np.sqrt(0.5), mu=-1.0,
                   phase=Phase.SUPERRADIANT)
    with pytest.raises(DegenerateBranch):
        build_stability_matrix(open_params.with_pump(1.0), mf)


def test_zero_pump_eigenvalues(open_params):
    q = decompose(build_stability_matrix(open_params,
                                         solve_mean_field(open_params)))
    got = sorted(q.lambdas, key=lambda z: (round(z.real, 9), z.imag))
    expected = sorted([-2.0 - 2.0j, -2.0 + 2.0j, -1.0j, 1.0j],
                      key=lambda z: (round(z.real, 9), z.imag))
    for g, e in zip(got, expected):
        assert abs(g - e) < 1e-12


def test_biorthonormality_and_completeness(open_params):
    for ratio in (0.5, 0.9, 1.5):
        p = at_ratio(open_params, ratio)
        q = decompose(build_stability_matrix(p, solve_mean_field(p)))
        eye = np.eye(4)
        assert np.max(np.abs(q.lefts @ q.rights - eye)) <= 1e-10
        assert np.max(np.abs(q.rights @ q.lefts - eye)) <= 1e-10


def test_conjugate_pairs_share_real_parts(open_params):
    p = at_ratio(open_params, 0.8)
    q = decompose(build_stability_matrix(p, solve_mean_field(p)))
    for k in range(4):
        kbar = q.pairing[k]
        assert q.pairing[kbar] == k
        assert abs(q.lambdas[k].real - q.lambdas[kbar].real) <= 1e-10
        assert abs(q.lambdas[k] - np.conj(q.lambdas[kbar])) <= 1e-8


def test_vacuum_moments_at_zero_pump(open_params):
    s = steady_state_moments(open_params, solve_mean_field(open_params)).s
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = 1.0
    expected[2, 3] = 1.0
    np.testing.assert_allclose(s, expected, atol=1e-12)


def test_steady_observables_frozen(open_params):
    p = at_ratio(open_params, 0.9)
    delta_n, n_photon = observables(steady_state_moments(p, solve_mean_field(p)))
    assert delta_n == pytest.approx(2.756578947368418, abs=1e-12)
    assert n_photon == pytest.approx(1.0657894736842097, abs=1e-12)


def test_superradiant_observables_frozen(open_params):
    p = at_ratio(open_params, 1.5)
    delta_n, n_photon = observables(steady_state_moments(p, solve_mean_field(p)))
    assert delta_n == pytest.approx(0.2803952991452995, abs=1e-12)
    assert n_photon == pytest.approx(0.06153846153846161, abs=1e-12)


def test_commutator_preservation(open_params):
    for ratio in (0.3, 0.9, 1.4):
        p = at_ratio(open_params, ratio)
        s = steady_state_moments(p, solve_mean_field(p)).s
        assert abs(s[0, 1] - s[1, 0] - 1.0) <= 1e-10
        assert abs(s[2, 3] - s[3, 2] - 1.0) <= 1e-10


def test_eigenmode_matches_lyapunov_oracle(open_params):
    points = [(open_params, r) for r in (0.3, 0.6, 0.9, 1.2, 1.8)]
    points.append((ModelParams(delta_c=-1.0, kappa=0.5, u=0.5, y=0.0), 0.7))
    for base, ratio in points:
        p = at_ratio(base, ratio)
        stability = build_stability_matrix(p, solve_mean_field(p))
        q = decompose(stability)
        s_modes = system_moments(q, mode_correlations(q, NoiseSpec(p.kappa)))
        s_oracle = lyapunov_moments(stability, NoiseSpec(p.kappa))
        assert np.max(np.abs(s_modes.s - s_oracle.s)) <= 1e-10


def test_unstable_normal_branch_above_threshold(open_params):
    p = at_ratio(open_params, 1.2)
    stability = build_stability_matrix(p, _normal_mean_field())
    q = decompose(stability)
    with pytest.raises(UnstableState):
        mode_correlations(q, NoiseSpec(p.kappa))


def test_divergent_at_threshold(open_params):
    p = at_ratio(open_params, 1.0)
    with pytest.raises(DivergentSteadyState):
        steady_state_moments(p, solve_mean_field(p))


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
    s = steady_state_moments(p, solve_mean_field(p)).s
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


def test_decompose_defective_at_interval_endpoints(open_params):
    for y in (INTERVAL_LOWER, INTERVAL_UPPER):
        p = open_params.with_pump(y)
        with pytest.raises(DefectiveMatrix) as exc:
            decompose(build_stability_matrix(p, solve_mean_field(p)))
        assert exc.value.cond > 1e7 or exc.value.gap < 1e-7


def test_two_real_eigenvalues_inside_interval(open_params):
    p = open_params.with_pump(1.99)
    q = decompose(build_stability_matrix(p, solve_mean_field(p)))
    n_real = sum(1 for lam in q.lambdas if abs(lam.imag) <= 1e-8)
    assert n_real >= 2


def test_not_defective_away_from_endpoints(open_params):
    for ratio in (0.5, 0.9, 1.5):
        p = at_ratio(open_params, ratio)
        decompose(build_stability_matrix(p, solve_mean_field(p)))


def test_scan_statuses_and_ambiguity(open_params):
    y_c = critical_pump(open_params)
    scan = spectrum_scan(open_params, np.linspace(0.0, 1.2 * y_c, 241))
    assert set(scan.status) <= {"ok", "ambiguous"}
    iv = scan.real_intervals[0]
    for y, status in zip(scan.y, scan.status):
        if status == "ambiguous":
            # ambiguity may only happen right after an eigenvalue collision
            assert (abs(y - iv.lower.y) < 0.02 or abs(y - iv.upper.y) < 0.02)


def test_scan_threads_deterministic(open_params):
    y_c = critical_pump(open_params)
    grid = np.linspace(0.0, 1.2 * y_c, 61)
    one = spectrum_scan(open_params, grid, threads=1)
    four = spectrum_scan(open_params, grid, threads=4)
    np.testing.assert_array_equal(one.branches, four.branches)
    assert one.status == four.status


def test_depletion_monotone_near_threshold(open_params):
    y_c = critical_pump(open_params)
    eps = np.logspace(-2, -4, 7)
    values = []
    for e in eps:
        p = open_params.with_pump(y_c * (1.0 - e))
        values.append(observables(steady_state_moments(p, solve_mean_field(p)))[0])
    diffs = np.diff(values)
    assert np.all(diffs > 0.0)


def test_noise_spec_matrix():
    d = NoiseSpec(kappa=1.5).matrix()
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
    for i, err in enumerate(errors.errors):
        if isinstance(err, DefectiveMatrix):
            assert err.cond == pytest.approx(cond[i], rel=1e-12)
            messages.add(str(err).split()[0])
    # Both the cond path and the biorthonormality path report.
    assert messages == {"(near-)defective", "biorthonormalization"}
    for ratio in (0.3, 0.9, 1.5):
        stability = build_stability_matrix(at_ratio(
            ModelParams(delta_c=-2.0, kappa=2.0, u=0.7, y=0.0), ratio))
        q = decompose(stability)
        expected = np.linalg.cond(_sorted_eigenvectors(stability.m[None]))[0]
        assert q.cond == pytest.approx(expected, rel=1e-12)
