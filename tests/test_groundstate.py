"""Closed-system Bogoliubov ground state: frequencies, moments, instabilities."""

import contextlib
import csv
import io

import numpy as np
import pytest

from conftest import at_ratio, normal_branch
from opendicke import cli, fluctuations, groundstate
from opendicke.basis import ETA
from opendicke.entanglement import quad_covariance
from opendicke.errors import DynamicalInstability, NumericalFailure
from opendicke.fluctuations import (build_stability_matrix, observables,
                                    stability_batch, steady_state_moments)
from opendicke.analysis import ScanKind, figure_scan
from opendicke.groundstate import (bogoliubov_modes, ground_state_batch,
                                   ground_state_moments)
from opendicke.model import ModelParams, critical_pump, mean_field_batch
from opendicke.oracle import fock_ground_state

# Normal-mode frequencies at delta_c=-2, u=0, y = 0.5*y_c (frozen).
FREQS_HALF = (0.834999618124467, 2.0743132930519415)


def test_requires_closed_system(open_params):
    with pytest.raises(ValueError):
        ground_state_moments(at_ratio(open_params, 0.5))


def test_vacuum_at_zero_pump(closed_params):
    s = ground_state_moments(closed_params).s
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = 1.0
    expected[2, 3] = 1.0
    np.testing.assert_allclose(s, expected, atol=1e-12)


def test_matches_open_system_vacuum(open_params, closed_params):
    # at y=0 the damped steady state and the ground state are both vacuum
    s_open = steady_state_moments(open_params).s
    s_closed = ground_state_moments(closed_params).s
    np.testing.assert_allclose(s_open, s_closed, atol=1e-12)


def test_frequencies_frozen(closed_params):
    modes = bogoliubov_modes(at_ratio(closed_params, 0.5))
    np.testing.assert_allclose(np.sort(modes.frequencies),
                               np.sort(FREQS_HALF), atol=1e-10)
    assert np.all(modes.frequencies > 0.0)


def test_soft_mode_vanishes_at_threshold(closed_params):
    mins = []
    for ratio in (0.9, 0.99, 0.999):
        modes = bogoliubov_modes(at_ratio(closed_params, ratio))
        mins.append(float(np.min(modes.frequencies)))
    assert mins[0] > mins[1] > mins[2]
    assert mins[2] < 0.05


def test_observables_frozen(closed_params):
    delta_n, n_photon = observables(
        ground_state_moments(at_ratio(closed_params, 0.5)))
    assert delta_n == pytest.approx(0.019147653481905752, abs=1e-12)
    assert n_photon == pytest.approx(0.01736665374103312, abs=1e-12)


def test_transform_is_symplectic(closed_params):
    for ratio in (0.5, 0.9, 1.5):
        modes = bogoliubov_modes(at_ratio(closed_params, ratio))
        s = modes.transform
        assert np.max(np.abs(s @ ETA @ s.conj().T - ETA)) <= 1e-10


def test_instability_at_threshold(closed_params):
    with pytest.raises(DynamicalInstability):
        ground_state_moments(at_ratio(closed_params, 1.0))


def test_instability_on_normal_branch_above_threshold(closed_params):
    p = at_ratio(closed_params, 1.2)
    mf = normal_branch(p)
    ground_state_batch(p, mf)
    with pytest.raises(DynamicalInstability):
        mf.errors.raise_first()


def test_superradiant_ground_state(closed_params):
    p = at_ratio(closed_params, 1.5)
    moments = ground_state_moments(p)
    s = moments.s
    assert abs(s[0, 1] - s[1, 0] - 1.0) <= 1e-10
    assert abs(s[2, 3] - s[3, 2] - 1.0) <= 1e-10
    delta_n, n_photon = observables(moments)
    assert delta_n > 0.0 and n_photon > 0.0


def test_ground_state_is_pure(closed_params):
    # Gaussian purity: det C = 1/16 for a pure two-mode state
    for ratio in (0.4, 0.9, 1.5):
        cov = quad_covariance(ground_state_moments(at_ratio(closed_params, ratio)))
        assert np.linalg.det(cov) == pytest.approx(1.0 / 16.0, abs=1e-10)


def test_commutators_preserved(closed_params):
    for ratio in (0.3, 0.8, 0.999):
        s = ground_state_moments(at_ratio(closed_params, ratio)).s
        assert abs(s[0, 1] - s[1, 0] - 1.0) <= 1e-10
        assert abs(s[2, 3] - s[3, 2] - 1.0) <= 1e-10


def test_ground_state_curve(closed_params):
    y_c = critical_pump(closed_params)
    grid = np.linspace(0.0, 0.9 * y_c, 7)
    table = figure_scan(ScanKind.MEAN_AND_FLUCT, closed_params, grid)
    assert len(table.rows) == 7
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    assert all(row["status"] == "ok" for row in rows)
    assert rows[0]["delta_N"] == pytest.approx(0.0, abs=1e-12)
    assert rows[0]["n_photon"] == pytest.approx(0.0, abs=1e-12)
    values = [row["delta_N"] for row in rows]
    assert values == sorted(values)


def test_photon_atom_resonance_with_backreaction():
    # At u = 0.5, y = 1.5 y_c the shifted photon frequency equals the atom
    # frequency: W11 and W22 tie, and the rotation takes the photon and atom
    # pairs in equal parts.  H is positive definite there.
    p = ModelParams(delta_c=-2.0, kappa=0.0, u=0.5, y=0.0)
    p = p.with_pump(1.5 * critical_pump(p))
    m = build_stability_matrix(p).m
    assert np.all(np.linalg.eigvalsh(1j * ETA @ m) > 1.0)
    delta_n, n_photon = observables(ground_state_moments(p))
    fock = fock_ground_state(p, cutoffs=(40, 40))
    assert delta_n == pytest.approx(fock.delta_n, rel=1e-6)
    assert n_photon == pytest.approx(fock.n_photon, rel=1e-6)
    modes = bogoliubov_modes(p)
    s = modes.transform
    assert np.max(np.abs(s @ ETA @ s.conj().T - ETA)) <= 1e-10
    table = figure_scan(ScanKind.MEAN_AND_FLUCT, p, [p.y])
    assert table.rows[0][-1] == "ok"


def test_occupations_real_exactly(closed_params):
    s = ground_state_moments(at_ratio(closed_params, 1.0 - 1e-6)).s
    assert s[1, 0].imag == 0.0
    assert s[3, 2].imag == 0.0


def test_vacuum_exact_at_zero_pump():
    """At y = 0 both frequencies are the bare ones to the last bit, so the
    ground state is the vacuum exactly, at every delta_c and u."""
    rng = np.random.default_rng(5)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = expected[2, 3] = 1.0
    for _ in range(50):
        p = ModelParams(delta_c=-10.0 ** rng.uniform(-3.0, 3.0), kappa=0.0,
                        u=rng.uniform(-5.0, 5.0), y=0.0)
        assert np.array_equal(ground_state_moments(p).s, expected)


# The 16 edits (slot, shift) of a row's frame (Delta, omega, Re g, Im g):
# NaN, +inf and -inf in each slot fail the row, and so does Im g shifted by
# +-1e-9; Im g shifted by +-1e-13 stays within tolerance.
FRAME_EDITS = ([(slot, shift) for slot in range(4)
                for shift in (np.nan, np.inf, -np.inf)]
               + [(3, shift) for shift in (1e-9, -1e-9, 1e-13, -1e-13)])


@pytest.mark.parametrize("entry", range(len(FRAME_EDITS)))
def test_departure_from_block_form_fails_first(monkeypatch, closed_params, entry):
    """A frame that is not finite, or whose g is not real beyond
    HERMITICITY_TOL * max(1, |Delta|, |g|, |omega|), fails the row as
    NumericalFailure before the positivity check; an Im g within it leaves
    the row as it was.  Every warning is an error, so the blanked row runs
    no arithmetic on the edited value."""
    slot, shift = FRAME_EDITS[entry]
    real = groundstate.frame_batch

    def frame(params, mf):
        delta, omega, g = (part.copy() for part in real(params, mf))
        (delta, omega, g.real, g.imag)[slot][...] += shift
        return delta, omega, g

    monkeypatch.setattr(groundstate, "frame_batch", frame)
    prefix = "quadrature Hamiltonian G departs from its closed-system block form by "
    for ratio, cls in ((0.5, None), (1.2, DynamicalInstability)):
        p = at_ratio(closed_params, ratio)
        mf = normal_branch(p)
        ground_state_batch(p, mf)
        if abs(shift) == 1e-13:
            assert mf.errors.alive[0] if cls is None else type(mf.errors.error(0)) is cls
            continue
        err = mf.errors.error(0)
        assert type(err) is NumericalFailure
        assert str(err).startswith(prefix)
        if abs(shift) == 1e-9:
            assert str(err) == prefix + "1.000e-09"


def _cli_rows(argv) -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    return list(csv.DictReader(io.StringIO(out.getvalue())))


def test_degenerate_frequencies_at_zero_pump():
    # At delta_c = -1, y = 0 the photon and the atom both have frequency 1:
    # W is a multiple of the identity, and its rotation has rho = 0.
    p = ModelParams(delta_c=-1.0, kappa=0.0, u=0.0, y=0.0)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = expected[2, 3] = 1.0
    np.testing.assert_allclose(ground_state_moments(p).s, expected, atol=1e-12)
    modes = bogoliubov_modes(p)
    np.testing.assert_allclose(modes.frequencies, (1.0, 1.0), rtol=1e-12)
    t = modes.transform
    assert np.max(np.abs(t @ ETA @ t.conj().T - ETA)) <= 1e-10
    grid = ["--delta-c=-1", "--kappa=0", "--y-grid=0:0.5yc:3"]
    row = _cli_rows(["correlations", *grid])[0]
    assert row["status"] == "ok"
    assert float(row["delta_N"]) == 0.0 and float(row["n_photon"]) == 0.0
    assert _cli_rows(["entanglement", *grid])[0]["status"] == "ok"


# Symplectic eigenvalues of a pure state, and |M S + S M^T| / (|M| |S|) of a
# stationary one (max-norms).
PURITY_TOL = 1e-9
STATIONARY_TOL = 1e-11
_Q = np.array([[1, 1, 0, 0], [-1j, 1j, 0, 0],
               [0, 0, 1, 1], [0, 0, -1j, 1j]]) / np.sqrt(2)
_OMEGA = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])


def test_seeded_sweep_rows_pure_and_stationary():
    """Over |delta_c| log-uniform in [1e-2, 1e2], u in [-5, 5] and
    y in [0, 2] y_c, every ``ok`` row of ``ground_state_batch`` is a pure,
    stationary Gaussian state, and every other row failed in its mean field
    or has no stable ground state."""
    rng = np.random.default_rng(20261018)
    statuses = {"ok": 0, "mean field": 0, "unstable": 0}
    for _ in range(200):
        base = ModelParams(delta_c=-10.0 ** rng.uniform(-2.0, 2.0), kappa=0.0,
                           u=rng.uniform(-5.0, 5.0), y=0.0)
        mf = mean_field_batch(base, rng.uniform(0.0, 2.0, 20) * critical_pump(base))
        mean_ok = mf.errors.alive.copy()
        m = stability_batch(base, mf)
        s = ground_state_batch(base, mf)
        for i in range(mf.y.size):
            if not mean_ok[i]:
                statuses["mean field"] += 1
                continue
            if not mf.errors.alive[i]:
                err = mf.errors.error(i)
                assert isinstance(err, DynamicalInstability), err
                statuses["unstable"] += 1
                continue
            statuses["ok"] += 1
            raw = _Q @ s[i] @ _Q.T
            cov = (0.5 * (raw + raw.T)).real
            nus = np.sort(np.abs(np.linalg.eigvals(1j * _OMEGA @ cov)))[::2]
            assert np.max(np.abs(nus - 0.5)) <= PURITY_TOL * max(1.0, nus.max())
            residual = np.abs(m[i] @ s[i] + s[i] @ m[i].T).max()
            assert residual <= STATIONARY_TOL * np.abs(m[i]).max() * np.abs(s[i]).max()
    assert statuses == {"ok": 3380, "mean field": 620, "unstable": 0}


def test_moments_are_exactly_adjoint_symmetric():
    """Every live row of ``ground_state_batch`` equals its adjoint mirror
    <R_jbar R_ibar>* exactly: the closed form builds a moment and its
    partner from the same products in the same order, so the moments need no
    projection.  The box has |delta_c| log-uniform in [1e-3, 1e3], u = 0 or
    uniform in [-5, 5], and pumps at y = 0, at eps = +-1e-11 and +-1e-6 from
    threshold and uniform in both phases."""
    rng = np.random.default_rng(20261020)
    near = np.array([1e-11, 1e-6])
    live = 0
    for k in range(400):
        base = ModelParams(delta_c=-10.0 ** rng.uniform(-3.0, 3.0), kappa=0.0,
                           u=0.0 if k % 2 else rng.uniform(-5.0, 5.0), y=0.0)
        ratios = np.concatenate(([0.0], 1.0 - near, 1.0 + near,
                                 rng.uniform(0.05, 0.95, 8), rng.uniform(1.05, 3.0, 8)))
        mf = mean_field_batch(base, ratios * critical_pump(base))
        s = ground_state_batch(base, mf)[mf.errors.alive]
        assert (s == fluctuations._mirror(s)).all()
        live += len(s)
    assert live == 7860
