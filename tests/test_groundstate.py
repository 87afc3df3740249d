"""Closed-system Bogoliubov ground state: frequencies, moments, instabilities."""

import numpy as np
import pytest

from conftest import at_ratio
from opendicke.basis import ETA
from opendicke.entanglement import quad_covariance
from opendicke.errors import DynamicalInstability
from opendicke.fluctuations import (build_stability_matrix, observables,
                                    steady_state_moments)
from opendicke.analysis import ScanKind, figure_scan
from opendicke.groundstate import bogoliubov_modes, ground_state_moments
from opendicke.model import (MeanField, ModelParams, Phase, critical_pump,
                             solve_mean_field)
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
    s_open = steady_state_moments(open_params, solve_mean_field(open_params)).s
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
    mf = MeanField(alpha0=0.0j, beta0=0.0, mu=-0.5, phase=Phase.NORMAL)
    with pytest.raises(DynamicalInstability):
        ground_state_moments(p, mf)


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
    # frequency, the photon and atom components of the eigenvectors tie in
    # modulus, and LAPACK fixes the phases of partner eigenvectors on
    # different components.  H is positive definite there.
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
