"""Row errors: a failed row gets its status label at once, and its error,
message included, is built only where it is raised or asked for.

Each case below makes one check fail and pins the raised error's class,
message and attributes at the values of the eagerly formatted messages
that came before; ``str``, ``repr``, ``args`` and pickling must read them
exactly.  A pump scan reads only the labels, so it builds no error.
"""

import pickle

import numpy as np
import pytest

from conftest import at_ratio, dead_row_params, normal_branch
from opendicke import model
from opendicke.analysis import ScanKind, figure_scan
from opendicke.entanglement import log_negativity, quad_covariance
from opendicke.errors import (DefectiveMatrix, DegenerateBranch,
                              DivergentSteadyState, DynamicalInstability,
                              NumericalFailure, OpenDickeError, RowErrors,
                              UnstableState)
from opendicke.fluctuations import (SecondMoments, StabilityMatrix,
                                    build_stability_matrix, decompose,
                                    mode_correlations, observables,
                                    stability_batch, steady_state_moments)
from opendicke.groundstate import (bogoliubov_modes, ground_state_batch,
                                   ground_state_moments)
from opendicke.model import ModelParams, solve_mean_field

OPEN = ModelParams(delta_c=-2.0, kappa=2.0, u=0.0, y=0.0)
CLOSED = ModelParams(delta_c=-2.0, kappa=0.0, u=0.0, y=0.0)
# Two sets of the benchmark's wide sweep on its 25 pump ratios: a weakly
# damped one that fails divergent, adjoint symmetry, commutator and
# beta0^2 rows, and one whose superradiant branch does not exist.
WEAK = ModelParams(delta_c=-0.00018100325654284057, kappa=0.0002609879594426574,
                   u=-0.10565501873962102, y=0.0)
NO_BRANCH = ModelParams(delta_c=-0.00213051866487697, kappa=28.731869544362862,
                        u=-1.4256638770845873, y=0.0)
RATIOS = np.linspace(0.05, 2.0, 25)


def _steady(params: ModelParams, ratio: float):
    return observables(steady_state_moments(at_ratio(params, ratio)))


def _residual(monkeypatch):
    # The residuals of a valid mean field sit near 1e-16 of their terms.
    monkeypatch.setattr(model, "RESIDUAL_TOL", 1e-20)
    solve_mean_field(at_ratio(ModelParams(delta_c=-2.0, kappa=2.0, u=0.5, y=0.0),
                              2.0))


def _biorthonormality(monkeypatch):
    # cond(V) of 3.8e6 passes the defect screen, but the inverse leaves a
    # residual above 1e-10.
    rng = np.random.default_rng(3)
    for _ in range(3):
        v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        v[:, 1] = v[:, 0] + 10 ** rng.uniform(-7, -5) * v[:, 1]
    lam = np.array([-1 - 1j, -1 + 1j, -2 - 3j, -2 + 3j])
    decompose(StabilityMatrix(m=v @ np.diag(lam) @ np.linalg.inv(v), params=OPEN))


def _unstable(monkeypatch):
    # The normal branch above threshold, where the solver takes the other.
    p = at_ratio(OPEN, 1.2)
    mode_correlations(decompose(StabilityMatrix(
        m=stability_batch(p, normal_branch(p))[0], params=p)))


def _ground_state_instability(monkeypatch):
    p = at_ratio(CLOSED, 1.2)
    mf = normal_branch(p)
    ground_state_batch(p, mf)
    mf.errors.raise_first()


def _occupation():
    s = np.zeros((4, 4), dtype=complex)
    s[0, 1] = s[2, 3] = 1.0
    s[1, 0] = 0.001j
    return SecondMoments(s=s)


# name: (failing call, class, message, attributes).
CASES = {
    "missing branch (radicand)": (
        lambda mp: _steady(NO_BRANCH, RATIOS[12]), NumericalFailure,
        "superradiant branch undefined: radicand -31.24412743147093 < 0", {}),
    "missing branch (beta0^2)": (
        lambda mp: _steady(WEAK, RATIOS[12]), NumericalFailure,
        "beta0^2 = -0.0001293798154287114 outside (0, 1) for y = "
        "0.024197835593800655", {}),
    "degenerate branch": (
        lambda mp: build_stability_matrix(at_ratio(OPEN, 1e7)), DegenerateBranch,
        "1 - 2 beta0^2 = 9.880984919163893e-15; chemical potential singular", {}),
    "mean-field residual": (
        _residual, NumericalFailure,
        "mean-field residuals (2.220e-16, 3.331e-16) exceed 1e-20 times "
        "max(1, size of their terms) (3.812e+00, 1.426e+00)", {}),
    "defective": (
        lambda mp: steady_state_moments(OPEN.with_pump(1.9368167091351347)),
        DefectiveMatrix,
        "(near-)defective stability matrix: cond(V) = 7.583e+07, closest "
        "eigenvalue gap 5.661e-08 with overlap 1.0000000000",
        {"cond": 75832418.6266927, "gap": 5.661306642426651e-08,
         "overlap": 0.999999999999999}),
    "biorthonormality": (
        _biorthonormality, DefectiveMatrix,
        "biorthonormalization residual 2.487e-10 exceeds 1e-10; matrix too "
        "close to defective",
        {"cond": 3841602.9472515597, "gap": float("inf"), "overlap": 0.0}),
    "pairing": (
        lambda mp: decompose(StabilityMatrix(m=np.diag([1j, 2j, 3j, 4j]),
                                             params=OPEN)),
        NumericalFailure,
        "eigenvalue np.complex128(1j) has no conjugate partner (closest miss "
        "2.000e+00)", {}),
    "unstable": (
        _unstable, UnstableState,
        "growing quasi-normal modes, Re lambda = array([0.41459614])", {}),
    "divergent": (
        lambda mp: _steady(WEAK, RATIOS[0]), DivergentSteadyState,
        "undamped noise-driven mode pairs [(2, 3), (3, 2)]: steady-state "
        "moments diverge", {}),
    "adjoint symmetry": (
        lambda mp: _steady(WEAK, RATIOS[2]), NumericalFailure,
        "moment matrix violates adjoint symmetry by 2.581e-01 (tolerance "
        "0.00138184)", {}),
    "commutator": (
        lambda mp: _steady(WEAK, RATIOS[3]), NumericalFailure,
        "commutator [R_2, R_3] = (1.000064804226895-6.994708987644425e-11j) "
        "deviates from 1 beyond 1e-08", {}),
    "observables": (
        lambda mp: observables(_occupation()), NumericalFailure,
        "<R_1 R_0> = 0.001j has imaginary residue beyond 1e-10", {}),
    "covariance": (
        lambda mp: quad_covariance(SecondMoments(s=np.zeros((4, 4), dtype=complex))),
        NumericalFailure,
        "unphysical covariance: min symplectic eigenvalue np.float64(0.0) < 1/2",
        {}),
    "log-negativity": (
        lambda mp: log_negativity(np.zeros((4, 4))), NumericalFailure,
        "nu_minus = 0; covariance is singular", {}),
    "ground-state instability": (
        _ground_state_instability, DynamicalInstability,
        "quadrature Hamiltonian G has eigenvalue -2.692e-01 <= 0: not positive "
        "definite, no stable ground state", {}),
}


@pytest.mark.parametrize("name", CASES)
def test_message_reads_as_formatted_text(name, monkeypatch):
    call, cls, message, attributes = CASES[name]
    with pytest.raises(OpenDickeError) as info:
        call(monkeypatch)
    err = info.value
    assert type(err) is cls
    assert vars(err) == attributes
    assert repr(err) == f"{cls.__name__}({message!r})"
    assert str(err) == message
    assert err.args == (message,)
    assert {a: getattr(err, a) for a in attributes} == attributes
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is cls and copy.args == (message,)


def test_message_is_formatted_only_when_the_error_is_built():
    calls = []
    errors = RowErrors(3)
    errors.fail(np.array([False, True, True]), NumericalFailure,
                lambda i: calls.append(i) or f"row {i}")
    assert not calls and errors.status == ["ok", "failed", "failed"]
    err = errors.error(2)
    assert f"{err}" == "row 2" and str(err) == "row 2" and err.args == ("row 2",)
    assert calls == [2] and 0 not in errors.pending
    with pytest.raises(NumericalFailure, match="^row 1$"):
        errors.raise_first()
    assert calls == [2, 1]


def _built(errors: RowErrors, i: int) -> str:
    err = errors.error(i)
    return repr((type(err), err.args, vars(err)))


# Scalar points whose mean field fails its residual check and its degenerate
# check.
RESIDUAL_POINT = ModelParams(delta_c=-1.0660805150031624e-05, kappa=4123.7619063772345,
                             u=2.581841834827432e-13, y=0.0)
DEGENERATE_POINT = ModelParams(delta_c=-714.584262713347, kappa=0.0,
                               u=-1.832388072738821e-10, y=0.0)


def test_messages_read_the_values_of_their_failure(monkeypatch):
    """A maker reads only values that stay as they were at ``fail``: every
    message of the scans and scalar routes below, built at once when its row
    fails, is built alike after the call.  The scans cover the rows without
    a branch, the degenerate and residual rows at huge pumps, and grids
    through threshold, at kappa > 0 and kappa = 0."""
    real = RowErrors.fail
    made = []

    def fail(self, mask, cls, make):
        before = set(self.pending)
        real(self, mask, cls, make)
        made.extend((self, i, _built(self, i)) for i in sorted(self.pending.keys() - before))

    monkeypatch.setattr(RowErrors, "fail", fail)
    scans = []
    for kappa in (0.0, 28.73):
        base = dead_row_params(kappa)
        scans.append((base, np.linspace(0.0, 2.0 * model.critical_pump(base), 600)))
    for kappa in (0.0, 1e-3):
        base = ModelParams(delta_c=-1e-3, kappa=kappa, u=0.0, y=0.0)
        scans.append((base, np.geomspace(1e140, 1e170, 31) * model.critical_pump(base)))
    for base in (OPEN, CLOSED):
        scans.append((base, np.linspace(0.0, 2.0 * model.critical_pump(base), 9)))
    statuses = set()
    for base, grid in scans:
        for kind in (ScanKind.MEAN_FIELD, ScanKind.MEAN_AND_FLUCT, ScanKind.ENTANGLEMENT):
            statuses.update(row[-1] for row in figure_scan(kind, base, grid).rows)
    for base, ratio in ((RESIDUAL_POINT, 151.99111796745476), (DEGENERATE_POINT, 1e6)):
        p = at_ratio(base, ratio)
        for route in (solve_mean_field, build_stability_matrix, steady_state_moments,
                      ground_state_moments, bogoliubov_modes):
            with pytest.raises((DegenerateBranch, NumericalFailure, ValueError)):
                route(p)
    assert statuses == {"ok", "failed", "degenerate", "divergent", "unstable"}
    assert {type(errors.error(i)) for errors, i, _ in made} == {
        NumericalFailure, DegenerateBranch, DivergentSteadyState, DynamicalInstability}
    assert [message for _, _, message in made] == [_built(errors, i) for errors, i, _ in made]


def test_adopted_failures_keep_their_rows():
    """A sub-batch of rows 1 and 3 hands its failures back: the status lands
    on the batch's row, and the message is made with the sub-batch's index."""
    errors = RowErrors(4)
    sub = RowErrors(2)
    sub.fail(np.array([False, True]), DivergentSteadyState, lambda i: f"sub row {i}")
    errors.adopt(np.array([1, 3]), sub)
    assert errors.alive.tolist() == [True, True, True, False]
    assert errors.status == ["ok", "ok", "ok", "divergent"] and errors.failed == 1
    assert repr(errors.error(3)) == "DivergentSteadyState('sub row 1')"
    # A later check does not overwrite an adopted failure.
    errors.fail(np.ones(4, bool), NumericalFailure, lambda i: "later")
    assert errors.status == ["failed", "failed", "failed", "divergent"]


def test_scans_format_no_message(monkeypatch):
    """Failing sweep sets, and the degenerate branch at 1e7 y_c, build no
    error: their rows carry only the status labels."""
    made = []

    def record(self, *args):
        made.append(self)
        Exception.__init__(self, *args)

    monkeypatch.setattr(OpenDickeError, "__init__", record)
    failed = []
    for params in (WEAK, NO_BRANCH):
        grid = RATIOS * model.critical_pump(params)
        for kind in (ScanKind.MEAN_AND_FLUCT, ScanKind.ENTANGLEMENT):
            statuses = [row[-1] for row in figure_scan(kind, params, grid).rows]
            assert statuses.count("ok") < len(statuses)
            failed += [status for status in statuses if status != "ok"]
    assert len(failed) == 2 * (25 + 13)
    assert set(failed) == {"divergent", "failed"}
    assert made == []
    for params in (OPEN, CLOSED):
        grid = np.array([0.5, 1e7]) * model.critical_pump(params)
        for kind in (ScanKind.MEAN_FIELD, ScanKind.MEAN_AND_FLUCT,
                     ScanKind.ENTANGLEMENT):
            statuses = [row[-1] for row in figure_scan(kind, params, grid).rows]
            assert statuses == ["ok", "degenerate"]
    assert made == []


def test_a_scan_with_a_defective_row_takes_one_svd(monkeypatch):
    """The defective row at 1.9368 costs the cond(V) screen's SVD and no
    second one for the diagnostics of an error that no scan reads."""
    real = np.linalg.cond
    calls = []

    def cond(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", cond)
    rows = figure_scan(ScanKind.MEAN_AND_FLUCT, OPEN,
                       [0.5, 1.9368167091351347, 3.0]).rows
    assert [row[-1] for row in rows] == ["ok", "defective", "ok"]
    assert len(calls) == 1
