"""Shared fixtures: canonical parameter points used across the test modules,
and the CPU-count pin and thread counter of the threaded-scan tests.

The package is imported from ``PYTHONPATH`` (or an installed copy) when one
is found, and from this checkout's ``src/`` otherwise, so that
``PYTHONPATH=<other checkout>/src python -m pytest`` tests that checkout.
"""

import importlib.util
import sys
import threading
from pathlib import Path

import pytest

if importlib.util.find_spec("opendicke") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from opendicke import fluctuations  # noqa: E402
from opendicke.errors import RowErrors  # noqa: E402
from opendicke.model import (MeanFieldBatch, ModelParams, critical_pump,  # noqa: E402
                             normal_phase)


@pytest.fixture
def open_params() -> ModelParams:
    """Lossy-cavity reference point (y left at 0; set via with_pump)."""
    return ModelParams(delta_c=-2.0, kappa=2.0, u=0.0, y=0.0)


@pytest.fixture
def closed_params() -> ModelParams:
    """Closed-system reference point."""
    return ModelParams(delta_c=-2.0, kappa=0.0, u=0.0, y=0.0)


def at_ratio(params: ModelParams, ratio: float) -> ModelParams:
    """Params with the pump set to ratio * y_c."""
    return params.with_pump(ratio * critical_pump(params))


def normal_branch(params: ModelParams) -> MeanFieldBatch:
    """The normal-phase mean field at ``params.y`` as a batch of one, also
    above threshold, where the solver takes the superradiant branch."""
    return normal_phase(params, RowErrors(1))


def dead_row_params(kappa: float) -> ModelParams:
    """A point whose superradiant rows have no branch (u < 0): on a grid
    over [0, 2 y_c] the rows above y_c fail in the mean field."""
    return ModelParams(delta_c=-0.0021305, kappa=kappa, u=-1.4257, y=0.0)


# The spectrum and a kappa > 0 steady-state grid of more than one batch run
# their batches on one thread per usable CPU, the calling thread included
# (fluctuations._map_batches); tests pin the CPU count so that they run the
# same on any machine.

def pin_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(fluctuations.os, "sched_getaffinity",
                        lambda pid: set(range(n)))


def count_thread_starts(monkeypatch) -> list:
    """The threads started from now on, in a list that fills as they start."""
    started = []
    real = threading.Thread.start

    def start(self):
        started.append(self)
        real(self)
    monkeypatch.setattr(threading.Thread, "start", start)
    return started
