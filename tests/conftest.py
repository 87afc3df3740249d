"""Shared fixtures: canonical parameter points used across the test modules.

The package is imported from ``PYTHONPATH`` (or an installed copy) when one
is found, and from this checkout's ``src/`` otherwise, so that
``PYTHONPATH=<other checkout>/src python -m pytest`` tests that checkout.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

if importlib.util.find_spec("opendicke") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from opendicke.errors import RowErrors  # noqa: E402
from opendicke.model import MeanFieldBatch, ModelParams, critical_pump  # noqa: E402


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
    return MeanFieldBatch(y=params.y, alpha0=0j, beta0=0.0, mu=-0.5,
                          errors=RowErrors(1))
