"""Exception types for the open Dicke model calculations.

Every failure mode that a caller may reasonably want to catch and map to a
status (for example in a parameter scan) gets its own class.  All of them
derive from :class:`OpenDickeError` so blanket handling stays easy.

:class:`RowErrors` keeps the first error of every row of a batched pump
scan; the scalar API runs batches of one and raises their row's error.
"""

from __future__ import annotations

import numpy as np


class OpenDickeError(Exception):
    """Base class for all errors raised by this package."""


class NoThreshold(OpenDickeError):
    """The pump has no critical value for these parameters (delta_c >= 0)."""


class DegenerateBranch(OpenDickeError):
    """Mean-field branch with 1 - 2*beta0**2 ~ 0; the expansion is singular."""


class NumericalFailure(OpenDickeError):
    """A numerical self-check failed beyond its tolerance."""


class DefectiveMatrix(OpenDickeError):
    """The stability matrix is (numerically) defective.

    Carries diagnostics so scans can report how close to defectiveness the
    point is.
    """

    def __init__(self, message: str, cond: float = float("nan"),
                 gap: float = float("nan"), overlap: float = float("nan")):
        super().__init__(message)
        self.cond = cond
        self.gap = gap
        self.overlap = overlap


class UnstableState(OpenDickeError):
    """A quasi-normal mode grows in time; no stationary state exists."""


class DivergentSteadyState(OpenDickeError):
    """The noise drives an undamped mode combination; moments diverge."""


class DynamicalInstability(OpenDickeError):
    """The closed-system spectrum is not purely oscillatory; no ground state."""


class CutoffTooSmall(OpenDickeError):
    """Fock-space results did not converge under a doubled cutoff."""


class InvalidCurve(OpenDickeError):
    """A curve handed to the exponent fit is unusable or cannot be fitted."""


class RowErrors:
    """First error of every row of a batch, in the order the checks run.

    ``alive`` marks the rows without an error and ``failed`` counts the
    others.  ``fail(mask, make)`` records ``make(i)`` for every still-alive
    row i in ``mask``, so a later check never overwrites an earlier one and
    each row keeps its first failing check.  Messages are built only for the
    rows that fail.
    """

    def __init__(self, n: int):
        self.alive = np.empty(n, dtype=bool)
        self.alive.fill(True)
        self.errors: list[OpenDickeError | None] = [None] * n
        self.failed = 0

    def fail(self, mask: np.ndarray, make) -> None:
        # A single row may hand in a bool scalar.
        if not (np.count_nonzero(mask) if np.ndim(mask) else mask):
            return
        hit = mask & self.alive
        for i in np.flatnonzero(hit):
            self.errors[i] = make(i)
            self.failed += 1
        self.alive &= ~hit

    def raise_first(self) -> None:
        """Raise the error of the first failed row, if any."""
        if not self.failed:
            return
        for err in self.errors:
            if err is not None:
                raise err

    def first_row(self, out):
        """Row 0 of every array of a batch of one's result, its error raised first."""
        self.raise_first()
        return tuple(map(self.first_row, out)) if isinstance(out, tuple) else out[0]


def one_row(batch, *rows):
    """``batch(*stacks, errors)`` on a batch of one, each of ``rows`` a stack
    of one: row 0 of the result, or the row's error raised."""
    errors = RowErrors(1)
    return errors.first_row(batch(*(np.asarray(row)[None] for row in rows), errors))
