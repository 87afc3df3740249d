"""Exception types for the open Dicke model calculations.

Every failure mode that a caller may reasonably want to catch gets its own
class.  All of them derive from :class:`OpenDickeError` so blanket handling
stays easy.  A class whose errors a scan records per row carries the row's
status-column label as its class attribute ``status``; the others have none
and propagate out of a scan.

:class:`RowErrors` keeps the first error of every row of a batched pump
scan; the scalar API runs batches of one and raises their row's error.
Scans read only the class, so the batches hand in each message as a
callable, formatted when ``str``, ``repr``, ``args`` or pickling reads it.
"""

from __future__ import annotations

import numpy as np


class OpenDickeError(Exception):
    """Base class for all errors raised by this package."""

    status: str | None = None

    def _formatted(self) -> OpenDickeError:
        args = BaseException.args.__get__(self)
        if len(args) == 1 and callable(args[0]):
            BaseException.args.__set__(self, (args[0](),))
        return self

    args = property(lambda self: BaseException.args.__get__(self._formatted()),
                    BaseException.args.__set__)

    def __str__(self):
        return BaseException.__str__(self._formatted())

    def __repr__(self):
        return BaseException.__repr__(self._formatted())

    def __reduce__(self):
        return BaseException.__reduce__(self._formatted())


class NoThreshold(OpenDickeError):
    """The pump has no critical value for these parameters (delta_c >= 0)."""


class DegenerateBranch(OpenDickeError):
    """Mean-field branch with 1 - 2*beta0**2 ~ 0; the expansion is singular."""
    status = "degenerate"


class NumericalFailure(OpenDickeError):
    """A numerical self-check failed beyond its tolerance."""
    status = "failed"


class DefectiveMatrix(OpenDickeError):
    """The stability matrix is (numerically) defective.

    Carries diagnostics so scans can report how close to defectiveness the
    point is.
    """
    status = "defective"

    def __init__(self, message: str, cond: float = float("nan"),
                 gap: float = float("nan"), overlap: float = float("nan")):
        super().__init__(message)
        self.cond = cond
        self.gap = gap
        self.overlap = overlap


class UnstableState(OpenDickeError):
    """A quasi-normal mode grows in time; no stationary state exists."""
    status = "unstable"


class DivergentSteadyState(OpenDickeError):
    """The noise drives an undamped mode combination; moments diverge."""
    status = "divergent"


class DynamicalInstability(OpenDickeError):
    """The closed-system spectrum is not purely oscillatory; no ground state."""
    status = "unstable"


class CutoffTooSmall(OpenDickeError):
    """Fock-space results did not converge under a doubled cutoff."""


class InvalidCurve(OpenDickeError):
    """A curve handed to the exponent fit is unusable or cannot be fitted."""


class RowErrors:
    """First error of every row of a batch, in the order the checks run.

    ``alive`` marks the rows without an error and ``failed`` counts the
    others.  ``fail(mask, make)`` records ``make(i)`` for every still-alive
    row i with a flag set in ``mask[i]``, so a later check never overwrites
    an earlier one and each row keeps its first failing check.  Errors are
    built only for the rows that fail, and their messages only when read.
    """

    def __init__(self, n: int):
        self.alive = np.empty(n, dtype=bool)
        self.alive.fill(True)
        self.errors: list[OpenDickeError | None] = [None] * n
        self.failed = 0

    def fail(self, mask: np.ndarray, make) -> None:
        # A single row may hand in a bool scalar.
        if not (np.count_nonzero(mask) if isinstance(mask, np.ndarray) else mask):
            return
        mask = mask.reshape(len(mask), -1).any(axis=1) if np.ndim(mask) > 1 else mask
        hit = (mask & self.alive).nonzero()[0]
        self.alive[hit] = False
        for i in hit.tolist():
            self.errors[i] = make(i)
        self.failed += hit.size

    def raise_first(self) -> None:
        """Raise the error of the first failed row, if any."""
        if self.failed:
            raise next(err for err in self.errors if err is not None)

    def first_row(self, out):
        """Row 0 of every array of a batch of one's result, its error raised first."""
        self.raise_first()
        return tuple(map(self.first_row, out)) if isinstance(out, tuple) else out[0]


def one_row(batch, *rows):
    """``batch(*stacks, errors)`` on a batch of one, each of ``rows`` a stack
    of one: row 0 of the result, or the row's error raised."""
    errors = RowErrors(1)
    return errors.first_row(batch(*(np.asarray(row)[None] for row in rows), errors))
