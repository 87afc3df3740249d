"""Exception types for the open Dicke model calculations.

Every failure mode that a caller may reasonably want to catch gets its own
class.  All of them derive from :class:`OpenDickeError` so blanket handling
stays easy.  A class whose errors a scan records per row carries the row's
status-column label as its class attribute ``status``; the others have none
and propagate out of a scan.

:class:`RowErrors` records the first failure of every row of a batched pump
scan: its status label at once, its error and message only where the error is
raised or asked for.  Scans read only the labels; the scalar API runs batches
of one and raises their row's error.
"""

from __future__ import annotations

import numpy as np


class OpenDickeError(Exception):
    """Base class for all errors raised by this package."""

    status: str | None = None


class NoThreshold(OpenDickeError):
    """The pump has no critical value for these parameters (delta_c >= 0)."""


class DegenerateBranch(OpenDickeError):
    """Mean-field branch with 1 - 2*beta0**2 ~ 0; the expansion is singular."""
    status = "degenerate"


class NumericalFailure(OpenDickeError):
    """A numerical self-check failed beyond its tolerance."""
    status = "failed"


class DefectiveMatrix(OpenDickeError):
    """The stability matrix is (numerically) defective; ``cond``, ``gap``
    and ``overlap`` tell how close to defectiveness the point is."""
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
    """First failure of every row of a batch, in the order the checks run.

    ``alive`` marks the live rows, ``failed`` counts the others and
    ``status`` is the status column: "ok", or the ``status`` of the class a
    row failed with.  ``fail(mask, cls, make)`` fails every live row i with
    ``mask[i]`` set, so each row keeps its first failing check, and keeps
    ``pending[i]`` = (cls, make, i); :meth:`adopt` takes over a sub-batch's
    entries, which keep its index.  Only :meth:`error` and :meth:`raise_first`
    build an error, ``cls(make(i))``, or ``cls(*make(i))`` for a tuple, so a
    scan formats no message.
    """

    def __init__(self, n: int):
        self.alive = np.empty(n, dtype=bool)
        self.alive.fill(True)
        self.status = ["ok"] * n
        self.pending: dict[int, tuple] = {}
        self.failed = 0

    def fail(self, mask: np.ndarray, cls: type[OpenDickeError], make) -> None:
        # A single row may hand in a bool scalar.
        if not (np.count_nonzero(mask) if isinstance(mask, np.ndarray) else mask):
            return
        mask = mask.reshape(len(mask), -1).any(axis=1) if np.ndim(mask) > 1 else mask
        hit = (mask & self.alive).nonzero()[0].tolist()
        self._record(hit, [(cls, make, i) for i in hit])

    def adopt(self, rows: np.ndarray, sub: RowErrors) -> None:
        """Take over the failures of ``sub``, the errors of the live rows ``rows``."""
        self._record([rows.item(j) for j in sub.pending], sub.pending.values())

    def _record(self, hit: list, pending) -> None:
        self.failed += len(hit)
        for i, entry in zip(hit, pending):
            self.alive[i] = False
            self.status[i] = entry[0].status
            self.pending[i] = entry

    def error(self, i: int) -> OpenDickeError:
        """The error of the failed row i, built now."""
        cls, make, row = self.pending[i]
        made = make(row)
        return cls(*made) if isinstance(made, tuple) else cls(made)

    def raise_first(self) -> None:
        """Raise the error of the first failed row, if any."""
        if self.failed:
            raise self.error(min(self.pending))

    def first_row(self, out):
        """Row 0 of every array of a batch of one's result, its error raised first."""
        self.raise_first()
        return tuple(map(self.first_row, out)) if isinstance(out, tuple) else out[0]


def one_row(batch, *rows):
    """``batch(*stacks, errors)`` on a batch of one, each of ``rows`` a stack
    of one: row 0 of the result, or the row's error raised."""
    errors = RowErrors(1)
    return errors.first_row(batch(*(np.asarray(row)[None] for row in rows), errors))
