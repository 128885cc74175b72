"""Exact rational sparse row reduction and row-span comparison."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .symalg import Rat, accumulate

Row = dict[int, Rat]


def _eliminate(row: Row, basis: dict[int, Row]) -> Row:
    """Reduce ``row`` against a pivot->row basis of normalized rows.

    The basis is fully reduced (``RowSpan.add`` back-substitutes): each
    basis row is 1 at its own pivot and 0 at every other pivot.  Subtracting
    it clears its pivot in ``row`` and adds no entry in any other pivot
    column, so one pass over the pivot columns ``row`` starts with is enough.
    """
    row = dict(row)
    for pivot in [col for col in row if col in basis]:
        factor = row[pivot]
        for col, val in basis[pivot].items():
            accumulate(row, col, -factor * val)
    return row


class RowSpan:
    """Incremental row space over Q with exact arithmetic."""

    def __init__(self):
        self.basis: dict[int, Row] = {}

    def add(self, row: Row) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        red = _eliminate(row, self.basis)
        if not red:
            return False
        pivot = min(red)
        inv = Fraction(1) / red[pivot]
        norm = {c: v * inv for c, v in red.items()}
        self.basis[pivot] = norm
        # Back-substitute to keep the basis reduced.
        for p, r in list(self.basis.items()):
            if p == pivot:
                continue
            if pivot in r:
                factor = r[pivot]
                for c, v in norm.items():
                    accumulate(r, c, -factor * v)
        return True

    def contains(self, row: Row) -> bool:
        return not _eliminate(row, self.basis)

    @property
    def rank(self) -> int:
        return len(self.basis)


def span_includes(rows: Sequence[Row], candidates: Sequence[Row]) -> Optional[int]:
    """Index of the first candidate outside span(rows), or None if included."""
    span = RowSpan()
    for r in rows:
        span.add(r)
    for i, c in enumerate(candidates):
        if not span.contains(c):
            return i
    return None
