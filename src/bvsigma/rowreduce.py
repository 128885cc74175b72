"""Exact rational sparse row reduction and row-span comparison.

Every stored scalar is canonical (see ``symalg.exact``): an int when it is
integral, else a Fraction, as in every other sparse sum of the package.
A normalized basis row is stored through ``exact``, so later eliminations
and back-substitutions run int arithmetic wherever the entries are
integral.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

from .symalg import Rat, accumulate, exact

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
        lead = red[pivot]
        norm = {c: exact(Fraction(v, lead)) for c, v in red.items()}
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


def _direction(row: Row) -> Row:
    """The primitive integer multiple of a nonzero row of canonical scalars
    that is positive at its least column; a row that is one already is
    returned as it is."""
    vals = list(row.values())
    den = lcm(*[v.denominator for v in vals])
    if den != 1:
        vals = [v.numerator * (den // v.denominator) for v in vals]
    g = gcd(*vals)
    if row[min(row)] < 0:
        g = -g
    if g == 1 and den == 1:
        return row
    return dict(zip(row, [v // g for v in vals]))


class Directions:
    """The directions of a sequence of rows (see :func:`_direction`), each
    computed and hashed once: ``keyed`` holds (hash, direction) per row,
    None for a zero row, and ``buckets`` maps each hash to the distinct
    directions with it.  A comparison that reads each side once as rows
    and once as candidates of :func:`span_includes` builds one per side."""

    __slots__ = ("keyed", "buckets")

    def __init__(self, rows: Sequence[Row]):
        self.keyed: list[Optional[tuple[int, Row]]] = []
        self.buckets: dict[int, list[Row]] = {}
        for r in rows:
            if not r:
                self.keyed.append(None)
                continue
            d = _direction(r)
            key = hash(frozenset(d.items()))
            self.keyed.append((key, d))
            bucket = self.buckets.setdefault(key, [])
            if d not in bucket:
                bucket.append(d)


def span_includes(
    rows: Union[Sequence[Row], Directions], candidates: Union[Sequence[Row], Directions]
) -> Optional[int]:
    """Index of the first candidate outside span(rows), or None if included.

    Rows are bucketed by the hash of their direction and compared exactly
    within a bucket.  A zero candidate, or one whose direction is a row's,
    lies in the span with no elimination; the span itself is built, from
    one row per direction, only when some candidate is not matched, and
    only such candidates are reduced against it.  Either side may be given
    as its :class:`Directions`, taken once for several calls.
    """
    if not isinstance(rows, Directions):
        rows = Directions(rows)
    if not isinstance(candidates, Directions):
        candidates = Directions(candidates)
    buckets = rows.buckets
    span = None
    for i, kd in enumerate(candidates.keyed):
        if kd is None:
            continue
        key, d = kd
        if d in buckets.get(key, ()):
            continue
        if span is None:
            span = RowSpan()
            for bucket in buckets.values():
                for r in bucket:
                    span.add(r)
        if not span.contains(d):
            return i
    return None
