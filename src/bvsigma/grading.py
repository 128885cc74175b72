"""Degree bookkeeping and Koszul signs for graded variables.

Everything here is a pure function on immutable values; total degrees are
nonnegative integers and parity is degree mod 2 (odd parity = Grassmann odd).
"""

from __future__ import annotations

from typing import Sequence

BASE_BLOCK = "phi"


class GradedVar(int):
    """A declared coordinate of the target graded bundle, as a small int.

    Numbered once per variable by :class:`bvsigma.models.ModelSpec`: the
    value is 2 * (position in the spec's canonical (block, degree, index)
    order) + parity, so int order is canonical order, ``v & 1`` is the
    parity, and comparing and hashing (the inner loop of every product) are
    int operations.  Two specs' codes coincide, so ``Expr.var`` scopes a
    variable to ``scope``, its spec's fingerprint.
    """

    def __new__(cls, position: int, block: str, degree: int, index: int, scope: str):
        self = super().__new__(cls, 2 * position + (degree & 1))
        self.block, self.degree, self.index, self.scope = block, degree, index, scope
        return self

    @property
    def parity(self) -> int:
        return self & 1

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return int(self) >> 1, self.block, self.degree, self.index, self.scope

    def __repr__(self) -> str:
        return "GradedVar(%s=%d)" % (self, int(self))

    def __str__(self) -> str:
        return "%s_%d" % (self.block, self.index)


def sort_monomial(vars_: Sequence[GradedVar]) -> tuple[int, tuple[GradedVar, ...]]:
    """Canonically sort a product of graded variables.

    Returns (sign, sorted tuple).  Sign is 0 when the product vanishes
    because an odd variable appears twice.  Works on any items with an
    order and a total ``degree``, such as the target's graded variables and
    the worldsheet's component fields (the reference for the worldsheet
    kernels in the tests).  A merge sort on :func:`merge_monomials` (see
    :func:`_sort_run`).
    """
    return _sort_run(tuple(vars_))


def _sort_run(items: tuple) -> tuple[int, tuple]:
    """:func:`sort_monomial` of a tuple.  A run already in order is
    returned as it is, sign 1 (0 on an odd repeat); otherwise each half is
    sorted by this helper and the two are merged by
    :func:`merge_monomials`, which gives every sign."""
    prev = None
    for v in items:
        if prev is not None:
            if v < prev:
                break
            if v == prev and v.degree & 1:
                return 0, ()
        prev = v
    else:
        return 1, items
    mid = len(items) // 2
    s1, left = _sort_run(items[:mid])
    s2, right = _sort_run(items[mid:]) if s1 else (0, ())
    if not s2:
        return 0, ()
    s, out = merge_monomials(left, right)
    return s1 * s2 * s, out


def merge_monomials(left: Sequence, right: Sequence) -> tuple[int, tuple]:
    """Product of two canonical monomials: (sign, canonical monomial).

    A stable merge of the two ascending runs; each odd item of ``right``
    that overtakes k odd items of ``left`` contributes (-1)^k.  Sign is 0
    when an odd item occurs in both.  Repeats inside one run are not looked
    for: a canonical monomial has none.  The reference Koszul sign; its
    user is :func:`sort_monomial`, which merges sorted halves with it, and
    the ``symalg`` and ``worldsheet`` product kernels read the same sign off
    int codes (of :class:`GradedVar`, and of a worldsheet generator table)
    as a bitmask.  Works on any items with an order and a total ``degree``;
    an item is odd when ``degree & 1`` is.
    """
    if not left or not right or not right[0] < left[-1]:
        # Already in order; only the meeting items can repeat.
        if left and right and right[0] == left[-1] and right[0].degree & 1:
            return 0, ()
        return 1, tuple(left) + tuple(right)
    out = []
    sign = 1
    odd_left = 0
    for u in left:
        if u.degree & 1:
            odd_left += 1
    i, nl = 0, len(left)
    for v in right:
        while i < nl and not v < left[i]:
            u = left[i]
            if u.degree & 1:
                if u == v:
                    return 0, ()
                odd_left -= 1
            out.append(u)
            i += 1
        if odd_left & 1 and v.degree & 1:
            sign = -sign
        out.append(v)
    out.extend(left[i:])
    return sign, tuple(out)

