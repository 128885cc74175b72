"""Degree bookkeeping and Koszul signs for graded variables.

Everything here is a pure function on immutable values; total degrees are
nonnegative integers and parity is degree mod 2 (odd parity = Grassmann odd).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

EVEN = 0
ODD = 1

BASE_BLOCK = "phi"


def parity(degree: int) -> int:
    """Parity of a total degree: 0 for even (commuting), 1 for odd."""
    if degree < 0:
        raise ValueError("total degrees are nonnegative, got %d" % degree)
    return degree & 1


class GradedVar(NamedTuple):
    """A declared coordinate of the target graded bundle.

    Sorting is (block, degree, index), which is the canonical variable
    order used for monomials throughout.  A named tuple, so that ordering,
    equality and hashing (the inner loop of every product) run as tuple
    operations.
    """

    block: str
    degree: int
    index: int

    @property
    def parity(self) -> int:
        return self.degree & 1

    def __str__(self) -> str:
        return "%s_%d" % (self.block, self.index)


def koszul_sign(before: Sequence[GradedVar], after: Sequence[GradedVar]) -> int:
    """Sign picked up reordering ``before`` into ``after``.

    Each transposition of two adjacent odd variables contributes -1; moves
    past even variables are free.  Raises ValueError unless ``after`` is a
    permutation of ``before``.  With repeated odd variables the sign is
    matching-dependent, but any monomial containing a repeated odd variable
    is zero, so the stable first-to-first matching used here is harmless.
    """
    if len(before) != len(after):
        raise ValueError("sequences are not permutations of each other")
    if sorted(before) != sorted(after):
        raise ValueError("sequences are not permutations of each other")
    # Map positions in `after` back to positions in `before`, stably.
    pool: dict[GradedVar, list[int]] = {}
    for pos, v in enumerate(before):
        pool.setdefault(v, []).append(pos)
    taken = {v: 0 for v in pool}
    mapped = []
    for v in after:
        mapped.append(pool[v][taken[v]])
        taken[v] += 1
    # Count inversions among odd variables only.
    odd_positions = [mapped[i] for i, v in enumerate(after) if v.parity == ODD]
    inversions = 0
    for i in range(len(odd_positions)):
        for j in range(i + 1, len(odd_positions)):
            if odd_positions[i] > odd_positions[j]:
                inversions += 1
    return -1 if inversions & 1 else 1


def sort_monomial(vars_: Sequence[GradedVar]) -> tuple[int, tuple[GradedVar, ...]]:
    """Canonically sort a product of graded variables.

    Returns (sign, sorted tuple).  Sign is 0 when the product vanishes
    because an odd variable appears twice.  Works on any items with an
    order and a ``parity`` (graded variables, worldsheet component fields).

    Input made of two ascending runs, such as a product of two canonical
    monomials, is merged by :func:`merge_monomials`; any other input is
    insertion sorted.  Both place equal items stably, so they agree on the
    sign.
    """
    items = list(vars_)
    n = len(items)
    k = 1
    while k < n and not items[k] < items[k - 1]:
        k += 1
    j = k + 1
    while j < n and not items[j] < items[j - 1]:
        j += 1
    if j >= n:
        sign, items = merge_monomials(items[:k], items[k:])
        if not sign:
            return 0, ()
    else:
        sign = _insertion_sort(items)
    for a, b in zip(items, items[1:]):
        if a == b and a.parity == ODD:
            return 0, ()
    return sign, tuple(items)


def merge_monomials(left: Sequence, right: Sequence) -> tuple[int, tuple]:
    """Product of two canonical monomials: (sign, canonical monomial).

    A stable merge of the two ascending runs; each odd item of ``right``
    that overtakes k odd items of ``left`` contributes (-1)^k.  Sign is 0
    when an odd item occurs in both.  Repeats inside one run are not looked
    for: a canonical monomial has none (``sort_monomial`` checks any other
    input itself).
    """
    if not left or not right or not right[0] < left[-1]:
        # Already in order; only the meeting items can repeat.
        if left and right and right[0] == left[-1] and right[0].parity:
            return 0, ()
        return 1, tuple(left) + tuple(right)
    out = []
    sign = 1
    odd_left = 0
    for u in left:
        if u.parity:
            odd_left += 1
    i, nl = 0, len(left)
    for v in right:
        while i < nl and not v < left[i]:
            u = left[i]
            if u.parity:
                if u == v:
                    return 0, ()
                odd_left -= 1
            out.append(u)
            i += 1
        if odd_left & 1 and v.parity:
            sign = -sign
        out.append(v)
    out.extend(left[i:])
    return sign, tuple(out)


def _insertion_sort(items: list) -> int:
    """Sort ``items`` in place; returns the sign of the odd-odd transpositions."""
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j] < items[j - 1]:
            if items[j].parity and items[j - 1].parity:
                sign = -sign
            items[j], items[j - 1] = items[j - 1], items[j]
            j -= 1
    return sign
