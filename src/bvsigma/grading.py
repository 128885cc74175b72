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


def sort_monomial(vars_: Sequence[GradedVar]) -> tuple[int, tuple[GradedVar, ...]]:
    """Canonically sort a product of graded variables.

    Returns (sign, sorted tuple).  Sign is 0 when the product vanishes
    because an odd variable appears twice.  Works on any items with an
    order and a ``parity``: its two users are the target's graded
    variables and the worldsheet's component fields (``worldsheet``
    derivations sort a monomial with one generator replaced).  A fold of
    :func:`merge_monomials`, one item at a time.
    """
    sign, out = 1, ()
    for v in vars_:
        s, out = merge_monomials(out, (v,))
        if not s:
            return 0, ()
        sign *= s
    return sign, out


def merge_monomials(left: Sequence, right: Sequence) -> tuple[int, tuple]:
    """Product of two canonical monomials: (sign, canonical monomial).

    A stable merge of the two ascending runs; each odd item of ``right``
    that overtakes k odd items of ``left`` contributes (-1)^k.  Sign is 0
    when an odd item occurs in both.  Repeats inside one run are not looked
    for: a canonical monomial has none.  The one place a Koszul sign is
    computed; its three users are ``symalg.Expr`` products of graded
    variables, ``worldsheet.DgaExpr`` products of component fields and
    :func:`sort_monomial`, which folds it over one item at a time.
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

