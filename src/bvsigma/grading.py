"""Degree bookkeeping and Koszul signs for graded variables.

Everything here is a pure function on immutable values; total degrees are
nonnegative integers and parity is degree mod 2 (odd parity = Grassmann odd).
:func:`sort_monomial` is the reference Koszul sign of the product kernels.
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


def permutation_sign(seq: Sequence) -> int:
    """(-1) to the number of inverted pairs of ``seq``: for distinct items,
    the sign of the permutation that sorts them.  The one permutation sign,
    of Koszul reorderings and of index antisymmetry alike."""
    inversions = sum(b < a for j, b in enumerate(seq) for a in seq[:j])
    return -1 if inversions & 1 else 1


def sort_monomial(vars_: Sequence[GradedVar]) -> tuple[int, tuple[GradedVar, ...]]:
    """Canonically sort a product of graded variables.

    Returns (sign, sorted tuple).  Sign is 0 when the product vanishes
    because an odd variable appears twice.  Works on any items with an
    order and a total ``degree``, such as the target's graded variables and
    the worldsheet's component fields (the reference for the worldsheet
    kernels in the tests).  A run in order is returned as it is, else the
    stable sort, signed by :func:`permutation_sign` of its odd items.
    """
    items = tuple(vars_)
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
    out = tuple(sorted(items))
    if any(u == v and v.degree & 1 for u, v in zip(out, out[1:])):
        return 0, ()
    return permutation_sign([v for v in items if v.degree & 1]), out
