"""Model specifications and the generic deformation action.

A ModelSpec fixes the base dimension, the graded bundle blocks and their
ranks, and decides once which blocks are conjugate: the Darboux pairs and
the optional self-paired block that the antibracket, the BV Laplacian and
the kinetic action all sum over.  ``build_S1_generic`` enumerates the most
general degree-n deformation ansatz with one coefficient symbol family per
graded monomial class.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod
from typing import NamedTuple, Optional, Sequence

from .grading import BASE_BLOCK, GradedVar, sort_monomial
from .rowreduce import RowSpan
from .symalg import (
    ANTISYM,
    SYM,
    LOWER,
    UPPER,
    CPoly,
    CoeffSymbol,
    Expr,
    MissingSymbolError,
    SymGroup,
    make_symbol,
)

BF = "bf"
CS_BF = "cs_bf"


class ModelError(ValueError):
    """Raised for inconsistent model specifications; ``field`` names the
    input at fault: "n", "d", "flavor", "cs", "k" or a block's position."""

    def __init__(self, message: str, field=None):
        super().__init__(message)
        self.field = field


Matrix = tuple[tuple[Fraction, ...], ...]


class BfBlock(NamedTuple):
    p: int
    rank: int


class CsBlock(NamedTuple):
    rank: int
    metric: Matrix  # k^{ab}, symmetric with nonzero determinant


class DarbouxPair(NamedTuple):
    """Conjugate blocks (A_p, B_{n-p-1}); p=0 is the (phi, B_{n-1}) pair."""

    a_block: str
    b_block: str
    p: int
    rank: int


class SelfPair(NamedTuple):
    """The block A_{(n-1)/2} paired with itself through the metric k."""

    block: str
    rank: int
    metric: Matrix


class BlockInfo(NamedTuple):
    label: str
    degree: int
    rank: int


class _SpecFields(NamedTuple):
    n: int
    d: int
    flavor: str = BF
    bf_blocks: tuple[BfBlock, ...] = ()
    cs_block: Optional[CsBlock] = None


class ModelSpec(_SpecFields):
    """Dimensions, bundle ranks and flavor of one sigma-model target.

    A named tuple of its five fields, validated on construction.
    ``pairs`` holds the Darboux pairs in p order, p=0 first, and
    ``self_pairs`` the self-paired block, if any: the one statement of
    which blocks are conjugate; ``vars_of`` reads its variable table.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 1:
            raise ModelError("n must be >= 1, got %d" % self.n, "n")
        if self.d < 1:
            raise ModelError("d must be >= 1, got %d" % self.d, "d")
        if self.flavor not in (BF, CS_BF):
            raise ModelError("unknown flavor %r" % self.flavor, "flavor")
        if self.flavor == BF and self.cs_block is not None:
            raise ModelError("bf flavor does not take a cs block", "cs")
        if self.flavor == CS_BF:
            if self.n % 2 == 0:
                where = "flavor" if self.cs_block is None else "cs"
                raise ModelError("cs block requires odd n, got n=%d" % self.n, where)
            if self.cs_block is None:
                raise ModelError("cs_bf flavor requires a cs block", "flavor")
        pmax = (self.n - 3) // 2 if self.flavor == CS_BF else (self.n - 1) // 2
        seen = set()
        for i, blk in enumerate(self.bf_blocks):
            if not 1 <= blk.p <= pmax:
                message = "block degree p=%d out of range 1..%d for n=%d (%s)"
                raise ModelError(message % (blk.p, pmax, self.n, self.flavor), i)
            if blk.p in seen:
                raise ModelError("duplicate block degree p=%d" % blk.p, i)
            if blk.rank < 1:
                raise ModelError("block rank must be >= 1", i)
            seen.add(blk.p)
        if self.cs_block is not None:
            k = self.cs_block.metric
            r = self.cs_block.rank
            if len(k) != r or any(len(row) != r for row in k):
                raise ModelError("metric k must be %dx%d" % (r, r), "k")
            if any(k[a][b] != k[b][a] for a in range(r) for b in range(r)):
                raise ModelError("metric k must be symmetric", "k")
            span = RowSpan()
            for row in k:
                span.add({b: x for b, x in enumerate(row) if x})
            if span.rank < r:
                raise ModelError("metric k must be nondegenerate", "k")
        # The conjugate pairs, p=0 first, and the label -> block table, in
        # blocks() order.  Set once here as instance attributes, not tuple
        # fields, so equality, hash, repr and fingerprint ignore them.
        n, q = self.n, self.cs_degree
        pairs = [DarbouxPair(BASE_BLOCK, "B%d" % (n - 1), 0, self.d)]
        for blk in sorted(self.bf_blocks, key=lambda b: b.p):
            pairs.append(DarbouxPair("A%d" % blk.p, "B%d" % (n - blk.p - 1), blk.p, blk.rank))
        self_pairs = []
        if self.cs_block is not None:
            self_pairs.append(SelfPair("A%d" % q, self.cs_block.rank, self.cs_block.metric))
        table = []
        for pair in pairs:
            table.append(BlockInfo(pair.a_block, pair.p, pair.rank))
            table.append(BlockInfo(pair.b_block, n - pair.p - 1, pair.rank))
        table.extend(BlockInfo(sp.block, q, sp.rank) for sp in self_pairs)
        self.pairs = tuple(pairs)
        self.self_pairs = tuple(self_pairs)
        self._blocks = {b.label: b for b in table}
        self._vars = {b.label: [] for b in table}
        scope = self.fingerprint()
        order = sorted((b.label, b.degree, i) for b in table for i in range(1, b.rank + 1))
        for pos, (label, degree, i) in enumerate(order):
            self._vars[label].append(GradedVar(pos, label, degree, i, scope))
        return self

    @classmethod
    def _make(cls, iterable) -> "ModelSpec":
        """Build through :meth:`__new__`, so ``_replace`` validates too."""
        return cls(*iterable)

    # -- block geometry -----------------------------------------------------
    @property
    def cs_degree(self) -> int:
        return (self.n - 1) // 2

    def blocks(self) -> list[BlockInfo]:
        """All variable blocks: base, Darboux fibers, optional self block."""
        return list(self._blocks.values())

    def fiber_blocks(self) -> list[BlockInfo]:
        return [b for b in self._blocks.values() if b.label != BASE_BLOCK]

    def block(self, label: str) -> BlockInfo:
        try:
            return self._blocks[label]
        except KeyError:
            raise ModelError("unknown block %r" % label) from None

    def vars_of(self, label: str) -> list[GradedVar]:
        return list(self._vars[self.block(label).label])

    def fiber_vars(self) -> list[GradedVar]:
        return sorted(v for b in self.fiber_blocks() for v in self._vars[b.label])

    def fingerprint(self) -> str:
        bits = ["n=%d" % self.n, "d=%d" % self.d, self.flavor]
        for blk in sorted(self.bf_blocks, key=lambda b: b.p):
            bits.append("p%dr%d" % (blk.p, blk.rank))
        if self.cs_block is not None:
            bits.append("cs r%d" % self.cs_block.rank)
        return ";".join(bits)


class Action(NamedTuple):
    """A BV action: target-level expression plus its declared total degree."""

    expr: Expr
    total_degree: int


# -- generic deformation ansatz ----------------------------------------------


class FamilyDecl(NamedTuple):
    """One coefficient-symbol family of the deformation ansatz.

    Lower slots are indexed by the A-type factors, upper slots by the
    B-type factors, both in canonical factor order.  ``groups`` records the
    (anti)symmetry induced by identical graded factors.
    """

    name: str
    lower_blocks: tuple[str, ...]
    upper_blocks: tuple[str, ...]
    groups: tuple[SymGroup, ...]
    factor_blocks: tuple[str, ...]

    def slot_ranges(self, spec: ModelSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
        lo = tuple(spec.block(b).rank for b in self.lower_blocks)
        up = tuple(spec.block(b).rank for b in self.upper_blocks)
        return lo, up


def ansatz_families(spec: ModelSpec) -> list[FamilyDecl]:
    """Monomial classes of total degree n, one symbol family each.

    Classes are ordered by (factor count, block labels) which reproduces the
    conventional f1..f6 numbering for the n=3 two-block model.
    """
    positive = sorted((b for b in spec.fiber_blocks() if b.degree > 0), key=lambda b: b.label)
    classes: list[tuple[str, ...]] = []

    def rec(start: int, remaining: int, acc: list[str]):
        if remaining == 0:
            classes.append(tuple(acc))
            return
        for i in range(start, len(positive)):
            b = positive[i]
            if b.degree <= remaining:
                acc.append(b.label)
                rec(i, remaining - b.degree, acc)
                acc.pop()

    rec(0, spec.n, [])
    classes.sort(key=lambda c: (len(c), c))
    out: list[FamilyDecl] = []
    for idx, combo in enumerate(classes, start=1):
        lower: list[str] = []
        upper: list[str] = []
        for lbl in combo:
            (lower if lbl.startswith("A") else upper).append(lbl)
        groups: list[SymGroup] = []
        for variance, blocks in ((LOWER, lower), (UPPER, upper)):
            pos = 0
            for lbl, grp in itertools.groupby(blocks):
                size = len(list(grp))
                if size > 1:
                    kind = ANTISYM if spec.block(lbl).degree % 2 else SYM
                    groups.append(SymGroup(kind, variance, tuple(range(pos, pos + size))))
                pos += size
        out.append(
            FamilyDecl(
                "f%d" % idx,
                tuple(lower),
                tuple(upper),
                tuple(groups),
                combo,
            )
        )
    return out


def build_S1_generic(spec: ModelSpec) -> Action:
    """Most general degree-n deformation: fresh symbol x monomial per class.

    The ansatz of a class is 1/m! per run of m identical factors times the
    sum over every index tuple.  The orderings of one tuple inside a run
    give one term (for an odd block the symbol's antisymmetry sign equals
    the Koszul sign; for an even one both are +1), so each index orbit is
    walked once, at its sorted representative: ``combinations`` for an odd
    block, ``combinations_with_replacement`` for an even one.  Its weight
    is the orbit size m!/prod(mult!) times 1/m!, that is 1/prod(mult!)
    over the multiplicities of its repeated indices.
    """
    scope = spec.fingerprint()
    terms: dict[tuple[GradedVar, ...], CPoly] = {}
    for fam in ansatz_families(spec):
        runs = []
        for lbl, grp in itertools.groupby(fam.factor_blocks):
            odd = spec.block(lbl).degree % 2
            choose = itertools.combinations if odd else itertools.combinations_with_replacement
            runs.append(choose(spec.vars_of(lbl), len(list(grp))))
        for reps in itertools.product(*runs):
            fvars = [v for rep in reps for v in rep]
            lower = tuple(v.index for v in fvars if v.block.startswith("A"))
            upper = tuple(v.index for v in fvars if v.block.startswith("B"))
            sign, sym = make_symbol(fam.name, lower, upper, (), fam.groups)
            vsign, mono = sort_monomial(fvars)
            weight = prod(factorial(len(list(same))) for rep in reps for _, same in itertools.groupby(rep))
            terms[mono] = CPoly.symbol(sym, Fraction(sign * vsign, weight))
    return Action(Expr(terms, scope), spec.n)


# -- structure data ------------------------------------------------------------


class StructureData:
    """Explicit polynomial values for the coefficient-symbol families.

    Values are stored under normalized index tuples; assignments given in a
    non-normal index order are normalized on insert (folding the
    antisymmetry sign into the polynomial).  Lookup of a symbol whose family
    or index combination has no assignment raises MissingSymbolError.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.families = {f.name: f for f in ansatz_families(spec)}
        self.values: dict[tuple[str, tuple[int, ...], tuple[int, ...]], CPoly] = {}

    def assign(self, name: str, lower: Sequence[int], upper: Sequence[int], poly: CPoly):
        fam = self.families.get(name)
        if fam is None:
            raise MissingSymbolError("unknown symbol family %r" % name)
        lo_ranges, up_ranges = fam.slot_ranges(self.spec)
        if len(lower) != len(lo_ranges) or len(upper) != len(up_ranges):
            raise ModelError(
                "%s takes %d lower and %d upper indices"
                % (name, len(lo_ranges), len(up_ranges))
            )
        for i, r in zip((*lower, *upper), lo_ranges + up_ranges):
            if not 1 <= i <= r:
                raise ModelError("index %d out of range 1..%d for %s" % (i, r, name))
        if poly.symbols():
            raise ModelError("structure data must be symbol-free polynomials")
        d = self.spec.d
        outside = {j for _, base in poly.terms for j, _ in base} - set(range(1, d + 1))
        if outside:
            raise ModelError("base variable phi%d out of range phi1..phi%d" % (min(outside), d))
        sign, sym = make_symbol(name, lower, upper, (), fam.groups)
        if sym is None:
            if poly:
                raise ModelError(
                    "%s[%s;%s] vanishes by antisymmetry; cannot assign a nonzero value"
                    % (name, ",".join(map(str, lower)), ",".join(map(str, upper)))
                )
            return
        key = (name, sym.lower, sym.upper)
        value = poly.scale(sign)
        if key in self.values and self.values[key] != value:
            raise ModelError(
                "conflicting assignments for %s (symmetry-normalized)" % str(sym)
            )
        self.values[key] = value

    def __eq__(self, other):
        return isinstance(other, StructureData) and (self.spec, self.values) == (other.spec, other.values)

    def value_of(self, sym: CoeffSymbol) -> CPoly:
        key = (sym.name, sym.lower, sym.upper)
        if key not in self.values:
            raise MissingSymbolError("no assignment for symbol %s" % (sym,))
        poly = self.values[key]
        for j in sym.deriv:
            poly = poly.diff_base(j)
        return poly

    def items(self):
        return sorted(self.values.items())
