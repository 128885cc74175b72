"""Model specifications and builders for the kinetic and deformation actions.

A ModelSpec fixes the base dimension, the graded bundle blocks and their
ranks.  ``build_S0`` returns the kinetic action as worldsheet pairing data
(the exterior derivative has no target-level image) and ``build_S1_generic``
enumerates the most general degree-n deformation ansatz with one coefficient
symbol family per graded monomial class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence

from .grading import BASE_BLOCK, GradedVar, sort_monomial
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
    accumulate,
    make_symbol,
)

BF = "bf"
CS_BF = "cs_bf"


class ModelError(ValueError):
    """Raised for inconsistent model specifications."""


Matrix = tuple[tuple[Fraction, ...], ...]


def _det(rows: Matrix) -> Fraction:
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


@dataclass(frozen=True)
class BfBlock:
    p: int
    rank: int


@dataclass(frozen=True)
class CsBlock:
    rank: int
    metric: Matrix  # k^{ab}, symmetric with nonzero determinant


@dataclass(frozen=True)
class BlockInfo:
    label: str
    degree: int
    rank: int


@dataclass(frozen=True)
class ModelSpec:
    """Dimensions, bundle ranks and flavor of one sigma-model target."""

    n: int
    d: int
    flavor: str = BF
    bf_blocks: tuple[BfBlock, ...] = ()
    cs_block: Optional[CsBlock] = None

    def __post_init__(self):
        if self.n < 1:
            raise ModelError("n must be >= 1, got %d" % self.n)
        if self.d < 1:
            raise ModelError("d must be >= 1, got %d" % self.d)
        if self.flavor not in (BF, CS_BF):
            raise ModelError("unknown flavor %r" % self.flavor)
        if self.flavor == BF and self.cs_block is not None:
            raise ModelError("bf flavor does not take a cs block")
        if self.flavor == CS_BF:
            if self.n % 2 == 0:
                raise ModelError("cs block requires odd n, got n=%d" % self.n)
            if self.cs_block is None:
                raise ModelError("cs_bf flavor requires a cs block")
        pmax = (self.n - 3) // 2 if self.flavor == CS_BF else (self.n - 1) // 2
        seen = set()
        for blk in self.bf_blocks:
            if not 1 <= blk.p <= pmax:
                raise ModelError(
                    "block degree p=%d out of range 1..%d for n=%d (%s)"
                    % (blk.p, pmax, self.n, self.flavor)
                )
            if blk.p in seen:
                raise ModelError("duplicate block degree p=%d" % blk.p)
            if blk.rank < 1:
                raise ModelError("block rank must be >= 1")
            seen.add(blk.p)
        if self.cs_block is not None:
            k = self.cs_block.metric
            r = self.cs_block.rank
            if len(k) != r or any(len(row) != r for row in k):
                raise ModelError("metric k must be %dx%d" % (r, r))
            if any(k[a][b] != k[b][a] for a in range(r) for b in range(r)):
                raise ModelError("metric k must be symmetric")
            if _det(k) == 0:
                raise ModelError("metric k must be nondegenerate")
        # Label -> block, in blocks() order.  Set once here and kept out of
        # the dataclass fields, so equality, hash and fingerprint ignore it.
        n, q = self.n, (self.n - 1) // 2
        table = [BlockInfo(BASE_BLOCK, 0, self.d), BlockInfo("B%d" % (n - 1), n - 1, self.d)]
        for blk in sorted(self.bf_blocks, key=lambda b: b.p):
            table.append(BlockInfo("A%d" % blk.p, blk.p, blk.rank))
            table.append(BlockInfo("B%d" % (n - blk.p - 1), n - blk.p - 1, blk.rank))
        if self.cs_block is not None:
            table.append(BlockInfo("A%d" % q, q, self.cs_block.rank))
        object.__setattr__(self, "_blocks", {b.label: b for b in table})

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
        b = self.block(label)
        return [GradedVar(b.label, b.degree, i) for i in range(1, b.rank + 1)]

    def base_vars(self) -> list[GradedVar]:
        return self.vars_of(BASE_BLOCK)

    def fiber_vars(self) -> list[GradedVar]:
        out: list[GradedVar] = []
        for b in self.fiber_blocks():
            out.extend(self.vars_of(b.label))
        return sorted(out)

    def fingerprint(self) -> str:
        bits = ["n=%d" % self.n, "d=%d" % self.d, self.flavor]
        for blk in sorted(self.bf_blocks, key=lambda b: b.p):
            bits.append("p%dr%d" % (blk.p, blk.rank))
        if self.cs_block is not None:
            bits.append("cs r%d" % self.cs_block.rank)
        return ";".join(bits)

    def nontrivial_deformation_expected(self) -> bool:
        """n=1 admits no nontrivial deformation; flagged, not rejected."""
        return self.n > 1


# -- kinetic action ----------------------------------------------------------


@dataclass(frozen=True)
class KineticTerm:
    """One summand sign * B d(A) of the kinetic action."""

    b_block: str
    a_block: str
    sign: int  # (-1)^(n-p)


@dataclass(frozen=True)
class KineticPairing:
    """Worldsheet data of S0: Darboux summands plus optional k/2 A dA term."""

    n: int
    terms: tuple[KineticTerm, ...]
    cs_term: Optional[CsBlock] = None
    cs_label: Optional[str] = None


@dataclass(frozen=True)
class Action:
    """A BV action: target-level expression plus its declared total degree.

    The kinetic action S0 carries its content in ``kinetic`` (worldsheet
    pairing data) and a zero target expression; deformations carry a target
    expression and no kinetic data.
    """

    expr: Expr
    total_degree: int
    kinetic: Optional[KineticPairing] = None


def build_S0(spec: ModelSpec) -> Action:
    """Kinetic action: sum of (-1)^(n-p) B dA plus k/2 A dA for cs models."""
    n = spec.n
    terms = [KineticTerm("B%d" % (n - 1), BASE_BLOCK, (-1) ** n)]
    for blk in sorted(spec.bf_blocks, key=lambda b: b.p):
        terms.append(
            KineticTerm("B%d" % (n - blk.p - 1), "A%d" % blk.p, (-1) ** (n - blk.p))
        )
    cs_label = "A%d" % spec.cs_degree if spec.cs_block is not None else None
    pairing = KineticPairing(n, tuple(terms), spec.cs_block, cs_label)
    return Action(Expr.zero(scope=spec.fingerprint()), n, pairing)


# -- generic deformation ansatz ----------------------------------------------


@dataclass(frozen=True)
class FamilyDecl:
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
    """Most general degree-n deformation: fresh symbol x monomial per class."""
    scope = spec.fingerprint()
    acc: dict[tuple[GradedVar, ...], CPoly] = {}
    for fam in ansatz_families(spec):
        norm = Fraction(1)
        for _, grp in itertools.groupby(fam.factor_blocks):
            norm /= factorial(len(list(grp)))
        lower_pos = [k for k, lbl in enumerate(fam.factor_blocks) if lbl.startswith("A")]
        upper_pos = [k for k, lbl in enumerate(fam.factor_blocks) if lbl.startswith("B")]
        for fvars in itertools.product(*(spec.vars_of(lbl) for lbl in fam.factor_blocks)):
            lower = tuple(fvars[k].index for k in lower_pos)
            upper = tuple(fvars[k].index for k in upper_pos)
            sign, sym = make_symbol(fam.name, lower, upper, (), fam.groups)
            if sym is None:
                continue
            vsign, mono = sort_monomial(fvars)
            if vsign == 0:
                continue
            accumulate(acc, mono, CPoly.symbol(sym, norm * (sign * vsign)))
    return Action(Expr(acc, scope), spec.n)


@dataclass
class DegreeReport:
    declared: int
    violations: list[tuple[str, int]]

    @property
    def passed(self) -> bool:
        return not self.violations


def validate_degree(action: Action, spec: ModelSpec) -> DegreeReport:
    """Check every monomial of the action has the declared total degree."""
    from .symalg import monomial_str

    violations = []
    for m in sorted(action.expr.terms):
        deg = sum(v.degree for v in m)
        if deg != action.total_degree:
            violations.append((monomial_str(m), deg))
    return DegreeReport(action.total_degree, violations)


# -- structure data ------------------------------------------------------------


class StructureData:
    """Explicit polynomial values for the coefficient-symbol families.

    Values are stored under normalized index tuples; assignments given in a
    non-normal index order are normalized on insert (folding the
    antisymmetry sign into the polynomial).  Lookup of a symbol whose family
    or index combination has no assignment raises MissingSymbolError.
    """

    def __init__(self, spec: ModelSpec, families: Sequence[FamilyDecl]):
        self.spec = spec
        self.families = {f.name: f for f in families}
        self.values: dict[tuple[str, tuple[int, ...], tuple[int, ...]], CPoly] = {}

    @staticmethod
    def for_model(spec: ModelSpec) -> "StructureData":
        return StructureData(spec, ansatz_families(spec))

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
        for i, r in zip(lower, lo_ranges):
            if not 1 <= i <= r:
                raise ModelError("index %d out of range 1..%d for %s" % (i, r, name))
        for i, r in zip(upper, up_ranges):
            if not 1 <= i <= r:
                raise ModelError("index %d out of range 1..%d for %s" % (i, r, name))
        if poly.symbols():
            raise ModelError("structure data must be symbol-free polynomials")
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

    def value_of(self, sym: CoeffSymbol) -> CPoly:
        if sym.name not in self.families:
            raise MissingSymbolError("no data for symbol family %r" % sym.name)
        key = (sym.name, sym.lower, sym.upper)
        if key not in self.values:
            raise MissingSymbolError("no assignment for symbol %s" % (sym,))
        poly = self.values[key]
        for j in sym.deriv:
            poly = poly.diff_base(j)
        return poly

    def items(self):
        return sorted(self.values.items())
