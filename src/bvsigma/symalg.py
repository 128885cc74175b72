"""Exact arithmetic on graded polynomials.

An :class:`Expr` is a canonical sum of (coefficient polynomial) x (ordered
graded monomial in fiber variables).  Coefficient polynomials live in the
commutative ring generated by explicit base variables ``phi_j`` and indexed
function symbols ``f[lower;upper]`` that can carry formal base derivatives.
Scalars are exact and canonical: an ``int`` when integral, else a
:class:`fractions.Fraction` (see :func:`exact`); nothing here floats.  The
two forms mix freely, since ``Fraction(k) == k``, ``hash(Fraction(k)) ==
hash(k)`` and ``str(Fraction(k)) == str(k)``, and integral coefficients,
the common case, stay on integer arithmetic.

:class:`SparseSum` is the one sum, negation, difference, equality, hash and
zero test of :class:`CPoly`, :class:`Expr` and :class:`bvsigma.worldsheet.DgaExpr`;
combining two of different scope (model fingerprint, or n for a DgaExpr)
raises :class:`MixedContextError`.

Exprs are immutable once built, so every operation is safe to run
concurrently on shared inputs.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .grading import BASE_BLOCK, GradedVar, merge_monomials
from .grading import sort_monomial  # noqa: F401  (perfbench/tracing.py patches this import site)

Rat = Union[int, Fraction]

ANTISYM = "antisym"
SYM = "sym"
LOWER = "lower"
UPPER = "upper"


class MixedContextError(ValueError):
    """Raised when combining expressions from different model contexts."""


class MissingSymbolError(KeyError):
    """Raised by substitution when a symbol has no assigned value."""


class SymGroup(NamedTuple):
    """A declared index symmetry: (anti)symmetric slots of one variance."""

    kind: str  # ANTISYM | SYM
    variance: str  # LOWER | UPPER
    slots: tuple[int, ...]


class CoeffSymbol(NamedTuple):
    """An indexed function symbol f[lower;upper], possibly differentiated.

    Stored in normal form: indices inside each symmetry group of its family
    (given to :func:`make_symbol`; the symbol does not keep them) are sorted
    ascending (the sign, for antisymmetric groups, is pushed into the owning
    term's coefficient) and ``deriv`` is sorted because base partials
    commute.  Use :func:`make_symbol` to build one.  A named tuple (as is
    :class:`SymGroup`), so that hashing and ordering run as tuple operations.
    """

    name: str
    lower: tuple[int, ...] = ()
    upper: tuple[int, ...] = ()
    deriv: tuple[int, ...] = ()

    def with_deriv(self, j: int) -> "CoeffSymbol":
        deriv = tuple(sorted(self.deriv + (j,)))
        return CoeffSymbol(self.name, self.lower, self.upper, deriv)

    def __str__(self) -> str:
        core = "%s[%s;%s]" % (
            self.name,
            ",".join(map(str, self.lower)),
            ",".join(map(str, self.upper)),
        )
        if self.deriv:
            return "d(%s)%s" % (",".join(map(str, self.deriv)), core)
        return core


def exact(c) -> Rat:
    """The canonical exact scalar equal to ``c``: an int when integral,
    else a Fraction.  Every scalar stored in a CPoly is canonical."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def accumulate(acc: dict, key, value) -> None:
    """acc[key] += value, dropping the key when the sum is zero.

    The one add-and-drop-zeros step of the sparse sums here; a scalar sum
    is stored canonically (see :func:`exact`).
    """
    prev = acc.get(key)
    if prev is not None:
        value = prev + value
    if value:
        if type(value) is Fraction and value.denominator == 1:
            value = value.numerator
        acc[key] = value
    elif prev is not None:
        del acc[key]


def _perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a tuple of images, by cycle lengths."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def make_symbol(
    name: str,
    lower: Sequence[int] = (),
    upper: Sequence[int] = (),
    deriv: Sequence[int] = (),
    groups: Sequence[SymGroup] = (),
) -> tuple[int, Optional[CoeffSymbol]]:
    """Normalize a symbol; returns (sign, symbol) or (0, None) if it vanishes.

    An antisymmetric group with a repeated index kills the symbol.
    """
    lower = list(lower)
    upper = list(upper)
    sign = 1
    for g in groups:
        indices = lower if g.variance == LOWER else upper
        vals = [indices[s] for s in g.slots]
        if g.kind == ANTISYM:
            if len(set(vals)) != len(vals):
                return 0, None
            sign *= _perm_sign(sorted(range(len(vals)), key=lambda i: vals[i]))
        for s, v in zip(g.slots, sorted(vals)):
            indices[s] = v
    return sign, CoeffSymbol(name, tuple(lower), tuple(upper), tuple(sorted(deriv)))


# A coefficient-ring term key: (sorted symbols, sparse base monomial).
# Base monomials are tuples of (index, power) with power >= 1, sorted.
CKey = tuple[tuple[CoeffSymbol, ...], tuple[tuple[int, int], ...]]

_ONE_KEY: CKey = ((), ())


def _merge_base(a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]):
    acc: dict[int, int] = dict(a)
    for j, p in b:
        acc[j] = acc.get(j, 0) + p
    return tuple(sorted((j, p) for j, p in acc.items() if p))


def _mul_into(acc: dict, a_terms: Mapping, b_terms: Mapping, sign: Rat = 1) -> None:
    """acc += sign * (a x b) on coefficient-term dicts, in place.

    The one product kernel of the coefficient ring: ``CPoly.__mul__`` and
    ``Expr.mul_into`` (hence every Expr product and bracket) run on it.
    ``sign`` is a canonical exact scalar, usually +-1.  A sum that cancels
    drops its key.  When one side of a pair has no symbols or no base
    monomial, the other side's (already canonical) part is reused without
    the symbol sort or the base merge.
    """
    b_items = list(b_terms.items())
    for (s1, b1), v1 in a_terms.items():
        if sign != 1:
            v1 = v1 * sign
        for (s2, b2), v2 in b_items:
            syms = s1 if not s2 else s2 if not s1 else tuple(sorted(s1 + s2))
            base = b1 if not b2 else b2 if not b1 else _merge_base(b1, b2)
            accumulate(acc, (syms, base), v1 * v2)


class SparseSum:
    """A sparse sum: ``terms`` maps each key to its nonzero coefficient and
    ``scope`` is its context (None: any; a CPoly has none).  Equality and
    the hash ignore scope.  Each subclass wraps results with its own
    ``_of(terms, scope)``."""

    __slots__ = ()
    scope = None

    def _merged_scope(self, other: "SparseSum"):
        a, b = self.scope, other.scope
        if a is not None and b is not None and a != b:
            raise MixedContextError("mixed model contexts: %r vs %r" % (a, b))
        return b if a is None else a

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        # Agrees with __eq__: unordered, scope-free, hash(Fraction(k)) == hash(k).
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        scope = self._merged_scope(other)
        acc = dict(self.terms)
        for k, v in other.terms.items():
            accumulate(acc, k, v)
        return self._of(acc, scope)

    def __neg__(self):
        return self._of({k: -v for k, v in self.terms.items()}, self.scope)

    def __sub__(self, other):
        return self + (-other)


class CPoly(SparseSum):
    """Polynomial over Q in base variables and coefficient symbols."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[CKey, Rat]] = None):
        data: dict[CKey, Rat] = {}
        if terms:
            for k, v in terms.items():
                if v:
                    data[k] = exact(v)
        self.terms = data

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero() -> "CPoly":
        return CPoly()

    @staticmethod
    def scalar(c) -> "CPoly":
        return CPoly({_ONE_KEY: c})

    @staticmethod
    def base(j: int, power: int = 1) -> "CPoly":
        return CPoly({((), ((j, power),)): 1})

    @staticmethod
    def symbol(sym: CoeffSymbol, coeff=1) -> "CPoly":
        return CPoly({((sym,), ()): coeff})

    @staticmethod
    def _of(terms: dict, scope=None) -> "CPoly":
        """Wrap a dict of nonzero canonical terms, without copying (a CPoly
        has no scope)."""
        out = CPoly.__new__(CPoly)
        out.terms = terms
        return out

    # -- ring operations ---------------------------------------------------
    def __mul__(self, other: "CPoly") -> "CPoly":
        acc: dict[CKey, Rat] = {}
        _mul_into(acc, self.terms, other.terms)
        return CPoly._of(acc)

    def scale(self, c) -> "CPoly":
        c = exact(c)
        if not c:
            return CPoly()
        return CPoly._of({k: exact(v * c) for k, v in self.terms.items()})

    # -- calculus ----------------------------------------------------------
    def diff_base(self, j: int) -> "CPoly":
        """Partial derivative with respect to phi_j (Leibniz over terms)."""
        acc: dict[CKey, Rat] = {}
        for (syms, base), v in self.terms.items():
            for pos, (bj, bp) in enumerate(base):
                if bj != j:
                    continue
                rest = base[:pos] + ((bj, bp - 1),) + base[pos + 1 :]
                rest = tuple(p for p in rest if p[1])
                accumulate(acc, (syms, rest), v * bp)
            for pos, sym in enumerate(syms):
                new = tuple(sorted(syms[:pos] + (sym.with_deriv(j),) + syms[pos + 1 :]))
                accumulate(acc, (new, base), v)
        return CPoly._of(acc)

    def symbols(self) -> set[CoeffSymbol]:
        out: set[CoeffSymbol] = set()
        for (syms, _), _v in self.terms.items():
            out.update(syms)
        return out

    def substitute(self, lookup) -> "CPoly":
        """Replace every symbol via ``lookup(sym) -> CPoly`` (symbol-free)."""
        acc: dict[CKey, Rat] = {}
        for (syms, base), v in self.terms.items():
            part = CPoly._of({((), base): v})
            for sym in syms:
                part = part * lookup(sym)
            for k, pv in part.terms.items():
                accumulate(acc, k, pv)
        return CPoly._of(acc)

    # -- presentation --------------------------------------------------------
    def render(self, memo: dict) -> str:
        """The text of this polynomial, terms sorted by their key string.

        ``memo`` maps each CoeffSymbol already rendered to its string and
        gains the ones met here; a report passes one memo to every
        polynomial it prints, so each symbol is formatted once per report.
        """
        if not self.terms:
            return "0"
        bodies = sorted(((_ckey_str(k, memo), v) for k, v in self.terms.items()), key=itemgetter(0))
        return _join_signed([_cterm_str(v, body) for body, v in bodies])

    def __str__(self) -> str:
        return self.render({})

    def __repr__(self) -> str:
        return "CPoly(%s)" % self


def _ckey_str(key: CKey, memo: dict) -> str:
    syms, base = key
    bits = [memo.get(s) or memo.setdefault(s, str(s)) for s in syms]
    bits += ["phi%d%s" % (j, "^%d" % p if p > 1 else "") for j, p in base]
    return "*".join(bits) if bits else "1"


def _cterm_str(coeff: Rat, body: str) -> str:
    if body == "1":
        return str(coeff)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return "%s*%s" % (coeff, body)


def _join_signed(parts: list[str]) -> str:
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


Monomial = tuple[GradedVar, ...]


class _AllIndices:
    """The base support of an Expr that holds a coefficient symbol: it
    contains every index."""

    __slots__ = ()

    def __contains__(self, j) -> bool:
        return True

    def __repr__(self) -> str:
        return "ALL_INDICES"


ALL_INDICES = _AllIndices()


class Expr(SparseSum):
    """Canonical graded polynomial: sum of CPoly x fiber monomial.

    Two construction orders of the same expression compare equal because
    monomials are kept in canonical variable order with Koszul signs
    absorbed and odd squares eliminated.
    """

    __slots__ = ("terms", "scope")

    def __init__(self, terms: Optional[Mapping[Monomial, CPoly]] = None, scope: Optional[str] = None):
        data: dict[Monomial, CPoly] = {}
        if terms:
            for m, c in terms.items():
                if c:
                    data[m] = c
        self.terms = data
        self.scope = scope

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero(scope: Optional[str] = None) -> "Expr":
        return Expr({}, scope)

    @staticmethod
    def scalar(c, scope: Optional[str] = None) -> "Expr":
        return Expr({(): CPoly.scalar(c)}, scope)

    @staticmethod
    def var(v: GradedVar, scope: Optional[str] = None) -> "Expr":
        if v.block == BASE_BLOCK:
            return Expr({(): CPoly.base(v.index)}, scope)
        return Expr({(v,): CPoly.scalar(1)}, scope)

    @staticmethod
    def base(j: int, scope: Optional[str] = None) -> "Expr":
        return Expr({(): CPoly.base(j)}, scope)

    @staticmethod
    def symbol(sym: CoeffSymbol, scope: Optional[str] = None) -> "Expr":
        return Expr({(): CPoly.symbol(sym)}, scope)

    @staticmethod
    def _of(terms: dict, scope: Optional[str]) -> "Expr":
        """Wrap a dict that already holds only nonzero terms, without copying."""
        out = Expr.__new__(Expr)
        out.terms = terms
        out.scope = scope
        return out

    @staticmethod
    def _collect(acc: dict, scope: Optional[str]) -> "Expr":
        """The Expr of a :meth:`mul_into` accumulator (monomial -> term dict)."""
        return Expr._of({m: CPoly._of(t) for m, t in acc.items() if t}, scope)

    # -- arithmetic ---------------------------------------------------------
    def __mul__(self, other: "Expr", into: Optional[dict] = None, sign: Rat = 1) -> Optional["Expr"]:
        """The product ``self * other``.

        Given an accumulator ``into`` (see :meth:`mul_into`), adds ``sign *
        self * other`` to it in place and returns None instead, so that
        every Expr product, summed into a bracket or not, is one call of
        this method (the product layer that profiles and
        ``perfbench/tracing.py`` time).  Monomials of an Expr are canonical,
        so each pair of them is one merge.
        """
        scope = self._merged_scope(other) if into is None else None
        acc: dict[Monomial, dict] = {} if into is None else into
        sign = exact(sign)
        g_items = list(other.terms.items())
        for m1, c1 in self.terms.items():
            for m2, c2 in g_items:
                s, mono = merge_monomials(m1, m2)
                if not s:
                    continue
                t = acc.get(mono)
                if t is None:
                    t = acc[mono] = {}
                _mul_into(t, c1.terms, c2.terms, sign if s > 0 else -sign)
        if into is None:
            return Expr._collect(acc, scope)
        return None

    @staticmethod
    def mul_into(acc: dict, f: "Expr", g: "Expr", sign: Rat = 1) -> None:
        """acc += sign * f g, in place, for an accumulator that maps each
        monomial to a coefficient-term dict (:meth:`_collect` makes it an
        Expr).  Sums of products, such as a bracket, build no intermediate
        Expr or CPoly.  Scopes are the caller's to check."""
        Expr.__mul__(f, g, acc, sign)

    def scale(self, c) -> "Expr":
        c = exact(c)
        return Expr({m: p.scale(c) for m, p in self.terms.items()}, self.scope)

    # -- degrees -------------------------------------------------------------
    def monomial_degrees(self) -> set[int]:
        return {sum(v.degree for v in m) for m in self.terms}

    def homogeneous_degree(self) -> Optional[int]:
        """Total degree if homogeneous and nonzero, else None."""
        degs = self.monomial_degrees()
        if len(degs) == 1:
            return degs.pop()
        return None

    # -- graded calculus ------------------------------------------------------
    def left_deriv(self, x: GradedVar) -> "Expr":
        """Left derivative: commute x to the leftmost position, then strip."""
        return self._deriv(x, True)

    def right_deriv(self, x: GradedVar) -> "Expr":
        """Right derivative: commute x to the rightmost position, then strip."""
        return self._deriv(x, False)

    def _deriv(self, x: GradedVar, left: bool) -> "Expr":
        """The graded derivative by x from the left or the right: an odd x
        picks up the sign of the odd variables it passes on that side."""
        if x.block == BASE_BLOCK:
            return self.partial_base(x.index)
        acc: dict[Monomial, CPoly] = {}
        for m, c in self.terms.items():
            if x not in m:
                continue
            for pos, v in enumerate(m):
                if v != x:
                    continue
                sign = 1
                if x.parity:
                    for u in m[:pos] if left else m[pos + 1 :]:
                        if u.parity:
                            sign = -sign
                accumulate(acc, m[:pos] + m[pos + 1 :], c if sign > 0 else -c)
        return Expr._of(acc, self.scope)

    def support(self) -> tuple[set[GradedVar], Union[set[int], _AllIndices]]:
        """The variables whose derivative of this Expr can be nonzero, in one
        pass over the terms: (fiber variables present, base indices present).

        A coefficient symbol makes every base index present, since the
        formal derivative ``d(j)f[..]`` of a symbol is nonzero for every j;
        the base part is then :data:`ALL_INDICES`.
        """
        fibers: set[GradedVar] = set()
        bases: Union[set[int], _AllIndices] = set()
        for m, c in self.terms.items():
            fibers.update(m)
            if bases is ALL_INDICES:
                continue
            for syms, base in c.terms:
                if syms:
                    bases = ALL_INDICES
                    break
                for j, _ in base:
                    bases.add(j)
        return fibers, bases

    def partial_base(self, j: int) -> "Expr":
        """Formal partial derivative with respect to phi_j."""
        acc: dict[Monomial, CPoly] = {}
        for m, c in self.terms.items():
            accumulate(acc, m, c.diff_base(j))
        return Expr._of(acc, self.scope)

    # -- substitution and evaluation -----------------------------------------
    def substitute(self, data) -> "Expr":
        """Replace every coefficient symbol with its assigned base polynomial.

        ``data`` is a :class:`bvsigma.models.StructureData`.  Raises
        MissingSymbolError naming the first unassigned symbol met.
        """
        acc: dict[Monomial, CPoly] = {}
        for m, c in self.terms.items():
            accumulate(acc, m, c.substitute(data.value_of))
        return Expr._of(acc, self.scope)

    def symbols(self) -> set[CoeffSymbol]:
        out: set[CoeffSymbol] = set()
        for c in self.terms.values():
            out |= c.symbols()
        return out

    # -- presentation ----------------------------------------------------------
    def render(self, memo: dict) -> str:
        """The text of this expression; ``memo`` as in :meth:`CPoly.render`."""
        if not self.terms:
            return "0"
        return _join_signed([_eterm_str(self.terms[m], m, memo) for m in sorted(self.terms)])

    def __str__(self) -> str:
        return self.render({})

    def __repr__(self) -> str:
        return "Expr(%s)" % self


def monomial_str(m: Monomial) -> str:
    return "*".join(str(v) for v in m) if m else "1"


def _eterm_str(c: CPoly, m: Monomial, memo: dict) -> str:
    cs = c.render(memo)
    if not m:
        return cs if len(c.terms) == 1 else "(%s)" % cs
    ms = monomial_str(m)
    if cs == "1":
        return ms
    if cs == "-1":
        return "-" + ms
    if len(c.terms) == 1:
        return "%s*%s" % (cs, ms)
    return "(%s)*%s" % (cs, ms)

