"""Free bigraded differential algebra for worldsheet arguments.

Superfields expand into component fields carrying (form degree, ghost
number); the total parity of every component equals the parity of its
parent superfield.  The exterior derivative d raises form degree by one and
its images are independent generators subject only to d^2 = 0 and the form
truncation at n.  The gauge differential delta0 sends the form-r component
to d of the form-(r-1) component of the same family.  Both are left
derivations of odd total parity; "modulo d-exact" questions are decided by
the contracting homotopy h: dg -> g of the untruncated algebra, which
gives each class one canonical representative (:func:`integrate`).

Each computation numbers its generators once, in a :class:`GeneratorTable`.
A :class:`DgaExpr` is a :class:`bvsigma.symalg.SparseSum` of monomials in
the table's codes, scoped by the table: a sum or product of DgaExprs of two
tables raises MixedContextError.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .models import Action, ModelSpec
from .symalg import MixedContextError, SparseSum, _join_signed, exact, monomial_str


class ComponentField(NamedTuple):
    """One (form, ghost) component of a superfield, or its d-image.

    The public name of a generator; a :class:`GeneratorTable` numbers the
    generators of one computation in the order of these named tuples.
    """

    family: str
    form: int
    ghost: int
    dimage: bool = False

    @property
    def degree(self) -> int:
        """Total degree, form plus ghost number."""
        return self.form + self.ghost

    @property
    def parity(self) -> int:
        return self.degree & 1

    def d(self) -> Optional["ComponentField"]:
        if self.dimage:
            return None
        return ComponentField(self.family, self.form + 1, self.ghost, True)

    def __str__(self) -> str:
        core = "%s(%d,%d)" % (self.family, self.form, self.ghost)
        return "d" + core if self.dimage else core


def superfield(n: int, family: str, total_degree: int) -> list[ComponentField]:
    """Components r = 0..n of a superfield with the given total degree."""
    return [ComponentField(family, r, total_degree - r) for r in range(n + 1)]


class GeneratorTable:
    """The generators of one worldsheet computation, numbered once.

    The components r = 0..n of the given (family, total degree) superfields
    and the d-image of each, sorted as ComponentFields; generator i has code
    2 * i + parity, as a :class:`bvsigma.grading.GradedVar` has, so code
    order is ComponentField order and ``c & 1`` is the parity.  Lists
    indexed by code give each generator's form degree and its image under
    d, delta0 and the contraction h (None for zero).  The d-images of form
    n + 1 are there for :func:`integrate`.  A table is the scope of its
    DgaExprs, and two tables are never the same scope.  Build one per
    computation, not per product.
    """

    __slots__ = ("n", "fields", "codes", "forms", "d_images", "delta0_images", "h_images")

    def __init__(self, n: int, superfields: Iterable[tuple[str, int]]):
        plain = {g for family, degree in superfields for g in superfield(n, family, degree)}
        self.n = n
        self.fields = sorted(plain | {g.d() for g in plain})
        self.codes = codes = {g: 2 * i + (g.form + g.ghost) % 2 for i, g in enumerate(self.fields)}
        size = 2 * len(codes)
        self.forms = forms = [0] * size
        self.d_images, self.delta0_images, self.h_images = d, delta0, h = [None] * size, [None] * size, [None] * size
        # A plain tuple finds the ComponentField equal to it.
        for (family, form, ghost, dimage), c in codes.items():
            forms[c] = form
            if dimage:
                h[c] = codes[family, form - 1, ghost, False]
            else:
                d[c] = codes[family, form + 1, ghost, True]
                if form:
                    delta0[c] = codes[family, form, ghost + 1, True]

    def __repr__(self) -> str:
        return "GeneratorTable(n=%d, %d generators)" % (self.n, len(self.fields))


Monomial = tuple[int, ...]


def _rows(table: GeneratorTable, terms: dict) -> list:
    """(monomial, coefficient, form degree, odd mask, above) of each term:
    its odd codes c read once as bits c >> 1 of the mask, bit i of above
    the parity of its odd bits above i, and its form summed from the table."""
    forms, rows = table.forms, []
    for m, c in terms.items():
        form = mask = above = 0
        for v in m:
            form += forms[v]
            if v & 1:
                bit = 1 << (v >> 1)
                mask |= bit
                above ^= bit - 1
        rows.append((m, c, form, mask, above))
    return rows


def _mul_into(acc: dict, n: int, a_rows: list, b_rows: list) -> None:
    """acc += a x b on the :func:`_rows` of canonical code monomials,
    truncated above form n, in place: the one product kernel of the
    algebra.  A pair whose odd masks meet vanishes, else its Koszul sign is
    the parity of mask2 & above1 (that of ``grading.sort_monomial`` on the
    fields of m1 + m2).  Runs in order join unsorted;
    a term takes one dict probe, as in :func:`bvsigma.symalg._mul_into`."""
    for m1, c1, f1, mask1, above1 in a_rows:
        room = n - f1
        for m2, c2, f2, mask2, _ in b_rows:
            if f2 > room or mask1 & mask2:
                continue
            c = -c1 * c2 if (mask2 & above1).bit_count() & 1 else c1 * c2
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            mono = m1 + m2 if not (m1 and m2) or m1[-1] <= m2[0] else tuple(sorted(m1 + m2))
            k = len(acc)
            prev = acc.setdefault(mono, c)
            if len(acc) == k:  # accumulate(acc, mono, c), inlined
                c += prev
                if c:
                    acc[mono] = c.numerator if type(c) is Fraction and c.denominator == 1 else c
                else:
                    del acc[mono]


class DgaExpr(SparseSum):
    """Polynomial in the generators of one :class:`GeneratorTable` (the
    scope of the sum), truncated above its form degree n.  Equality and the
    hash are those of SparseSum: DgaExprs of two tables are unequal, even
    with equal codes, while the hash reads the codes alone."""

    __slots__ = ("terms", "scope")

    def __init__(self, table: GeneratorTable, terms=None):
        """``terms`` maps canonical monomials, tuples of ComponentFields in
        their order with no odd one twice, to coefficients; terms above form
        n are dropped.  A monomial out of that order raises ValueError."""
        self.scope = table
        data: dict[Monomial, Fraction] = {}
        for m, c in (terms or {}).items():
            mono = tuple(table.codes[g] for g in m)
            if any(u > v or u == v and u & 1 for u, v in zip(mono, mono[1:])):
                raise ValueError("monomial %s is not canonical" % "*".join(map(str, m)))
            if c and sum(g.form for g in m) <= table.n:
                data[mono] = exact(c)
        self.terms = data

    @property
    def n(self) -> int:
        return self.scope.n

    @staticmethod
    def _of(terms: dict, table: GeneratorTable) -> "DgaExpr":
        """Wrap a dict of nonzero canonical code terms of form at most n,
        without copying or checking it."""
        out = DgaExpr.__new__(DgaExpr)
        out.scope = table
        out.terms = terms
        return out

    @staticmethod
    def zero(table: GeneratorTable) -> "DgaExpr":
        return DgaExpr(table)

    @staticmethod
    def scalar(table: GeneratorTable, c) -> "DgaExpr":
        return DgaExpr(table, {(): c})

    @staticmethod
    def gen(table: GeneratorTable, g: ComponentField) -> "DgaExpr":
        return DgaExpr._of({(table.codes[g],): 1} if g.form <= table.n else {}, table)

    def scale(self, c) -> "DgaExpr":
        c = exact(c)
        return DgaExpr._of({m: exact(v * c) for m, v in self.terms.items()} if c else {}, self.scope)

    def __mul__(self, other: "DgaExpr") -> "DgaExpr":
        table = self._merged_scope(other)
        acc: dict[Monomial, Fraction] = {}
        _mul_into(acc, table.n, _rows(table, self.terms), _rows(table, other.terms))
        return DgaExpr._of(acc, table)

    def form_part(self, r: int) -> "DgaExpr":
        forms = self.scope.forms
        return DgaExpr._of({m: c for m, c in self.terms.items() if sum([forms[v] for v in m]) == r}, self.scope)

    def parity(self) -> Optional[int]:
        """Total parity if homogeneous (None for zero or mixed)."""
        ps = {sum([v & 1 for v in m]) & 1 for m in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def _derive(self, images: list, bound: Optional[int] = None) -> "DgaExpr":
        """The odd left derivation D that sends the generator of code c to
        that of code ``images[c]`` (None: to zero), cut off above form
        ``bound`` (n by default):
        D(g1..gk) = sum_i (-1)^(|g1|+..+|g_{i-1}|) g1..D(gi)..gk.

        D changes parity, so of gi and D(gi) exactly one, u, is odd, and
        the term's sign, once D(gi) stands in its place, is the parity of
        the odd codes of the monomial below u: one popcount of its mask.
        """
        forms, top = self.scope.forms, self.scope.n if bound is None else bound
        acc: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            room, mask = top, 0
            for v in m:
                room -= forms[v]
                if v & 1:
                    mask |= 1 << (v >> 1)
            for pos, v in enumerate(m):
                w = images[v]
                if w is None or forms[w] - forms[v] > room:
                    continue
                below = (1 << ((w if w & 1 else v) >> 1)) - 1
                if w & 1 and mask & (below + 1):
                    continue  # an odd w that is already a factor
                j = bisect_left(m, w)
                mono = m[:j] + (w,) + m[j:pos] + m[pos + 1 :] if j <= pos else m[:pos] + m[pos + 1 : j] + (w,) + m[j:]
                x = -c if (mask & below).bit_count() & 1 else c
                k = len(acc)
                prev = acc.setdefault(mono, x)
                if len(acc) == k:  # accumulate(acc, mono, x), inlined
                    x += prev
                    if x:
                        acc[mono] = x.numerator if type(x) is Fraction and x.denominator == 1 else x
                    else:
                        del acc[mono]
        return DgaExpr._of(acc, self.scope)

    def d(self) -> "DgaExpr":
        """Exterior derivative: odd derivation, d^2 = 0, raises form by 1."""
        return self._derive(self.scope.d_images)

    def delta0(self) -> "DgaExpr":
        """Gauge differential: component r maps to d(component r-1)."""
        return self._derive(self.scope.delta0_images)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        fields = self.scope.fields
        bits = []
        for m, c in sorted(self.terms.items()):
            bits.append("%s*%s" % (c, "*".join([str(fields[v >> 1]) for v in m])) if m else str(c))
        return _join_signed(bits)


def component_exprs(table: GeneratorTable, family: str, total_degree: int) -> list[DgaExpr]:
    return [DgaExpr.gen(table, g) for g in superfield(table.n, family, total_degree)]


def product_form_part(table: GeneratorTable, factors: Sequence[list[DgaExpr]], r: int) -> DgaExpr:
    """Form-degree-r part of a product of component-expanded superfields:
    the sum, over index splits r1 + .. + rm = r, of the products
    factors[0][r1] .. factors[m-1][rm].

    Summed by prefix sums: after k factors, ``partial[s]`` is the sum over
    the splits of s among them, so factor k+1 multiplies each prefix sum
    once instead of once per split (distributivity; the sum is the same).
    """
    partial: list[dict] = [{(): 1}] + [{} for _ in range(r)]
    for fac in factors:
        if any(e.scope is not table for e in fac):
            raise MixedContextError("a factor is not of the generator table %r" % table)
        nxt: list[dict] = [{} for _ in range(r + 1)]
        right = [_rows(table, fac[ri].terms) for ri in range(r + 1)]
        for s, acc in enumerate(partial):
            if acc:
                left = _rows(table, acc)
                for ri in range(r + 1 - s):
                    _mul_into(nxt[s + ri], table.n, left, right[ri])
        partial = nxt
    return DgaExpr._of(partial[r], table)


# -- integration modulo d-exact terms ---------------------------------------------


def integrate(expr: DgaExpr) -> DgaExpr:
    """The class of the form-n part T modulo d(anything): zero iff exact.

    Untruncated, the algebra is free on the generators g and their images
    dg, and the odd derivation h: dg -> g contracts it: dh + hd multiplies
    a monomial by its length w.  So h(dT)/w = T - d(hT)/w is the canonical
    representative of T's class, with dT cut off above form n+1 only, where
    nothing is lost; it vanishes iff T is exact and is unchanged by adding
    an exact term.  A constant (w = 0) is closed and not exact: its own class.
    """
    table, n = expr.scope, expr.n
    top = expr.form_part(n)
    closed = top._derive(table.d_images, n + 1)._derive(table.h_images, n + 1)
    out = {m: exact(Fraction(c, len(m))) for m, c in closed.terms.items()}
    if () in top.terms:
        out[()] = top.terms[()]
    return DgaExpr._of(out, table)


# -- the kinetic master equation ----------------------------------------------------


def kinetic_action_dga(spec: ModelSpec) -> DgaExpr:
    """The form-n part of the kinetic action in component fields:
    sum over the Darboux pairs of (-1)^(n-p) B dA, plus k/2 A dA over the
    self-paired block."""
    n = spec.n
    sums = []  # (B superfield, A superfield, weight) of each sum of B_(n-r-1) dA_r
    for pair in spec.pairs:
        for i in range(1, pair.rank + 1):
            b, a = ("%s_%d" % (pair.b_block, i), n - pair.p - 1), ("%s_%d" % (pair.a_block, i), pair.p)
            sums.append((b, a, (-1) ** (n - pair.p)))
    for sp in spec.self_pairs:
        fams = [("%s_%d" % (sp.block, i), spec.cs_degree) for i in range(1, sp.rank + 1)]
        for a_i, b_i in itertools.product(range(sp.rank), repeat=2):
            if sp.metric[a_i][b_i]:
                sums.append((fams[a_i], fams[b_i], Fraction(sp.metric[a_i][b_i], 2)))
    table = GeneratorTable(n, [sf for b, a, _ in sums for sf in (b, a)])
    codes, acc = table.codes, {}
    for b, a, weight in sums:
        bs, as_ = superfield(n, *b), superfield(n, *a)
        for r in range(n):
            left = _rows(table, {(codes[bs[n - r - 1]],): weight})
            _mul_into(acc, n, left, _rows(table, {(codes[as_[r].d()],): 1}))
    return DgaExpr._of(acc, table)


def kinetic_master_check(spec: ModelSpec) -> DgaExpr:
    """The residue of (S0,S0): the canonical representative of delta0 of
    the kinetic action modulo d-exact terms, zero exactly when the law holds."""
    return integrate(kinetic_action_dga(spec).delta0())


# -- Theorem 1 -----------------------------------------------------------------------


class ComponentRelationError(ValueError):
    """Raised when component families violate the descent relations."""


def _check_descent(table: GeneratorTable, comps: Sequence[DgaExpr], name: str) -> int:
    n = table.n
    if len(comps) != n + 1:
        raise ComponentRelationError("%s must have components 0..n" % name)
    parities = {c.parity() for c in comps if not c.is_zero()}
    parities.discard(None)
    if len(parities) > 1:
        raise ComponentRelationError("%s components have mixed parity" % name)
    if not comps[0].delta0().is_zero():
        raise ComponentRelationError("delta0 %s_0 != 0" % name)
    for r in range(1, n + 1):
        if comps[r].delta0() != comps[r - 1].d():
            raise ComponentRelationError(
                "delta0 %s_%d != d %s_%d" % (name, r, name, r - 1)
            )
    return parities.pop() if parities else 0


def theorem1_sum(table: GeneratorTable, f_comps: Sequence[DgaExpr], g_comps: Sequence[DgaExpr]) -> DgaExpr:
    """sum_p F_{n-p-1} dG_p, the form-n integrand with one d."""
    n = table.n
    total = DgaExpr.zero(table)
    for p in range(n):
        total = total + f_comps[n - p - 1] * g_comps[p].d()
    return total


def theorem1_witness(
    table: GeneratorTable,
    f_comps: Sequence[DgaExpr],
    g_comps: Sequence[DgaExpr],
) -> tuple[DgaExpr, DgaExpr]:
    """(T, W) with integral(sum_p F_{n-p-1} dG_p) = integral(delta0 T).

    Adjacent components telescope: each difference
    F_{n-q-1} dG_q - F_{n-q-2} dG_{q+1} is delta0-exact up to an exact
    d-term, and the last term F_0 dG_{n-1} closes through F_0 G_n.  The
    construction is validated by exact equality: the identity

        sum - delta0(T) - d(W) = 0

    holds on the nose in the free algebra.
    Components violating the descent relations raise
    ComponentRelationError.
    """
    n = table.n
    pf = _check_descent(table, f_comps, "F")
    _check_descent(table, g_comps, "G")
    sgn = (-1) ** pf
    t = (f_comps[0] * g_comps[n]).scale(n * sgn)
    w = DgaExpr.zero(table)
    for q in range(n - 1):
        t = t + (f_comps[n - q - 1] * g_comps[q + 1]).scale((q + 1) * sgn)
        w = w - (f_comps[n - q - 2] * g_comps[q + 1]).scale((q + 1) * sgn)
    return t, w


# -- first order of the master equation ----------------------------------------------


def first_order_check(spec: ModelSpec, s1: Action) -> dict[str, DgaExpr]:
    """(S0,S1) = 0 for deformations without d: the top form part of
    delta0(S1) is d-exact, term by term.

    Every factor of a monomial (coefficient symbols, explicit base
    variables, fiber variables) is lifted to a free component family with
    the same total parity; exactness of delta0 [M]_n = d [M]_{n-1} in the
    free algebra covers every substitution instance.  Returns {monomial
    label: residual delta0 [M]_n - d [M]_{n-1}}; a monomial that several
    coefficient-factor counts reach keeps its first nonzero residual.
    """
    n = spec.n
    residuals: dict[str, DgaExpr] = {}
    seen_signatures = set()
    for mono in sorted(s1.expr.terms):
        cpoly = s1.expr.terms[mono]
        signatures = {len(syms) + sum(p for _, p in base) for syms, base in cpoly.terms}
        for coeff_factors in sorted(signatures):
            signature = (coeff_factors, tuple(v.degree for v in mono))
            if signature in seen_signatures:
                continue
            seen_signatures.add(signature)
            fams = [("c%d" % i, 0) for i in range(coeff_factors)]
            fams += [("x%d_%s" % (pos, v), v.degree) for pos, v in enumerate(mono)]
            table = GeneratorTable(n, fams)
            factors = [component_exprs(table, *fam) for fam in fams]
            top = product_form_part(table, factors, n)
            below = product_form_part(table, factors, n - 1)
            label = monomial_str(mono)
            residuals[label] = residuals.get(label) or top.delta0() - below.d()
    return residuals
