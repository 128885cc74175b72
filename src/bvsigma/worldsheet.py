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
A :class:`DgaExpr` is a :class:`bvsigma.symalg.SparseSum` scoped by n: a
sum or product of DgaExprs of different n raises MixedContextError.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .grading import merge_monomials, sort_monomial
from .models import Action, ModelSpec
from .pstructure import Verdicts
from .symalg import SparseSum, _join_signed, accumulate, exact


class ComponentField(NamedTuple):
    """One (form, ghost) component of a superfield, or its d-image.

    A named tuple, so that ordering, equality and hashing (the inner loop
    of every product) run as tuple operations.
    """

    family: str
    form: int
    ghost: int
    dimage: bool = False

    @property
    def degree(self) -> int:
        """Total degree, form plus ghost number (read by the Koszul merge)."""
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


Monomial = tuple[ComponentField, ...]


def _form(m: Monomial) -> int:
    return sum(g.form for g in m)


def _mul_into(acc: dict, n: int, a_terms: dict, b_terms: dict) -> None:
    """acc += a x b on term dicts of canonical monomials, truncated above
    form n, in place.  The one product kernel of the algebra: each pair of
    monomials is one merge, and each side's form degree is taken once."""
    right = [(m2, c2, _form(m2)) for m2, c2 in b_terms.items()]
    for m1, c1 in a_terms.items():
        room = n - _form(m1)
        for m2, c2, f2 in right:
            if f2 > room:
                continue
            sign, mono = merge_monomials(m1, m2)
            if sign:
                accumulate(acc, mono, c1 * c2 if sign > 0 else -c1 * c2)


class DgaExpr(SparseSum):
    """Polynomial in component fields, truncated above form degree n (the
    scope of the sum)."""

    __slots__ = ("terms", "scope")

    def __init__(self, n: int, terms=None):
        self.scope = n
        data: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if c and _form(m) <= n:
                    data[m] = exact(c)
        self.terms = data

    @property
    def n(self) -> int:
        return self.scope

    @staticmethod
    def _of(terms: dict, n: int) -> "DgaExpr":
        """Wrap a dict of nonzero canonical terms of form at most n, without
        copying or checking it."""
        out = DgaExpr.__new__(DgaExpr)
        out.scope = n
        out.terms = terms
        return out

    @staticmethod
    def zero(n: int) -> "DgaExpr":
        return DgaExpr(n)

    @staticmethod
    def scalar(n: int, c) -> "DgaExpr":
        return DgaExpr(n, {(): c})

    @staticmethod
    def gen(n: int, g: ComponentField) -> "DgaExpr":
        return DgaExpr(n, {(g,): 1})

    def scale(self, c) -> "DgaExpr":
        c = exact(c)
        return DgaExpr(self.n, {m: v * c for m, v in self.terms.items()})

    def __mul__(self, other: "DgaExpr") -> "DgaExpr":
        n = self._merged_scope(other)
        acc: dict[Monomial, Fraction] = {}
        _mul_into(acc, n, self.terms, other.terms)
        return DgaExpr._of(acc, n)

    def form_part(self, r: int) -> "DgaExpr":
        return DgaExpr(self.n, {m: c for m, c in self.terms.items() if _form(m) == r})

    def parity(self) -> Optional[int]:
        """Total parity if homogeneous (None for zero or mixed)."""
        ps = {sum(g.parity for g in m) & 1 for m in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def _derive(self, image) -> "DgaExpr":
        """Left derivation defined by ``image(gen) -> ComponentField | None``
        (each generator goes to one generator or to zero):
        D(g1..gk) = sum_i (-1)^(|g1|+..+|g_{i-1}|) g1..D(gi)..gk.
        """
        n = self.n
        acc: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            room = n - _form(m)
            for pos, g in enumerate(m):
                img = image(g)
                if img is not None and img.form - g.form <= room:
                    sign, mono = sort_monomial(m[:pos] + (img,) + m[pos + 1 :])
                    if sign:
                        accumulate(acc, mono, c if sign > 0 else -c)
                if g.parity:
                    c = -c
        return DgaExpr._of(acc, n)

    def d(self) -> "DgaExpr":
        """Exterior derivative: odd derivation, d^2 = 0, raises form by 1."""
        return self._derive(ComponentField.d)

    def delta0(self) -> "DgaExpr":
        """Gauge differential: component r maps to d(component r-1)."""

        def image(g: ComponentField) -> Optional[ComponentField]:
            if g.dimage or g.form == 0:
                return None
            return ComponentField(g.family, g.form, g.ghost + 1, True)

        return self._derive(image)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            bits.append("%s*%s" % (c, "*".join(map(str, m))) if m else str(c))
        return _join_signed(bits)


def superfield(n: int, family: str, total_degree: int) -> list[ComponentField]:
    """Components r = 0..n of a superfield with the given total degree."""
    return [ComponentField(family, r, total_degree - r) for r in range(n + 1)]


def component_exprs(n: int, family: str, total_degree: int) -> list[DgaExpr]:
    return [DgaExpr.gen(n, g) for g in superfield(n, family, total_degree)]


def product_form_part(n: int, factors: Sequence[list[DgaExpr]], r: int) -> DgaExpr:
    """Form-degree-r part of a product of component-expanded superfields:
    the sum, over index splits r1 + .. + rm = r, of the products
    factors[0][r1] .. factors[m-1][rm].

    Summed by prefix sums: after k factors, ``partial[s]`` is the sum over
    the splits of s among them, so factor k+1 multiplies each prefix sum
    once instead of once per split (distributivity; the sum is the same).
    """
    partial: list[dict] = [{(): 1}] + [{} for _ in range(r)]
    for fac in factors:
        nxt: list[dict] = [{} for _ in range(r + 1)]
        for s, acc in enumerate(partial):
            if acc:
                for ri in range(r + 1 - s):
                    _mul_into(nxt[s + ri], n, acc, fac[ri].terms)
        partial = nxt
    return DgaExpr._of(partial[r], n)


# -- integration modulo d-exact terms ---------------------------------------------


def _contract(g: ComponentField) -> Optional[ComponentField]:
    """The contracting homotopy h on generators: dg -> g, g -> 0."""
    if g.dimage:
        return ComponentField(g.family, g.form - 1, g.ghost)
    return None


def integrate(expr: DgaExpr) -> DgaExpr:
    """The class of the form-n part T modulo d(anything): zero iff exact.

    Untruncated, the algebra is free on the generators g and their images
    dg, and the odd derivation h: dg -> g contracts it: dh + hd multiplies
    a monomial by its length w.  So h(dT)/w = T - d(hT)/w is the canonical
    representative of T's class, with dT taken in scope n+1, where nothing
    is cut off; it vanishes iff T is exact and is unchanged by adding an
    exact term.  A constant (w = 0) is closed and not exact: its own class.
    """
    n = expr.n
    top = expr.form_part(n).terms
    closed = DgaExpr._of(top, n + 1).d()._derive(_contract)
    out = {m: exact(Fraction(c, len(m))) for m, c in closed.terms.items()}
    if () in top:
        out[()] = top[()]
    return DgaExpr._of(out, n)


# -- the kinetic master equation ----------------------------------------------------


def kinetic_action_dga(spec: ModelSpec) -> DgaExpr:
    """The form-n part of the kinetic action in component fields:
    sum over the Darboux pairs of (-1)^(n-p) B dA, plus k/2 A dA over the
    self-paired block."""
    n = spec.n
    s0 = DgaExpr.zero(n)
    for pair in spec.pairs:
        for i in range(1, pair.rank + 1):
            bfam = component_exprs(n, "%s_%d" % (pair.b_block, i), n - pair.p - 1)
            afam = superfield(n, "%s_%d" % (pair.a_block, i), pair.p)
            for r in range(n):
                da = afam[r].d()
                piece = bfam[n - r - 1] * DgaExpr.gen(n, da)
                s0 = s0 + piece.scale((-1) ** (n - pair.p))
    for sp in spec.self_pairs:
        fams = [superfield(n, "%s_%d" % (sp.block, i), spec.cs_degree) for i in range(1, sp.rank + 1)]
        for a_i, b_i in itertools.product(range(sp.rank), repeat=2):
            kval = sp.metric[a_i][b_i]
            if not kval:
                continue
            for r in range(n):
                da = fams[b_i][r].d()
                piece = DgaExpr.gen(n, fams[a_i][n - r - 1]) * DgaExpr.gen(n, da)
                s0 = s0 + piece.scale(Fraction(kval, 2))
    return s0


class KineticMasterReport(NamedTuple):
    passed: bool
    detail: str


def kinetic_master_check(spec: ModelSpec) -> KineticMasterReport:
    """(S0,S0) = 0: delta0 of the kinetic action integrates to zero."""
    s0 = kinetic_action_dga(spec)
    residue = integrate(s0.delta0())
    if residue.is_zero():
        return KineticMasterReport(True, "delta0(S0) is d-exact at form degree n")
    return KineticMasterReport(False, "residual: %s" % residue)


# -- Theorem 1 -----------------------------------------------------------------------


class ComponentRelationError(ValueError):
    """Raised when component families violate the descent relations."""


def _check_descent(n: int, comps: Sequence[DgaExpr], name: str) -> int:
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


def theorem1_sum(n: int, f_comps: Sequence[DgaExpr], g_comps: Sequence[DgaExpr]) -> DgaExpr:
    """sum_p F_{n-p-1} dG_p, the form-n integrand with one d."""
    total = DgaExpr.zero(n)
    for p in range(n):
        total = total + f_comps[n - p - 1] * g_comps[p].d()
    return total


def theorem1_witness(
    n: int,
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
    pf = _check_descent(n, f_comps, "F")
    _check_descent(n, g_comps, "G")
    sgn = (-1) ** pf
    t = (f_comps[0] * g_comps[n]).scale(n * sgn)
    w = DgaExpr.zero(n)
    for q in range(n - 1):
        t = t + (f_comps[n - q - 1] * g_comps[q + 1]).scale((q + 1) * sgn)
        w = w - (f_comps[n - q - 2] * g_comps[q + 1]).scale((q + 1) * sgn)
    return t, w


# -- first order of the master equation ----------------------------------------------


def first_order_check(spec: ModelSpec, s1: Action) -> Verdicts:
    """(S0,S1) = 0 for deformations without d: the top form part of
    delta0(S1) is d-exact, term by term.

    Every factor of a monomial (coefficient symbols, explicit base
    variables, fiber variables) is lifted to a free component family with
    the same total parity; exactness of delta0 [M]_n = d [M]_{n-1} in the
    free algebra covers every substitution instance.  A monomial is one
    law, recorded once however many coefficient-factor counts reach it.
    """
    from .symalg import monomial_str

    n = spec.n
    report = Verdicts()
    seen_signatures = set()
    for mono in sorted(s1.expr.terms):
        cpoly = s1.expr.terms[mono]
        signatures = {len(syms) + sum(p for _, p in base) for syms, base in cpoly.terms}
        for coeff_factors in sorted(signatures):
            signature = (coeff_factors, tuple(v.degree for v in mono))
            if signature in seen_signatures:
                continue
            seen_signatures.add(signature)
            factors = [component_exprs(n, "c%d" % i, 0) for i in range(coeff_factors)]
            for pos, v in enumerate(mono):
                factors.append(component_exprs(n, "x%d_%s" % (pos, v), v.degree))
            top = product_form_part(n, factors, n)
            below = product_form_part(n, factors, n - 1)
            label = monomial_str(mono)
            report.record(label, None if top.delta0() == below.d() else label)
    return report
