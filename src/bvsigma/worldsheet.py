"""Free bigraded differential algebra for worldsheet arguments.

Superfields expand into component fields carrying (form degree, ghost
number); the total parity of every component equals the parity of its
parent superfield.  The exterior derivative d raises form degree by one and
its images are independent generators subject only to d^2 = 0 and the form
truncation at n.  The gauge differential delta0 sends the form-r component
to d of the form-(r-1) component of the same family.  Both are left
derivations of odd total parity; "modulo d-exact" questions are decided by
exact linear algebra over the finite truncated monomial basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .grading import sort_monomial
from .models import Action, KineticPairing, ModelSpec
from .rowreduce import RowSpan, _eliminate
from .symalg import accumulate, exact


@dataclass(frozen=True, order=True)
class ComponentField:
    """One (form, ghost) component of a superfield, or its d-image."""

    family: str
    form: int
    ghost: int
    dimage: bool = False

    @property
    def parity(self) -> int:
        return (self.form + self.ghost) & 1

    def d(self) -> Optional["ComponentField"]:
        if self.dimage:
            return None
        return ComponentField(self.family, self.form + 1, self.ghost, True)

    def __str__(self) -> str:
        core = "%s(%d,%d)" % (self.family, self.form, self.ghost)
        return "d" + core if self.dimage else core


class DgaExpr:
    """Polynomial in component fields, truncated above form degree n."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        data: dict[tuple[ComponentField, ...], Fraction] = {}
        if terms:
            for m, c in terms.items():
                if c and sum(g.form for g in m) <= n:
                    data[m] = exact(c)
        self.terms = data

    @staticmethod
    def zero(n: int) -> "DgaExpr":
        return DgaExpr(n)

    @staticmethod
    def scalar(n: int, c) -> "DgaExpr":
        return DgaExpr(n, {(): c})

    @staticmethod
    def gen(n: int, g: ComponentField) -> "DgaExpr":
        return DgaExpr(n, {(g,): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, DgaExpr) and self.n == other.n and self.terms == other.terms

    def __add__(self, other: "DgaExpr") -> "DgaExpr":
        acc = dict(self.terms)
        for m, c in other.terms.items():
            accumulate(acc, m, c)
        return DgaExpr(self.n, acc)

    def __neg__(self) -> "DgaExpr":
        return DgaExpr(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "DgaExpr") -> "DgaExpr":
        return self + (-other)

    def scale(self, c) -> "DgaExpr":
        c = exact(c)
        if not c:
            return DgaExpr(self.n)
        return DgaExpr(self.n, {m: v * c for m, v in self.terms.items()})

    def __mul__(self, other: "DgaExpr") -> "DgaExpr":
        acc: dict[tuple[ComponentField, ...], Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if sum(g.form for g in m1) + sum(g.form for g in m2) > self.n:
                    continue
                sign, mono = sort_monomial(m1 + m2)
                if sign:
                    accumulate(acc, mono, c1 * c2 * sign)
        return DgaExpr(self.n, acc)

    def form_part(self, r: int) -> "DgaExpr":
        return DgaExpr(
            self.n, {m: c for m, c in self.terms.items() if sum(g.form for g in m) == r}
        )

    def parity(self) -> Optional[int]:
        """Total parity if homogeneous (None for zero or mixed)."""
        ps = {sum(g.parity for g in m) & 1 for m in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def _derive(self, image) -> "DgaExpr":
        """Left derivation defined by ``image(gen) -> DgaExpr | None``:
        D(g1..gk) = sum_i (-1)^(|g1|+..+|g_{i-1}|) g1..D(gi)..gk.
        """
        acc: dict[tuple[ComponentField, ...], Fraction] = {}
        for m, c in self.terms.items():
            sign = 1
            for pos, g in enumerate(m):
                img = image(g)
                if img is not None and not img.is_zero():
                    prefix = DgaExpr(self.n, {m[:pos]: 1})
                    suffix = DgaExpr(self.n, {m[pos + 1 :]: 1})
                    for mono, v in (prefix * img * suffix).terms.items():
                        accumulate(acc, mono, v * c * sign)
                if g.parity:
                    sign = -sign
        return DgaExpr(self.n, acc)

    def d(self) -> "DgaExpr":
        """Exterior derivative: odd derivation, d^2 = 0, raises form by 1."""

        def image(g: ComponentField):
            nxt = g.d()
            if nxt is None:
                return DgaExpr.zero(self.n)
            return DgaExpr.gen(self.n, nxt)

        return self._derive(image)

    def delta0(self) -> "DgaExpr":
        """Gauge differential: component r maps to d(component r-1)."""

        def image(g: ComponentField):
            if g.dimage or g.form == 0:
                return DgaExpr.zero(self.n)
            prev = ComponentField(g.family, g.form - 1, g.ghost + 1)
            return DgaExpr.gen(self.n, prev.d())

        return self._derive(image)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            c = self.terms[m]
            body = "*".join(str(g) for g in m) if m else "1"
            bits.append("%s*%s" % (c, body) if body != "1" else str(c))
        return " + ".join(bits).replace("+ -", "- ")


def apply_d(f: DgaExpr) -> DgaExpr:
    return f.d()


def apply_delta0(f: DgaExpr) -> DgaExpr:
    return f.delta0()


def superfield(n: int, family: str, total_degree: int) -> list[ComponentField]:
    """Components r = 0..n of a superfield with the given total degree."""
    return [ComponentField(family, r, total_degree - r) for r in range(n + 1)]


def component_exprs(n: int, family: str, total_degree: int) -> list[DgaExpr]:
    return [DgaExpr.gen(n, g) for g in superfield(n, family, total_degree)]


def product_form_part(n: int, factors: Sequence[list[DgaExpr]], r: int) -> DgaExpr:
    """Form-degree-r part of a product of component-expanded superfields."""
    out = DgaExpr.zero(n)
    m = len(factors)
    if m == 0:
        return DgaExpr.scalar(n, 1) if r == 0 else out
    for split in itertools.product(range(r + 1), repeat=m):
        if sum(split) != r:
            continue
        term = DgaExpr.scalar(n, 1)
        for fac, ri in zip(factors, split):
            term = term * fac[ri]
            if term.is_zero():
                break
        out = out + term
    return out


# -- integration modulo d-exact terms ---------------------------------------------


def _d_preimage_candidates(mono: tuple[ComponentField, ...]):
    """Monomials m with d(m) possibly supported on ``mono``."""
    for pos, g in enumerate(mono):
        if g.dimage:
            plain = ComponentField(g.family, g.form - 1, g.ghost)
            sign, cand = sort_monomial(mono[:pos] + (plain,) + mono[pos + 1 :])
            if sign:
                yield cand


class Integrator:
    """Decides membership in the image of d on the relevant finite basis."""

    def __init__(self, n: int):
        self.n = n

    def reduce(self, expr: DgaExpr) -> DgaExpr:
        """Canonical representative of the form-n part modulo exact terms."""
        top = expr.form_part(self.n)
        if top.is_zero():
            return top
        support = set(top.terms)
        candidates: set = set()
        frontier = set(support)
        while frontier:
            new_candidates = set()
            for mono in frontier:
                for cand in _d_preimage_candidates(mono):
                    if cand not in candidates:
                        new_candidates.add(cand)
            candidates |= new_candidates
            frontier = set()
            for cand in new_candidates:
                image = DgaExpr(self.n, {cand: Fraction(1)}).d()
                for mono in image.terms:
                    if mono not in support:
                        support.add(mono)
                        frontier.add(mono)
        index = {m: i for i, m in enumerate(sorted(support))}
        span = RowSpan()
        for cand in sorted(candidates):
            image = DgaExpr(self.n, {cand: Fraction(1)}).d()
            if not image.is_zero():
                span.add({index[m]: c for m, c in image.terms.items()})
        row = {index[m]: c for m, c in top.terms.items()}
        residual = _eliminate(row, span.basis)
        back = {m: residual[i] for m, i in index.items() if i in residual}
        return DgaExpr(self.n, back)


def integrate(expr: DgaExpr) -> DgaExpr:
    """The class of the form-n part modulo d(anything): zero iff exact."""
    return Integrator(expr.n).reduce(expr)


# -- the kinetic master equation ----------------------------------------------------


def kinetic_action_dga(spec: ModelSpec, kinetic: KineticPairing) -> DgaExpr:
    """The form-n part of the kinetic action in component fields."""
    n = spec.n
    s0 = DgaExpr.zero(n)
    for term in kinetic.terms:
        b = spec.block(term.b_block)
        a = spec.block(term.a_block)
        for i in range(1, a.rank + 1):
            bfam = component_exprs(n, "%s_%d" % (b.label, i), b.degree)
            afam = superfield(n, "%s_%d" % (a.label, i), a.degree)
            for r in range(n):
                da = afam[r].d()
                piece = bfam[n - r - 1] * DgaExpr.gen(n, da)
                s0 = s0 + piece.scale(term.sign)
    if kinetic.cs_term is not None:
        cs = kinetic.cs_term
        q = (n - 1) // 2
        fams = [superfield(n, "%s_%d" % (kinetic.cs_label, i), q) for i in range(1, cs.rank + 1)]
        for a_i, b_i in itertools.product(range(cs.rank), repeat=2):
            kval = cs.metric[a_i][b_i]
            if not kval:
                continue
            for r in range(n):
                da = fams[b_i][r].d()
                piece = DgaExpr.gen(n, fams[a_i][n - r - 1]) * DgaExpr.gen(n, da)
                s0 = s0 + piece.scale(Fraction(kval, 2))
    return s0


@dataclass
class KineticMasterReport:
    passed: bool
    detail: str


def kinetic_master_check(spec: ModelSpec, kinetic: KineticPairing) -> KineticMasterReport:
    """(S0,S0) = 0: delta0 of the kinetic action integrates to zero."""
    s0 = kinetic_action_dga(spec, kinetic)
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
    with_d_preimage: bool = False,
):
    """T with integral(sum_p F_{n-p-1} dG_p) = integral(delta0 T).

    Adjacent components telescope: each difference
    F_{n-q-1} dG_q - F_{n-q-2} dG_{q+1} is delta0-exact up to an exact
    d-term, and the last term F_0 dG_{n-1} closes through F_0 G_n.  The
    construction is validated by exact equality: the identity

        sum - delta0(T) - d(W) = 0

    holds on the nose in the free algebra, with W returned on request.
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
    if with_d_preimage:
        return t, w
    return t


# -- first order of the master equation ----------------------------------------------


@dataclass
class FirstOrderReport:
    passed: bool
    monomials: list[tuple[str, bool]]


def first_order_check(spec: ModelSpec, s1: Action) -> FirstOrderReport:
    """(S0,S1) = 0 for deformations without d: the top form part of
    delta0(S1) is d-exact, term by term.

    Every factor of a monomial (coefficient symbols, explicit base
    variables, fiber variables) is lifted to a free component family with
    the same total parity; exactness of delta0 [M]_n = d [M]_{n-1} in the
    free algebra covers every substitution instance.
    """
    from .symalg import monomial_str

    n = spec.n
    results = []
    ok_all = True
    seen_signatures = set()
    for mono in sorted(s1.expr.terms):
        cpoly = s1.expr.terms[mono]
        signatures = set()
        for (syms, base) in cpoly.terms:
            coeff_factors = len(syms) + sum(p for _, p in base)
            signatures.add(coeff_factors)
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
            ok = top.delta0() == below.d()
            results.append((monomial_str(mono), ok))
            ok_all = ok_all and ok
    return FirstOrderReport(ok_all, results)
