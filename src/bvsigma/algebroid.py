"""Derived-bracket operations and algebroid axiom checkers.

All operations are built from the antibracket and the deformation action:

    e1 o e2   = ((S,e1),e2)         bilinear operation on sections
    <e1,e2>   = (e1,e2)             the fiber pairing
    rho(e) F  = (e,(S,F))           the anchor, acting on base functions
    D F       = (S,F)               sections from functions

For the n=3 models the section representatives are the degree-1 fiber
variables themselves.  For n=2 the bundle is the shifted cotangent bundle
and the derived bracket lives on potentials: the coordinate section dphi^i
is represented by the base coordinate phi^i, so [phi^i,phi^j] and
rho(phi^i) come straight out of the bracket, and general sections are
handled componentwise through the Leibniz extension.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction


from .grading import GradedVar
from .models import Action, ModelSpec, StructureData
from .pstructure import PStructure
from .symalg import CPoly, Expr


@dataclass(frozen=True)
class SectionBasis:
    """Basis of section generators for the algebroid of one model."""

    vars: tuple[GradedVar, ...]
    n: int

    @staticmethod
    def for_model(spec: ModelSpec) -> "SectionBasis":
        n = spec.n
        if n == 2:
            vars_ = tuple(spec.vars_of("B1"))
        elif n == 3 and spec.cs_block is not None:
            vars_ = tuple(spec.vars_of("A1"))
        elif n == 3:
            vars_ = tuple(spec.vars_of("A1")) + tuple(spec.vars_of("B1"))
        else:
            raise ValueError("section bases are defined for the n=2 and n=3 models")
        for v in vars_:
            if v.degree != 1:
                raise ValueError("section generator %s has unexpected degree" % (v,))
        return SectionBasis(vars_, n)

    def representatives(self) -> list[tuple[str, Expr]]:
        """(label, derived-bracket representative) pairs.

        For n=2 the representative of the section generator B_{1 i} is the
        potential phi^i; for n=3 it is the variable itself.
        """
        out = []
        for v in self.vars:
            if self.n == 2:
                out.append(("dphi%d" % v.index, Expr.base(v.index)))
            else:
                out.append((str(v), Expr.var(v)))
        return out


def derived_bracket(p: PStructure, s: Expr, e1: Expr, e2: Expr) -> Expr:
    """((S,e1),e2)."""
    return p.bracket(p.bracket(s, e1), e2)


def anchor(p: PStructure, s: Expr, e: Expr, f: Expr) -> Expr:
    """rho(e) F = (e,(S,F)); F must depend on base variables only."""
    if f.monomial_degrees() not in (set(), {0}):
        raise ValueError("anchor argument must be a base-variable function")
    return p.bracket(e, p.bracket(s, f))


def pairing(p: PStructure, e1: Expr, e2: Expr) -> Expr:
    """<e1,e2> = (e1,e2)."""
    return p.bracket(e1, e2)


def d_op(p: PStructure, s: Expr, f: Expr) -> Expr:
    """D F = (S,F)."""
    return p.bracket(s, f)


# -- symbolic operation tables ------------------------------------------------


def operation_table(p: PStructure, s1: Action, basis: SectionBasis):
    """Evaluate o, <,> and rho on the whole basis with symbols opaque."""
    reps = basis.representatives()
    rows = []
    s = s1.expr
    for (la, ea), (lb, eb) in itertools.product(reps, reps):
        rows.append(("circ", la, lb, derived_bracket(p, s, ea, eb)))
    for (la, ea), (lb, eb) in itertools.product(reps, reps):
        rows.append(("pair", la, lb, pairing(p, ea, eb)))
    base = [i for i in p.base_indices()]
    for la, ea in reps:
        for i in base:
            rows.append(("anchor", la, "phi%d" % i, anchor(p, s, ea, Expr.base(i))))
    return rows


# -- axiom checkers ------------------------------------------------------------


def random_base_poly(d: int, rng: random.Random, max_degree: int = 3) -> Expr:
    """Random polynomial in the base variables, exact rational coefficients."""
    expr = Expr.zero()
    for _ in range(rng.randint(1, 3)):
        poly = CPoly.scalar(Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)))
        for _ in range(rng.randint(0, max_degree)):
            poly = poly * CPoly.base(rng.randint(1, d))
        expr = expr + Expr.from_cpoly(poly)
    return expr


@dataclass
class AxiomReport:
    model: str
    passed: bool = True
    checks: list[tuple[str, bool]] = field(default_factory=list)
    witnesses: list[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, witness: str = ""):
        self.checks.append((name, ok))
        if not ok:
            self.passed = False
            if witness and len(self.witnesses) < 6:
                self.witnesses.append("%s: %s" % (name, witness))


def check_courant(
    p: PStructure,
    s1: Action,
    data: StructureData,
    basis: SectionBasis,
    seed: int = 0,
    samples: int = 20,
) -> AxiomReport:
    """Verify the five Courant axioms on the basis under substituted data.

    Properties taking a base function run over ``samples`` random
    polynomials of degree <= 3; comparisons are exact.
    """
    s = s1.expr.substitute(data)
    rng = random.Random(seed)
    rep = AxiomReport(model=p.scope or "")
    reps = basis.representatives()

    def circ(x, y):
        return derived_bracket(p, s, x, y)

    def rho(e, f):
        return anchor(p, s, e, f)

    # The axioms quantify over the whole section space, not just the fiber
    # basis; each check therefore also runs with one generator scaled by a
    # random base function, which is where several master-equation
    # constraints (e.g. the isotropy of the anchor image) first bite.
    base = list(p.base_indices())

    def scaled(e):
        return random_base_poly(len(base), rng) * e

    # 1: e1 o (e2 o e3) = (e1 o e2) o e3 + e2 o (e1 o e3)
    ok, wit = True, ""
    for (l1, e1), (l2, e2), (l3, e3) in itertools.product(reps, reps, reps):
        for variant, (x1, x2, x3) in (
            ("basis", (e1, e2, e3)),
            ("scaled", (e1, scaled(e2), e3)),
        ):
            lhs = circ(x1, circ(x2, x3))
            rhs = circ(circ(x1, x2), x3) + circ(x2, circ(x1, x3))
            if lhs != rhs:
                ok, wit = False, "(%s,%s,%s) %s" % (l1, l2, l3, variant)
                break
        if not ok:
            break
    rep.record("leibniz-jacobi for o", ok, wit)

    # 2: rho(e1 o e2) = [rho(e1), rho(e2)], two routes, basis and scaled.
    ok, wit = True, ""
    for (l1, e1), (l2, e2) in itertools.product(reps, reps):
        for variant in ("basis", "scaled"):
            x1 = e1 if variant == "basis" else scaled(e1)
            e12 = circ(x1, e2)
            for _ in range(max(1, samples // 4)):
                f = random_base_poly(len(base), rng)
                lhs = rho(x1, rho(e2, f)) - rho(e2, rho(x1, f))
                if lhs != rho(e12, f):
                    ok, wit = False, "(%s,%s) %s on random F" % (l1, l2, variant)
                    break
            if not ok:
                break
            v1 = [rho(x1, Expr.base(i)) for i in base]
            v2 = [rho(e2, Expr.base(i)) for i in base]
            for i_pos, i in enumerate(base):
                comm = Expr.zero()
                for j_pos, j in enumerate(base):
                    comm = comm + v1[j_pos] * v2[i_pos].partial_base(j)
                    comm = comm - v2[j_pos] * v1[i_pos].partial_base(j)
                if comm != rho(e12, Expr.base(i)):
                    ok, wit = False, "(%s,%s) %s components" % (l1, l2, variant)
                    break
            if not ok:
                break
        if not ok:
            break
    rep.record("anchor homomorphism", ok, wit)

    # 3: e1 o (F e2) = F (e1 o e2) + (rho(e1)F) e2
    ok, wit = True, ""
    for (l1, e1), (l2, e2) in itertools.product(reps, reps):
        for _ in range(max(1, samples // 4)):
            f = random_base_poly(len(base), rng)
            lhs = circ(e1, f * e2)
            rhs = f * circ(e1, e2) + rho(e1, f) * e2
            if lhs != rhs:
                ok, wit = False, "(%s,%s)" % (l1, l2)
                break
        if not ok:
            break
    rep.record("anchored Leibniz", ok, wit)

    # 4: e1 o e2 + e2 o e1 = D<e1,e2>, also with a function-scaled section.
    ok, wit = True, ""
    for (l1, e1), (l2, e2) in itertools.product(reps, reps):
        if circ(e1, e2) + circ(e2, e1) != d_op(p, s, pairing(p, e1, e2)):
            ok, wit = False, "(%s,%s)" % (l1, l2)
            break
        f = random_base_poly(len(base), rng)
        fe1 = f * e1
        lhs = circ(fe1, e2) + circ(e2, fe1)
        if lhs != d_op(p, s, pairing(p, fe1, e2)):
            ok, wit = False, "(F*%s,%s)" % (l1, l2)
            break
    rep.record("symmetrized bracket = D<,>", ok, wit)

    # 5: rho(e1)<e2,e3> = <e1 o e2, e3> + <e2, e1 o e3>, with a scaled e2.
    ok, wit = True, ""
    for (l1, e1), (l2, e2), (l3, e3) in itertools.product(reps, reps, reps):
        lhs = rho(e1, pairing(p, e2, e3))
        rhs = pairing(p, circ(e1, e2), e3) + pairing(p, e2, circ(e1, e3))
        if lhs != rhs:
            ok, wit = False, "(%s,%s,%s)" % (l1, l2, l3)
            break
        f = random_base_poly(len(base), rng)
        fe2 = f * e2
        lhs = rho(e1, pairing(p, fe2, e3))
        rhs = pairing(p, circ(e1, fe2), e3) + pairing(p, fe2, circ(e1, e3))
        if lhs != rhs:
            ok, wit = False, "(%s,F*%s,%s)" % (l1, l2, l3)
            break
    rep.record("anchor invariance of <,>", ok, wit)

    # D-pairing consistency: <DF, e> = rho(e) F.
    ok, wit = True, ""
    for l1, e1 in reps:
        for _ in range(max(1, samples // 4)):
            f = random_base_poly(len(base), rng)
            if pairing(p, d_op(p, s, f), e1) != rho(e1, f):
                ok, wit = False, "%s" % l1
                break
        if not ok:
            break
    rep.record("<DF,e> = rho(e)F", ok, wit)
    return rep


def check_lie_algebroid(
    p: PStructure,
    s1: Action,
    data: StructureData,
    basis: SectionBasis,
    seed: int = 0,
    samples: int = 20,
) -> AxiomReport:
    """Verify the Lie algebroid axioms of the n=2 model under data.

    The bracket of exact sections is the derived bracket on potentials,
    [dF,dG] -> ((S,F),G); general sections are component tuples handled by
    the Leibniz extension of the coordinate bracket.
    """
    s = s1.expr.substitute(data)
    rng = random.Random(seed)
    rep = AxiomReport(model=p.scope or "")
    base = list(p.base_indices())
    d = len(base)

    def pb(f, g):
        return derived_bracket(p, s, f, g)

    reps = basis.representatives()

    # Antisymmetry on basis pairs and random potentials.
    ok, wit = True, ""
    for (l1, e1), (l2, e2) in itertools.product(reps, reps):
        if not (pb(e1, e2) + pb(e2, e1)).is_zero():
            ok, wit = False, "(%s,%s)" % (l1, l2)
            break
    if ok:
        for _ in range(samples):
            f = random_base_poly(d, rng)
            g = random_base_poly(d, rng)
            if not (pb(f, g) + pb(g, f)).is_zero():
                ok, wit = False, "random potentials"
                break
    rep.record("bracket antisymmetry", ok, wit)

    # Property 1: anchor homomorphism, composition and component routes.
    ok, wit = True, ""
    for (l1, e1), (l2, e2) in itertools.product(reps, reps):
        for _ in range(max(1, samples // 4)):
            h = random_base_poly(d, rng)
            lhs = pb(e1, pb(e2, h)) - pb(e2, pb(e1, h))
            if lhs != pb(pb(e1, e2), h):
                ok, wit = False, "(%s,%s) on random F" % (l1, l2)
                break
        v1 = [pb(e1, Expr.base(i)) for i in base]
        v2 = [pb(e2, Expr.base(i)) for i in base]
        c12 = pb(e1, e2)
        for i_pos, i in enumerate(base):
            comm = Expr.zero()
            for j_pos, j in enumerate(base):
                comm = comm + v1[j_pos] * v2[i_pos].partial_base(j)
                comm = comm - v2[j_pos] * v1[i_pos].partial_base(j)
            if comm != pb(c12, Expr.base(i)):
                ok, wit = False, "(%s,%s) components" % (l1, l2)
                break
        if not ok:
            break
    rep.record("anchor homomorphism", ok, wit)

    # Property 2: [e1, F e2] = F [e1,e2] + (rho(e1)F) e2, componentwise.
    coord = [Expr.base(i) for i in base]
    cmat = {(i, j): pb(coord[i - 1], coord[j - 1]) for i in base for j in base}

    def rho_section(xi, h):
        out = Expr.zero()
        for i in base:
            out = out + xi[i - 1] * pb(coord[i - 1], h)
        return out

    def bracket_sections(xi, eta):
        comps = []
        for k in base:
            acc = Expr.zero()
            for i in base:
                for j in base:
                    acc = acc + xi[i - 1] * eta[j - 1] * cmat[(i, j)].partial_base(k)
            acc = acc + rho_section(xi, eta[k - 1]) - rho_section(eta, xi[k - 1])
            comps.append(acc)
        return comps

    def unit_section(j):
        return [Expr.scalar(1) if i == j else Expr.zero() for i in base]

    ok, wit = True, ""
    for i, j in itertools.product(base, base):
        for _ in range(max(1, samples // 4)):
            f = random_base_poly(d, rng)
            ei, ej = unit_section(i), unit_section(j)
            fej = [f * c for c in ej]
            lhs = bracket_sections(ei, fej)
            br = bracket_sections(ei, ej)
            rhs = [f * b for b in br]
            rhs[j - 1] = rhs[j - 1] + rho_section(ei, f)
            if lhs != rhs:
                ok, wit = False, "(e%d, F e%d)" % (i, j)
                break
        if not ok:
            break
    rep.record("Leibniz rule", ok, wit)

    # Consistency: the component bracket of exact sections matches the
    # derived bracket of their potentials.
    ok, wit = True, ""
    for _ in range(max(1, samples // 2)):
        f = random_base_poly(d, rng)
        g = random_base_poly(d, rng)
        exact_f = [f.partial_base(i) for i in base]
        exact_g = [g.partial_base(i) for i in base]
        lhs = bracket_sections(exact_f, exact_g)
        h = pb(f, g)
        if lhs != [h.partial_base(i) for i in base]:
            ok, wit = False, "[dF,dG] vs d{F,G}"
            break
    rep.record("exact sections close under the bracket", ok, wit)
    return rep


def check_algebroid(
    p: PStructure, s1: Action, data: StructureData, basis: SectionBasis, seed: int = 0
) -> AxiomReport:
    """Dispatch to the Lie (n=2) or Courant (n=3) axiom checker."""
    if basis.n == 2:
        return check_lie_algebroid(p, s1, data, basis, seed=seed)
    return check_courant(p, s1, data, basis, seed=seed)
