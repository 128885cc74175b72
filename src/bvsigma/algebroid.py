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

Derived brackets and anchors take the map D: x -> (S,x), not S.  Each
checker and ``operation_table`` memoizes D for that one call, so (S,x) is
computed once per distinct x and shared by every bracket and anchor.

The axiom checkers are exact and sample nothing.  Where an axiom takes a
base function it is evaluated on a generic one: an unassigned coefficient
symbol F (and G where a second function is needed), whose formal base
derivatives of every order stay independent.  An axiom that holds as a
polynomial identity in the jets of F and G therefore holds for every
function.  Each checker returns a ``Verdicts`` with one verdict per axiom.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable

from .models import Action, ModelError, ModelSpec, StructureData
from .pstructure import Hamiltonian, PStructure, Verdicts
from .symalg import CoeffSymbol, Expr


def section_representatives(spec: ModelSpec) -> list[tuple[str, Expr]]:
    """(label, derived-bracket representative) of each section generator.

    For n=2 the representative of the section generator B_{1 i} is the
    potential phi^i; for n=3 the generators are the degree-1 fiber
    variables (A1, and B1 unless the model has a cs block), each its own
    representative.
    """
    if spec.n == 2:
        return [("dphi%d" % v.index, Expr.base(v.index)) for v in spec.vars_of("B1")]
    if spec.n != 3:
        raise ModelError("section bases are defined for the n=2 and n=3 models")
    labels = ("A1",) if spec.cs_block is not None else ("A1", "B1")
    return [(str(v), Expr.var(v)) for label in labels for v in spec.vars_of(label)]


def derived_bracket(p: PStructure, D: Callable[[Expr], Expr], e1: Expr, e2: Expr) -> Expr:
    """((S,e1),e2), with D(x) = (S,x), e.g. ``lambda x: d_op(p, q, x)``."""
    return p.bracket(D(e1), e2)


def anchor(p: PStructure, D: Callable[[Expr], Expr], e: Expr, f: Expr) -> Expr:
    """rho(e) F = (e,(S,F)), with D as in :func:`derived_bracket`; F must
    depend on base variables only."""
    if f.monomial_degrees() not in (set(), {0}):
        raise ValueError("anchor argument must be a base-variable function")
    return p.bracket(e, D(f))


def pairing(p: PStructure, e1: Expr, e2: Expr) -> Expr:
    """<e1,e2> = (e1,e2)."""
    return p.bracket(e1, e2)


def d_op(p: PStructure, q: Hamiltonian, f: Expr) -> Expr:
    """D F = (S,F)."""
    return p.bracket(q, f)


# -- symbolic operation tables ------------------------------------------------


def operation_table(p: PStructure, s1: Action):
    """Evaluate o, <,> and rho on the whole basis with symbols opaque."""
    reps = section_representatives(p.spec)
    rows = []
    q = Hamiltonian(s1.expr)
    D = functools.cache(lambda x: d_op(p, q, x))
    for (la, ea), (lb, eb) in itertools.product(reps, reps):
        rows.append(("circ", la, lb, derived_bracket(p, D, ea, eb)))
    for (la, ea), (lb, eb) in itertools.product(reps, reps):
        rows.append(("pair", la, lb, pairing(p, ea, eb)))
    for la, ea in reps:
        for i in range(1, p.spec.d + 1):
            rows.append(("anchor", la, "phi%d" % i, anchor(p, D, ea, Expr.base(i))))
    return rows


# -- axiom checkers ------------------------------------------------------------

# Generic base functions; no model family clashes, since families are f<k>.
F = Expr.symbol(CoeffSymbol("F"))
G = Expr.symbol(CoeffSymbol("G"))


def first_failure(report: Verdicts, law: str, cases: Iterable[tuple[str, object, object]]):
    """Record ``law`` in ``report`` from its (witness, lhs, rhs) cases: it
    fails, named ``law: witness``, at the first case with lhs != rhs.

    ``cases`` is consumed lazily, so nothing after the first mismatch is
    computed.
    """
    for witness, lhs, rhs in cases:
        if lhs != rhs:
            report.record(law, "%s: %s" % (law, witness))
            return
    report.record(law)


def check_courant(p: PStructure, s1: Action, data: StructureData) -> Verdicts:
    """Verify the five Courant axioms on the basis under substituted data.

    Properties taking a base function use the generic F and G, so every
    comparison is an exact polynomial identity, not a sample.  Each derived
    operation is computed once per distinct operand tuple of this call, and
    (S,x) once per distinct x, shared by the brackets, anchors and D.
    """
    # Each generator e with its F-scaled section F e, formed once (an
    # unsupported n is refused first).
    reps = [(label, e, F * e) for label, e in section_representatives(p.spec)]
    q = Hamiltonian(s1.expr.substitute(data))
    rep = Verdicts()
    pairs = list(itertools.product(reps, reps))
    triples = list(itertools.product(reps, reps, reps))
    D = functools.cache(lambda x: d_op(p, q, x))
    circ = functools.cache(lambda x, y: derived_bracket(p, D, x, y))
    rho = functools.cache(lambda e, f: anchor(p, D, e, f))
    pair = functools.cache(lambda x, y: pairing(p, x, y))

    # The axioms quantify over the whole section space, not just the fiber
    # basis; each check therefore also runs with one generator scaled by F,
    # which is where several master-equation constraints (e.g. the isotropy
    # of the anchor image) first bite.

    # 1: e1 o (e2 o e3) = (e1 o e2) o e3 + e2 o (e1 o e3)
    first_failure(rep, "leibniz-jacobi for o", (
        ("(%s,%s,%s) %s" % (l1, l2, l3, variant),
         circ(e1, circ(x2, e3)),
         circ(circ(e1, x2), e3) + circ(x2, circ(e1, e3)))
        for (l1, e1, _), (l2, e2, f2), (l3, e3, _) in triples
        for variant, x2 in (("basis", e2), ("scaled", f2))
    ))

    # 2: rho(e1 o e2) = [rho(e1), rho(e2)], basis and scaled, on G.  Each
    # anchor is a first-order operator, so the second jets of G cancel and
    # the coefficient of d(i)G compares the i-th components of both sides.
    first_failure(rep, "anchor homomorphism", (
        ("(%s,%s) %s" % (l1, l2, variant),
         rho(x1, rho(e2, G)) - rho(e2, rho(x1, G)),
         rho(circ(x1, e2), G))
        for (l1, e1, f1), (l2, e2, _) in pairs
        for variant, x1 in (("basis", e1), ("scaled", f1))
    ))

    # 3: e1 o (F e2) = F (e1 o e2) + (rho(e1)F) e2
    first_failure(rep, "anchored Leibniz", (
        ("(%s,%s)" % (l1, l2), circ(e1, f2), F * circ(e1, e2) + rho(e1, F) * e2)
        for (l1, e1, _), (l2, e2, f2) in pairs
    ))

    # 4: e1 o e2 + e2 o e1 = D<e1,e2>, also with a function-scaled section.
    first_failure(rep, "symmetrized bracket = D<,>", (
        (wit % (l1, l2), circ(x1, e2) + circ(e2, x1), D(pair(x1, e2)))
        for (l1, e1, f1), (l2, e2, _) in pairs
        for wit, x1 in (("(%s,%s)", e1), ("(F*%s,%s)", f1))
    ))

    # 5: rho(e1)<e2,e3> = <e1 o e2, e3> + <e2, e1 o e3>, with a scaled e2.
    first_failure(rep, "anchor invariance of <,>", (
        (wit % (l1, l2, l3),
         rho(e1, pair(x2, e3)),
         pair(circ(e1, x2), e3) + pair(x2, circ(e1, e3)))
        for (l1, e1, _), (l2, e2, f2), (l3, e3, _) in triples
        for wit, x2 in (("(%s,%s,%s)", e2), ("(%s,F*%s,%s)", f2))
    ))

    # D-pairing consistency: <DF, e> = rho(e) F.
    first_failure(rep, "<DF,e> = rho(e)F", (
        (l1, pair(D(F), e1), rho(e1, F)) for l1, e1, _ in reps
    ))
    return rep


def check_lie_algebroid(p: PStructure, s1: Action, data: StructureData) -> Verdicts:
    """Verify the Lie algebroid axioms of the n=2 model under data.

    The bracket of exact sections is the derived bracket on potentials,
    [dF,dG] -> ((S,F),G); general sections are component tuples handled by
    the Leibniz extension of the coordinate bracket.  Functions and
    potentials are the generic F and G, so every comparison is exact.  Each
    derived bracket is computed once per distinct operand pair of this call,
    and its inner (S,f) once per distinct f.
    Only the anchor homomorphism (the Jacobi identity) depends on the data:
    f1 is antisymmetric and ``bracket_sections`` builds the Leibniz
    extension in, so the other three axioms hold for every bivector.
    """
    q = Hamiltonian(s1.expr.substitute(data))
    rep = Verdicts()
    base = range(1, p.spec.d + 1)
    D = functools.cache(lambda x: d_op(p, q, x))
    pb = functools.cache(lambda f, g: derived_bracket(p, D, f, g))
    pairs = list(itertools.product(section_representatives(p.spec), repeat=2))

    # Antisymmetry on basis pairs, then on generic potentials.
    def antisymmetry():
        for (l1, e1), (l2, e2) in pairs:
            yield "(%s,%s)" % (l1, l2), pb(e1, e2), -pb(e2, e1)
        yield "generic potentials (F,G)", pb(F, G), -pb(G, F)

    first_failure(rep, "bracket antisymmetry", antisymmetry())

    # Property 1: anchor homomorphism on F; the anchor is first order, so
    # the coefficient of d(i)F compares the i-th vector-field components.
    first_failure(rep, "anchor homomorphism", (
        ("(%s,%s)" % (l1, l2), pb(e1, pb(e2, F)) - pb(e2, pb(e1, F)), pb(pb(e1, e2), F))
        for (l1, e1), (l2, e2) in pairs
    ))

    # Property 2: [e1, F e2] = F [e1,e2] + (rho(e1)F) e2, componentwise.
    coord = [Expr.base(i) for i in base]
    # d_k c^{ij}, with c^{ij} = [phi^i, phi^j], once per check.
    dcmat = {(i, j, k): pb(coord[i - 1], coord[j - 1]).partial_base(k)
             for i in base for j in base for k in base}

    def rho_section(xi, h):
        out = Expr.zero()
        for i in base:
            if xi[i - 1] and h:
                out = out + xi[i - 1] * pb(coord[i - 1], h)
        return out

    def bracket_sections(xi, eta):
        # xi^i eta^j, once per (i,j) with both components nonzero.
        weights = [(i, j, xi[i - 1] * eta[j - 1])
                   for i in base if xi[i - 1] for j in base if eta[j - 1]]
        comps = []
        for k in base:
            acc = Expr.zero()
            for i, j, w in weights:
                acc = acc + w * dcmat[(i, j, k)]
            acc = acc + rho_section(xi, eta[k - 1]) - rho_section(eta, xi[k - 1])
            comps.append(acc)
        return comps

    # Each unit section e_j, and F e_j, formed once.
    units = [[Expr.scalar(1) if i == j else Expr.zero() for i in base] for j in base]
    f_units = [[F * c for c in e] for e in units]

    def leibniz():
        for i, j in itertools.product(base, base):
            ei, ej = units[i - 1], units[j - 1]
            rhs = [F * b for b in bracket_sections(ei, ej)]
            rhs[j - 1] = rhs[j - 1] + rho_section(ei, F)
            yield "(e%d, F e%d)" % (i, j), bracket_sections(ei, f_units[j - 1]), rhs

    first_failure(rep, "Leibniz rule", leibniz())

    # Consistency: the component bracket of exact sections matches the
    # derived bracket of their potentials.
    h = pb(F, G)
    exact_f = [F.partial_base(i) for i in base]
    exact_g = [G.partial_base(i) for i in base]
    first_failure(rep, "exact sections close under the bracket", [(
        "[dF,dG] vs d{F,G}",
        bracket_sections(exact_f, exact_g),
        [h.partial_base(i) for i in base],
    )])
    return rep


def check_algebroid(p: PStructure, s1: Action, data: StructureData) -> Verdicts:
    """Dispatch to the Lie (n=2) or Courant (n=3) axiom checker."""
    if p.n == 2:
        return check_lie_algebroid(p, s1, data)
    return check_courant(p, s1, data)
