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
function.  The Courant checker (n=3) likewise puts a generic section
X = sum_a X[a;] e_a in each slot, so each axiom is one residual, zero
exactly when the axiom holds for every section; a failing axiom's witness
is the residual's least term.  The Lie checker (n=2) walks basis pairs
and stops each axiom at its first failing case.  Each checker returns a
``Verdicts`` with one verdict per axiom.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable

from .models import Action, ModelError, ModelSpec, StructureData
from .pstructure import Hamiltonian, PStructure, Verdicts, generic_operand
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
    """Decide the six Courant axioms on generic sections under substituted data.

    Each slot holds a generic section X = sum_a X[a;] e_a over the section
    generators e_a (Y and Z likewise), and each base function is the generic
    F or G, so each axiom is one polynomial identity in their jets: its
    residual is zero exactly when the axiom holds for every section and
    function.  A failing row's witness is the residual's least term.  Each
    operation is computed once, and (S,x) once per distinct x.
    """
    monos = [min(e.terms) for _, e in section_representatives(p.spec)]
    X, Y, Z = (generic_operand(name, monos) for name in "XYZ")
    q = Hamiltonian(s1.expr.substitute(data))
    rep = Verdicts()
    D = functools.cache(lambda x: d_op(p, q, x))
    xy, xz, yz = (derived_bracket(p, D, a, b) for a, b in ((X, Y), (X, Z), (Y, Z)))
    rho_x_f = anchor(p, D, X, F)
    rep.record_residual("leibniz-jacobi for o", derived_bracket(p, D, X, yz)
                        - derived_bracket(p, D, xy, Z) - derived_bracket(p, D, Y, xz))
    rep.record_residual("anchor homomorphism", anchor(p, D, X, anchor(p, D, Y, G))
                        - anchor(p, D, Y, anchor(p, D, X, G)) - anchor(p, D, xy, G))
    rep.record_residual("anchored Leibniz", derived_bracket(p, D, X, F * Y) - F * xy - rho_x_f * Y)
    rep.record_residual("symmetrized bracket = D<,>",
                        xy + derived_bracket(p, D, Y, X) - D(pairing(p, X, Y)))
    rep.record_residual("anchor invariance of <,>", anchor(p, D, X, pairing(p, Y, Z))
                        - pairing(p, xy, Z) - pairing(p, Y, xz))
    rep.record_residual("<DF,e> = rho(e)F", pairing(p, D(F), X) - rho_x_f)
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
