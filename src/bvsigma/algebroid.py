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
rho(phi^i) come straight out of the bracket, and an exact section dF by
its potential F.

The pairing <,> is the antibracket itself, ``p.bracket(e1, e2)``.
Derived brackets and anchors take the map D: x -> (S,x), not S.  Each
checker and ``operation_table`` memoizes D for that one call, so (S,x) is
computed once per distinct x and shared by every bracket and anchor.

The axiom checkers are exact and sample nothing.  Where an axiom takes a
base function it is evaluated on a generic one: an unassigned coefficient
symbol F (G and H where more are needed), whose formal base
derivatives of every order stay independent.  An axiom that holds as a
polynomial identity in the jets of F, G and H therefore holds for every
function.  The Courant checker (n=3) likewise puts a generic section
X = sum_a X[a;] e_a in each slot, and the Lie checker (n=2) the exact
section of a generic potential (F, G, H), so each axiom is one residual,
zero exactly when the axiom holds for every section.  Each checker
returns {axiom: residual} in report order.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable

from .models import Action, ModelError, ModelSpec, StructureData
from .pstructure import Hamiltonian, PStructure, generic_operand
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
    """((S,e1),e2), with D(x) = (S,x), e.g. ``lambda x: p.bracket(q, x)``."""
    return p.bracket(D(e1), e2)


def anchor(p: PStructure, D: Callable[[Expr], Expr], e: Expr, f: Expr) -> Expr:
    """rho(e) F = (e,(S,F)), with D as in :func:`derived_bracket`; F must
    depend on base variables only."""
    if f.monomial_degrees() not in (set(), {0}):
        raise ValueError("anchor argument must be a base-variable function")
    return p.bracket(e, D(f))


# -- symbolic operation tables ------------------------------------------------


def operation_table(p: PStructure, s1: Action):
    """Evaluate o, <,> and rho on the whole basis with symbols opaque."""
    reps = section_representatives(p.spec)
    rows = []
    q = Hamiltonian(s1.expr)
    D = functools.cache(lambda x: p.bracket(q, x))
    for (la, ea), (lb, eb) in itertools.product(reps, reps):
        rows.append(("circ", la, lb, derived_bracket(p, D, ea, eb)))
    for (la, ea), (lb, eb) in itertools.product(reps, reps):
        rows.append(("pair", la, lb, p.bracket(ea, eb)))
    for la, ea in reps:
        for i in range(1, p.spec.d + 1):
            rows.append(("anchor", la, "phi%d" % i, anchor(p, D, ea, Expr.base(i))))
    return rows


# -- axiom checkers ------------------------------------------------------------

# Generic base functions, and at n=2 generic potentials; no model family
# clashes, since families are f<k>.
F = Expr.symbol(CoeffSymbol("F"))
G = Expr.symbol(CoeffSymbol("G"))
H = Expr.symbol(CoeffSymbol("H"))


def check_courant(p: PStructure, s1: Action, data: StructureData) -> dict[str, Expr]:
    """Decide the six Courant axioms on generic sections under substituted data.

    Each slot holds a generic section X = sum_a X[a;] e_a over the section
    generators e_a (Y and Z likewise), and each base function is the generic
    F or G, so each axiom is one polynomial identity in their jets: its
    residual is zero exactly when the axiom holds for every section and
    function.  Each operation is computed once, and (S,x) once per
    distinct x.
    """
    monos = [min(e.terms) for _, e in section_representatives(p.spec)]
    X, Y, Z = (generic_operand(name, monos) for name in "XYZ")
    q = Hamiltonian(s1.expr.substitute(data))
    D = functools.cache(lambda x: p.bracket(q, x))
    xy, xz, yz = (derived_bracket(p, D, a, b) for a, b in ((X, Y), (X, Z), (Y, Z)))
    rho_x_f = anchor(p, D, X, F)
    return {
        "leibniz-jacobi for o": derived_bracket(p, D, X, yz)
        - derived_bracket(p, D, xy, Z) - derived_bracket(p, D, Y, xz),
        "anchor homomorphism": anchor(p, D, X, anchor(p, D, Y, G))
        - anchor(p, D, Y, anchor(p, D, X, G)) - anchor(p, D, xy, G),
        "anchored Leibniz": derived_bracket(p, D, X, F * Y) - F * xy - rho_x_f * Y,
        "symmetrized bracket = D<,>": xy + derived_bracket(p, D, Y, X) - D(p.bracket(X, Y)),
        "anchor invariance of <,>": anchor(p, D, X, p.bracket(Y, Z))
        - p.bracket(xy, Z) - p.bracket(Y, xz),
        "<DF,e> = rho(e)F": p.bracket(D(F), X) - rho_x_f,
    }


def check_lie_algebroid(p: PStructure, s1: Action, data: StructureData) -> dict[str, Expr]:
    """Decide the Lie algebroid axioms of the n=2 model under substituted data.

    The bracket of exact sections is the derived bracket on potentials,
    [dF,dG] = d((S,F),G), and the anchor acts by rho(dF)H = ((S,F),H), so
    each axiom is one residual on the generic potentials F, G and H, zero
    exactly when the axiom holds.  The anchor homomorphism is the
    Jacobiator of the Poisson bracket {F,G} = ((S,F),G), trilinear in dF,
    dG and dH, and the one row the bivector decides; f1 is antisymmetric,
    so antisymmetry holds for every bivector.  The bracket of all sections is the Leibniz extension
    of the bracket of exact ones, so the Leibniz rule and the closure of
    exact sections hold for every bivector and are not rows.
    """
    q = Hamiltonian(s1.expr.substitute(data))
    D = functools.cache(lambda x: p.bracket(q, x))
    fg = derived_bracket(p, D, F, G)
    return {
        "bracket antisymmetry": fg + derived_bracket(p, D, G, F),
        "anchor homomorphism": derived_bracket(p, D, F, derived_bracket(p, D, G, H))
        - derived_bracket(p, D, G, derived_bracket(p, D, F, H)) - derived_bracket(p, D, fg, H),
    }


def check_algebroid(p: PStructure, s1: Action, data: StructureData) -> dict[str, Expr]:
    """Dispatch to the Lie (n=2) or Courant (n=3) axiom checker."""
    if p.n == 2:
        return check_lie_algebroid(p, s1, data)
    return check_courant(p, s1, data)
