"""Classical master equation expansion and the induced identity systems.

``expand_master`` computes the quadratic deformation term (S1,S1);
``extract_identities`` groups it by graded monomial, one coefficient
equation per monomial class.  ``transcribe_paper_identities`` carries the
hand-transcribed published identity systems for the n=2 model, the n=3
two-block model and the n=3 self-paired model, expanded over explicit
indices, so the two routes can be compared by exact linear span.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .models import Action, ModelSpec, StructureData, ansatz_families
from .pstructure import PStructure
from .rowreduce import span_includes
from .symalg import CPoly, Expr, _perm_sign, make_symbol, monomial_str

EXTRACTED = "extracted"
TRANSCRIBED = "transcribed-from-paper"


@dataclass
class IdentitySet:
    """Coefficient equations (CoeffPoly = 0) indexed by graded monomial tag."""

    spec: str
    provenance: str
    equations: list[tuple[str, CPoly]] = field(default_factory=list)

    def alphabet(self) -> dict[str, tuple[int, int]]:
        """Symbol families in use, as name -> (lower slots, upper slots)."""
        shapes: dict[str, tuple[int, int]] = {}
        for _, poly in self.equations:
            for s in poly.symbols():
                shape = (len(s.lower), len(s.upper))
                if shapes.setdefault(s.name, shape) != shape:
                    raise ValueError(
                        "symbol %s used with inconsistent index shapes" % s.name
                    )
        return shapes

    def __len__(self) -> int:
        return len(self.equations)


def expand_master(p: PStructure, s1: Action) -> Expr:
    """The g^2 term (S1,S1) of the master equation, canonical."""
    deg = s1.expr.homogeneous_degree()
    if s1.expr and deg != s1.total_degree:
        raise ValueError("S1 is not homogeneous of its declared degree")
    return p.bracket(s1.expr, s1.expr)


def extract_identities(p: PStructure, s1: Action) -> IdentitySet:
    """Group (S1,S1) by graded monomial; each coefficient is one equation."""
    expanded = expand_master(p, s1)
    out = IdentitySet(spec=p.scope or "", provenance=EXTRACTED)
    for mono in sorted(expanded.terms):
        out.equations.append((monomial_str(mono), expanded.terms[mono]))
    return out


def verify_structure_data(p: PStructure, s1: Action, data: StructureData):
    """Substitute concrete data into (S1,S1) and report the residual."""
    residual = expand_master(p, s1).substitute(data)
    details = [
        (monomial_str(m), str(residual.terms[m])) for m in sorted(residual.terms)
    ]
    return VerifyReport(passed=residual.is_zero(), residual=details)


@dataclass
class VerifyReport:
    passed: bool
    residual: list[tuple[str, str]]


# -- span comparison -------------------------------------------------------------

EQUAL = "equal"
A_IN_B = "A<B"
B_IN_A = "B<A"
INCOMPARABLE = "incomparable"


@dataclass
class SpanComparison:
    relation: str
    witness: Optional[str] = None  # an equation outside the other span


def _rows_of(ident: IdentitySet, index: dict) -> list[dict[int, Fraction]]:
    rows = []
    for _, poly in ident.equations:
        row = {}
        for key, val in poly.terms.items():
            col = index.setdefault(key, len(index))
            row[col] = val
        rows.append(row)
    return rows


def compare_identity_spans(a: IdentitySet, b: IdentitySet) -> SpanComparison:
    """Exact row-space comparison of two identity systems over Q.

    Each equation is a sparse rational vector over the shared monomial
    basis of its coefficient polynomials; inclusion both ways is decided by
    Gaussian elimination.  Equations are only defined up to scaling and
    linear combination, which this comparison is insensitive to.
    """
    alpha_a, alpha_b = a.alphabet(), b.alphabet()
    for name in set(alpha_a) & set(alpha_b):
        if alpha_a[name] != alpha_b[name]:
            raise ValueError(
                "alphabet mismatch: %s has %d lower/%d upper indices in one set "
                "and %d/%d in the other" % ((name,) + alpha_a[name] + alpha_b[name])
            )
    index: dict = {}
    rows_a = _rows_of(a, index)
    rows_b = _rows_of(b, index)
    missing_b = span_includes(rows_a, rows_b)  # first b-eq outside span(a)
    missing_a = span_includes(rows_b, rows_a)  # first a-eq outside span(b)
    if missing_a is None and missing_b is None:
        return SpanComparison(EQUAL)
    if missing_a is None:
        return SpanComparison(A_IN_B, witness="B: %s = 0" % b.equations[missing_b][1])
    if missing_b is None:
        return SpanComparison(B_IN_A, witness="A: %s = 0" % a.equations[missing_a][1])
    return SpanComparison(INCOMPARABLE, witness="A: %s = 0" % a.equations[missing_a][1])


# -- paper transcriptions ----------------------------------------------------------

N2_JACOBI = "n2_jacobi"
N3_BF = "n3_bf"
N3_CS = "n3_cs"


def _sym(spec: ModelSpec, fam_map, name, lower=(), upper=(), deriv=()) -> CPoly:
    fam = fam_map[name]
    sign, sym = make_symbol(name, lower, upper, deriv, fam.groups)
    if sym is None:
        return CPoly.zero()
    return CPoly.symbol(sym, sign)


def _perms_signed(indices: Sequence[int]):
    """Every permutation of ``indices`` with its sign."""
    base = list(indices)
    for perm in itertools.permutations(range(len(base))):
        yield _perm_sign(perm), [base[k] for k in perm]


def transcribe_paper_identities(which: str, spec: ModelSpec) -> IdentitySet:
    """The published identity systems, expanded over explicit indices.

    Antisymmetrization brackets follow the convention
    Phi_[ab] = Phi_ab - Phi_ba (full signed permutation sum, no 1/k!).
    """
    if which == N2_JACOBI:
        eqs = _transcribe_n2(spec)
    elif which == N3_BF:
        eqs = _transcribe_n3_bf(spec)
    elif which == N3_CS:
        eqs = _transcribe_n3_cs(spec)
    else:
        raise ValueError("unknown identity family %r" % which)
    out = IdentitySet(spec=spec.fingerprint(), provenance=TRANSCRIBED)
    seen = set()
    for tag, poly in eqs:
        if poly and poly.sort_key() not in seen:
            seen.add(poly.sort_key())
            out.equations.append((tag, poly))
    return out


def _transcribe_n2(spec: ModelSpec):
    """f^{kl} d_l f^{ij} + f^{il} d_l f^{jk} + f^{jl} d_l f^{ki} = 0."""
    fams = {f.name: f for f in ansatz_families(spec)}
    d = spec.d

    def f(i, j, deriv=()):
        return _sym(spec, fams, "f1", upper=(i, j), deriv=deriv)

    eqs = []
    for i, j, k in itertools.product(range(1, d + 1), repeat=3):
        poly = CPoly.zero()
        for l in range(1, d + 1):
            poly = poly + f(k, l) * f(i, j, deriv=(l,))
            poly = poly + f(i, l) * f(j, k, deriv=(l,))
            poly = poly + f(j, l) * f(k, i, deriv=(l,))
        eqs.append(("jacobi[%d,%d,%d]" % (i, j, k), poly))
    return eqs


def _transcribe_n3_bf(spec: ModelSpec):
    """The nine published identities of the n=3 two-block model.

    The ansatz stores the mixed family f2 with upper slots ordered
    (E*-index, M-index); the published form writes f2^{i b} with the M-index
    first, so the slot order is swapped in the helper below.
    """
    fams = {f.name: f for f in ansatz_families(spec)}
    d = spec.d
    r = spec.bf_blocks[0].rank
    M = range(1, d + 1)
    R = range(1, r + 1)

    def f1(a, i, deriv=()):
        return _sym(spec, fams, "f1", lower=(a,), upper=(i,), deriv=deriv)

    def f2(i, b, deriv=()):
        return _sym(spec, fams, "f2", upper=(b, i), deriv=deriv)

    def f3(a, b, c, deriv=()):
        return _sym(spec, fams, "f3", lower=(a, b, c), deriv=deriv)

    def f4(a, b, c, deriv=()):
        return _sym(spec, fams, "f4", lower=(a, b), upper=(c,), deriv=deriv)

    def f5(a, b, c, deriv=()):
        return _sym(spec, fams, "f5", lower=(a,), upper=(b, c), deriv=deriv)

    def f6(a, b, c, deriv=()):
        return _sym(spec, fams, "f6", upper=(a, b, c), deriv=deriv)

    eqs = []
    for i, j in itertools.product(M, M):
        poly = CPoly.zero()
        for e in R:
            poly = poly + f1(e, i) * f2(j, e) + f2(i, e) * f1(e, j)
        eqs.append(("bf1[%d,%d]" % (i, j), poly))

    for i, b, c in itertools.product(M, R, R):
        poly = CPoly.zero()
        for j in M:
            poly = poly - f1(c, i, deriv=(j,)) * f1(b, j)
            poly = poly + f1(b, i, deriv=(j,)) * f1(c, j)
        for e in R:
            poly = poly + f1(e, i) * f4(b, c, e) + f2(i, e) * f3(e, b, c)
        eqs.append(("bf2[%d,%d,%d]" % (i, b, c), poly))

    for i, b, c in itertools.product(M, R, R):
        poly = CPoly.zero()
        for j in M:
            poly = poly + f1(b, j) * f2(i, c, deriv=(j,))
            poly = poly - f2(j, c) * f1(b, i, deriv=(j,))
        for e in R:
            poly = poly + f1(e, i) * f5(b, e, c) - f2(i, e) * f4(e, b, c)
        eqs.append(("bf3[%d,%d,%d]" % (i, b, c), poly))

    for i, b, c in itertools.product(M, R, R):
        poly = CPoly.zero()
        for j in M:
            poly = poly - f2(j, b) * f2(i, c, deriv=(j,))
            poly = poly + f2(j, c) * f2(i, b, deriv=(j,))
        for e in R:
            poly = poly + f1(e, i) * f6(e, b, c) + f2(i, e) * f5(e, b, c)
        eqs.append(("bf4[%d,%d,%d]" % (i, b, c), poly))

    for a, b, c, dd in itertools.product(R, R, R, R):
        poly = CPoly.zero()
        for sign, (x, y, z) in _perms_signed((a, b, c)):
            for j in M:
                poly = poly - f1(x, j).scale(sign) * f4(y, z, dd, deriv=(j,))
            for e in R:
                poly = poly + (f4(e, x, dd) * f4(y, z, e)).scale(sign)
                poly = poly + (f3(e, x, y) * f5(z, dd, e)).scale(sign)
        for j in M:
            poly = poly + f2(j, dd) * f3(a, b, c, deriv=(j,))
        eqs.append(("bf5[%d,%d,%d;%d]" % (a, b, c, dd), poly))

    for a, b, c, dd in itertools.product(R, R, R, R):
        poly = CPoly.zero()
        for j in M:
            poly = poly - f1(a, j) * f5(b, c, dd, deriv=(j,))
            poly = poly + f1(b, j) * f5(a, c, dd, deriv=(j,))
            poly = poly - f2(j, c) * f4(a, b, dd, deriv=(j,))
            poly = poly + f2(j, dd) * f4(a, b, c, deriv=(j,))
        for e in R:
            poly = poly + f3(e, a, b) * f6(e, c, dd)
            poly = poly + f4(e, a, dd) * f5(b, c, e)
            poly = poly - f4(e, b, dd) * f5(a, c, e)
            poly = poly - f4(e, a, c) * f5(b, dd, e)
            poly = poly + f4(e, b, c) * f5(a, dd, e)
            poly = poly + f4(a, b, e) * f5(e, c, dd)
        eqs.append(("bf6[%d,%d;%d,%d]" % (a, b, c, dd), poly))

    for a, b, c, dd in itertools.product(R, R, R, R):
        poly = CPoly.zero()
        for j in M:
            poly = poly - f1(a, j) * f6(b, c, dd, deriv=(j,))
        for sign, (x, y, z) in _perms_signed((b, c, dd)):
            for j in M:
                poly = poly + f2(j, x).scale(sign) * f5(a, y, z, deriv=(j,))
            for e in R:
                poly = poly + (f4(e, a, x) * f6(y, z, e)).scale(sign)
                poly = poly + (f5(e, x, y) * f5(a, z, e)).scale(sign)
        eqs.append(("bf7[%d;%d,%d,%d]" % (a, b, c, dd), poly))

    for a, b, c, dd in itertools.product(R, R, R, R):
        poly = CPoly.zero()
        for sign, (w, x, y, z) in _perms_signed((a, b, c, dd)):
            for j in M:
                poly = poly - f2(j, w).scale(sign) * f6(x, y, z, deriv=(j,))
            for e in R:
                poly = poly + (f6(e, w, x) * f5(e, y, z)).scale(sign)
        eqs.append(("bf8[%d,%d,%d,%d]" % (a, b, c, dd), poly))

    for a, b, c, dd in itertools.product(R, R, R, R):
        poly = CPoly.zero()
        for sign, (w, x, y, z) in _perms_signed((a, b, c, dd)):
            for j in M:
                poly = poly - f1(w, j).scale(sign) * f3(x, y, z, deriv=(j,))
            for e in R:
                poly = poly + (f4(w, x, e) * f3(y, z, e)).scale(sign)
        eqs.append(("bf9[%d,%d,%d,%d]" % (a, b, c, dd), poly))

    return eqs


def _transcribe_n3_cs(spec: ModelSpec):
    """The three published identities of the n=3 self-paired model."""
    fams = {f.name: f for f in ansatz_families(spec)}
    d = spec.d
    r = spec.cs_block.rank
    k = spec.cs_block.metric
    M = range(1, d + 1)
    R = range(1, r + 1)

    def f1(a, i, deriv=()):
        return _sym(spec, fams, "f1", lower=(a,), upper=(i,), deriv=deriv)

    def f2(a, b, c, deriv=()):
        return _sym(spec, fams, "f2", lower=(a, b, c), deriv=deriv)

    eqs = []
    for i, j in itertools.product(M, M):
        poly = CPoly.zero()
        for a, b in itertools.product(R, R):
            if k[a - 1][b - 1]:
                poly = poly + (f1(a, i) * f1(b, j)).scale(k[a - 1][b - 1])
        eqs.append(("cs1[%d,%d]" % (i, j), poly))

    for i, b, c in itertools.product(M, R, R):
        poly = CPoly.zero()
        for j in M:
            poly = poly + f1(b, i, deriv=(j,)) * f1(c, j)
            poly = poly - f1(c, i, deriv=(j,)) * f1(b, j)
        for e, f in itertools.product(R, R):
            if k[e - 1][f - 1]:
                poly = poly + (f1(e, i) * f2(f, b, c)).scale(k[e - 1][f - 1])
        eqs.append(("cs2[%d,%d,%d]" % (i, b, c), poly))

    for a, b, c, dd in itertools.product(R, R, R, R):
        poly = CPoly.zero()
        for j in M:
            poly = poly + f1(dd, j) * f2(a, b, c, deriv=(j,))
            poly = poly - f1(c, j) * f2(dd, a, b, deriv=(j,))
            poly = poly + f1(b, j) * f2(c, dd, a, deriv=(j,))
            poly = poly - f1(a, j) * f2(b, c, dd, deriv=(j,))
        for e, f in itertools.product(R, R):
            kk = k[e - 1][f - 1]
            if kk:
                poly = poly + (f2(e, a, b) * f2(c, dd, f)).scale(kk)
                poly = poly + (f2(e, a, c) * f2(dd, b, f)).scale(kk)
                poly = poly + (f2(e, a, dd) * f2(b, c, f)).scale(kk)
        eqs.append(("cs3[%d,%d,%d,%d]" % (a, b, c, dd), poly))

    return eqs


# -- randomized consistency helpers ------------------------------------------------


def random_assignment(polys: Sequence[CPoly], d: int, rng: random.Random):
    """Random rational point for every symbol and base variable present."""
    sym_values = {}
    for poly in polys:
        for sym in poly.symbols():
            if sym not in sym_values:
                sym_values[sym] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    base_values = {j: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for j in range(1, d + 1)}
    return sym_values, base_values
