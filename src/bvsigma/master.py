"""Classical master equation expansion and the induced identity systems.

``expand_master`` computes the quadratic deformation term (S1,S1);
``extract_identities`` groups it by graded monomial, one coefficient
equation per monomial class.  ``transcribe_paper_identities`` expands the
published identity systems of the n=2 model, the n=3 two-block model and
the n=3 self-paired model over explicit indices, so the two routes can be
compared by exact linear span.

The published systems are one table, ``PAPER_IDENTITIES``, read by one
interpreter.  Its conventions: index letters i..l run over the base 1..d
and all other letters over the fiber rank; a letter that is not free in an
identity's tag is summed; a symmetrizer is the signed unshuffle sum, each
distinct term once, with no 1/k!; and each factor is written in its storage
slot order, so the published f2^{ib} of the two-block model is ``f2[;bi]``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Optional

from .models import Action, ModelError, ModelSpec, StructureData, ansatz_families
from .pstructure import PStructure
from .rowreduce import span_includes
from .symalg import (
    ANTISYM, LOWER, CPoly, Expr, _perm_sign, accumulate, exact, make_symbol, monomial_str,
)

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
        distinct = dict.fromkeys(
            s for _, poly in self.equations for syms, _ in poly.terms for s in syms
        )
        shapes: dict[str, tuple[int, int]] = {}
        for s in distinct:
            shape = (len(s.lower), len(s.upper))
            if shapes.setdefault(s.name, shape) != shape:
                raise ValueError("symbol %s used with inconsistent index shapes" % s.name)
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
    out = IdentitySet(spec=p.scope, provenance=EXTRACTED)
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


def _distinct_rows(rows: list[dict[int, Fraction]]) -> tuple[list[dict[int, Fraction]], list[int]]:
    """The rows that are not +- an earlier row, and their positions.

    Rows are bucketed by a hash that is the same for a row and its
    negative, and compared exactly within a bucket; only positions are
    kept, so the pass holds no copy of a row.
    """
    buckets: dict[int, list[int]] = {}
    kept, at = [], []
    for i, row in enumerate(rows):
        neg = {c: -v for c, v in row.items()}
        bucket = buckets.setdefault(hash(frozenset(row.items())) ^ hash(frozenset(neg.items())), [])
        if any(rows[j] in (row, neg) for j in bucket):
            continue
        bucket.append(i)
        kept.append(row)
        at.append(i)
    return kept, at


def compare_identity_spans(a: IdentitySet, b: IdentitySet) -> SpanComparison:
    """Exact row-space comparison of two identity systems over Q.

    Each equation is a sparse rational vector over the shared monomial
    basis of its coefficient polynomials; inclusion both ways is decided by
    Gaussian elimination.  Equations are only defined up to scaling and
    linear combination, which this comparison is insensitive to.  A row
    that is +- an earlier row of its side is left out before elimination:
    it lies in a span exactly when its first occurrence does, which comes
    first, so the witness is the same.
    """
    alpha_a, alpha_b = a.alphabet(), b.alphabet()
    for name in set(alpha_a) & set(alpha_b):
        if alpha_a[name] != alpha_b[name]:
            raise ModelError(
                "alphabet mismatch: %s has %d lower/%d upper indices in one set "
                "and %d/%d in the other" % ((name,) + alpha_a[name] + alpha_b[name])
            )
    index: dict = {}
    rows_a, at_a = _distinct_rows(_rows_of(a, index))
    rows_b, at_b = _distinct_rows(_rows_of(b, index))
    missing_b = span_includes(rows_a, rows_b)  # first b-eq outside span(a)
    missing_a = span_includes(rows_b, rows_a)  # first a-eq outside span(b)
    missing_b = None if missing_b is None else at_b[missing_b]
    missing_a = None if missing_a is None else at_a[missing_a]
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


# One row (tag, terms) per published identity.  The tag names the free
# letters in order, and the system has one equation per value of them.
# A term is (weight, symmetrizer, factor, factor):
# - letters i..l run over the base 1..d, all others over the fiber rank;
#   a letter that is not free is summed;
# - a factor is written in storage slot order, name[lower;upper],deriv.
#   The ansatz stores the mixed family f2 of the two-block model with its
#   E*-index first, so the published f2^{ib} is written "f2[;bi]";
# - the symmetrizer letters are antisymmetrized by the signed unshuffle sum,
#   with no 1/k!: "ab" turns T_ab into T_ab - T_ba, and a reordering within
#   one antisymmetric slot group of one factor is left out, so "abc" on
#   f1[a;j] f4[bc;d] gives three terms, one per distinct product, not six;
# - the weight is an integer, or a letter pair "ef" for the metric k^{ef}.
PAPER_IDENTITIES = {
    N2_JACOBI: (
        ("jacobi[i,j,k]", (
            (1, "", "f1[;kl]", "f1[;ij],l"), (1, "", "f1[;il]", "f1[;jk],l"),
            (1, "", "f1[;jl]", "f1[;ki],l"))),
    ),
    N3_BF: (
        ("bf1[i,j]", ((1, "", "f1[e;i]", "f2[;ej]"), (1, "", "f2[;ei]", "f1[e;j]"))),
        ("bf2[i,b,c]", (
            (-1, "", "f1[c;i],j", "f1[b;j]"), (1, "", "f1[b;i],j", "f1[c;j]"),
            (1, "", "f1[e;i]", "f4[bc;e]"), (1, "", "f2[;ei]", "f3[ebc;]"))),
        ("bf3[i,b,c]", (
            (1, "", "f1[b;j]", "f2[;ci],j"), (-1, "", "f2[;cj]", "f1[b;i],j"),
            (1, "", "f1[e;i]", "f5[b;ec]"), (-1, "", "f2[;ei]", "f4[eb;c]"))),
        ("bf4[i,b,c]", (
            (-1, "", "f2[;bj]", "f2[;ci],j"), (1, "", "f2[;cj]", "f2[;bi],j"),
            (1, "", "f1[e;i]", "f6[;ebc]"), (1, "", "f2[;ei]", "f5[e;bc]"))),
        ("bf5[a,b,c;d]", (
            (-1, "abc", "f1[a;j]", "f4[bc;d],j"), (1, "abc", "f4[ea;d]", "f4[bc;e]"),
            (1, "abc", "f3[eab;]", "f5[c;de]"), (1, "", "f2[;dj]", "f3[abc;],j"))),
        ("bf6[a,b;c,d]", (
            (-1, "", "f1[a;j]", "f5[b;cd],j"), (1, "", "f1[b;j]", "f5[a;cd],j"),
            (-1, "", "f2[;cj]", "f4[ab;d],j"), (1, "", "f2[;dj]", "f4[ab;c],j"),
            (1, "", "f3[eab;]", "f6[;ecd]"), (1, "", "f4[ea;d]", "f5[b;ce]"),
            (-1, "", "f4[eb;d]", "f5[a;ce]"), (-1, "", "f4[ea;c]", "f5[b;de]"),
            (1, "", "f4[eb;c]", "f5[a;de]"), (1, "", "f4[ab;e]", "f5[e;cd]"))),
        ("bf7[a;b,c,d]", (
            (-1, "", "f1[a;j]", "f6[;bcd],j"), (1, "bcd", "f2[;bj]", "f5[a;cd],j"),
            (1, "bcd", "f4[ea;b]", "f6[;cde]"), (1, "bcd", "f5[e;bc]", "f5[a;de]"))),
        ("bf8[a,b,c,d]", (
            (-1, "abcd", "f2[;aj]", "f6[;bcd],j"), (1, "abcd", "f6[;eab]", "f5[e;cd]"))),
        ("bf9[a,b,c,d]", (
            (-1, "abcd", "f1[a;j]", "f3[bcd;],j"), (1, "abcd", "f4[ab;e]", "f3[cde;]"))),
    ),
    N3_CS: (
        ("cs1[i,j]", (("ab", "", "f1[a;i]", "f1[b;j]"),)),
        ("cs2[i,b,c]", (
            (1, "", "f1[b;i],j", "f1[c;j]"), (-1, "", "f1[c;i],j", "f1[b;j]"),
            ("ef", "", "f1[e;i]", "f2[fbc;]"))),
        ("cs3[a,b,c,d]", (
            (1, "", "f1[d;j]", "f2[abc;],j"), (-1, "", "f1[c;j]", "f2[dab;],j"),
            (1, "", "f1[b;j]", "f2[cda;],j"), (-1, "", "f1[a;j]", "f2[bcd;],j"),
            ("ef", "", "f2[eab;]", "f2[cdf;]"), ("ef", "", "f2[eac;]", "f2[dbf;]"),
            ("ef", "", "f2[ead;]", "f2[bcf;]"))),
    ),
}

_FACTOR = re.compile(r"(\w+)\[(\w*);(\w*)\](?:,(\w+))?$")


class _Symbols(dict):
    """(sign, symbol) of one family, keyed by its indices in slot order
    (lower, upper, derivatives); (0, None) where it vanishes.  An entry is
    built by ``make_symbol`` on first use."""

    def __init__(self, fam):
        super().__init__()
        self.fam = fam

    def __missing__(self, idx):
        fam = self.fam
        nl, nu = len(fam.lower_blocks), len(fam.upper_blocks)
        entry = make_symbol(fam.name, idx[:nl], idx[nl : nl + nu], idx[nl + nu :], fam.groups)
        self[idx] = entry
        return entry


def _compile_term(term, free, span, symbols):
    """One table term as plain products, one per unshuffle of its
    symmetrizer: (scalar, metric-letters getter or None, (symbol table,
    getter) per factor, summed values).  A getter reads the indices it
    needs from the tuple of free then summed values; every factor has at
    least two indices, so its getter returns a tuple.  A permutation is kept
    only when it gives ascending letters to each run, the symmetrizer
    positions in one antisymmetric slot group of one factor: any other
    repeats a kept term, its sign undone by the factor's antisymmetry."""
    weight, sym, *factors = term
    parsed = [_FACTOR.match(f).groups("") for f in factors]
    pair = weight if isinstance(weight, str) else ""
    used = pair + "".join(lower + upper + deriv for _, lower, upper, deriv in parsed)
    summed = sorted(set(used) - set(free))
    pos = {c: k for k, c in enumerate(free + summed)}
    tail = list(itertools.product(*map(span, summed)))
    runs = []
    for name, lower, upper, _ in parsed:
        for g in symbols[name].fam.groups:
            letters = lower if g.variance == LOWER else upper
            run = [sym.index(letters[s]) for s in g.slots if letters[s] in sym]
            if g.kind == ANTISYM and len(run) > 1:
                runs.append(run)
    for perm in itertools.permutations(range(len(sym))):
        if any(perm[a] > perm[b] for run in runs for a, b in zip(run, run[1:])):
            continue
        at = {sym[q]: pos[sym[p]] for q, p in enumerate(perm)}
        get = lambda letters: itemgetter(*(at.get(c, pos[c]) for c in letters))
        scalar = _perm_sign(perm) * (1 if pair else weight)
        yield (scalar, get(pair) if pair else None, *(
            (symbols[name], get(lower + upper + deriv)) for name, lower, upper, deriv in parsed
        ), tail)


def transcribe_paper_identities(which: str, spec: ModelSpec) -> IdentitySet:
    """The published identity systems of ``PAPER_IDENTITIES``, expanded
    over explicit indices, one equation per value of the free letters."""
    if which not in PAPER_IDENTITIES:
        raise ValueError("unknown identity family %r" % which)
    cs = spec.cs_block if which == N3_CS else None
    rank = cs.rank if cs else spec.bf_blocks[0].rank if which == N3_BF else 0
    span = lambda c: range(1, (spec.d if "i" <= c <= "l" else rank) + 1)
    metric = {
        (a, b): exact(k)
        for a, row in enumerate(cs.metric if cs else (), 1)
        for b, k in enumerate(row, 1)
        if k
    }
    symbols = {fam.name: _Symbols(fam) for fam in ansatz_families(spec)}
    out = IdentitySet(spec=spec.fingerprint(), provenance=TRANSCRIBED)
    seen = set()
    for tag, terms in PAPER_IDENTITIES[which]:
        name, inner = tag.split("[")
        free = re.findall("[a-z]", inner)
        fmt = name + "[" + re.sub("[a-z]", "%d", inner)
        plain = [t for term in terms for t in _compile_term(term, free, span, symbols)]
        for values in itertools.product(*map(span, free)):
            acc: dict = {}
            for scalar, metric_at, (t1, g1), (t2, g2), tail in plain:
                for summed in tail:
                    v = values + summed
                    w = scalar if metric_at is None else scalar * metric.get(metric_at(v), 0)
                    if not w:
                        continue
                    s1, y1 = t1[g1(v)]
                    if not s1:
                        continue
                    s2, y2 = t2[g2(v)]
                    if s2:
                        accumulate(acc, ((y1, y2) if y1 <= y2 else (y2, y1), ()), w * s1 * s2)
            key = frozenset(acc.items())  # equal polynomials, equal keys
            if acc and key not in seen:
                seen.add(key)
                out.equations.append((fmt % values, CPoly(acc)))
    return out
