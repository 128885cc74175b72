import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvsigma import cli, worldsheet
from bvsigma.grading import sort_monomial
from bvsigma.models import BfBlock, CsBlock, CS_BF, ModelSpec, build_S1_generic
from bvsigma.symalg import MixedContextError
from bvsigma.worldsheet import (
    ComponentField,
    ComponentRelationError,
    DgaExpr,
    GeneratorTable,
    component_exprs,
    first_order_check,
    integrate,
    kinetic_action_dga,
    kinetic_master_check,
    product_form_part,
    superfield,
    theorem1_sum,
    theorem1_witness,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "src" / "bvsigma" / "examples"
K2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def table(n, **degrees):
    """The generator table of superfields family=total degree at form bound n."""
    return GeneratorTable(n, degrees.items())


RANDOM_DEGREES = {"A": 1, "B": 1, "C": 2}


def random_dga(t, rng):
    """A random expression over a table of the RANDOM_DEGREES superfields."""
    n = t.n
    expr = DgaExpr.zero(t)
    for _ in range(rng.randint(1, 3)):
        term = DgaExpr.scalar(t, Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2)))
        for _ in range(rng.randint(1, 3)):
            fam = rng.choice(sorted(RANDOM_DEGREES))
            r = rng.randint(0, n)
            gen = ComponentField(fam, r, RANDOM_DEGREES[fam] - r)
            if rng.random() < 0.25 and r < n:
                nxt = gen.d()
                term = term * DgaExpr.gen(t, nxt)
            else:
                term = term * DgaExpr.gen(t, gen)
        expr = expr + term
    return expr


@pytest.mark.parametrize("n", (2, 3, 4))
def test_differentials_on_random_expressions(n):
    rng = random.Random(n)
    t = table(n, **RANDOM_DEGREES)
    for _ in range(60):
        e = random_dga(t, rng)
        assert e.d().d().is_zero()
        assert e.delta0().delta0().is_zero()
        assert (e.d().delta0() + e.delta0().d()).is_zero()


def test_d_square_on_generators():
    a = component_exprs(table(3, A=1), "A", 1)
    assert a[1].d().d().is_zero()


def test_d_truncates_above_form_n():
    t = table(2, A=1, B=1)
    a = component_exprs(t, "A", 1)
    b = component_exprs(t, "B", 1)
    top = a[1] * b[1]  # form degree 2 = n
    assert not top.is_zero()
    assert top.d().is_zero()  # would have form degree 3


def test_delta0_component_relations():
    n = 3
    t = table(n, G=1)
    g = superfield(n, "G", 1)
    assert DgaExpr.gen(t, g[0]).delta0().is_zero()
    for r in range(1, n + 1):
        lhs = DgaExpr.gen(t, g[r]).delta0()
        rhs = DgaExpr.gen(t, g[r - 1]).d()
        assert lhs == rhs
    assert DgaExpr.gen(t, g[2]).delta0().delta0().is_zero()


def test_delta0_is_a_derivation():
    t = table(3, A=1, B=2)
    a = component_exprs(t, "A", 1)
    b = component_exprs(t, "B", 2)
    x, y = a[1], b[1]
    lhs = (x * y).delta0()
    # A(1,0) is odd, so the Leibniz sign is -1 on the second term
    rhs = x.delta0() * y - x * y.delta0()
    assert lhs == rhs


def test_integrate_kills_exact_and_low_form_terms():
    t = table(3, F=1, G=1)
    f = component_exprs(t, "F", 1)
    g = component_exprs(t, "G", 1)
    assert integrate((f[1] * g[1]).d()).is_zero()
    assert integrate(f[1] * g[0]).is_zero()  # form degree 1 < n


def test_integrate_generic_term_survives():
    t = table(3, F=1, G=1)
    f = component_exprs(t, "F", 1)
    g = component_exprs(t, "G", 1)
    survivor = f[2] * g[0].d()
    assert not integrate(survivor).is_zero()


@pytest.mark.parametrize("n", (2, 3))
def test_integrate_invariant_under_exact_shifts(n):
    rng = random.Random(17)
    t = table(n, **RANDOM_DEGREES)
    for _ in range(40):
        x = random_dga(t, rng)
        y = random_dga(t, rng)
        assert integrate(x + y.d()) == integrate(x)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_theorem1_witness_identity(n):
    for pf, pg in itertools.product((0, 1), repeat=2):
        tab = table(n, F=pf, G=pg)
        f = component_exprs(tab, "F", pf)
        g = component_exprs(tab, "G", pg)
        total = theorem1_sum(tab, f, g)
        t, w = theorem1_witness(tab, f, g)
        assert (total - t.delta0() - w.d()).is_zero()
        assert integrate(total - t.delta0()).is_zero()


def test_theorem1_single_terms_are_exact(n=4):
    # Every single split term F_{n-p-1} dG_p is delta0-exact modulo d on
    # its own: it differs from the closing term F_0 dG_{n-1} by the
    # telescoped chain, and the closing term is delta0(F_0 G_n) up to sign.
    t = table(n, F=0, G=1)
    f = component_exprs(t, "F", 0)
    g = component_exprs(t, "G", 1)
    for p in range(n):
        single = f[n - p - 1] * g[p].d()
        chain = f[0] * g[n]
        for q in range(p, n - 1):
            chain = chain + f[n - q - 1] * g[q + 1]
        assert integrate(single - chain.delta0()).is_zero()


def test_theorem1_zero_components():
    n = 3
    tab = table(n)
    zero = [DgaExpr.zero(tab) for _ in range(n + 1)]
    t, w = theorem1_witness(tab, zero, zero)
    assert t.is_zero() and w.is_zero()


def test_theorem1_rejects_bad_components():
    t = table(3, F=1, G=0, H=1)
    f = component_exprs(t, "F", 1)
    bad = list(f)
    bad[2] = component_exprs(t, "H", 1)[2]  # breaks delta0 F_2 = d F_1
    with pytest.raises(ComponentRelationError):
        theorem1_witness(t, bad, component_exprs(t, "G", 0))


def test_theorem1_names_each_descent_violation():
    t = table(3, F=1, G=0, H=2)
    f, g = component_exprs(t, "F", 1), component_exprs(t, "G", 0)
    mixed = [f[0], component_exprs(t, "H", 2)[1], *f[2:]]  # F_1 of even total degree
    shifted = [f[1], *f[1:]]  # F_0 := F_1, whose delta0 is d F_0
    for comps, other, message in (
        (f[:-1], g, "F must have components 0..n"),
        (f, g + [g[0]], "G must have components 0..n"),
        (mixed, g, "F components have mixed parity"),
        (shifted, g, "delta0 F_0 != 0"),
        (f, [f[1], *g[1:]], "G components have mixed parity"),
    ):
        with pytest.raises(ComponentRelationError, match="^%s$" % re.escape(message)):
            theorem1_witness(t, comps, other)


@pytest.mark.parametrize("n,blocks", [(2, ()), (3, (BfBlock(1, 2),)), (4, (BfBlock(1, 2),)), (5, (BfBlock(1, 2), BfBlock(2, 2)))])
def test_kinetic_master_bf(n, blocks):
    spec = ModelSpec(n=n, d=2, bf_blocks=blocks)
    assert not kinetic_master_check(spec)


@pytest.mark.parametrize("n", (3, 5))
def test_kinetic_master_cs(n):
    blocks = (BfBlock(1, 2),) if n == 5 else ()
    spec = ModelSpec(n=n, d=2, flavor=CS_BF, bf_blocks=blocks, cs_block=CsBlock(2, K2))
    assert not kinetic_master_check(spec)


def _reference_kinetic_action(spec):
    """The kinetic action built from per-term records worked out of the
    block labels: (B block, A block, (-1)^(n-p)) for p = 0 and each bf
    block, plus k/2 A dA over the cs block."""
    n = spec.n
    terms = [("B%d" % (n - 1), "phi", (-1) ** n)]
    for blk in sorted(spec.bf_blocks, key=lambda b: b.p):
        terms.append(("B%d" % (n - blk.p - 1), "A%d" % blk.p, (-1) ** (n - blk.p)))
    cs = spec.cs_block
    q = (n - 1) // 2
    cs_fams = [("A%d_%d" % (q, i), q) for i in range(1, cs.rank + 1)] if cs else []
    blocks = [spec.block(label) for b_label, a_label, _ in terms for label in (b_label, a_label)]
    t = GeneratorTable(n, [("%s_%d" % (b.label, i), b.degree) for b in blocks for i in range(1, b.rank + 1)] + cs_fams)
    s0 = DgaExpr.zero(t)
    for b_label, a_label, sign in terms:
        b, a = spec.block(b_label), spec.block(a_label)
        for i in range(1, a.rank + 1):
            bfam = component_exprs(t, "%s_%d" % (b.label, i), b.degree)
            afam = superfield(n, "%s_%d" % (a.label, i), a.degree)
            for r in range(n):
                s0 = s0 + (bfam[n - r - 1] * DgaExpr.gen(t, afam[r].d())).scale(sign)
    if cs is not None:
        fams = [superfield(n, *fam) for fam in cs_fams]
        for a_i, b_i in itertools.product(range(cs.rank), repeat=2):
            kval = cs.metric[a_i][b_i]
            for r in range(n) if kval else ():
                piece = DgaExpr.gen(t, fams[a_i][n - r - 1]) * DgaExpr.gen(t, fams[b_i][r].d())
                s0 = s0 + piece.scale(Fraction(kval, 2))
    return s0


def by_field(e):
    """The terms of e keyed by ComponentField monomials, which mean the
    same in every table."""
    fields = e.scope.fields
    return {tuple(fields[v >> 1] for v in m): c for m, c in e.terms.items()}


KOFF3 = (
    (Fraction(1), Fraction(1, 2), Fraction(0)),
    (Fraction(1, 2), Fraction(0), Fraction(-3)),
    (Fraction(0), Fraction(-3), Fraction(2)),
)
KINETIC_SPECS = [
    ModelSpec(n=2, d=3),
    ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 3),)),
    ModelSpec(n=4, d=3, bf_blocks=(BfBlock(1, 2),)),
    ModelSpec(n=5, d=2, bf_blocks=(BfBlock(1, 2), BfBlock(2, 3))),
    ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(3, KOFF3)),
    ModelSpec(n=5, d=2, flavor=CS_BF, bf_blocks=(BfBlock(1, 2),), cs_block=CsBlock(3, KOFF3)),
]


@pytest.mark.parametrize("spec", KINETIC_SPECS, ids=lambda s: s.fingerprint())
def test_kinetic_action_matches_per_term_reference(spec):
    assert by_field(kinetic_action_dga(spec)) == by_field(_reference_kinetic_action(spec))


def test_product_form_part_expands_compositions():
    t = table(2, F=1, G=1)
    f = component_exprs(t, "F", 1)
    g = component_exprs(t, "G", 1)
    part = product_form_part(t, [f, g], 1)
    assert part == f[0] * g[1] + f[1] * g[0]


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec(n=2, d=3),
        ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),)),
        ModelSpec(n=4, d=2, bf_blocks=(BfBlock(1, 2),)),
        ModelSpec(n=5, d=2, bf_blocks=(BfBlock(1, 2), BfBlock(2, 2))),
        ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, K2)),
    ],
    ids=lambda s: s.fingerprint(),
)
def test_first_order_of_generic_ansatz(spec):
    rep = first_order_check(spec, build_S1_generic(spec))
    assert not any(rep.values())
    assert rep


def test_first_order_of_zero_action():
    from bvsigma.models import Action
    from bvsigma.symalg import Expr

    spec = ModelSpec(n=2, d=3)
    rep = first_order_check(spec, Action(Expr.zero(), 2))
    assert rep == {}


def test_first_order_records_a_monomial_once():
    # The coefficient a + a*b of one monomial has one and two coefficient
    # factors: both counts are checked, and the monomial is one law.
    from bvsigma.models import Action
    from bvsigma.symalg import CoeffSymbol, CPoly, Expr, monomial_str

    spec = ModelSpec(n=2, d=3)
    mono = min(build_S1_generic(spec).expr.terms)
    a, b = CPoly.symbol(CoeffSymbol("a")), CPoly.symbol(CoeffSymbol("b"))
    rep = first_order_check(spec, Action(Expr({mono: a + a * b}), 2))
    assert list(rep) == [monomial_str(mono)]
    residual = rep[monomial_str(mono)]
    assert type(residual) is DgaExpr and residual.is_zero()


# -- the product, derivations and form parts against their direct forms -------------


def _ref_mul(a, b):
    """The product as one Koszul sort of each concatenated monomial pair of
    ComponentFields."""
    acc = {}
    for m1, c1 in by_field(a).items():
        for m2, c2 in by_field(b).items():
            if sum(g.form for g in m1 + m2) > a.n:
                continue
            sign, mono = sort_monomial(m1 + m2)
            if sign:
                acc[mono] = acc.get(mono, 0) + c1 * c2 * sign
    return DgaExpr(a.scope, acc)


def _ref_derive(expr, image):
    """D(g1..gk) = sum_i (-1)^(|g1|+..+|g_{i-1}|) prefix . image(gi) . suffix,
    each piece a DgaExpr, multiplied by ``_ref_mul``."""
    t = expr.scope
    total = DgaExpr.zero(t)
    for m, c in by_field(expr).items():
        sign = 1
        for pos, g in enumerate(m):
            prefix = DgaExpr(t, {m[:pos]: 1})
            suffix = DgaExpr(t, {m[pos + 1 :]: 1})
            piece = _ref_mul(_ref_mul(prefix, image(t, g)), suffix)
            total = total + piece.scale(c * sign)
            if g.parity:
                sign = -sign
    return total


def _ref_d_image(t, g):
    nxt = g.d()
    return DgaExpr.zero(t) if nxt is None else DgaExpr.gen(t, nxt)


def _ref_delta0_image(t, g):
    if g.dimage or g.form == 0:
        return DgaExpr.zero(t)
    return DgaExpr.gen(t, ComponentField(g.family, g.form - 1, g.ghost + 1).d())


def _ref_h_image(t, g):
    """The contraction h: dg -> g, g -> 0."""
    if not g.dimage:
        return DgaExpr.zero(t)
    return DgaExpr.gen(t, ComponentField(g.family, g.form - 1, g.ghost))


def _ref_product_form_part(t, factors, r):
    """Every split of r into len(factors) indices, each multiplied out."""
    out = DgaExpr.zero(t)
    if not factors:
        return DgaExpr.scalar(t, 1) if r == 0 else out
    for split in itertools.product(range(r + 1), repeat=len(factors)):
        if sum(split) != r:
            continue
        term = DgaExpr.scalar(t, 1)
        for fac, ri in zip(factors, split):
            term = _ref_mul(term, fac[ri])
        out = out + term
    return out


# Total degrees of the families drawn below: even and odd, form-0 ones too.
DGA_DEGREES = {"A": 1, "B": 1, "C": 2, "E": 0}


def _ref_random_dga(t, rng):
    """A sum of 1-3 products of 1-4 generators or d-images of any form up
    to n, multiplied by ``_ref_mul``, so terms past form n are cut off."""
    n = t.n
    expr = DgaExpr.zero(t)
    for _ in range(rng.randint(1, 3)):
        term = DgaExpr.scalar(t, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)))
        for _ in range(rng.randint(1, 4)):
            fam = rng.choice(sorted(DGA_DEGREES))
            r = rng.randint(0, n)
            gen = ComponentField(fam, r, DGA_DEGREES[fam] - r)
            if rng.random() < 0.25:
                gen = gen.d()
            term = _ref_mul(term, DgaExpr.gen(t, gen))
        expr = expr + term
    return expr


DGA_NS = (2, 3, 4, 5)
# Per n, the DGA_DEGREES families, and four more of each degree (suffixed
# 0..3) for the factors of product_form_part.
DGA_TABLES = {
    n: GeneratorTable(n, [(fam + k, deg) for fam, deg in DGA_DEGREES.items() for k in ("", "0", "1", "2", "3")])
    for n in (1, *DGA_NS)
}


@pytest.mark.parametrize("n", DGA_NS)
def test_product_matches_koszul_sort_of_concatenation(n):
    rng = random.Random(100 + n)
    t = DGA_TABLES[n]
    for _ in range(200):
        a, b = _ref_random_dga(t, rng), _ref_random_dga(t, rng)
        assert a * b == _ref_mul(a, b)
        assert b * a == _ref_mul(b, a)
        assert a * a == _ref_mul(a, a)


@pytest.mark.parametrize("n", DGA_NS)
def test_derivations_match_prefix_image_suffix(n):
    rng = random.Random(200 + n)
    t = DGA_TABLES[n]
    for _ in range(150):
        a, b = _ref_random_dga(t, rng), _ref_random_dga(t, rng)
        for e in (a, b, _ref_mul(a, b)):
            assert e.d() == _ref_derive(e, _ref_d_image)
            assert e.delta0() == _ref_derive(e, _ref_delta0_image)


@pytest.mark.parametrize("n", DGA_NS)
def test_product_form_part_matches_split_enumeration(n):
    # Factors of component generators (each split then has one form
    # degree) or of arbitrary expressions at each index.
    rng = random.Random(300 + n)
    t = DGA_TABLES[n]
    for _ in range(60):
        factors = []
        for k in range(rng.randint(0, 4)):
            fam = rng.choice(sorted(DGA_DEGREES))
            if rng.random() < 0.5:
                factors.append(component_exprs(t, fam + str(k), DGA_DEGREES[fam]))
            else:
                factors.append([_ref_random_dga(t, rng) for _ in range(n + 1)])
        r = rng.randint(0, n)
        assert product_form_part(t, factors, r) == _ref_product_form_part(t, factors, r)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_product_form_part_matches_split_enumeration_on_superfields(n):
    # The first-order factors: coefficient families of degree 0 and fiber
    # superfields of every degree, up to form n and past it (cut off).
    fams = [("c%d" % i, 0) for i in range(2)] + [("x%d" % k, k) for k in range(1, n)]
    t = GeneratorTable(n, fams)
    factors = [component_exprs(t, *fam) for fam in fams]
    for r in (n - 1, n):
        assert product_form_part(t, factors, r) == _ref_product_form_part(t, factors, r)


# One table of odd (A, B) and even (C, E) superfields at n = 3 for the
# kernel reference test below.
KERNEL_TABLE = table(3, A=1, B=1, C=2, E=0)
KERNEL_FIELDS = [g for g in KERNEL_TABLE.fields if g.form <= 3]
A1, A2, B0, C1 = (ComponentField(*f) for f in (("A", 1, 0), ("A", 2, -1), ("B", 0, 1), ("C", 1, 1)))


@st.composite
def _kernel_operands(draw):
    """Two sums of 1-3 monomials of up to 4 generators or d-images of the
    kernel table, each sorted by ``sort_monomial``; half the time b also
    holds a generator of a, so that an odd one meets itself, and monomials
    past form n are drawn and cut off."""

    def operand(pool):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            sign, mono = sort_monomial(draw(st.lists(st.sampled_from(pool), max_size=4)))
            terms[mono] = terms.get(mono, 0) + sign * draw(st.sampled_from((1, -1, 2, Fraction(-1, 2), Fraction(2, 3))))
        return DgaExpr(KERNEL_TABLE, terms)

    a = operand(KERNEL_FIELDS)
    shared = [g for m in by_field(a) for g in m]
    b = operand(KERNEL_FIELDS + shared * 4 if shared and draw(st.booleans()) else KERNEL_FIELDS)
    return a, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_kernel_operands())
@example((DgaExpr.gen(KERNEL_TABLE, A1), DgaExpr.gen(KERNEL_TABLE, A1)))
@example((DgaExpr(KERNEL_TABLE, {(A1, B0): 1}), DgaExpr(KERNEL_TABLE, {(A2, C1): 1, (A1.d(), B0): -1})))
def test_kernels_match_koszul_sort_of_component_fields(operands):
    """The product and the derivations d, delta0 and h, on codes, against
    ``_ref_mul``/``_ref_derive`` on ComponentField monomials."""
    a, b = operands
    h = KERNEL_TABLE.h_images
    for x, y in ((a, b), (b, a)):
        assert x * y == _ref_mul(x, y)
    for e in (a, b, a * b):
        assert e.d() == _ref_derive(e, _ref_d_image)
        assert e.delta0() == _ref_derive(e, _ref_delta0_image)
        assert e._derive(h) == _ref_derive(e, _ref_h_image)


def test_component_field_value_semantics():
    a = ComponentField("A", 1, 0)
    assert a == ComponentField("A", 1, 0, False) and hash(a) == hash(ComponentField("A", 1, 0))
    assert (a.family, a.form, a.ghost, a.dimage) == ("A", 1, 0, False)
    assert a != ComponentField("A", 1, 0, True) and a != ComponentField("A", 1, 1)
    # ordered field by field: family, form, ghost, then plain before d-image
    fields = [
        ComponentField("B", 0, 1),
        ComponentField("A", 2, -1, True),
        ComponentField("A", 2, -1),
        ComponentField("A", 1, 3),
        ComponentField("A", 1, 0, True),
        a,
    ]
    assert sorted(fields) == [
        a,
        ComponentField("A", 1, 0, True),
        ComponentField("A", 1, 3),
        ComponentField("A", 2, -1),
        ComponentField("A", 2, -1, True),
        ComponentField("B", 0, 1),
    ]
    assert str(a) == "A(1,0)" and str(ComponentField("x0_B2_1", 2, -1, True)) == "dx0_B2_1(2,-1)"
    assert a.d() == ComponentField("A", 2, 0, True)
    assert a.d().d() is None
    assert [g.parity for g in superfield(3, "G", 1)] == [1, 1, 1, 1]
    assert [g.parity for g in superfield(3, "F", 2)] == [0, 0, 0, 0]
    assert a.d().parity == 0 and ComponentField("E", 0, 0).d().parity == 1


def test_dga_exprs_of_two_tables_are_unequal():
    """Code monomials of two tables coincide, so DgaExprs of equal terms and
    hash are still unequal when their tables differ."""
    a = DgaExpr.gen(table(2, A=1), ComponentField("A", 0, 1))
    b = DgaExpr.gen(table(2, B=1), ComponentField("B", 0, 1))
    assert a.terms == b.terms and hash(a) == hash(b)
    assert a != b and not a == b
    assert a == DgaExpr.gen(a.scope, ComponentField("A", 0, 1))


def test_mixed_n_is_rejected():
    a = DgaExpr.gen(table(3, A=3), ComponentField("A", 3, 0))
    b = DgaExpr.gen(table(2, B=1), ComponentField("B", 1, 0))
    with pytest.raises(MixedContextError):
        a + b
    with pytest.raises(MixedContextError):
        b + a
    with pytest.raises(MixedContextError):
        a * b
    assert a.n == 3 and (a + a).n == 3 and (b * b).n == 2
    # Each table is its own scope, even one of the same superfields.
    twin = DgaExpr.gen(table(3, A=3), ComponentField("A", 3, 0))
    with pytest.raises(MixedContextError):
        a * twin
    with pytest.raises(MixedContextError):
        product_form_part(a.scope, [component_exprs(twin.scope, "A", 3)], 3)
    assert product_form_part(a.scope, [component_exprs(a.scope, "A", 3)], 3) == a


def test_constructor_takes_canonical_component_monomials():
    t = table(2, A=1, C=2)
    a0, a1, c0 = ComponentField("A", 0, 1), ComponentField("A", 1, 0), ComponentField("C", 0, 2)
    e = DgaExpr(t, {(a0, a1, c0): 2, (a0,): 0, (a0, a1.d(), c0.d()): 1, (c0, c0): Fraction(4, 2)})
    # The zero coefficient and the form-3 monomial are dropped.
    assert by_field(e) == {(a0, a1, c0): 2, (c0, c0): 2} and type(e.terms[(t.codes[c0],) * 2]) is int
    for bad in ((a1, a0), (a0, a0)):  # out of order; an odd generator twice
        with pytest.raises(ValueError, match="is not canonical"):
            DgaExpr(t, {bad: 1})
    with pytest.raises(KeyError):
        DgaExpr(t, {(ComponentField("B", 0, 1),): 1})


def test_str_of_signed_fractional_sums():
    t = GeneratorTable(3, [("A", 1), ("A", -1), ("B", 1)])
    a2, b0 = ComponentField("A", 2, -1), ComponentField("B", 0, 1)
    expr = (
        DgaExpr.gen(t, a2).scale(Fraction(-1, 2))
        + DgaExpr.gen(t, b0)
        - DgaExpr.gen(t, ComponentField("B", 1, 0)).scale(Fraction(4, 3)) * DgaExpr.gen(t, ComponentField("A", 1, -1, True))
    )
    assert str(expr) == "-4/3*dA(1,-1)*B(1,0) - 1/2*A(2,-1) + 1*B(0,1)"
    expr = DgaExpr.scalar(t, Fraction(2, 3)) - DgaExpr.gen(t, b0) * DgaExpr.gen(t, ComponentField("A", 0, 1).d()).scale(3)
    assert str(expr) == "2/3 - 3*dA(1,1)*B(0,1)"
    assert str(DgaExpr.zero(t)) == "0" and str(DgaExpr.scalar(t, -2)) == "-2"


# -- integration: the contracting homotopy, the kinetic failure branch, an oracle ----


@pytest.mark.parametrize("n", DGA_NS)
def test_homotopy_scales_each_monomial_by_its_length(n):
    # Cut off above form n+1, d loses nothing of form <= n, and dh + hd is
    # the even derivation that fixes every generator.
    rng = random.Random(400 + n)
    t = DGA_TABLES[n]
    d, h = t.d_images, t.h_images
    for _ in range(100):
        e = _ref_random_dga(t, rng)
        lhs = e._derive(d, n + 1)._derive(h, n + 1) + e._derive(h, n + 1)._derive(d, n + 1)
        assert lhs == DgaExpr._of({m: c * len(m) for m, c in e.terms.items()}, t)


def _d_preimage_candidates(mono):
    """Monomials m with d(m) possibly supported on ``mono``."""
    for pos, g in enumerate(mono):
        if g.dimage:
            plain = ComponentField(g.family, g.form - 1, g.ghost)
            sign, cand = sort_monomial(mono[:pos] + (plain,) + mono[pos + 1 :])
            if sign:
                yield cand


def _dense_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = Fraction(rows[i][col]) / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _exact_by_rank(expr):
    """Whether the form-n part lies in the span of the d-images of the
    d-preimage candidates it reaches, by dense ranks over Q."""
    top = by_field(expr.form_part(expr.n))
    support, images, frontier = set(top), {}, set(top)
    while frontier:
        cands = {c for mono in frontier for c in _d_preimage_candidates(mono) if c not in images}
        frontier = set()
        for cand in cands:
            images[cand] = by_field(DgaExpr(expr.scope, {cand: 1}).d())
            frontier |= set(images[cand]) - support
            support |= frontier
    cols = sorted(support)
    rows = [[img.get(m, 0) for m in cols] for img in images.values()]
    return _dense_rank(rows) == _dense_rank(rows + [[top.get(m, 0) for m in cols]])


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_integrate_matches_a_dense_rank_oracle(n):
    rng = random.Random(500 + n)
    tab = DGA_TABLES[n]
    verdicts = []
    for _ in range(60):
        x, y = _ref_random_dga(tab, rng), _ref_random_dga(tab, rng)
        for t in (x, x * y, x + y.d()):
            verdicts.append(_exact_by_rank(t))
            assert integrate(t).is_zero() == verdicts[-1]
            assert _exact_by_rank(t - integrate(t))
            assert integrate(integrate(t)) == integrate(t)
    assert verdicts.count(False) >= 10 and verdicts.count(True) >= 10


def test_integrate_keeps_a_constant_at_n0():
    tab = table(0, A=1, E=0)
    a = DgaExpr.gen(tab, ComponentField("A", 0, 1))
    t = DgaExpr.scalar(tab, Fraction(2, 3)) + a * DgaExpr.gen(tab, ComponentField("E", 0, 0))
    assert integrate(t) == t


def test_kinetic_master_failure_reports_the_residual(monkeypatch, capsys):
    # F(1,0) G(2,-1) has delta0 not d-exact at n=3; d(F_1 G_1) is exact.
    # F and G are A1_1 and A1_2, of degree 1, in the action's own table.
    spec = ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),))
    action = worldsheet.kinetic_action_dga

    def with_extra(exact_too):
        def build(s):
            s0 = action(s)
            f, g = component_exprs(s0.scope, "A1_1", 1), component_exprs(s0.scope, "A1_2", 1)
            extra = f[1] * g[2] + (f[1] * g[1]).d() if exact_too else f[1] * g[2]
            return s0 + extra

        return build

    monkeypatch.setattr(worldsheet, "kinetic_action_dga", with_extra(False))
    residue = kinetic_master_check(spec)
    assert isinstance(residue, DgaExpr) and residue
    t = action(spec).scope
    f, g = component_exprs(t, "A1_1", 1), component_exprs(t, "A1_2", 1)
    # Each call builds its own table, so the residues compare by terms.
    assert residue.terms == integrate((f[1] * g[2]).delta0()).terms
    monkeypatch.setattr(worldsheet, "kinetic_action_dga", with_extra(True))
    assert kinetic_master_check(spec).terms == residue.terms
    code = cli.main(["kinetic-master", "--model", str(EXAMPLES / "n3_bf_exact_courant.model")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["result"] == "fail" and doc["details"] == ["residual: %s" % residue]
