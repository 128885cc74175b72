import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from bvsigma import cli, worldsheet
from bvsigma.grading import sort_monomial
from bvsigma.models import BfBlock, CsBlock, CS_BF, ModelSpec, build_S1_generic
from bvsigma.symalg import MixedContextError
from bvsigma.worldsheet import (
    ComponentField,
    ComponentRelationError,
    DgaExpr,
    _contract,
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


def random_dga(n, rng, families=("A", "B", "C")):
    degrees = {"A": 1, "B": 1, "C": 2}
    expr = DgaExpr.zero(n)
    for _ in range(rng.randint(1, 3)):
        term = DgaExpr.scalar(n, Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2)))
        for _ in range(rng.randint(1, 3)):
            fam = rng.choice(families)
            r = rng.randint(0, n)
            gen = ComponentField(fam, r, degrees[fam] - r)
            if rng.random() < 0.25 and r < n:
                nxt = gen.d()
                term = term * DgaExpr.gen(n, nxt)
            else:
                term = term * DgaExpr.gen(n, gen)
        expr = expr + term
    return expr


@pytest.mark.parametrize("n", (2, 3, 4))
def test_differentials_on_random_expressions(n):
    rng = random.Random(n)
    for _ in range(60):
        e = random_dga(n, rng)
        assert e.d().d().is_zero()
        assert e.delta0().delta0().is_zero()
        assert (e.d().delta0() + e.delta0().d()).is_zero()


def test_d_square_on_generators():
    n = 3
    a = component_exprs(n, "A", 1)
    assert a[1].d().d().is_zero()


def test_d_truncates_above_form_n():
    n = 2
    a = component_exprs(n, "A", 1)
    b = component_exprs(n, "B", 1)
    top = a[1] * b[1]  # form degree 2 = n
    assert not top.is_zero()
    assert top.d().is_zero()  # would have form degree 3


def test_delta0_component_relations():
    n = 3
    g = superfield(n, "G", 1)
    assert DgaExpr.gen(n, g[0]).delta0().is_zero()
    for r in range(1, n + 1):
        lhs = DgaExpr.gen(n, g[r]).delta0()
        rhs = DgaExpr.gen(n, g[r - 1]).d()
        assert lhs == rhs
    assert DgaExpr.gen(n, g[2]).delta0().delta0().is_zero()


def test_delta0_is_a_derivation():
    n = 3
    a = component_exprs(n, "A", 1)
    b = component_exprs(n, "B", 2)
    x, y = a[1], b[1]
    lhs = (x * y).delta0()
    # A(1,0) is odd, so the Leibniz sign is -1 on the second term
    rhs = x.delta0() * y - x * y.delta0()
    assert lhs == rhs


def test_integrate_kills_exact_and_low_form_terms():
    n = 3
    f = component_exprs(n, "F", 1)
    g = component_exprs(n, "G", 1)
    assert integrate((f[1] * g[1]).d()).is_zero()
    assert integrate(f[1] * g[0]).is_zero()  # form degree 1 < n


def test_integrate_generic_term_survives():
    n = 3
    f = component_exprs(n, "F", 1)
    g = component_exprs(n, "G", 1)
    survivor = f[2] * g[0].d()
    assert not integrate(survivor).is_zero()


@pytest.mark.parametrize("n", (2, 3))
def test_integrate_invariant_under_exact_shifts(n):
    rng = random.Random(17)
    for _ in range(40):
        x = random_dga(n, rng)
        y = random_dga(n, rng)
        assert integrate(x + y.d()) == integrate(x)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_theorem1_witness_identity(n):
    for pf, pg in itertools.product((0, 1), repeat=2):
        f = component_exprs(n, "F", pf)
        g = component_exprs(n, "G", pg)
        total = theorem1_sum(n, f, g)
        t, w = theorem1_witness(n, f, g)
        assert (total - t.delta0() - w.d()).is_zero()
        assert integrate(total - t.delta0()).is_zero()


def test_theorem1_single_terms_are_exact(n=4):
    # Every single split term F_{n-p-1} dG_p is delta0-exact modulo d on
    # its own: it differs from the closing term F_0 dG_{n-1} by the
    # telescoped chain, and the closing term is delta0(F_0 G_n) up to sign.
    f = component_exprs(n, "F", 0)
    g = component_exprs(n, "G", 1)
    for p in range(n):
        single = f[n - p - 1] * g[p].d()
        chain = f[0] * g[n]
        for q in range(p, n - 1):
            chain = chain + f[n - q - 1] * g[q + 1]
        assert integrate(single - chain.delta0()).is_zero()


def test_theorem1_zero_components():
    n = 3
    zero = [DgaExpr.zero(n) for _ in range(n + 1)]
    t, w = theorem1_witness(n, zero, zero)
    assert t.is_zero() and w.is_zero()


def test_theorem1_rejects_bad_components():
    n = 3
    f = component_exprs(n, "F", 1)
    bad = list(f)
    bad[2] = component_exprs(n, "H", 1)[2]  # breaks delta0 F_2 = d F_1
    with pytest.raises(ComponentRelationError):
        theorem1_witness(n, bad, component_exprs(n, "G", 0))


def test_theorem1_names_each_descent_violation():
    n = 3
    f, g = component_exprs(n, "F", 1), component_exprs(n, "G", 0)
    mixed = [f[0], component_exprs(n, "H", 2)[1], *f[2:]]  # F_1 of even total degree
    shifted = [f[1], *f[1:]]  # F_0 := F_1, whose delta0 is d F_0
    for comps, other, message in (
        (f[:-1], g, "F must have components 0..n"),
        (f, g + [g[0]], "G must have components 0..n"),
        (mixed, g, "F components have mixed parity"),
        (shifted, g, "delta0 F_0 != 0"),
        (f, [f[1], *g[1:]], "G components have mixed parity"),
    ):
        with pytest.raises(ComponentRelationError, match="^%s$" % re.escape(message)):
            theorem1_witness(n, comps, other)


@pytest.mark.parametrize("n,blocks", [(2, ()), (3, (BfBlock(1, 2),)), (4, (BfBlock(1, 2),)), (5, (BfBlock(1, 2), BfBlock(2, 2)))])
def test_kinetic_master_bf(n, blocks):
    spec = ModelSpec(n=n, d=2, bf_blocks=blocks)
    assert kinetic_master_check(spec).passed


@pytest.mark.parametrize("n", (3, 5))
def test_kinetic_master_cs(n):
    blocks = (BfBlock(1, 2),) if n == 5 else ()
    spec = ModelSpec(n=n, d=2, flavor=CS_BF, bf_blocks=blocks, cs_block=CsBlock(2, K2))
    assert kinetic_master_check(spec).passed


def _reference_kinetic_action(spec):
    """The kinetic action built from per-term records worked out of the
    block labels: (B block, A block, (-1)^(n-p)) for p = 0 and each bf
    block, plus k/2 A dA over the cs block."""
    n = spec.n
    terms = [("B%d" % (n - 1), "phi", (-1) ** n)]
    for blk in sorted(spec.bf_blocks, key=lambda b: b.p):
        terms.append(("B%d" % (n - blk.p - 1), "A%d" % blk.p, (-1) ** (n - blk.p)))
    s0 = DgaExpr.zero(n)
    for b_label, a_label, sign in terms:
        b, a = spec.block(b_label), spec.block(a_label)
        for i in range(1, a.rank + 1):
            bfam = component_exprs(n, "%s_%d" % (b.label, i), b.degree)
            afam = superfield(n, "%s_%d" % (a.label, i), a.degree)
            for r in range(n):
                s0 = s0 + (bfam[n - r - 1] * DgaExpr.gen(n, afam[r].d())).scale(sign)
    cs = spec.cs_block
    if cs is not None:
        q = (n - 1) // 2
        fams = [superfield(n, "A%d_%d" % (q, i), q) for i in range(1, cs.rank + 1)]
        for a_i, b_i in itertools.product(range(cs.rank), repeat=2):
            kval = cs.metric[a_i][b_i]
            for r in range(n) if kval else ():
                piece = DgaExpr.gen(n, fams[a_i][n - r - 1]) * DgaExpr.gen(n, fams[b_i][r].d())
                s0 = s0 + piece.scale(Fraction(kval, 2))
    return s0


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
    assert kinetic_action_dga(spec) == _reference_kinetic_action(spec)


def test_product_form_part_expands_compositions():
    n = 2
    f = component_exprs(n, "F", 1)
    g = component_exprs(n, "G", 1)
    part = product_form_part(n, [f, g], 1)
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
    assert rep.passed
    assert rep.results


def test_first_order_of_zero_action():
    from bvsigma.models import Action
    from bvsigma.symalg import Expr

    spec = ModelSpec(n=2, d=3)
    rep = first_order_check(spec, Action(Expr.zero(), 2))
    assert rep.passed and rep.results == {}


def test_first_order_records_a_monomial_once():
    # The coefficient a + a*b of one monomial has one and two coefficient
    # factors: both counts are checked, and the monomial is one law.
    from bvsigma.models import Action
    from bvsigma.symalg import CoeffSymbol, CPoly, Expr, monomial_str

    spec = ModelSpec(n=2, d=3)
    mono = min(build_S1_generic(spec).expr.terms)
    a, b = CPoly.symbol(CoeffSymbol("a")), CPoly.symbol(CoeffSymbol("b"))
    rep = first_order_check(spec, Action(Expr({mono: a + a * b}), 2))
    assert rep.results == {monomial_str(mono): True}
    assert rep.passed and rep.witnesses == []
    assert rep.details() == ["%s: ok" % monomial_str(mono)]


# -- the product, derivations and form parts against their direct forms -------------


def _ref_mul(a, b):
    """The product as one Koszul sort of each concatenated monomial pair."""
    acc = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            if sum(g.form for g in m1 + m2) > a.n:
                continue
            sign, mono = sort_monomial(m1 + m2)
            if sign:
                acc[mono] = acc.get(mono, 0) + c1 * c2 * sign
    return DgaExpr(a.n, acc)


def _ref_derive(expr, image):
    """D(g1..gk) = sum_i (-1)^(|g1|+..+|g_{i-1}|) prefix . image(gi) . suffix,
    each piece a DgaExpr, multiplied by ``_ref_mul``."""
    n = expr.n
    total = DgaExpr.zero(n)
    for m, c in expr.terms.items():
        sign = 1
        for pos, g in enumerate(m):
            prefix = DgaExpr(n, {m[:pos]: 1})
            suffix = DgaExpr(n, {m[pos + 1 :]: 1})
            piece = _ref_mul(_ref_mul(prefix, image(n, g)), suffix)
            total = total + piece.scale(c * sign)
            if g.parity:
                sign = -sign
    return total


def _ref_d_image(n, g):
    nxt = g.d()
    return DgaExpr.zero(n) if nxt is None else DgaExpr.gen(n, nxt)


def _ref_delta0_image(n, g):
    if g.dimage or g.form == 0:
        return DgaExpr.zero(n)
    return DgaExpr.gen(n, ComponentField(g.family, g.form - 1, g.ghost + 1).d())


def _ref_product_form_part(n, factors, r):
    """Every split of r into len(factors) indices, each multiplied out."""
    out = DgaExpr.zero(n)
    if not factors:
        return DgaExpr.scalar(n, 1) if r == 0 else out
    for split in itertools.product(range(r + 1), repeat=len(factors)):
        if sum(split) != r:
            continue
        term = DgaExpr.scalar(n, 1)
        for fac, ri in zip(factors, split):
            term = _ref_mul(term, fac[ri])
        out = out + term
    return out


# Total degrees of the families drawn below: even and odd, form-0 ones too.
DGA_DEGREES = {"A": 1, "B": 1, "C": 2, "E": 0}


def _ref_random_dga(n, rng):
    """A sum of 1-3 products of 1-4 generators or d-images of any form up
    to n, multiplied by ``_ref_mul``, so terms past form n are cut off."""
    expr = DgaExpr.zero(n)
    for _ in range(rng.randint(1, 3)):
        term = DgaExpr.scalar(n, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)))
        for _ in range(rng.randint(1, 4)):
            fam = rng.choice(sorted(DGA_DEGREES))
            r = rng.randint(0, n)
            gen = ComponentField(fam, r, DGA_DEGREES[fam] - r)
            if rng.random() < 0.25:
                gen = gen.d()
            term = _ref_mul(term, DgaExpr.gen(n, gen))
        expr = expr + term
    return expr


DGA_NS = (2, 3, 4, 5)


@pytest.mark.parametrize("n", DGA_NS)
def test_product_matches_koszul_sort_of_concatenation(n):
    rng = random.Random(100 + n)
    for _ in range(200):
        a, b = _ref_random_dga(n, rng), _ref_random_dga(n, rng)
        assert a * b == _ref_mul(a, b)
        assert b * a == _ref_mul(b, a)
        assert a * a == _ref_mul(a, a)


@pytest.mark.parametrize("n", DGA_NS)
def test_derivations_match_prefix_image_suffix(n):
    rng = random.Random(200 + n)
    for _ in range(150):
        a, b = _ref_random_dga(n, rng), _ref_random_dga(n, rng)
        for e in (a, b, _ref_mul(a, b)):
            assert e.d() == _ref_derive(e, _ref_d_image)
            assert e.delta0() == _ref_derive(e, _ref_delta0_image)


@pytest.mark.parametrize("n", DGA_NS)
def test_product_form_part_matches_split_enumeration(n):
    # Factors of component generators (each split then has one form
    # degree) or of arbitrary expressions at each index.
    rng = random.Random(300 + n)
    for _ in range(60):
        factors = []
        for k in range(rng.randint(0, 4)):
            fam = rng.choice(sorted(DGA_DEGREES))
            if rng.random() < 0.5:
                factors.append(component_exprs(n, fam + str(k), DGA_DEGREES[fam]))
            else:
                factors.append([_ref_random_dga(n, rng) for _ in range(n + 1)])
        r = rng.randint(0, n)
        assert product_form_part(n, factors, r) == _ref_product_form_part(n, factors, r)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_product_form_part_matches_split_enumeration_on_superfields(n):
    # The first-order factors: coefficient families of degree 0 and fiber
    # superfields of every degree, up to form n and past it (cut off).
    factors = [component_exprs(n, "c%d" % i, 0) for i in range(2)]
    factors += [component_exprs(n, "x%d" % k, k) for k in range(1, n)]
    for r in (n - 1, n):
        assert product_form_part(n, factors, r) == _ref_product_form_part(n, factors, r)


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


def test_mixed_n_is_rejected():
    a = DgaExpr.gen(3, ComponentField("A", 3, 0))
    b = DgaExpr.gen(2, ComponentField("B", 1, 0))
    with pytest.raises(MixedContextError):
        a + b
    with pytest.raises(MixedContextError):
        b + a
    with pytest.raises(MixedContextError):
        a * b
    assert a.n == 3 and (a + a).n == 3 and (b * b).n == 2


def test_str_of_signed_fractional_sums():
    n = 3
    a2, b0 = ComponentField("A", 2, -1), ComponentField("B", 0, 1)
    expr = (
        DgaExpr.gen(n, a2).scale(Fraction(-1, 2))
        + DgaExpr.gen(n, b0)
        - DgaExpr.gen(n, ComponentField("B", 1, 0)).scale(Fraction(4, 3)) * DgaExpr.gen(n, ComponentField("A", 1, -1, True))
    )
    assert str(expr) == "-4/3*dA(1,-1)*B(1,0) - 1/2*A(2,-1) + 1*B(0,1)"
    expr = DgaExpr.scalar(n, Fraction(2, 3)) - DgaExpr.gen(n, b0) * DgaExpr.gen(n, ComponentField("A", 0, 1).d()).scale(3)
    assert str(expr) == "2/3 - 3*dA(1,1)*B(0,1)"
    assert str(DgaExpr.zero(n)) == "0" and str(DgaExpr.scalar(n, -2)) == "-2"


# -- integration: the contracting homotopy, the kinetic failure branch, an oracle ----


@pytest.mark.parametrize("n", DGA_NS)
def test_homotopy_scales_each_monomial_by_its_length(n):
    # In scope n+1 nothing of form <= n is cut off by d, and dh + hd is
    # the even derivation that fixes every generator.
    rng = random.Random(400 + n)
    for _ in range(100):
        e = DgaExpr._of(_ref_random_dga(n, rng).terms, n + 1)
        lhs = e.d()._derive(_contract) + e._derive(_contract).d()
        assert lhs == DgaExpr(n + 1, {m: c * len(m) for m, c in e.terms.items()})


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
    n = expr.n
    top = expr.form_part(n)
    support, images, frontier = set(top.terms), {}, set(top.terms)
    while frontier:
        cands = {c for mono in frontier for c in _d_preimage_candidates(mono) if c not in images}
        frontier = set()
        for cand in cands:
            images[cand] = DgaExpr(n, {cand: 1}).d()
            frontier |= set(images[cand].terms) - support
            support |= frontier
    cols = sorted(support)
    rows = [[img.terms.get(m, 0) for m in cols] for img in images.values()]
    return _dense_rank(rows) == _dense_rank(rows + [[top.terms.get(m, 0) for m in cols]])


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_integrate_matches_a_dense_rank_oracle(n):
    rng = random.Random(500 + n)
    verdicts = []
    for _ in range(60):
        x, y = _ref_random_dga(n, rng), _ref_random_dga(n, rng)
        for t in (x, x * y, x + y.d()):
            verdicts.append(_exact_by_rank(t))
            assert integrate(t).is_zero() == verdicts[-1]
            assert _exact_by_rank(t - integrate(t))
            assert integrate(integrate(t)) == integrate(t)
    assert verdicts.count(False) >= 10 and verdicts.count(True) >= 10


def test_integrate_keeps_a_constant_at_n0():
    a = DgaExpr.gen(0, ComponentField("A", 0, 1))
    t = DgaExpr.scalar(0, Fraction(2, 3)) + a * DgaExpr.gen(0, ComponentField("E", 0, 0))
    assert integrate(t) == t


def test_kinetic_master_failure_reports_the_residual(monkeypatch, capsys):
    # F(1,0) G(2,-1) has delta0 not d-exact at n=3; d(F_1 G_1) is exact.
    spec = ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),))
    f, g = component_exprs(3, "F", 1), component_exprs(3, "G", 1)
    action = worldsheet.kinetic_action_dga
    monkeypatch.setattr(worldsheet, "kinetic_action_dga", lambda s: action(s) + f[1] * g[2])
    rep = kinetic_master_check(spec)
    assert rep.passed is False and rep.detail.startswith("residual: ")
    assert rep.detail == "residual: %s" % integrate((f[1] * g[2]).delta0())
    monkeypatch.setattr(
        worldsheet, "kinetic_action_dga", lambda s: action(s) + f[1] * g[2] + (f[1] * g[1]).d()
    )
    assert kinetic_master_check(spec) == rep
    code = cli.main(["kinetic-master", "--model", str(EXAMPLES / "n3_bf_exact_courant.model")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["result"] == "fail" and doc["details"] == [rep.detail]
