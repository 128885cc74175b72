import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import RandomExprs
from bvsigma.grading import GradedVar
from bvsigma import pstructure
from bvsigma.models import BfBlock, CsBlock, CS_BF, ModelError, ModelSpec, build_S1_generic
from bvsigma.pstructure import (
    BRACKET_LAWS,
    LAPLACIAN_LAWS,
    BvReport,
    Hamiltonian,
    PStructure,
    check_bv_identities,
    fiber_monomials,
)
from bvsigma.symalg import CoeffSymbol, CPoly, Expr, MixedContextError, make_symbol, monomial_str

K2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
KOFF = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)))


def _structures():
    out = []
    for n in (2, 3, 4, 5):
        out.append(ModelSpec(n=n, d=2))
    out.append(ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),)))
    out.append(ModelSpec(n=4, d=2, bf_blocks=(BfBlock(1, 2),)))
    out.append(ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, K2)))
    out.append(ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, KOFF)))
    return out


def test_darboux_pairings_n3():
    spec = ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),))
    p = PStructure(spec)
    a = Expr.var(GradedVar("A1", 1, 1))
    b = Expr.var(GradedVar("B1", 1, 1))
    b2 = Expr.var(GradedVar("B1", 1, 2))
    assert p.bracket(a, b) == Expr.scalar(1)
    assert p.bracket(a, b2).is_zero()
    assert p.bracket(b, a) == Expr.scalar(1)  # graded-symmetric at these degrees


def test_self_block_pairing_is_k():
    spec = ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, KOFF))
    p = PStructure(spec)
    a1 = Expr.var(GradedVar("A1", 1, 1))
    a2 = Expr.var(GradedVar("A1", 1, 2))
    assert p.bracket(a1, a2) == Expr.scalar(1)
    assert p.bracket(a1, a1).is_zero()
    assert p.bracket(a2, a2) == Expr.scalar(2)


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),)),
        ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, KOFF)),
    ],
    ids=["bf", "cs"],
)
def test_bracket_keeps_scope_and_rejects_mixed_contexts(spec):
    p = PStructure(spec)
    scope = spec.fingerprint()
    a = Expr.var(GradedVar("A1", 1, 1), scope)
    b = Expr.var(GradedVar("B2", 2, 1), scope)
    stray = Expr.var(GradedVar("B2", 2, 1), "another model")
    for br in (p.bracket, p.bracket_darboux):
        assert br(a, b).scope == scope
        assert br(a, a * b).scope == scope
        # an unscoped operand adopts the other's scope, on either side
        assert br(a, Expr.var(GradedVar("B2", 2, 1))).scope == scope
        assert br(Expr.var(GradedVar("A1", 1, 1)), b).scope == scope
        with pytest.raises(MixedContextError):
            br(a, stray)
        with pytest.raises(MixedContextError):
            br(stray, a)
        with pytest.raises(MixedContextError):
            br(a, Expr.base(1, "another model"))  # a zero bracket still checks


def test_base_functions_bracket_to_zero():
    spec = ModelSpec(n=2, d=3)
    p = PStructure(spec)
    f = Expr.base(1) * Expr.base(2)
    g = Expr.base(3)
    assert p.bracket(f, g).is_zero()


def test_zero_rank_self_block_reduces_to_bf_bracket():
    # block-additivity: an empty self block contributes nothing, so the
    # bracket coincides with the plain cotangent one on every input
    plain = PStructure(ModelSpec(n=3, d=2))
    with_empty = PStructure(
        ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(0, ()))
    )
    f = Expr.base(1) * Expr.var(GradedVar("B2", 2, 1))
    g = Expr.var(GradedVar("B2", 2, 2)) * Expr.base(2)
    assert plain.bracket(f, g) == with_empty.bracket(f, g)
    rep = check_bv_identities(with_empty)
    assert all(rep.results[law] for law in BRACKET_LAWS)


def test_even_degree_self_block_rejected():
    # n=5 gives a degree-2 self block; a symmetric metric cannot satisfy
    # graded antisymmetry there.
    # The spec itself is valid: the kinetic action needs no bracket.
    spec = ModelSpec(n=5, d=2, flavor=CS_BF, cs_block=CsBlock(2, K2))
    message = (
        "self-paired block of even degree 2 cannot carry a symmetric metric "
        "compatible with graded antisymmetry (n=5)"
    )
    with pytest.raises(ModelError, match=re.escape(message)):
        PStructure(spec)


def test_bracket_degree_shift():
    spec = ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),))
    p = PStructure(spec)
    f = Expr.var(GradedVar("A1", 1, 1)) * Expr.var(GradedVar("B2", 2, 1))
    g = Expr.var(GradedVar("B1", 1, 1))
    res = p.bracket(f, g)
    assert not res.is_zero()
    assert res.homogeneous_degree() == 3 + 1 - p.n + 1  # |F|+|G|-n+1 = 2


@pytest.mark.parametrize("spec", _structures(), ids=lambda s: s.fingerprint())
def test_bracket_laws_randomized(spec):
    # proved on generic operands, and never refuted by random long ones
    p = PStructure(spec)
    rep, ref = check_bv_identities(p), _reference_check_bv(p, trials=30, seed=7)
    for law in BRACKET_LAWS:
        assert rep.results[law] and ref.results[law], (rep.failures, ref.failures)


@pytest.mark.parametrize("n", (2, 4))
def test_laplacian_suite_even_n(n):
    spec = ModelSpec(n=n, d=2, bf_blocks=(BfBlock(1, 2),) if n > 2 else ())
    rep = check_bv_identities(PStructure(spec))
    for law in LAPLACIAN_LAWS:
        assert rep.results[law], rep.failures


def test_laplacian_obstruction_reported_for_odd_n():
    # For odd n the degree -n+1 bracket is graded-antisymmetric while a
    # second-order Leibniz defect is graded-symmetric; the checker must
    # report the failure and explain it.
    spec = ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),))
    rep = check_bv_identities(PStructure(spec))
    assert all(rep.results[law] for law in BRACKET_LAWS)
    assert not rep.results["Delta-Leibniz"]
    assert any("odd n" in note for note in rep.notes)


@pytest.mark.parametrize("n, unexercised", ((3, False), (5, True), (6, True)))
def test_unexercised_delta_squared_is_noted(n, unexercised):
    # Delta^2 lowers degree by 2(n-1): 8 at n=5 and 10 at n=6, above every
    # degree a random operand reaches (n+2), where it would pass by degree
    # alone; the generic operands reach every degree from 2(n-1) on.  The
    # law is false at odd n and true at even n.
    p = PStructure(ModelSpec(n=n, d=2))
    rep = check_bv_identities(p)
    assert rep.results["Delta^2 = 0"] == (n % 2 == 0)
    witnesses = [m for m in rep.failures if m.startswith("Delta^2 = 0: ")]
    if n % 2:
        # At |F| = 2(n-1) the operand is u[0;] B_1^2 + u[1;] B_1 B_2 +
        # u[2;] B_2^2 (B = B{n-1}, even); Delta^2 pairs each B with its phi
        # and leaves a scalar.
        assert witnesses == [
            "Delta^2 = 0: |F| = %d: residual term "
            "(2*d(1,1)u[0;] + 2*d(1,2)u[1;] + 2*d(2,2)u[2;])" % (2 * (n - 1))
        ]
        b = Expr.var(GradedVar("B%d" % (n - 1), n - 1, 1))
        assert p.laplacian(p.laplacian(Expr.symbol(CoeffSymbol("u")) * b * b))
    else:
        assert witnesses == []
    assert (2 * (n - 1) > n + 2) == unexercised
    assert not any("Delta^2" in note for note in rep.notes)


def test_laplacian_examples():
    spec = ModelSpec(n=2, d=3)
    p = PStructure(spec)
    assert p.laplacian(Expr.base(1)).is_zero()
    # Delta(phi^i B_j) = delta^i_j
    for i in (1, 2):
        for j in (1, 2):
            e = Expr.base(i) * Expr.var(GradedVar("B1", 1, j))
            expected = Expr.scalar(1) if i == j else Expr.zero()
            assert p.laplacian(e) == expected


def test_laplacian_of_poisson_deformation_is_divergence():
    # Delta(1/2 f^{ij} B_i B_j) = (d_i f^{ij}) B_j for n=2.
    from bvsigma.models import ansatz_families

    spec = ModelSpec(n=2, d=3)
    p = PStructure(spec)
    s1 = build_S1_generic(spec)
    fams = {f.name: f for f in ansatz_families(spec)}

    def f(i, j, deriv=()):
        sign, sym = make_symbol("f1", (), (i, j), deriv, fams["f1"].groups)
        if sym is None:
            return Expr.zero()
        return Expr({(): CPoly.symbol(sym, sign)})

    expected = Expr.zero()
    for i in range(1, 4):
        for j in range(1, 4):
            expected = expected + f(i, j, deriv=(i,)) * Expr.var(GradedVar("B1", 1, j))
    assert p.laplacian(s1.expr) == expected


def test_antisymmetry_law_on_a_specific_pair():
    # (F,G) = -(-1)^((|F|+1-n)(|G|+1-n)) (G,F) with F = B_1, G = B_2, n=2:
    # the shifted parities are even, so the bracket is symmetric here.
    spec = ModelSpec(n=2, d=3)
    p = PStructure(spec)
    f = Expr.var(GradedVar("B1", 1, 1))
    g = Expr.var(GradedVar("B1", 1, 2))
    assert p.bracket(f, g) == p.bracket(g, f).scale(-((-1) ** ((1 + 1 - 2) * (1 + 1 - 2))))


def _reference_conjugate_tables(spec):
    """The bracket's conjugate tables with the pairs worked out of the
    block labels and their degrees, as the structure once did itself, and
    the square rows of (F,F) read off the full rows: a Darboux pair's A row
    doubled, and of the self block's k^{ab} terms those with b >= a, the
    off-diagonal ones doubled; and the Laplacian's (B, ja, A, (-1)^p) per
    Darboux pair."""
    n, q = spec.n, (spec.n - 1) // 2
    pairs = [("phi", "B%d" % (n - 1), 0, spec.d)]
    for blk in sorted(spec.bf_blocks, key=lambda b: b.p):
        pairs.append(("A%d" % blk.p, "B%d" % (n - blk.p - 1), blk.p, blk.rank))
    darboux, square, laplacian = [], [], []
    for a_block, b_block, p, rank in pairs:
        sign = -1 if (n * p) % 2 == 0 else 1
        for i in range(1, rank + 1):
            av, bv = GradedVar(a_block, p, i), GradedVar(b_block, n - p - 1, i)
            ja = i if p == 0 else 0
            darboux.append((av, ja, ((bv, 0, 1),)))
            darboux.append((bv, 0, ((av, ja, sign),)))
            square.append((av, ja, ((bv, 0, 2),)))
            laplacian.append((bv, ja, av, (-1) ** p))
    full = list(darboux)
    if spec.cs_block is not None:
        vs = [GradedVar("A%d" % q, q, i) for i in range(1, spec.cs_block.rank + 1)]
        for a, va in enumerate(vs):
            partners = tuple((vb, 0, k) for vb, k in zip(vs, spec.cs_block.metric[a]) if k)
            if partners:
                full.append((va, 0, partners))
            half = tuple(
                (vb, 0, k if vb == va else 2 * k)
                for vb, _, k in partners
                if vb.index >= va.index
            )
            if half:
                square.append((va, 0, half))
    return tuple(darboux), tuple(full), tuple(square), tuple(laplacian)


K3_SPARSE = (
    (Fraction(0), Fraction(2), Fraction(0)),
    (Fraction(2), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(-1, 3)),
)
PAIRING_SPECS = [
    ModelSpec(n=2, d=3),
    ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 3),)),
    ModelSpec(n=4, d=2, bf_blocks=(BfBlock(1, 2),)),
    ModelSpec(n=5, d=3, bf_blocks=(BfBlock(2, 1), BfBlock(1, 2))),
    ModelSpec(n=6, d=2, bf_blocks=(BfBlock(1, 3), BfBlock(2, 2))),
    ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(3, K3_SPARSE)),
    ModelSpec(n=7, d=2, flavor=CS_BF, bf_blocks=(BfBlock(2, 2), BfBlock(1, 1)), cs_block=CsBlock(3, K3_SPARSE)),
]


@pytest.mark.parametrize("spec", PAIRING_SPECS, ids=lambda s: s.fingerprint())
def test_conjugate_tables_match_label_derived_pairs(spec):
    assert PStructure(spec)._conjugate_tables() == _reference_conjugate_tables(spec)


def test_every_block_in_exactly_one_pair():
    spec = ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, K2))
    p = PStructure(spec)
    fibers = {v.block for v in p.spec.fiber_vars()}
    assert fibers == {"B2", "A1"}


# -- the support-aware Laplacian against the sum over every pair ------------------

def _laplacian_over_every_pair(p, f):
    """The BV Laplacian summed over every Darboux pair variable, whatever
    the operand holds."""
    total = Expr.zero()
    for pair in p.pairs:
        for av, bv in zip(p.spec.vars_of(pair.a_block), p.spec.vars_of(pair.b_block)):
            total = total + f.left_deriv(bv).left_deriv(av).scale((-1) ** pair.p)
    return total


# bf at n = 2..6 (every Darboux pair kind: the base pair, A_p with p < n-p-1
# and, at odd n, the middle pair A_p = B_p) and cs at n=3 with a self block.
LAPLACIAN_SPECS = (
    ModelSpec(n=2, d=3),
    ModelSpec(n=3, d=3, bf_blocks=(BfBlock(1, 3),)),
    ModelSpec(n=4, d=2, bf_blocks=(BfBlock(1, 2),)),
    ModelSpec(n=5, d=2, bf_blocks=(BfBlock(1, 2), BfBlock(2, 2))),
    ModelSpec(n=6, d=2, bf_blocks=(BfBlock(1, 3), BfBlock(2, 2))),
    ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(3, K3_SPARSE)),
)


@pytest.mark.parametrize("spec", LAPLACIAN_SPECS, ids=lambda s: s.fingerprint())
def test_support_aware_laplacian_matches_sum_over_every_pair(spec):
    # Random operands of every degree (coefficients with base powers and
    # differentiated symbols), their sums and products, S1, and operands
    # with a B variable but no partner for it; plain and wrapped.
    p = PStructure(spec)
    gen = RandomExprs(p, seed=3)
    operands = [build_S1_generic(spec).expr]
    for _ in range(3):
        ops = [gen.homogeneous(k)[0] for k in gen.degrees]
        operands += ops
        operands.append(sum(ops, Expr.zero()))
        operands += [a * b for a, b in zip(ops, ops[1:])]
    b = p.spec.vars_of(p.pairs[0].b_block)[0]  # B_{n-1}, the base's partner
    operands += [Expr.var(b), Expr.var(b) * Expr.base(1), Expr.var(b) * Expr.symbol(CoeffSymbol("u"))]
    nonzero = 0
    for f in operands:
        expected = _laplacian_over_every_pair(p, f)
        assert p.laplacian(f) == expected
        assert p.laplacian(Hamiltonian(f)) == expected
        nonzero += bool(expected)
    assert nonzero >= len(operands) // 4


# -- the support-aware bracket against the sum over every variable -------------

# Rank 3, so the totally antisymmetric three-slot families do not vanish,
# and a self-block metric that is neither diagonal nor integral.
K3 = (
    (Fraction(1), Fraction(1, 2), Fraction(0)),
    (Fraction(1, 2), Fraction(2), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(-1)),
)
SUPPORT_SPECS = (
    ModelSpec(n=3, d=3, bf_blocks=(BfBlock(1, 3),)),
    ModelSpec(n=4, d=3, bf_blocks=(BfBlock(1, 3),)),
    ModelSpec(n=3, d=3, flavor=CS_BF, cs_block=CsBlock(3, K3)),
)
SCALARS = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))
# What a coefficient may hold: a scalar only, scalars times base powers, or
# a (possibly differentiated) symbol as well, which makes every base index
# part of the support.
COEFFICIENTS = ("scalar", "powers", "symbol")


def _support_case(spec):
    p = PStructure(spec)
    s1 = build_S1_generic(spec).expr
    monos = sorted(set(s1.terms) | {(v,) for v in p.spec.fiber_vars()})
    return p, monos, sorted(s1.symbols())


SUPPORT_CASES = [_support_case(spec) for spec in SUPPORT_SPECS]


@st.composite
def _support_operand(draw, case):
    """Zero, a base function (no fiber variable), or a sum of 1-3 fiber
    monomials; coefficients of one kind from COEFFICIENTS."""
    p, monos, syms = case
    if draw(st.integers(0, 9)) == 0:
        return Expr.zero()
    base_only = draw(st.booleans()) and draw(st.booleans())
    kind = draw(st.sampled_from(COEFFICIENTS))
    expr = Expr.zero()
    for _ in range(draw(st.integers(1, 3))):
        mono = () if base_only else draw(st.sampled_from(monos))
        expr = expr + Expr({mono: _draw_coefficient(draw, p, syms, kind, base_only)})
    return expr


def _draw_coefficient(draw, p, syms, kind, base_power=False):
    """A scalar, times a base power unless ``kind`` is "scalar" (or always,
    with ``base_power``), times a (possibly differentiated) symbol of S1 if
    ``kind`` is "symbol"."""
    d = p.spec.d
    c = CPoly.scalar(draw(st.sampled_from(SCALARS)))
    if kind != "scalar" or base_power:
        c = c * CPoly.base(draw(st.integers(1, d)), draw(st.integers(1, 2)))
    if kind == "symbol":
        sym = draw(st.sampled_from(syms))
        if draw(st.booleans()):
            sym = sym.with_deriv(draw(st.integers(1, d)))
        c = c * CPoly.symbol(sym)
    return c


@st.composite
def _support_pair(draw):
    case = draw(st.sampled_from(SUPPORT_CASES))
    return case[0], draw(_support_operand(case)), draw(_support_operand(case))


def _bracket_over_every_variable(p, f, g, self_block=True):
    """The Darboux sum (plus the self-block k-term) taken over every pair
    variable, whatever the operands hold."""
    total = Expr.zero()
    for pair in p.pairs:
        sign = -1 if (p.n * pair.p) % 2 == 0 else 1
        for av, bv in zip(p.spec.vars_of(pair.a_block), p.spec.vars_of(pair.b_block)):
            total = total + f.right_deriv(av) * g.left_deriv(bv)
            total = total + (f.right_deriv(bv) * g.left_deriv(av)).scale(sign)
    for sp in p.self_pairs if self_block else ():
        vs = p.spec.vars_of(sp.block)
        for a, va in enumerate(vs):
            for b, vb in enumerate(vs):
                total = total + (f.right_deriv(va) * g.left_deriv(vb)).scale(sp.metric[a][b])
    return total


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_support_pair())
def test_support_aware_bracket_matches_sum_over_every_variable(case):
    p, f, g = case
    full = _bracket_over_every_variable(p, f, g)
    darboux = _bracket_over_every_variable(p, f, g, self_block=False)
    qf, qg = Hamiltonian(f), Hamiltonian(g)
    for a, b in ((f, g), (qf, g), (f, qg), (qf, qg)):
        assert p.bracket(a, b) == full
        assert p.bracket_darboux(a, b) == darboux
    # a wrapper read again lends what it kept: the same values
    assert p.bracket(qf, qg) == full and p.bracket_darboux(qf, qg) == darboux
    assert p.bracket(f, f) == _bracket_over_every_variable(p, f, f)
    assert p.bracket(qf, qf) == p.bracket(qf, f) == p.bracket(f, qf) == p.bracket(f, f)


# -- the square (F,F) over half the conjugate table -------------------------------

# bf at rank 3 (one and two blocks), n=2 over a four-dimensional base, and cs
# at rank 3 with an off-diagonal metric whose diagonal is not zero everywhere:
# every symbol family of S1 is nonzero.
SQUARE_SPECS = (
    ModelSpec(n=3, d=3, bf_blocks=(BfBlock(1, 3),)),
    ModelSpec(n=5, d=3, bf_blocks=(BfBlock(1, 3), BfBlock(2, 3))),
    ModelSpec(n=2, d=4),
    ModelSpec(
        n=3, d=3, flavor=CS_BF,
        cs_block=CsBlock(3, ((0, 1, 0), (1, 0, 0), (0, 0, 2))),
    ),
)


def _copy(f):
    """An Expr equal to ``f`` but not the same object, so that a bracket
    with it takes the full rows."""
    return Expr(dict(f.terms), f.scope)


@pytest.mark.parametrize("spec", SQUARE_SPECS, ids=lambda s: s.fingerprint())
def test_square_of_s1_matches_sum_over_every_variable(spec):
    p = PStructure(spec)
    s1 = build_S1_generic(spec).expr
    square = p.bracket(s1, s1)
    assert not square.is_zero()
    assert square == _bracket_over_every_variable(p, s1, s1)
    assert square == p.bracket(s1, _copy(s1))


def _odd_shifted_case(spec):
    """The structure, the fiber monomials of each degree |F| with |F|+1-n
    odd (those of S1 and the short canonical ones), and S1's symbols."""
    p, monos, syms = _support_case(spec)
    pools = {}
    for deg in range(0, spec.n + 3):
        if (deg + 1 - spec.n) % 2:
            pool = {m for m in fiber_monomials(spec, 4).get(deg, ()) if m}
            pool.update(m for m in monos if sum(v.degree for v in m) == deg)
            if pool:
                pools[deg] = sorted(pool)
    return p, pools, syms


ODD_SHIFTED_CASES = [_odd_shifted_case(spec) for spec in SUPPORT_SPECS + SQUARE_SPECS[2:]]


@st.composite
def _odd_shifted_operand(draw):
    """A nonzero homogeneous F of odd shifted degree: 1-4 monomials of one
    degree, coefficients of one kind from COEFFICIENTS."""
    p, pools, syms = draw(st.sampled_from(ODD_SHIFTED_CASES))
    monos = pools[draw(st.sampled_from(sorted(pools)))]
    kind = draw(st.sampled_from(COEFFICIENTS))
    f = Expr.zero()
    for _ in range(draw(st.integers(1, 4))):
        f = f + Expr({draw(st.sampled_from(monos)): _draw_coefficient(draw, p, syms, kind)})
    assume(not f.is_zero())
    return p, f


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_odd_shifted_operand())
def test_square_of_odd_shifted_operand_matches_full_rows(case):
    p, f = case
    assert (f.homogeneous_degree() + 1 - p.n) % 2 == 1
    square = p.bracket(f, f)
    assert square == p.bracket(f, _copy(f))
    assert square == _bracket_over_every_variable(p, f, f)


def _rows_read(monkeypatch, p, f, g):
    """The row table ``p.bracket(f, g)`` sums over, and its value."""
    seen = []
    orig = PStructure._bracket

    def spy(self, rows, *args):
        seen.append(rows)
        return orig(self, rows, *args)

    monkeypatch.setattr(PStructure, "_bracket", spy)
    value = p.bracket(f, g)
    monkeypatch.undo()
    (rows,) = seen
    return rows, value


@pytest.mark.parametrize("spec", SQUARE_SPECS, ids=lambda s: s.fingerprint())
def test_square_rows_only_for_one_homogeneous_odd_shifted_operand(spec, monkeypatch):
    p = PStructure(spec)
    s1 = build_S1_generic(spec).expr
    assert _rows_read(monkeypatch, p, s1, s1)[0] is p._square_rows
    assert _rows_read(monkeypatch, p, s1, _copy(s1))[0] is p._rows
    q = Hamiltonian(s1)
    square = p.bracket(s1, s1)
    for f, g in ((q, q), (q, s1), (s1, q)):
        assert _rows_read(monkeypatch, p, f, g) == (p._square_rows, square)
    assert _rows_read(monkeypatch, p, q, Hamiltonian(_copy(s1)))[0] is p._rows
    # |F| = n - 1, shifted degree 0: (F,F) = 0 by graded antisymmetry, while
    # the A half alone is not zero, since phi1 meets B_{n-1}.
    even = Expr.zero()
    for m in fiber_monomials(spec, 4)[spec.n - 1]:
        even = even + Expr({m: CPoly.base(1)})
    inhomogeneous = s1 + even
    for f in (even, inhomogeneous, Expr.zero()):
        rows, value = _rows_read(monkeypatch, p, f, f)
        assert rows is p._rows
        assert value == _bracket_over_every_variable(p, f, f)
    # these fallbacks matter: half the table, doubled, is wrong on them
    for f in (even, inhomogeneous):
        assert p._bracket(p._square_rows, f, f) != p.bracket(f, f)


def test_support_marks_every_base_index_once_a_symbol_appears():
    spec = ModelSpec(n=3, d=3, bf_blocks=(BfBlock(1, 3),))
    sym = sorted(build_S1_generic(spec).expr.symbols())[0]
    b = GradedVar("B1", 1, 2)
    powers = Expr({(b,): CPoly.base(2, 2)})
    assert powers.support() == ({b}, {2})
    fibers, bases = (powers + Expr.symbol(sym)).support()
    assert fibers == {b} and all(j in bases for j in (1, 2, 3, 99))
    assert Expr.zero().support() == (set(), set())


def test_hamiltonian_takes_each_right_derivative_once_and_only_when_read(monkeypatch):
    spec = ModelSpec(n=3, d=3, bf_blocks=(BfBlock(1, 3),))
    p = PStructure(spec)
    s = build_S1_generic(spec).expr
    f = Expr.base(1) * Expr.base(3)  # (S,F) pairs F's phi with B2 in S
    a = Expr.var(GradedVar("A1", 1, 2))  # (S,A1_2) reads d_r S/dB1_2 only
    operands = (f, a, f, a * f, a)
    expected = [_bracket_over_every_variable(p, s, g) for g in operands]
    taken = []
    orig = Expr.right_deriv

    def counted(self, v):
        taken.append((id(self), v))
        return orig(self, v)

    monkeypatch.setattr(Expr, "right_deriv", counted)
    q = Hamiltonian(s)
    assert taken == []  # nothing is taken up front
    assert [p.bracket(q, g) for g in operands] == expected
    read = {GradedVar("B2", 2, 1), GradedVar("B2", 2, 3), GradedVar("B1", 1, 2)}
    assert sorted(v for _, v in taken) == sorted(read)  # once each, only those read
    assert {i for i, _ in taken} == {id(s)}
    # a zero derivative is kept too, so it is not taken again
    taken.clear()
    small = Expr.var(GradedVar("B1", 1, 1))
    z = Hamiltonian(small)
    b = GradedVar("B1", 1, 2)
    assert z.right_deriv(b).is_zero() and z.right_deriv(b).is_zero()
    assert taken == [(id(small), b)]


# -- the generic route against random long operands ------------------------------

# The families of acceptance criterion 9 (every even and odd one).
CRITERION_9_FAMILIES = (
    ModelSpec(n=2, d=2),
    ModelSpec(n=3, d=2),
    ModelSpec(n=4, d=2),
    ModelSpec(n=5, d=2),
    ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),)),
    ModelSpec(n=4, d=2, bf_blocks=(BfBlock(1, 2),)),
    ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, K2)),
)


class _ProductCoefficients(RandomExprs):
    """Coefficients built as CPoly products, drawing the same numbers."""

    def _coefficient(self):
        rng = self.rng
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.choice([1, 1, 2, 3])
        poly = CPoly.scalar(Fraction(num, den))
        if rng.random() < 0.5:
            j = rng.choice(range(1, self.pstruct.spec.d + 1))
            poly = poly * CPoly.base(j, rng.choice([1, 1, 2]))
        if rng.random() < 0.4:
            deriv = ()
            if rng.random() < 0.5:
                deriv = (self.rng.choice(range(1, self.pstruct.spec.d + 1)),)
            _, sym = make_symbol("g%d" % rng.choice([1, 2]), (), (), deriv, ())
            poly = poly * CPoly.symbol(sym)
        return poly


def _reference_check_bv(pstruct, trials, seed):
    """Every law on ``trials`` random triples F, G, H (fiber monomials of up
    to 4 factors, see :class:`corpus.RandomExprs`), with one bracket,
    Laplacian and product call per use, filling a report as
    check_bv_identities does; a witness names the trial and its operands.
    Delta^2 = 0 past the random operand degrees, up to 2(n-1), is applied
    to each single-monomial operand u*m of up to k factors, in canonical
    order, up to the first failure per degree k."""
    n = pstruct.n
    gen = _ProductCoefficients(pstruct, seed)
    report = BvReport(structure=pstruct.scope)
    report.results = {law: True for law in BRACKET_LAWS + LAPLACIAN_LAWS}

    def fail(law, msg):
        report.results[law] = False
        if len(report.failures) < 8:
            report.failures.append("%s: %s" % (law, msg))

    br = pstruct.bracket
    lap = pstruct.laplacian
    fibers = pstruct.spec.fiber_vars()
    for k in range(max(gen.degrees) + 1, 2 * (n - 1) + 1):
        monos = sorted(
            m
            for size in range(1, k + 1)
            for m in itertools.combinations_with_replacement(fibers, size)
            if sum(v.degree for v in m) == k and not any(a == b and a.parity for a, b in zip(m, m[1:]))
        )
        for m in monos:
            f = Expr.symbol(CoeffSymbol("u"))
            for v in m:
                f = f * Expr.var(v)
            if lap(lap(f)):
                fail(LAPLACIAN_LAWS[1], "degree %d: Delta^2(u*%s) != 0" % (k, monomial_str(m)))
                break
    for trial in range(trials):
        f, fd = gen.homogeneous()
        g, gd = gen.homogeneous()
        h, hd = gen.homogeneous()
        fs, gs, hs = fd + 1 - n, gd + 1 - n, hd + 1 - n
        if not (br(f, g) + br(g, f).scale((-1) ** (fs * gs))).is_zero():
            fail(BRACKET_LAWS[0], "trial %d: F=%s G=%s" % (trial, f, g))
        rhs = br(f, g) * h + (g * br(f, h)).scale((-1) ** (fs * gd))
        if br(f, g * h) != rhs:
            fail(BRACKET_LAWS[1], "trial %d: F=%s G=%s H=%s" % (trial, f, g, h))
        rhs = f * br(g, h) + (br(f, h) * g).scale((-1) ** (gd * hs))
        if br(f * g, h) != rhs:
            fail(BRACKET_LAWS[2], "trial %d: F=%s G=%s H=%s" % (trial, f, g, h))
        jac = (
            br(f, br(g, h)).scale((-1) ** (fs * hs))
            + br(g, br(h, f)).scale((-1) ** (gs * fs))
            + br(h, br(f, g)).scale((-1) ** (hs * gs))
        )
        if not jac.is_zero():
            fail(BRACKET_LAWS[3], "trial %d: F=%s G=%s H=%s" % (trial, f, g, h))
        res = br(f, g)
        if res and res.homogeneous_degree() != fd + gd - n + 1:
            fail(BRACKET_LAWS[4], "trial %d" % trial)
        rhs = (
            lap(f) * g
            + pstruct.bracket_darboux(f, g).scale((-1) ** ((n + 1) * fd))
            + (f * lap(g)).scale((-1) ** fd)
        )
        if lap(f * g) != rhs:
            fail(LAPLACIAN_LAWS[0], "trial %d: F=%s G=%s" % (trial, f, g))
        if not lap(lap(f)).is_zero():
            fail(LAPLACIAN_LAWS[1], "trial %d: F=%s" % (trial, f))
        lf = lap(f)
        if lf and lf.homogeneous_degree() != fd - (n - 1):
            fail(LAPLACIAN_LAWS[2], "trial %d" % trial)
    if n % 2 == 1 and not report.results[LAPLACIAN_LAWS[0]]:
        report.notes.append(
            "Delta-Leibniz cannot hold for odd n at target level: the bracket "
            "is graded-antisymmetric there while any second-order Leibniz "
            "defect is graded-symmetric"
        )
    if pstruct.self_pairs:
        report.notes.append(
            "Delta-Leibniz compared against the Darboux sector; the self-block "
            "k-term has no second-order generator (k^{ab} d_l d_l vanishes "
            "identically on an odd self-paired block)"
        )
    return report


@pytest.mark.parametrize("spec", CRITERION_9_FAMILIES, ids=lambda s: s.fingerprint())
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_check_bv_matches_one_call_per_use_reference(spec, seed):
    # An exactness oracle: a law the generic route proves never fails on
    # random long operands, and every law a random trial refutes is refuted
    # by the generic route.  At odd n the random trials meet the obstruction
    # too, so the two reports carry the same notes.
    p = PStructure(spec)
    rep = check_bv_identities(p)
    ref = _reference_check_bv(p, trials=12, seed=seed)
    assert rep.structure == ref.structure
    assert set(rep.results) == set(ref.results)
    for law, proved in rep.results.items():
        assert ref.results[law] or not proved, (law, ref.failures)
    assert rep.notes == ref.notes
    assert ref.results["Delta-Leibniz"] == (spec.n % 2 == 0)


# Each law's verdict, pinned: cotangent n=1..5 (n=2 over a three-dimensional
# base), bf and cs at n=3 and 4, two-block bf at n=5 and 6, and cs_bf at
# n=7.  At odd n exactly Delta-Leibniz and Delta^2 = 0 fail (the documented
# obstruction); at even n every law holds.
I3 = tuple(tuple(Fraction(int(a == b)) for b in range(3)) for a in range(3))
ODD_N_FAILURES = ["Delta-Leibniz", "Delta^2 = 0"]
VERDICTS = (
    (ModelSpec(n=1, d=2), ODD_N_FAILURES),
    (ModelSpec(n=2, d=3), []),
    (ModelSpec(n=3, d=2), ODD_N_FAILURES),
    (ModelSpec(n=4, d=2), []),
    (ModelSpec(n=5, d=2), ODD_N_FAILURES),
    (ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),)), ODD_N_FAILURES),
    (ModelSpec(n=4, d=2, bf_blocks=(BfBlock(1, 2),)), []),
    (ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, K2)), ODD_N_FAILURES),
    (ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(3, I3)), ODD_N_FAILURES),
    (ModelSpec(n=5, d=2, bf_blocks=(BfBlock(1, 2), BfBlock(2, 2))), ODD_N_FAILURES),
    (ModelSpec(n=6, d=2, bf_blocks=(BfBlock(1, 2), BfBlock(2, 2))), []),
    (
        ModelSpec(n=7, d=2, flavor=CS_BF, bf_blocks=(BfBlock(1, 2),), cs_block=CsBlock(2, K2)),
        ODD_N_FAILURES,
    ),
)


@pytest.mark.parametrize("spec, failed", VERDICTS, ids=[v[0].fingerprint() for v in VERDICTS])
def test_check_bv_verdict_per_law(spec, failed):
    rep = check_bv_identities(PStructure(spec))
    assert set(rep.results) == set(BRACKET_LAWS + LAPLACIAN_LAWS)
    assert sorted(law for law, ok in rep.results.items() if not ok) == failed
    # one witness per failed law: the law, its operands' degrees and a term
    assert [w.split(": ")[0] for w in rep.failures] == failed
    assert all(re.match(r"[^:]+: \|F\|(,\|G\|)? = \d+(,\d+)?: residual term \S", w) for w in rep.failures)


def _sizes(spec):
    """The number of degree classes of the generic operands, and that of
    the degrees of the Delta^2 operands."""
    classes = len(fiber_monomials(spec, 1))
    squares = sum(1 for k in fiber_monomials(spec, 4) if k >= 2 * (spec.n - 1))
    return classes, squares


def test_check_bv_computes_each_trial_value_once(monkeypatch):
    # Each bracket, Darboux bracket and Laplacian of one pair or triple of
    # degree classes is taken once and read by every law that needs it.
    spec = ModelSpec(n=4, d=2, bf_blocks=(BfBlock(1, 2),))
    p = PStructure(spec)
    calls = {"bracket": 0, "bracket_darboux": 0, "laplacian": 0}
    for name in calls:
        orig = getattr(PStructure, name)

        def counted(self, *args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self, *args)

        monkeypatch.setattr(PStructure, name, counted)
    check_bv_identities(p)
    c, squares = _sizes(spec)
    assert (c, squares) == (4, 5)
    # (F,G), (G,H), (H,F), (F,H) and (G,F) per pair; (F,GH), (FG,H) and
    # the three of Jacobi per triple
    assert calls["bracket"] == 5 * c * c + 5 * c ** 3
    # no self block: the Darboux bracket is the bracket (F,G) already taken
    assert calls["bracket_darboux"] == 0
    # Delta F and Delta G per class, Delta(FG) per pair, and Delta twice
    # per Delta^2 operand
    assert calls["laplacian"] == 2 * c + c * c + 2 * squares


# The models of the bv-laws benchmark jobs: the so(3), exact Courant and cs
# su(2) examples (check-bv reads only their [model] section) and the
# generated n=4 and n=5 bf models.
BV_LAWS_SPECS = (
    ModelSpec(n=2, d=3),
    ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),)),
    ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(3, I3)),
    ModelSpec(n=4, d=2, bf_blocks=(BfBlock(1, 2),)),
    ModelSpec(n=5, d=2, bf_blocks=(BfBlock(1, 2), BfBlock(2, 2))),
)


class _SummedOperands(RandomExprs):
    """Operands built as a running Expr sum, one term at a time, drawing
    the same numbers in the same order."""

    def homogeneous(self, degree=None):
        rng = self.rng
        if degree is None:
            degree = rng.choice(self.degrees)
        monos = self._pool[degree]
        expr = Expr.zero()
        for _ in range(rng.randint(1, 2)):
            m = rng.choice(monos)
            expr = expr + Expr({m: self._coefficient()})
        if expr.is_zero():
            expr = Expr({rng.choice(monos): CPoly.scalar(1)})
        return expr, degree


@pytest.mark.parametrize("spec", BV_LAWS_SPECS, ids=lambda s: s.fingerprint())
def test_random_operands_match_summed_construction(spec):
    p = PStructure(spec)
    for seed in range(10):
        gen, ref = RandomExprs(p, seed), _SummedOperands(p, seed)
        for _ in range(60):
            (f, fd), (e, ed) = gen.homogeneous(), ref.homogeneous()
            assert fd == ed and f == e and f.scope == e.scope
        assert gen.rng.getstate() == ref.rng.getstate()


@pytest.mark.parametrize("spec", BV_LAWS_SPECS, ids=lambda s: s.fingerprint())
def test_check_bv_takes_each_derivative_of_an_operand_once(spec, monkeypatch):
    # The generic operands, kept alive so that no other object takes one of
    # their ids, and the ids.
    operands, ids = [], set()
    taken = {}  # (side, id of the operand, variable) -> times taken
    orig_generic = pstructure._generic

    def recording(name, monos):
        out = orig_generic(name, monos)
        operands.append(out)
        ids.add(id(out))
        return out

    monkeypatch.setattr(pstructure, "_generic", recording)
    for side in ("left_deriv", "right_deriv"):
        orig = getattr(Expr, side)

        def counted(self, v, _orig=orig, _side=side):
            if id(self) in ids:
                key = (_side, id(self), v)
                taken[key] = taken.get(key, 0) + 1
            return _orig(self, v)

        monkeypatch.setattr(Expr, side, counted)
    check_bv_identities(PStructure(spec))
    classes, squares = _sizes(spec)
    assert len(operands) == 3 * classes + squares  # F, G and H per class
    assert {k[0] for k in taken} == {"left_deriv", "right_deriv"}
    assert max(taken.values()) == 1


@pytest.mark.parametrize("spec", LAPLACIAN_SPECS, ids=lambda s: s.fingerprint())
def test_laplacian_reads_no_block_variables_after_construction(spec, monkeypatch):
    p = PStructure(spec)
    gen = RandomExprs(p, seed=1)
    operands = [build_S1_generic(spec).expr] + [gen.homogeneous(k)[0] for k in gen.degrees]
    calls = []
    orig = ModelSpec.vars_of

    def counted(self, label):
        calls.append(label)
        return orig(self, label)

    monkeypatch.setattr(ModelSpec, "vars_of", counted)
    results = [p.laplacian(f) for f in operands] + [p.laplacian(Hamiltonian(f)) for f in operands]
    assert any(results)
    assert calls == []
    p.spec.vars_of(p.pairs[0].b_block)  # the counter sees a call
    assert len(calls) == 1
