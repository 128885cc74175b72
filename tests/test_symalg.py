import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import merge_monomials

from bvsigma import symalg
from bvsigma.algebroid import operation_table
from bvsigma.grading import sort_monomial
from bvsigma.master import expand_master, extract_identities, verify_structure_data
from bvsigma.models import (
    CS_BF,
    BfBlock,
    CsBlock,
    ModelSpec,
    StructureData,
    ansatz_families,
    build_S1_generic,
)
from bvsigma.pstructure import PStructure
from bvsigma.symalg import (
    ALL_INDICES,
    ANTISYM,
    LOWER,
    UPPER,
    CoeffSymbol,
    CPoly,
    Expr,
    MissingSymbolError,
    MixedContextError,
    SparseSum,
    SymGroup,
    make_symbol,
    monomial_str,
)
from bvsigma.worldsheet import ComponentField, DgaExpr, GeneratorTable

from corpus import cs_spec

SPEC = ModelSpec(n=3, d=3, bf_blocks=(BfBlock(1, 3),))
M = SPEC.fingerprint()
B1, B2, B3 = SPEC.vars_of("B1")
C1 = SPEC.vars_of("B2")[0]
PHI1 = SPEC.vars_of("phi")[0]

ANTI_UP = (SymGroup(ANTISYM, UPPER, (0, 1)),)


def f_up(i, j, coeff=1):
    sign, sym = make_symbol("f1", (), (i, j), (), ANTI_UP)
    if sym is None:
        return Expr.zero()
    return Expr({(): CPoly.symbol(sym, Fraction(coeff) * sign)})


def test_construction_order_irrelevant():
    a = (Expr.var(B1) + Expr.var(B2)) * Expr.var(B3)
    b = Expr.var(B1) * Expr.var(B3) + Expr.var(B2) * Expr.var(B3)
    assert a == b


def test_add_zero_and_cancellation():
    x = Expr.var(B1)
    assert x + Expr.zero() == x
    assert (x + x.scale(-1)).is_zero()


def test_antisymmetric_symbols_cancel_on_add():
    # f^{21} normalizes to -f^{12}, so the sum vanishes.
    a = f_up(1, 2) * Expr.var(B1)
    b = f_up(2, 1) * Expr.var(B1)
    assert (a + b).is_zero()


def test_antisymmetric_symbol_repeated_index_is_zero():
    assert f_up(1, 1).is_zero()


def test_mul_odd_swap_and_square():
    x, y = Expr.var(B1), Expr.var(B2)
    assert x * y == (y * x).scale(-1)
    assert (x * x).is_zero()


def test_even_variable_commutes_and_squares():
    c = Expr.var(C1)
    x = Expr.var(B1)
    assert c * x == x * c
    assert not (c * c).is_zero()


def test_base_variable_is_coefficient_material():
    # phi^1 B1 is independent of the factor order.
    p = Expr.var(PHI1)
    x = Expr.var(B1)
    assert p * x == x * p
    assert list((p * x).terms) == [(B1,)]


def test_graded_commutativity_randomized():
    rng = random.Random(0)
    vars_ = [B1, B2, B3, C1]
    for _ in range(1000):
        def rand_expr():
            expr = Expr.zero()
            for _ in range(rng.randint(1, 2)):
                term = Expr.scalar(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
                deg = 0
                for v in rng.sample(vars_, rng.randint(1, 3)):
                    term = term * Expr.var(v)
                    deg += v.degree
                expr = expr + term
            return expr, expr.homogeneous_degree()

        a, da = rand_expr()
        if da is None:
            continue
        b, db = rand_expr()
        if db is None:
            continue
        assert a * b == (b * a).scale((-1) ** (da * db))


def test_left_deriv_strips_leading_factor():
    expr = Expr.var(B1) * Expr.var(B2)
    assert expr.left_deriv(B1) == Expr.var(B2)
    assert expr.left_deriv(B2) == Expr.var(B1).scale(-1)


def test_right_deriv_strips_trailing_factor():
    expr = Expr.var(B1) * Expr.var(B2)
    # commuting B1 to the rightmost position costs one odd transposition
    assert expr.right_deriv(B1) == Expr.var(B2).scale(-1)
    assert expr.right_deriv(B2) == Expr.var(B1)


def test_left_deriv_of_base_only_expr():
    assert Expr.var(PHI1).left_deriv(B1).is_zero()


def test_odd_derivative_nilpotency():
    rng = random.Random(1)
    vars_ = [B1, B2, B3, C1]
    for _ in range(200):
        expr = Expr.zero()
        for _ in range(rng.randint(1, 3)):
            term = Expr.scalar(rng.randint(1, 4))
            for v in rng.sample(vars_, rng.randint(0, 4)):
                term = term * Expr.var(v)
            expr = expr + term
        assert expr.left_deriv(B1).left_deriv(B1).is_zero()
        assert expr.right_deriv(B1).right_deriv(B1).is_zero()


def test_partial_base_on_explicit_monomials():
    p = Expr.base(1) * Expr.base(2)
    assert p.partial_base(1) == Expr.base(2)
    sq = Expr.base(1) * Expr.base(1)
    assert sq.partial_base(1) == Expr.base(1).scale(2)


def test_partial_base_tracks_symbol_derivatives():
    expr = f_up(1, 3)
    d2 = expr.partial_base(2)
    (sym,) = d2.symbols()
    assert sym.deriv == (2,)
    # partials commute through the sorted deriv multiset
    assert d2.partial_base(1) == expr.partial_base(1).partial_base(2)


def test_partial_base_leibniz_randomized():
    rng = random.Random(2)
    for _ in range(200):
        def rand(scale_pool=(1, 2, 3)):
            expr = Expr.zero()
            for _ in range(rng.randint(1, 2)):
                term = Expr.scalar(rng.choice(scale_pool))
                if rng.random() < 0.7:
                    term = term * Expr.base(rng.randint(1, 3))
                if rng.random() < 0.5:
                    term = term * f_up(1, rng.randint(2, 3))
                if rng.random() < 0.6:
                    term = term * Expr.var(rng.choice([B1, B2, C1]))
                expr = expr + term
            return expr

        f, g = rand(), rand()
        j = rng.randint(1, 3)
        assert (f * g).partial_base(j) == f.partial_base(j) * g + f * g.partial_base(j)


def _so3_data():
    spec = ModelSpec(n=2, d=3)
    data = StructureData(spec)
    data.assign("f1", (), (1, 2), CPoly.base(3))
    data.assign("f1", (), (1, 3), CPoly.base(2).scale(-1))
    data.assign("f1", (), (2, 3), CPoly.base(1))
    return spec, data


def test_substitute_symbol_and_derivative():
    spec = ModelSpec(n=2, d=3)
    data = StructureData(spec)
    data.assign("f1", (), (1, 2), CPoly.base(3))
    data.assign("f1", (), (1, 3), CPoly.zero())
    data.assign("f1", (), (2, 3), CPoly.zero())
    fams = data.families["f1"]
    expr = f_up(1, 2) * Expr.var(B1) * Expr.var(B2)
    sub = expr.substitute(data)
    assert sub == Expr.base(3) * Expr.var(B1) * Expr.var(B2)
    deriv = f_up(1, 2).partial_base(3).substitute(data)
    assert deriv == Expr.scalar(1)


def test_substitute_missing_symbol_names_it():
    spec = ModelSpec(n=2, d=3)
    data = StructureData(spec)
    data.assign("f1", (), (1, 2), CPoly.base(3))
    expr = f_up(1, 3)
    with pytest.raises(MissingSymbolError) as err:
        expr.substitute(data)
    assert "f1[;1,3]" in str(err.value)


def test_mixed_context_rejected():
    a = Expr.var(B1, scope="model-a")
    b = Expr.var(B2, scope="model-b")
    with pytest.raises(MixedContextError):
        a + b
    with pytest.raises(MixedContextError):
        a * b
    # a scoped and an unscoped expression combine fine
    assert not (a + Expr({(B2,): CPoly.scalar(1)})).is_zero()


def test_variables_of_two_specs_never_meet():
    """Codes of two specs coincide (B1_1 of n=2 is A1_1 here, both code 1),
    so Expr.var scopes a variable to its spec and such a product raises."""
    other = ModelSpec(n=2, d=3).vars_of("B1")[0]
    mine = SPEC.vars_of("A1")[0]
    assert other == mine == 1 and (str(other), str(mine)) == ("B1_1", "A1_1")
    assert Expr.var(mine).scope == M and Expr.var(other).scope == "n=2;d=3;bf"
    with pytest.raises(MixedContextError):
        Expr.var(mine) * Expr.var(other)
    with pytest.raises(MixedContextError):
        Expr.var(PHI1) + Expr.var(ModelSpec(n=2, d=3).vars_of("phi")[0])


def test_reprs_name_class_and_content():
    e = Expr.var(B1).scale(Fraction(-1, 2)) + Expr.base(1, scope=M)
    assert repr(e) == "Expr(phi1 - 1/2*B1_1)"
    assert repr(CPoly.base(2).scale(3) + CPoly.scalar(1)) == "CPoly(1 + 3*phi2)"
    assert repr(Expr.zero(M)) == "Expr(0)" and repr(CPoly.zero()) == "CPoly(0)"
    fibers, bases = (f_up(1, 2) * Expr.var(B1)).support()
    assert bases is ALL_INDICES and repr(bases) == "ALL_INDICES" and fibers == {B1}


def test_sums_of_two_specs_are_unequal():
    """B1_1 of n=2 has code 1 at d=3 and at d=4, so the two variables' Exprs
    have equal terms and hashes; their scopes differ, so they are unequal.
    A None scope is equal to either."""
    x3, x4 = (Expr.var(ModelSpec(n=2, d=d).vars_of("B1")[0]) for d in (3, 4))
    assert x3.terms == x4.terms and hash(x3) == hash(x4)
    assert x3 != x4 and not x3 == x4
    assert x3 == Expr.var(ModelSpec(n=2, d=3).vars_of("B1")[0])
    free = Expr._of(x3.terms, None)
    assert free == x3 and free == x4 and x4 == free


# -- the product kernel against a naive reference ----------------------------------

# Rank 3 everywhere: the totally antisymmetric three-slot families (f3, f6 of
# the bf model) vanish identically at rank 2.
K3 = (
    (Fraction(1), Fraction(1, 2), Fraction(0)),
    (Fraction(1, 2), Fraction(2), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(-1)),
)
KERNEL_SPECS = (
    ModelSpec(n=3, d=3, bf_blocks=(BfBlock(1, 3),)),
    ModelSpec(n=3, d=3, flavor=CS_BF, cs_block=CsBlock(3, K3)),
    ModelSpec(n=4, d=3, bf_blocks=(BfBlock(1, 3),)),
)
SCALARS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 4))


def _term_pool(spec):
    """The generic S1 terms of a model, plus the scalar 1 and every single
    fiber variable, so products meet empty and one-letter monomials too."""
    p = PStructure(spec)
    pool = list(build_S1_generic(spec).expr.terms.items())
    pool.append(((), CPoly.scalar(1)))
    pool += [((v,), CPoly.scalar(1)) for v in p.spec.fiber_vars()]
    return p, pool


KERNEL_CASES = [_term_pool(spec) for spec in KERNEL_SPECS]


@st.composite
def _operand(draw, pool, d):
    """A sum of 1-4 pool terms, each rescaled by an integer or fractional
    scalar, possibly times a base monomial, possibly plus a differentiated
    symbol.  Sampling from a small pool makes cancellations common."""
    expr = Expr.zero()
    for mono, coeff in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)):
        c = coeff.scale(draw(st.sampled_from(SCALARS)))
        if draw(st.booleans()):
            c = c * CPoly.base(draw(st.integers(1, d)), draw(st.integers(1, 2)))
        syms = sorted(coeff.symbols())
        if syms and draw(st.booleans()):
            sym = draw(st.sampled_from(syms)).with_deriv(draw(st.integers(1, d)))
            c = c + CPoly.symbol(sym, draw(st.sampled_from(SCALARS)))
        expr = expr + Expr({mono: c})
    return expr


@st.composite
def _kernel_case(draw):
    p, pool = draw(st.sampled_from(KERNEL_CASES))
    d = p.spec.d
    return p, draw(_operand(pool, d)), draw(_operand(pool, d))


def _naive_mul(f, g):
    """f g as {monomial: {coefficient key: Fraction}}: one sort_monomial per
    term pair and a plain dict product over Fractions."""
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            sign, mono = sort_monomial(m1 + m2)
            if not sign:
                continue
            coeffs = out.setdefault(mono, {})
            for (s1, b1), v1 in c1.terms.items():
                for (s2, b2), v2 in c2.terms.items():
                    base = Counter(dict(b1))
                    base.update(dict(b2))
                    key = (tuple(sorted(s1 + s2)), tuple(sorted(base.items())))
                    coeffs[key] = coeffs.get(key, Fraction(0)) + sign * Fraction(v1) * Fraction(v2)
    return _nonzero(out)


def _nonzero(table):
    out = {}
    for mono, coeffs in table.items():
        kept = {k: v for k, v in coeffs.items() if v}
        if kept:
            out[mono] = kept
    return out


def _naive_bracket(p, f, g):
    """The Darboux sum of the pstructure docstring plus the self-block k-term,
    every product through _naive_mul."""
    total = {}

    def add(part, factor):
        for mono, coeffs in part.items():
            slot = total.setdefault(mono, {})
            for k, v in coeffs.items():
                slot[k] = slot.get(k, Fraction(0)) + factor * v

    for pair in p.pairs:
        t2 = -1 if (p.n * pair.p) % 2 == 0 else 1
        for av, bv in zip(p.spec.vars_of(pair.a_block), p.spec.vars_of(pair.b_block)):
            add(_naive_mul(f.right_deriv(av), g.left_deriv(bv)), 1)
            add(_naive_mul(f.right_deriv(bv), g.left_deriv(av)), t2)
    for sp in p.self_pairs:
        vs = p.spec.vars_of(sp.block)
        for a, va in enumerate(vs):
            for b, vb in enumerate(vs):
                add(_naive_mul(f.right_deriv(va), g.left_deriv(vb)), sp.metric[a][b])
    return _nonzero(total)


def _table(expr):
    return {m: dict(c.terms) for m, c in expr.terms.items()}


def _assert_canonical(expr):
    """No zero coefficient polynomial or scalar is stored, and every scalar
    is an int exactly when it is integral."""
    for c in expr.terms.values():
        assert c.terms
        for v in c.terms.values():
            assert v != 0
            assert type(v) is (int if Fraction(v).denominator == 1 else Fraction)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kernel_case())
def test_mul_matches_naive_reference(case):
    _, f, g = case
    prod = f * g
    assert _table(prod) == _naive_mul(f, g)
    _assert_canonical(prod)


# Odd blocks A1, B3 and even blocks A2, B2, B4 of rank 5, the most factors
# of one block in a degree-5 monomial.
CODE_SPEC = ModelSpec(n=5, d=5, bf_blocks=(BfBlock(1, 5), BfBlock(2, 5)))
A1_1, A1_2 = CODE_SPEC.vars_of("A1")[:2]
B4_1 = CODE_SPEC.vars_of("B4")[0]


@st.composite
def _canonical_pair(draw):
    """Two canonical monomials of CODE_SPEC of up to 5 factors; half the
    time the right one also holds a variable of the left one, so that an
    odd variable meets itself or an even one repeats."""

    def canonical(seq):
        seq = sorted(seq)
        return tuple(v for i, v in enumerate(seq) if not (v & 1 and i and seq[i - 1] == v))

    fibers = CODE_SPEC.fiber_vars()
    left = canonical(draw(st.lists(st.sampled_from(fibers), max_size=5)))
    right = draw(st.lists(st.sampled_from(fibers), max_size=4))
    if left and draw(st.booleans()):
        right.append(draw(st.sampled_from(left)))
    return left, canonical(right)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_canonical_pair())
@example(((A1_1,), (A1_1,)))
@example(((A1_2, B4_1, B4_1), (A1_1, B4_1)))
def test_kernel_sign_and_monomial_match_merge_monomials(pair):
    left, right = pair
    acc = {}
    symalg._mul_into(acc, {left: CPoly.scalar(1)}, {right: CPoly.scalar(1)})
    sign, mono = merge_monomials(left, right)
    assert acc == ({mono: {((), ()): sign}} if sign else {})


@st.composite
def _two_products(draw):
    """Two products for one accumulator, with their signs.  The second
    often shares a factor with the first, or both, and its sign is often
    the first's negated, so that sums cancel."""
    p, pool = draw(st.sampled_from(KERNEL_CASES))
    d = p.spec.d
    f1, g1 = draw(_operand(pool, d)), draw(_operand(pool, d))
    share = draw(st.sampled_from(("none", "f", "g", "both")))
    f2 = f1 if share in ("f", "both") else draw(_operand(pool, d))
    g2 = g1 if share in ("g", "both") else draw(_operand(pool, d))
    s1 = draw(st.sampled_from(SCALARS))
    s2 = -s1 if draw(st.booleans()) else draw(st.sampled_from(SCALARS))
    return (f1, g1, s1), (f2, g2, s2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_two_products())
def test_mul_into_sums_products_in_one_accumulator(products):
    acc = {}
    want = {}
    for f, g, sign in products:
        Expr.mul_into(acc, f, g, sign)
        for mono, coeffs in _naive_mul(f, g).items():
            slot = want.setdefault(mono, {})
            for k, v in coeffs.items():
                slot[k] = slot.get(k, Fraction(0)) + sign * v
    got = Expr._collect(acc, None)
    assert _table(got) == _nonzero(want)
    _assert_canonical(got)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kernel_case())
def test_bracket_matches_naive_reference(case):
    p, f, g = case
    br = p.bracket(f, g)
    assert _table(br) == _naive_bracket(p, f, g)
    _assert_canonical(br)


def _naive_deriv(f, x, left):
    """d_l f/dx (or d_r) as {monomial: {coefficient key: Fraction}}: every
    occurrence of a fiber x is stripped, with the sign of the odd variables
    it passes on its side when x is odd, and the terms are summed; phi_j
    differentiates each base power and each symbol of a coefficient term."""
    out = {}

    def add(mono, key, v):
        slot = out.setdefault(mono, {})
        slot[key] = slot.get(key, Fraction(0)) + v

    for m, c in f.terms.items():
        for (syms, base), v in c.terms.items():
            if x.block == "phi":
                powers = Counter(dict(base))
                if powers[x.index]:
                    lowered = powers.copy()
                    lowered[x.index] -= 1
                    key = (syms, tuple(sorted((i, q) for i, q in lowered.items() if q)))
                    add(m, key, powers[x.index] * Fraction(v))
                for pos, sym in enumerate(syms):
                    new = syms[:pos] + (sym.with_deriv(x.index),) + syms[pos + 1 :]
                    add(m, (tuple(sorted(new)), base), Fraction(v))
                continue
            for pos, u in enumerate(m):
                if u == x:
                    passed = m[:pos] if left else m[pos + 1 :]
                    odd_passed = sum(w.parity for w in passed) if x.parity else 0
                    add(m[:pos] + m[pos + 1 :], (syms, base), (-1) ** odd_passed * Fraction(v))
    return _nonzero(out)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_kernel_case())
def test_derivatives_match_naive_reference(case):
    # f g holds even powers x^k of the even fiber variables.
    p, f, g = case
    phis = p.spec.vars_of("phi")
    for expr in (f, f * g):
        for x in p.spec.fiber_vars() + phis:
            for left in (True, False):
                got = expr.left_deriv(x) if left else expr.right_deriv(x)
                assert _table(got) == _naive_deriv(expr, x, left)
                _assert_canonical(got)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_kernel_case())
def test_stored_scalars_are_canonical(case):
    _, f, g = case
    for expr in (f, g, f + g, f - g, f.scale(Fraction(2, 3)), f.scale(2), f.partial_base(1)):
        _assert_canonical(expr)
    for c in f.terms.values():
        for poly in (c * c, c.diff_base(1), c.scale(Fraction(1, 2)), c + c.scale(Fraction(-1, 2))):
            for v in poly.terms.values():
                assert v != 0
                assert type(v) is (int if Fraction(v).denominator == 1 else Fraction)


def test_fractional_sums_that_become_integral_are_ints():
    half = CPoly.scalar(Fraction(1, 2))
    assert type((half + half).terms[((), ())]) is int
    assert type(CPoly.scalar(Fraction(4, 2)).terms[((), ())]) is int
    x = Expr.var(B1)
    assert (x.scale(Fraction(1, 2)) + x.scale(Fraction(-1, 2))).is_zero()
    (coeff,) = (x.scale(Fraction(2, 3)) * Expr.scalar(Fraction(3, 2))).terms.values()
    assert type(coeff.terms[((), ())]) is int


def _stored_scalars(s):
    """Every exact scalar a sparse sum stores (an Expr's sit in its CPolys)."""
    for v in s.terms.values():
        yield from v.terms.values() if isinstance(v, CPoly) else (v,)


def _cpoly_sums():
    _, f = make_symbol("f1", (), (1, 2), (), ANTI_UP)
    a = CPoly.symbol(f, -3) + CPoly.base(1).scale(Fraction(1, 2))
    b = CPoly.base(2, 2) + CPoly.base(1).scale(Fraction(-2, 3))
    half = CPoly.scalar(Fraction(1, 2)) + CPoly.base(1).scale(Fraction(3, 2))
    return a, b, CPoly.zero(), half


def _expr_sums():
    a = Expr.var(B1) * Expr.var(C1).scale(-2) + Expr.base(1, scope=M).scale(Fraction(1, 2))
    b = Expr.var(B2) + Expr.var(C1).scale(Fraction(-2, 3)) + f_up(1, 2)
    half = (Expr.var(B1) + Expr.scalar(3)).scale(Fraction(1, 2))
    return a, b, Expr.zero(M), half


def _dga_sums():
    a1, b0, a2 = ComponentField("A", 1, 0), ComponentField("B", 0, 1), ComponentField("A", 2, -1)
    t = GeneratorTable(3, (("A", 1), ("B", 1)))
    a = DgaExpr.gen(t, a1) * DgaExpr.gen(t, b0).scale(-2) + DgaExpr.scalar(t, Fraction(1, 2))
    b = DgaExpr.gen(t, a2).scale(Fraction(-2, 3)) + DgaExpr.gen(t, a1)
    half = (DgaExpr.gen(t, b0) + DgaExpr.gen(t, a1.d()).scale(3)).scale(Fraction(1, 2))
    return a, b, DgaExpr.zero(t), half


@pytest.mark.parametrize("make", (_cpoly_sums, _expr_sums, _dga_sums), ids=("CPoly", "Expr", "DgaExpr"))
def test_sum_laws_and_one_sum_implementation(make):
    a, b, zero, half = make()
    assert a + b == b + a and a + b != a
    assert (a - a).is_zero() and not (a - a) and (a - a).terms == {}
    assert -(-a) == a and a + zero == a and zero + a == a and a - zero == a
    assert a - b == a + (-b) and (a - b) + b == a
    whole = half + half
    assert whole and list(_stored_scalars(whole)) and all(type(v) is int for v in _stored_scalars(whole))
    for name in ("__add__", "__neg__", "__sub__", "__eq__", "__hash__", "__bool__", "is_zero"):
        assert getattr(type(a), name) is getattr(SparseSum, name), name


def test_equal_sums_hash_equal():
    """Equal CPolys and Exprs hash equal whatever their term insertion
    order, integral coefficient type (int or Fraction) and scope; a None
    scope is equal to any, two set scopes that differ are not."""
    _, f = make_symbol("f1", (), (1, 2), (), ANTI_UP)
    keys = [((f,), ()), ((), ((1, 2),)), ((), ())]
    coeffs = [3, Fraction(-1, 2), 2]
    c1 = CPoly._of(dict(zip(keys, coeffs)))
    c2 = CPoly._of(dict(zip(keys[::-1], [Fraction(2), Fraction(-1, 2), Fraction(3)])))
    c3 = CPoly.base(1, 2).scale(Fraction(-1, 2)) + CPoly.scalar(Fraction(4, 2)) + CPoly.symbol(f, 3)
    assert list(c1.terms) != list(c2.terms) and type(c2.terms[((), ())]) is Fraction
    assert c1 == c2 == c3 and hash(c1) == hash(c2) == hash(c3)

    e1 = Expr._of({(B1, C1): c1, (): CPoly.base(2), (B2,): CPoly.scalar(Fraction(1, 3))}, None)
    e2 = Expr._of({(B2,): CPoly.scalar(Fraction(1, 3)), (): CPoly.base(2), (B1, C1): c2}, M)
    e3 = Expr.var(B2).scale(Fraction(1, 3)) + Expr.base(2) + Expr.var(B1) * Expr.var(C1) * Expr({(): c3})
    assert e1 == e2 == e3 and e1.scope != e2.scope
    assert hash(e1) == hash(e2) == hash(e3)
    foreign = Expr._of(e2.terms, "fingerprint")
    assert foreign != e2 and foreign == e1 and hash(foreign) == hash(e2)
    assert len({e1, e2, e3, c1, c2, c3}) == 2


@pytest.mark.parametrize("make", (_cpoly_sums, _expr_sums, _dga_sums), ids=("CPoly", "Expr", "DgaExpr"))
def test_a_sum_is_hashed_once(make, monkeypatch):
    """The hash is that of the frozenset of the terms, equal for a sum built
    in either order, and taken once: a second hash(x) builds no frozenset."""
    a, b, _, _ = make()
    x, y = a + b, b + a
    assert list(x.terms) != list(y.terms)
    assert hash(x) == hash(frozenset(x.terms.items())) == hash(y)
    built = []

    def counting_frozenset(items):
        built.append(1)
        return frozenset(items)

    monkeypatch.setattr(symalg, "frozenset", counting_frozenset, raising=False)
    fresh = a - b
    first = hash(fresh)
    assert built  # the first hash builds it (an Expr's CPoly terms too)
    count = len(built)
    assert hash(fresh) == first and hash(x) == hash(y) and len(built) == count


def test_coeff_symbol_value_semantics():
    sign, sym = make_symbol("f3", (3, 1, 2), (), (2,), (SymGroup(ANTISYM, LOWER, (0, 1, 2)),))
    assert sign == 1 and sym.lower == (1, 2, 3)
    fields = ("f3", (1, 2, 3), (), (2,))  # the symmetry stays on the family
    assert sym._fields == ("name", "lower", "upper", "deriv")
    assert sym == CoeffSymbol(*fields) and hash(sym) == hash(fields)
    assert str(sym) == "d(2)f3[1,2,3;]"
    _, other = make_symbol("f3", (1, 2, 4), (), (), ())
    assert sym < other and sorted([other, sym]) == [sym, other]


# -- report rendering -------------------------------------------------------------
#
# A reference formatter written from the documented report format, with no
# memo: a symbol is name[lower;upper] (indices comma-joined) behind a
# d(j,..) prefix when differentiated, a base power is phi<j>^<k> (^1
# omitted), a term body joins its symbols and then its base powers with '*'
# ('1' when empty), terms are sorted by body, and a coefficient is printed
# alone on '1', dropped when 1, as a bare '-' when -1 and as '<c>*' otherwise;
# after the first term a leading '-' becomes ' - ' and any other term is
# joined with ' + '.  An Expr term is its polynomial times its fiber
# monomial, the polynomial in parentheses when it has several terms.


def ref_symbol(sym):
    text = "%s[%s;%s]" % (sym.name, ",".join(map(str, sym.lower)), ",".join(map(str, sym.upper)))
    return "d(%s)%s" % (",".join(map(str, sym.deriv)), text) if sym.deriv else text


def ref_join(parts):
    out = parts[0]
    for text in parts[1:]:
        out += " - " + text[1:] if text.startswith("-") else " + " + text
    return out


def ref_cpoly(poly):
    if not poly.terms:
        return "0"
    terms = []
    for (syms, base), c in poly.terms.items():
        factors = [ref_symbol(x) for x in syms]
        factors += ["phi%d" % j + ("^%d" % k if k > 1 else "") for j, k in base]
        terms.append(("*".join(factors) or "1", c))
    parts = []
    for body, c in sorted(terms, key=lambda t: t[0]):
        if body == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append("-" + body)
        else:
            parts.append("%s*%s" % (c, body))
    return ref_join(parts)


def ref_expr(expr):
    if not expr.terms:
        return "0"
    parts = []
    for m in sorted(expr.terms):
        c = expr.terms[m]
        cs = ref_cpoly(c)
        if len(c.terms) > 1:
            cs = "(%s)" % cs
        if not m:
            parts.append(cs)
        elif cs in ("1", "-1"):
            parts.append(cs[:-1] + monomial_str(m))
        else:
            parts.append("%s*%s" % (cs, monomial_str(m)))
    return ref_join(parts)


RANK3_BF = ModelSpec(n=3, d=3, bf_blocks=(BfBlock(1, 3),))


@pytest.mark.parametrize("spec", [RANK3_BF, cs_spec(rank=5)], ids=["bf_n3_d3_r3", "cs_d2_r5"])
def test_identity_report_renders_through_one_memo(spec):
    """Every equation of an extraction, rendered with one memo shared by
    the whole report, as the CLI does, at ranks where every symbol family
    is nonzero."""
    equations = [poly for _, poly in extract_identities(PStructure(spec), build_S1_generic(spec)).equations]
    memo = {}
    assert [poly.render(memo) for poly in equations] == [ref_cpoly(poly) for poly in equations]
    symbols = set().union(*(poly.symbols() for poly in equations))
    assert {x.name for x in symbols} == {f.name for f in ansatz_families(spec)}
    assert any(x.deriv for x in symbols)
    assert memo == {x: ref_symbol(x) for x in symbols}
    assert [str(poly) for poly in equations[:20]] == [poly.render(memo) for poly in equations[:20]]


def test_operation_table_renders_through_one_memo():
    spec = RANK3_BF
    rows = operation_table(PStructure(spec), build_S1_generic(spec))
    memo = {}
    assert [expr.render(memo) for *_, expr in rows] == [ref_expr(expr) for *_, expr in rows]
    assert memo and all(memo[x] == ref_symbol(x) for x in memo)


def test_residual_renders_fractions_and_base_powers():
    """A check-master residual: Fraction coefficients, a constant term and
    base powers, in the report and through a memo."""
    spec = ModelSpec(n=2, d=3)
    b = CPoly.base
    data = StructureData(spec)
    data.assign("f1", (), (1, 2), (b(3) * b(3)).scale(Fraction(1, 2)) + b(1) * b(2))
    data.assign("f1", (), (1, 3), (b(2) * b(2)).scale(Fraction(-2, 3)) + b(3))
    data.assign("f1", (), (2, 3), (b(1) * b(1) * b(1)).scale(Fraction(1, 5)) + CPoly.scalar(Fraction(3, 7)))
    p, s1 = PStructure(spec), build_S1_generic(spec)
    residual = expand_master(p, s1).substitute(data)
    report = verify_structure_data(p, s1, data).residual
    assert report == [(monomial_str(m), ref_cpoly(residual.terms[m])) for m in sorted(residual.terms)]
    assert report[0][1] == "6/7 + 6/7*phi1 + 2/5*phi1^3 + 2/5*phi1^4 + 2*phi2*phi3 - 4/3*phi2^3"
    memo = {}
    assert residual.render(memo) == ref_expr(residual) and not memo


def test_render_memo_keeps_symbols_one_field_apart():
    """Symbols that differ in one field only, rendered through one memo in
    either order, each keep their own string."""
    f = CoeffSymbol("f4", (1, 2), (3,))
    variants = [
        f,
        f._replace(deriv=(1,)),
        f._replace(deriv=(1, 1)),
        f._replace(deriv=(2,)),
        f._replace(lower=(1, 3)),
        f._replace(upper=(2,)),
        f._replace(name="f5"),
        CoeffSymbol("f4", (1,), (2, 3)),
    ]
    for order in (variants, variants[::-1]):
        memo = {}
        for x in order:
            assert CPoly.symbol(x).render(memo) == ref_symbol(x)
        total = CPoly.zero()
        for k, x in enumerate(order):
            total = total + CPoly.symbol(x, Fraction(k - 3, 2)) + CPoly.symbol(x) * CPoly.symbol(order[k - 1])
        assert total.render(memo) == ref_cpoly(total)
        assert len(memo) == len(variants)
