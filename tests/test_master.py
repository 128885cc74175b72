import itertools
import random
from fractions import Fraction

import pytest

from bvsigma.master import (
    A_IN_B,
    B_IN_A,
    EQUAL,
    INCOMPARABLE,
    N2_JACOBI,
    N3_BF,
    N3_CS,
    IdentitySet,
    compare_identity_spans,
    expand_master,
    SpanComparison,
    _rows_of,
    extract_identities,
    transcribe_paper_identities,
    verify_structure_data,
)
from bvsigma.models import (
    Action,
    BfBlock,
    CsBlock,
    CS_BF,
    ModelError,
    ModelSpec,
    StructureData,
    ansatz_families,
    build_S1_generic,
)
from bvsigma.pstructure import PStructure
from bvsigma.rowreduce import Directions, RowSpan, _direction, span_includes
from bvsigma.symalg import CPoly, Expr, _perm_sign, make_symbol

import oracle

K2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def random_assignment(polys, d, rng):
    """Random rational point for every symbol and base variable present."""
    sym_values = {}
    for poly in polys:
        for sym in poly.symbols():
            if sym not in sym_values:
                sym_values[sym] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    base_values = {j: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for j in range(1, d + 1)}
    return sym_values, base_values


def n2_spec():
    return ModelSpec(n=2, d=3)


def n3_spec():
    return ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),))


def cs_spec(rank=2):
    k = tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(rank))
        for i in range(rank)
    )
    return ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(rank, k))


def so3_data(spec):
    data = StructureData(spec)
    data.assign("f1", (), (1, 2), CPoly.base(3))
    data.assign("f1", (), (1, 3), CPoly.base(2).scale(-1))
    data.assign("f1", (), (2, 3), CPoly.base(1))
    return data


def bad_bivector_data(spec):
    data = StructureData(spec)
    data.assign("f1", (), (1, 2), CPoly.base(1))
    data.assign("f1", (), (1, 3), CPoly.zero())
    data.assign("f1", (), (2, 3), CPoly.base(2))
    return data


def test_expand_master_of_zero():
    spec = n2_spec()
    p = PStructure(spec)
    empty = Action(Expr.zero(), 2)
    assert expand_master(p, empty).is_zero()


def test_expand_master_degree_is_n_plus_1():
    for spec in (n2_spec(), n3_spec(), cs_spec()):
        p = PStructure(spec)
        s1 = build_S1_generic(spec)
        expanded = expand_master(p, s1)
        assert expanded.homogeneous_degree() == spec.n + 1


def test_n2_single_identity_class_is_the_jacobiator():
    spec = n2_spec()
    p = PStructure(spec)
    idents = extract_identities(p, build_S1_generic(spec))
    assert len(idents.equations) == 1
    assert idents.equations[0][0] == "B1_1*B1_2*B1_3"
    transcribed = transcribe_paper_identities(N2_JACOBI, spec)
    assert compare_identity_spans(idents, transcribed).relation == EQUAL


@pytest.mark.parametrize(
    "spec,family",
    [
        (n2_spec(), N2_JACOBI),
        (n3_spec(), N3_BF),
        (cs_spec(), N3_CS),
    ],
    ids=["n2", "n3_bf", "n3_cs"],
)
def test_extracted_equals_transcribed_span(spec, family):
    p = PStructure(spec)
    extracted = extract_identities(p, build_S1_generic(spec))
    transcribed = transcribe_paper_identities(family, spec)
    assert compare_identity_spans(extracted, transcribed).relation == EQUAL


def test_span_comparison_basics():
    spec = n2_spec()
    p = PStructure(spec)
    a = extract_identities(p, build_S1_generic(spec))
    same = IdentitySet(list(a.equations))
    assert compare_identity_spans(a, same).relation == EQUAL
    scaled = IdentitySet([(t, poly.scale(2)) for t, poly in a.equations])
    assert compare_identity_spans(a, scaled).relation == EQUAL
    empty, other = IdentitySet(), IdentitySet()
    assert empty.equations == [] and empty.equations is not other.equations
    cmp = compare_identity_spans(a, empty)
    assert cmp.relation == "B<A"
    assert cmp.witness is not None  # the Jacobiator itself


def test_alphabet_mismatch_rejected():
    a = extract_identities(PStructure(n2_spec()), build_S1_generic(n2_spec()))
    spec = cs_spec()
    b = extract_identities(PStructure(spec), build_S1_generic(spec))
    with pytest.raises(ValueError):
        compare_identity_spans(a, b)


def test_alphabet_rejects_inconsistent_shapes():
    _, two_upper = make_symbol("f1", (), (1, 2))
    _, mixed = make_symbol("f1", (1,), (2,))
    idents = IdentitySet([("x", CPoly.symbol(two_upper)), ("y", CPoly.symbol(mixed))])
    one = IdentitySet(idents.equations[:1])
    for a, b in ((idents, one), (IdentitySet(), idents), (one, idents), (one, IdentitySet(idents.equations[::-1]))):
        with pytest.raises(ValueError, match=r"^symbol f1 used with inconsistent index shapes$"):
            compare_identity_spans(a, b)
    assert _rows_of(one, {}) == ([{0: 1}], {"f1": (0, 2)})
    with pytest.raises(ModelError, match=r"^alphabet mismatch: f1 has 0 lower/2 upper indices in one set "
                       r"and 1/1 in the other$"):
        compare_identity_spans(one, IdentitySet(idents.equations[1:]))


def _compare_every_row(a, b):
    """The comparison with every row eliminated, duplicates included."""
    index = {}
    (rows_a, _), (rows_b, _) = _rows_of(a, index), _rows_of(b, index)
    missing_b, missing_a = span_includes(rows_a, rows_b), span_includes(rows_b, rows_a)
    if missing_a is None and missing_b is None:
        return SpanComparison(EQUAL)
    if missing_a is None:
        return SpanComparison(A_IN_B, witness="B: %s = 0" % b.equations[missing_b][1])
    if missing_b is None:
        return SpanComparison(B_IN_A, witness="A: %s = 0" % a.equations[missing_a][1])
    return SpanComparison(INCOMPARABLE, witness="A: %s = 0" % a.equations[missing_a][1])


def test_direction_dedup_merges_scaled_repeats(monkeypatch):
    rows = [
        {0: 1, 2: -2}, {0: -1, 2: 2}, {1: Fraction(1, 2)}, {2: -2, 0: 1},
        {0: Fraction(2, 3), 2: Fraction(-4, 3)}, {2: 3, 0: -1},
    ]
    dirs = [_direction(r) for r in rows]
    line, half, other = ((0, 2), (1, -2)), ((1,), (1,)), ((0, 2), (1, -3))
    assert dirs == [line, line, half, line, line, other]
    assert all(type(v) is int for _, vals in dirs for v in vals)
    assert Directions(rows + [{}]).values == dirs + [None]
    assert list(Directions(rows + [{}]).distinct) == [line, half, other]  # in the order first met
    added = []
    add = RowSpan.add
    monkeypatch.setattr(RowSpan, "add", lambda self, row: added.append(row) or add(self, row))
    assert span_includes(rows + [{}], rows[::-1] + [{}]) is None
    assert added == []  # every candidate matched: no span is built
    assert span_includes(rows, [{0: 1}, {0: 1, 1: 1, 2: -5}, {3: 1}]) == 2
    assert added == [{0: 1, 2: -2}, {1: 1}, {0: 1, 2: -3}]  # one row per direction


def test_duplicate_rows_keep_relation_and_witness():
    spec = ModelSpec(n=2, d=4)
    eqs = [poly for _, poly in extract_identities(PStructure(spec), build_S1_generic(spec)).equations]
    rng = random.Random(12)
    relations = set()

    def pick():
        """1 to 3 distinct equations, then 1 to 4 repeats of them, +- each."""
        rows = rng.sample(eqs, rng.randint(1, 3))
        rows += [rng.choice(rows).scale(rng.choice((1, -1))) for _ in range(rng.randint(1, 4))]
        rng.shuffle(rows)
        return IdentitySet([("e%d" % i, r) for i, r in enumerate(rows)])

    for _ in range(40):
        a, b = pick(), pick()
        relations.add(compare_identity_spans(a, b).relation)
        assert compare_identity_spans(a, b) == _compare_every_row(a, b)
    assert relations == {EQUAL, A_IN_B, B_IN_A, INCOMPARABLE}


def test_span_strict_inclusion_has_witness():
    spec = n2_spec()
    p = PStructure(spec)
    a = extract_identities(p, build_S1_generic(spec))
    # a plus a second, independent equation
    bigger = IdentitySet(list(a.equations))
    extra = a.equations[0][1] * CPoly.base(1) + CPoly.symbol(
        next(iter(a.equations[0][1].symbols()))
    )
    bigger.equations.append(("extra", extra))
    cmp = compare_identity_spans(a, bigger)
    assert cmp.relation == "A<B"
    assert cmp.witness is not None


def test_so3_data_passes_and_matches_oracle():
    spec = n2_spec()
    p = PStructure(spec)
    s1 = build_S1_generic(spec)
    rep = verify_structure_data(p, s1, so3_data(spec))
    assert rep.passed
    # independent oracle on the same data
    f = {
        (0, 1): {(0, 0, 1): Fraction(1)},
        (0, 2): {(0, 1, 0): Fraction(-1)},
        (1, 2): {(1, 0, 0): Fraction(1)},
    }
    assert oracle.poisson_sigma_bracket_expansion(3, f) == {}
    jac = oracle.jacobiator(3, f)
    assert all(not poly for poly in jac.values())


def test_failing_bivector_residual_matches_oracle():
    spec = n2_spec()
    p = PStructure(spec)
    s1 = build_S1_generic(spec)
    rep = verify_structure_data(p, s1, bad_bivector_data(spec))
    assert not rep.passed
    assert rep.residual == [("B1_1*B1_2*B1_3", "-2*phi1")]
    # oracle route: same expansion built independently
    f = {
        (0, 1): {(1, 0, 0): Fraction(1)},
        (0, 2): {},
        (1, 2): {(0, 1, 0): Fraction(1)},
    }
    expansion = oracle.poisson_sigma_bracket_expansion(3, f)
    assert expansion == {((1, 0, 0), (0, 1, 2)): Fraction(-2)}
    # and the hand-checkable Jacobiator value J^{123} = phi1
    jac = oracle.jacobiator(3, f)
    assert jac[(0, 1, 2)] == {(1, 0, 0): Fraction(1)}


def test_zero_data_passes():
    spec = n3_spec()
    p = PStructure(spec)
    s1 = build_S1_generic(spec)
    data = StructureData(spec)
    for a in (1, 2):
        for i in (1, 2):
            data.assign("f1", (a,), (i,), CPoly.zero())
            data.assign("f2", (), (a, i), CPoly.zero())
        data.assign("f4", (1, 2), (a,), CPoly.zero())
        data.assign("f5", (a,), (1, 2), CPoly.zero())
    assert verify_structure_data(p, s1, data).passed


def test_verify_equivalent_to_identitywise_evaluation():
    # verify_structure_data passes iff every extracted equation vanishes
    # under the data; exercised on passing and failing random data.
    spec = n2_spec()
    p = PStructure(spec)
    s1 = build_S1_generic(spec)
    idents = extract_identities(p, s1)
    rng = random.Random(5)
    for trial in range(12):
        data = StructureData(spec)
        if trial % 3 == 0:
            polys = {
                (1, 2): CPoly.base(3),
                (1, 3): CPoly.base(2).scale(-1),
                (2, 3): CPoly.base(1),
            }
        else:
            polys = {}
            for pair in ((1, 2), (1, 3), (2, 3)):
                poly = CPoly.scalar(rng.randint(-2, 2))
                if rng.random() < 0.7:
                    poly = poly + CPoly.base(rng.randint(1, 3)).scale(rng.randint(-2, 2))
                polys[pair] = poly
        for (i, j), poly in polys.items():
            data.assign("f1", (), (i, j), poly)
        verdict = verify_structure_data(p, s1, data).passed
        identitywise = all(
            not poly.substitute(data.value_of) for _, poly in idents.equations
        )
        assert verdict == identitywise


def test_transcribed_first_identity_content():
    # The first two-block identity at i=j=1 is the single symmetric
    # equation 2 sum_e f1_e^1 f2^{1e}.
    spec = n3_spec()
    transcribed = transcribe_paper_identities(N3_BF, spec)
    eqs = dict(transcribed.equations)
    from bvsigma.models import ansatz_families
    from bvsigma.symalg import make_symbol

    fams = {f.name: f for f in ansatz_families(spec)}
    expected = CPoly.zero()
    for e in (1, 2):
        _, f1 = make_symbol("f1", (e,), (1,), (), fams["f1"].groups)
        _, f2 = make_symbol("f2", (), (e, 1), (), fams["f2"].groups)
        expected = expected + CPoly.symbol(f1) * CPoly.symbol(f2) * CPoly.scalar(2)
    assert eqs["bf1[1,1]"] == expected


def test_so3_satisfies_the_transcribed_identities():
    # substituting the so(3) data into the transcribed coordinate identity
    # gives zero, independently of the extraction route
    spec = n2_spec()
    transcribed = transcribe_paper_identities(N2_JACOBI, spec)
    data = so3_data(spec)
    for _, poly in transcribed.equations:
        assert not poly.substitute(data.value_of)


def _evaluate(poly, sym_values, base_values):
    """Exact value of a CPoly at a rational point (KeyError for an unknown symbol)."""
    total = Fraction(0)
    for (syms, base), v in poly.terms.items():
        for sym in syms:
            v *= sym_values[sym]
        for j, power in base:
            v *= base_values[j] ** power
        total += v
    return total


def test_randomized_soundness_of_span_encoding():
    # evaluating an equation agrees with its sparse-vector representation
    spec = n3_spec()
    p = PStructure(spec)
    idents = extract_identities(p, build_S1_generic(spec))
    rng = random.Random(11)
    polys = [poly for _, poly in idents.equations]
    index = {}
    rows = []
    for poly in polys:
        row = {}
        for key, val in poly.terms.items():
            col = index.setdefault(key, len(index))
            row[col] = val
        rows.append(row)
    basis = list(index)
    for _ in range(100):
        sym_values, base_values = random_assignment(polys, spec.d, rng)
        basis_values = {}
        for col, key in enumerate(basis):
            basis_values[col] = _evaluate(CPoly({key: Fraction(1)}), sym_values, base_values)
        for poly, row in zip(polys, rows):
            direct = _evaluate(poly, sym_values, base_values)
            via_vector = sum(v * basis_values[c] for c, v in row.items())
            assert direct == via_vector


# -- the transcriptions as nested loops, the reference for the table ---------------


def _symbols(spec):
    """sym(name, lower, upper, deriv) -> the CPoly of that normalized symbol
    (zero if it vanishes), each built once per transcription."""
    fams = {f.name: f for f in ansatz_families(spec)}
    table = {}

    def sym(name, lower=(), upper=(), deriv=()):
        key = (name, lower, upper, deriv)
        poly = table.get(key)
        if poly is None:
            sign, symbol = make_symbol(name, lower, upper, deriv, fams[name].groups)
            poly = table[key] = CPoly.zero() if symbol is None else CPoly.symbol(symbol, sign)
        return poly

    return sym


def _perms_signed(indices):
    """Every permutation of ``indices`` with its sign."""
    base = list(indices)
    for perm in itertools.permutations(range(len(base))):
        yield _perm_sign(perm), [base[k] for k in perm]


def _unshuffles(indices, *sizes):
    """The signed permutations of ``indices`` that keep the order inside
    each consecutive block of ``sizes``: a symmetrizer summed once per
    distinct term when each block fills slots a factor is antisymmetric in."""
    cuts = list(itertools.accumulate(sizes))
    for sign, perm in _perms_signed(range(len(indices))):
        if all(perm[a:b] == sorted(perm[a:b]) for a, b in zip([0] + cuts, cuts)):
            yield sign, [indices[k] for k in perm]


def _transcribe_n2(spec):
    """f^{kl} d_l f^{ij} + f^{il} d_l f^{jk} + f^{jl} d_l f^{ki} = 0."""
    sym = _symbols(spec)
    d = spec.d

    def f(i, j, deriv=()):
        return sym("f1", upper=(i, j), deriv=deriv)

    eqs = []
    for i, j, k in itertools.product(range(1, d + 1), repeat=3):
        poly = CPoly.zero()
        for l in range(1, d + 1):
            poly = poly + f(k, l) * f(i, j, deriv=(l,))
            poly = poly + f(i, l) * f(j, k, deriv=(l,))
            poly = poly + f(j, l) * f(k, i, deriv=(l,))
        eqs.append(("jacobi[%d,%d,%d]" % (i, j, k), poly))
    return eqs


def _transcribe_n3_bf(spec):
    """The nine published identities of the n=3 two-block model.

    The ansatz stores the mixed family f2 with upper slots ordered
    (E*-index, M-index); the published form writes f2^{i b} with the M-index
    first, so the slot order is swapped in the helper below.  A symmetrized
    term is an unshuffle sum: each distinct product once, not once per
    reordering of the letters a factor is antisymmetric in.
    """
    sym = _symbols(spec)
    d = spec.d
    r = spec.bf_blocks[0].rank
    M = range(1, d + 1)
    R = range(1, r + 1)

    def f1(a, i, deriv=()):
        return sym("f1", lower=(a,), upper=(i,), deriv=deriv)

    def f2(i, b, deriv=()):
        return sym("f2", upper=(b, i), deriv=deriv)

    def f3(a, b, c, deriv=()):
        return sym("f3", lower=(a, b, c), deriv=deriv)

    def f4(a, b, c, deriv=()):
        return sym("f4", lower=(a, b), upper=(c,), deriv=deriv)

    def f5(a, b, c, deriv=()):
        return sym("f5", lower=(a,), upper=(b, c), deriv=deriv)

    def f6(a, b, c, deriv=()):
        return sym("f6", upper=(a, b, c), deriv=deriv)

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
        for sign, (x, y, z) in _unshuffles((a, b, c), 1, 2):
            for j in M:
                poly = poly - f1(x, j).scale(sign) * f4(y, z, dd, deriv=(j,))
            for e in R:
                poly = poly + (f4(e, x, dd) * f4(y, z, e)).scale(sign)
        for sign, (x, y, z) in _unshuffles((a, b, c), 2, 1):
            for e in R:
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
        for sign, (x, y, z) in _unshuffles((b, c, dd), 1, 2):
            for j in M:
                poly = poly + f2(j, x).scale(sign) * f5(a, y, z, deriv=(j,))
            for e in R:
                poly = poly + (f4(e, a, x) * f6(y, z, e)).scale(sign)
        for sign, (x, y, z) in _unshuffles((b, c, dd), 2, 1):
            for e in R:
                poly = poly + (f5(e, x, y) * f5(a, z, e)).scale(sign)
        eqs.append(("bf7[%d;%d,%d,%d]" % (a, b, c, dd), poly))

    for a, b, c, dd in itertools.product(R, R, R, R):
        poly = CPoly.zero()
        for sign, (w, x, y, z) in _unshuffles((a, b, c, dd), 1, 3):
            for j in M:
                poly = poly - f2(j, w).scale(sign) * f6(x, y, z, deriv=(j,))
        for sign, (w, x, y, z) in _unshuffles((a, b, c, dd), 2, 2):
            for e in R:
                poly = poly + (f6(e, w, x) * f5(e, y, z)).scale(sign)
        eqs.append(("bf8[%d,%d,%d,%d]" % (a, b, c, dd), poly))

    for a, b, c, dd in itertools.product(R, R, R, R):
        poly = CPoly.zero()
        for sign, (w, x, y, z) in _unshuffles((a, b, c, dd), 1, 3):
            for j in M:
                poly = poly - f1(w, j).scale(sign) * f3(x, y, z, deriv=(j,))
        for sign, (w, x, y, z) in _unshuffles((a, b, c, dd), 2, 2):
            for e in R:
                poly = poly + (f4(w, x, e) * f3(y, z, e)).scale(sign)
        eqs.append(("bf9[%d,%d,%d,%d]" % (a, b, c, dd), poly))

    return eqs


def _transcribe_n3_cs(spec):
    """The three published identities of the n=3 self-paired model."""
    sym = _symbols(spec)
    d = spec.d
    r = spec.cs_block.rank
    k = spec.cs_block.metric
    M = range(1, d + 1)
    R = range(1, r + 1)

    def f1(a, i, deriv=()):
        return sym("f1", lower=(a,), upper=(i,), deriv=deriv)

    def f2(a, b, c, deriv=()):
        return sym("f2", lower=(a, b, c), deriv=deriv)

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


def _reference_transcription(which, spec):
    """Nonzero equations of the loops, each polynomial once, first tag kept."""
    loops = {N2_JACOBI: _transcribe_n2, N3_BF: _transcribe_n3_bf, N3_CS: _transcribe_n3_cs}
    out, seen = [], set()
    for tag, poly in loops[which](spec):
        if poly and poly not in seen:
            seen.add(poly)
            out.append((tag, poly))
    return out


def _bf_spec(d, r):
    return ModelSpec(n=3, d=d, bf_blocks=(BfBlock(1, r),))


def _cs_spec(d, rank, metric=None):
    if metric is None:
        metric = tuple(tuple(Fraction(int(a == b)) for b in range(rank)) for a in range(rank))
    return ModelSpec(n=3, d=d, flavor=CS_BF, cs_block=CsBlock(rank, metric))


_H, _T = Fraction(1, 2), Fraction(-2, 3)
TABLE_GRID = (
    [(N2_JACOBI, ModelSpec(n=2, d=d)) for d in (1, 2, 3, 6)]
    + [(N3_BF, _bf_spec(d, r)) for d in (1, 2, 3) for r in (1, 2, 3, 4)]
    + [(N3_CS, _cs_spec(d, r)) for d in (1, 2, 3) for r in (1, 2, 3, 5)]
    + [(N3_CS, _cs_spec(2, 3, ((1, _H, 0), (_H, _T, 3), (0, 3, _H))))]
)


@pytest.mark.parametrize(
    "which,spec", TABLE_GRID, ids=["%s-%s" % (w, s.fingerprint()) for w, s in TABLE_GRID]
)
def test_table_matches_the_transcription_loops(which, spec):
    # same tags, same order, same polynomials as the nested loops
    table = transcribe_paper_identities(which, spec).equations
    reference = _reference_transcription(which, spec)
    assert [tag for tag, _ in table] == [tag for tag, _ in reference]
    assert table == reference
    # scalars are stored canonically: an int whenever integral
    assert all(
        type(v) is int or v.denominator != 1 for _, poly in table for v in poly.terms.values()
    )


def test_unknown_identity_family_is_refused():
    with pytest.raises(ValueError, match="unknown identity family"):
        transcribe_paper_identities("n4_bf", n2_spec())


@pytest.mark.parametrize("d,r", [(1, 3), (3, 3), (2, 4)])
def test_n3_bf_paper_span_at_rank_three_and_up(d, r):
    spec = _bf_spec(d, r)
    extracted = extract_identities(PStructure(spec), build_S1_generic(spec))
    transcribed = transcribe_paper_identities(N3_BF, spec)
    assert compare_identity_spans(extracted, transcribed).relation == EQUAL
