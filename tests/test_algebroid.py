import itertools
import random
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

from bvsigma import algebroid, cli
from bvsigma.algebroid import (
    anchor,
    check_courant,
    check_lie_algebroid,
    derived_bracket,
    operation_table,
    section_representatives,
)
from bvsigma.master import expand_master, extract_identities
from bvsigma.modelfile import parse_model
from bvsigma.models import BfBlock, ModelSpec, StructureData, build_S1_generic
from bvsigma.pstructure import Hamiltonian, PStructure
from bvsigma.symalg import CoeffSymbol, CPoly, Expr

from corpus import (
    algebroid_residuals,
    anchored_cs_data,
    bad_bivector_data,
    courant_spec,
    cs_spec,
    e_star_lie_data,
    exact_courant_data,
    n2_spec,
    n3_spec,
    non_jacobi_cs_data,
    perturbed_courant_data,
    quadratic_poisson_data,
    so3_data,
    su2_data,
    sym_expr,
    twisted_courant_data,
    zero_n2_data,
)

EXAMPLES = Path(__file__).resolve().parents[1] / "src" / "bvsigma" / "examples"


# -- symbolic operation tables ------------------------------------------------------


def test_bf_operation_table_matches_published_lines():
    spec = n3_spec()
    p = PStructure(spec)
    s1 = build_S1_generic(spec).expr
    rows = {(op, l, r): e for op, l, r, e in operation_table(p, s1)}
    r_range = (1, 2)

    def A(c):
        return Expr.var(spec.vars_of("A1")[c - 1])

    def B(c):
        return Expr.var(spec.vars_of("B1")[c - 1])

    for a, b in itertools.product(r_range, r_range):
        # A^a o A^b = -f5_c^{ab} A^c - f6^{abc} B_c
        expected = Expr.zero()
        for c in r_range:
            expected = expected + sym_expr(spec, "f5", (c,), (a, b), coeff=-1) * A(c)
            expected = expected + sym_expr(spec, "f6", (), (a, b, c), coeff=-1) * B(c)
        assert rows[("circ", "A1_%d" % a, "A1_%d" % b)] == expected

        # A^a o B_b = -f4_{bc}^a A^c + f5_b^{ac} B_c
        expected = Expr.zero()
        for c in r_range:
            expected = expected + sym_expr(spec, "f4", (b, c), (a,), coeff=-1) * A(c)
            expected = expected + sym_expr(spec, "f5", (b,), (a, c)) * B(c)
        assert rows[("circ", "A1_%d" % a, "B1_%d" % b)] == expected

        # B_a o B_b = -f3_{abc} A^c - f4_{ab}^c B_c
        expected = Expr.zero()
        for c in r_range:
            expected = expected + sym_expr(spec, "f3", (a, b, c), (), coeff=-1) * A(c)
            expected = expected + sym_expr(spec, "f4", (a, b), (c,), coeff=-1) * B(c)
        assert rows[("circ", "B1_%d" % a, "B1_%d" % b)] == expected

        # pairings are the Darboux constants
        assert rows[("pair", "A1_%d" % a, "B1_%d" % b)] == (
            Expr.scalar(1) if a == b else Expr.zero()
        )
        assert rows[("pair", "A1_%d" % a, "A1_%d" % b)].is_zero()
        assert rows[("pair", "B1_%d" % a, "B1_%d" % b)].is_zero()

    for a in r_range:
        for i in (1, 2):
            # rho(A^a) phi^i = -f2^{ia};  rho(B_a) phi^i = -f1_a^i
            assert rows[("anchor", "A1_%d" % a, "phi%d" % i)] == sym_expr(
                spec, "f2", (), (a, i), coeff=-1
            )
            assert rows[("anchor", "B1_%d" % a, "phi%d" % i)] == sym_expr(
                spec, "f1", (a,), (i,), coeff=-1
            )


def test_cs_operation_table_matches_published_lines():
    spec = cs_spec(rank=3)
    k = spec.cs_block.metric
    p = PStructure(spec)
    s1 = build_S1_generic(spec).expr
    rows = {(op, l, r): e for op, l, r, e in operation_table(p, s1)}
    R = (1, 2, 3)

    def A(c):
        return Expr.var(spec.vars_of("A1")[c - 1])

    for a, b in itertools.product(R, R):
        # A^a o A^b = -k^{ac} k^{bd} f2_{cde} A^e
        expected = Expr.zero()
        for c, dd, e in itertools.product(R, R, R):
            coeff = k[a - 1][c - 1] * k[b - 1][dd - 1]
            if coeff:
                expected = expected + sym_expr(
                    spec, "f2", (c, dd, e), (), coeff=-coeff
                ) * A(e)
        assert rows[("circ", "A1_%d" % a, "A1_%d" % b)] == expected
        # <A^a, A^b> = k^{ab}
        assert rows[("pair", "A1_%d" % a, "A1_%d" % b)] == Expr.scalar(k[a - 1][b - 1])

    for a in R:
        for i in (1, 2):
            # rho(A^a) phi^i = -f1_c^i k^{ac}
            expected = Expr.zero()
            for c in R:
                if k[a - 1][c - 1]:
                    expected = expected + sym_expr(
                        spec, "f1", (c,), (i,), coeff=-k[a - 1][c - 1]
                    )
            assert rows[("anchor", "A1_%d" % a, "phi%d" % i)] == expected


def test_n2_noncommutative_coordinates_and_anchor():
    spec = n2_spec()
    p = PStructure(spec)
    s1 = build_S1_generic(spec).expr
    # [phi^i, phi^j] = -f^{ij}
    q = Hamiltonian(s1)
    D = partial(p.bracket, q)
    for i, j in itertools.combinations((1, 2, 3), 2):
        got = derived_bracket(p, D, Expr.base(i), Expr.base(j))
        assert got == sym_expr(spec, "f1", (), (i, j), coeff=-1)
    # rho(phi^i) F = -f^{ij} d_j F on a monomial test function
    F = Expr.base(1) * Expr.base(2)
    got = anchor(p, D, Expr.base(1), F)
    expected = Expr.zero()
    for j in (1, 2, 3):
        expected = expected + sym_expr(spec, "f1", (), (1, j), coeff=-1) * F.partial_base(j)
    assert got == expected


def test_d_op_lands_in_section_space():
    spec = n3_spec()
    p = PStructure(spec)
    s1 = build_S1_generic(spec).expr
    img = p.bracket(Hamiltonian(s1), Expr.base(1))
    assert img.homogeneous_degree() == 1
    blocks = {v.block for mono in img.terms for v in mono}
    assert blocks <= {"A1", "B1"}


def test_anchor_rejects_fiber_arguments():
    spec = n3_spec()
    p = PStructure(spec)
    s1 = build_S1_generic(spec).expr
    q = Hamiltonian(s1)
    with pytest.raises(ValueError):
        anchor(p, partial(p.bracket, q), Expr.var(spec.vars_of("A1")[0]), Expr.var(spec.vars_of("B1")[0]))


# -- axiom checkers against the master equation --------------------------------------

N2_CORPUS = [
    ("so3", so3_data, True),
    ("quadratic", quadratic_poisson_data, True),
    ("zero", zero_n2_data, True),
    ("bad-bivector", bad_bivector_data, False),
]


@pytest.mark.parametrize("name,maker,expect", N2_CORPUS, ids=[c[0] for c in N2_CORPUS])
def test_lie_axioms_iff_master_n2(name, maker, expect):
    spec = n2_spec()
    p = PStructure(spec)
    data = maker()
    S = build_S1_generic(spec).expr.substitute(data)
    master_ok = expand_master(p, S).is_zero()
    axioms = check_lie_algebroid(p, S)
    assert master_ok == expect
    assert (not any(axioms.values())) == expect
    if not expect:
        assert [cli._least_term(law, r) for law, r in axioms.items() if r]


def h_twist(d, family, value):
    """(mkspec, maker) of the exact Courant algebroid TM + T*M over a
    d-dimensional base (rank d) with family[1,2,3] set to value."""
    return partial(courant_spec, d), partial(twisted_courant_data, d, family, value)


COURANT_ROWS = (
    "leibniz-jacobi for o",
    "anchor homomorphism",
    "anchored Leibniz",
    "symmetrized bracket = D<,>",
    "anchor invariance of <,>",
    "<DF,e> = rho(e)F",
)
# Data-row verdicts: both hold, leibniz-jacobi fails, both fail.
OK, JACOBI, BOTH = (True, True), (False, True), (False, False)


def verdicts(residuals):
    """(row, holds) of each {row: residual} of a checker, in report order."""
    return [(law, not r) for law, r in residuals.items()]


def witnesses(residuals):
    """The report's witnesses of {row: residual}: each nonzero row's least
    residual term."""
    return [cli._least_term(law, r) for law, r in residuals.items() if r]


def assert_courant_rows(axioms, data_rows):
    """``data_rows`` are the verdicts of leibniz-jacobi and the anchor
    homomorphism, the two rows that need (S,S) = 0; the derived brackets of
    any S satisfy the other four."""
    assert verdicts(axioms) == list(zip(COURANT_ROWS, data_rows + OK + OK))


# (name, mkspec, maker, data rows)
N3_CORPUS = [
    ("exact-courant", n3_spec, exact_courant_data, OK),
    ("f4-lie", n3_spec, e_star_lie_data, OK),
    ("perturbed", n3_spec, perturbed_courant_data, BOTH),
    # Rank >= 3, where the totally antisymmetric f3 and f6 are nonzero.  A
    # 3-form H in f6 twists the Courant bracket consistently iff dH = 0
    # (Severa-Weinstein): every 3-form is closed at d=3, phi4 dx1dx2dx3 is
    # not closed at d=4, a constant one is.  The same entries in f3 deform
    # the bracket of the B1 sections and fail every way.
    ("H-phi1-d3", *h_twist(3, "f6", CPoly.base(1)), OK),
    ("H-phi4-d4", *h_twist(4, "f6", CPoly.base(4)), JACOBI),
    ("H-const-d4", *h_twist(4, "f6", CPoly.scalar(2)), OK),
    ("f3-phi1-d3", *h_twist(3, "f3", CPoly.base(1)), BOTH),
    ("f3-phi4-d4", *h_twist(4, "f3", CPoly.base(4)), BOTH),
    ("f3-const-d4", *h_twist(4, "f3", CPoly.scalar(2)), BOTH),
]


@pytest.mark.parametrize("name,mkspec,maker,rows", N3_CORPUS, ids=[c[0] for c in N3_CORPUS])
def test_courant_axioms_iff_master_n3(name, mkspec, maker, rows):
    spec = mkspec()
    p = PStructure(spec)
    s1 = build_S1_generic(spec).expr
    data = maker()
    S = s1.substitute(data)
    master_ok = expand_master(p, S).is_zero()
    # verify-data: every extracted identity vanishes under the data.
    identities_ok = all(
        not poly.substitute(data.value_of) for _, poly in extract_identities(p, s1)
    )
    assert master_ok == identities_ok == all(rows)
    assert_courant_rows(check_courant(p, S), rows)


# (name, rank, maker, data rows)
CS_CORPUS = [
    ("su2", 3, su2_data, OK),
    ("non-jacobi", 5, non_jacobi_cs_data, JACOBI),
    ("anchored", 2, anchored_cs_data, BOTH),
]


@pytest.mark.parametrize("name,rank,maker,rows", CS_CORPUS, ids=[c[0] for c in CS_CORPUS])
def test_courant_axioms_iff_master_cs(name, rank, maker, rows):
    spec = cs_spec(rank=rank)
    p = PStructure(spec)
    S = build_S1_generic(spec).expr.substitute(maker(spec))
    assert expand_master(p, S).is_zero() == all(rows)
    assert_courant_rows(check_courant(p, S), rows)


def test_anchored_cs_fails_leibniz_jacobi_on_function_scaled_sections():
    # x = phi1 A1_1, y = A1_1, z = phi1 A1_1.  On basis sections this
    # Jacobiator vanishes unless two slots are scaled by a function.
    spec = cs_spec(rank=2)
    p = PStructure(spec)
    S = build_S1_generic(spec).expr.substitute(anchored_cs_data(spec))
    q = Hamiltonian(S)
    circ = partial(derived_bracket, p, partial(p.bracket, q))
    (_, y), _ = section_representatives(spec)
    x = z = Expr.base(1) * y
    assert circ(x, circ(y, z)) - circ(circ(x, y), z) - circ(y, circ(x, z)) == -y
    assert verdicts(check_courant(p, S))[0] == ("leibniz-jacobi for o", False)


def test_courant_witness_is_the_least_residual_term():
    spec = cs_spec(rank=5)
    p = PStructure(spec)
    rep = check_courant(p, build_S1_generic(spec).expr.substitute(non_jacobi_cs_data(spec)))
    assert witnesses(rep) == [
        "leibniz-jacobi for o: residual term (X[2;]*Y[3;]*Z[4;] - X[2;]*Y[4;]*Z[3;]"
        " - X[3;]*Y[2;]*Z[4;] + X[3;]*Y[4;]*Z[2;] + X[4;]*Y[2;]*Z[3;]"
        " - X[4;]*Y[3;]*Z[2;])*A1_2"
    ]


def test_n2_bracket_antisymmetry_on_basis():
    spec = n2_spec()
    p = PStructure(spec)
    q = Hamiltonian(build_S1_generic(spec).expr.substitute(so3_data()))
    D = partial(p.bracket, q)
    for i, j in itertools.product((1, 2, 3), repeat=2):
        lhs = derived_bracket(p, D, Expr.base(i), Expr.base(j))
        rhs = derived_bracket(p, D, Expr.base(j), Expr.base(i))
        assert (lhs + rhs).is_zero()


# -- witnesses and the component route of the anchor homomorphism ---------------------


def test_bivector_witness_is_the_least_residual_term():
    # The Jacobiator of the bivector is J^{123} = phi1, so the residual is
    # phi1 dF^dG^dH: every term of it is the least one.
    with open(EXAMPLES / "n2_bivector_fail.model", encoding="utf-8") as fh:
        mf = parse_model(fh.read())
    p = PStructure(mf.spec)
    rep = check_lie_algebroid(p, build_S1_generic(mf.spec).expr.substitute(mf.data))
    assert verdicts(rep) == [("bracket antisymmetry", True), ("anchor homomorphism", False)]
    assert witnesses(rep) == [
        "anchor homomorphism: residual term (d(1)F[;]*d(2)G[;]*d(3)H[;]*phi1"
        " - d(1)F[;]*d(3)G[;]*d(2)H[;]*phi1 - d(2)F[;]*d(1)G[;]*d(3)H[;]*phi1"
        " + d(2)F[;]*d(3)G[;]*d(1)H[;]*phi1 + d(3)F[;]*d(1)G[;]*d(2)H[;]*phi1"
        " - d(3)F[;]*d(2)G[;]*d(1)H[;]*phi1)"
    ]


def test_a_symmetric_bracket_term_fails_antisymmetry(monkeypatch):
    # No bivector can fail the row, since f1 is antisymmetric; a derived
    # bracket with a symmetric term e1 e2 added does.
    spec = n2_spec()
    p = PStructure(spec)
    exact = algebroid.derived_bracket
    monkeypatch.setattr(algebroid, "derived_bracket", lambda p, D, e1, e2: exact(p, D, e1, e2) + e1 * e2)
    rep = check_lie_algebroid(p, build_S1_generic(spec).expr.substitute(so3_data()))
    assert verdicts(rep)[0] == ("bracket antisymmetry", False)
    assert witnesses(rep)[0] == "bracket antisymmetry: residual term 2*F[;]*G[;]"


def random_bivector(d, seed):
    """Each pi^{ij}, i < j, a random sum of two linear and two quadratic
    terms in the base coordinates."""
    rng = random.Random(seed)
    data = StructureData(ModelSpec(n=2, d=d))
    for i, j in itertools.combinations(range(1, d + 1), 2):
        pi = CPoly.zero()
        for _ in range(2):
            k, l = rng.randint(1, d), rng.randint(1, d)
            pi = pi + CPoly.base(k).scale(rng.randint(-2, 2))
            pi = pi + (CPoly.base(k) * CPoly.base(l)).scale(rng.randint(-2, 2))
        data.assign("f1", (), (i, j), pi)
    return data


@pytest.mark.parametrize("d,seed", [(3, 0), (3, 1), (4, 0), (4, 1), (5, 0), (5, 1)])
def test_only_the_anchor_homomorphism_depends_on_the_bivector(d, seed):
    # At n=2, f1 is antisymmetric, so the derived bracket is: antisymmetry
    # holds for every bivector.  Only the anchor homomorphism is the Jacobi
    # identity, so a bivector that is not Poisson fails exactly that row.
    spec = ModelSpec(n=2, d=d)
    p = PStructure(spec)
    S = build_S1_generic(spec).expr.substitute(random_bivector(d, seed))
    assert expand_master(p, S)
    axioms = check_lie_algebroid(p, S)
    assert any(axioms.values())
    assert verdicts(axioms) == [("bracket antisymmetry", True), ("anchor homomorphism", False)]


# -- the checkers on the generic S1 ------------------------------------------------
# The checkers take any action S, so they run on the unsubstituted S1 too: a
# row that vanishes there holds for all structure data.


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_lie_rows_on_the_generic_action(d):
    # f1 is antisymmetric, so antisymmetry holds for every bivector; the
    # Jacobiator of a generic one does not vanish.
    spec = ModelSpec(n=2, d=d)
    residuals = check_lie_algebroid(PStructure(spec), build_S1_generic(spec).expr)
    assert verdicts(residuals) == [("bracket antisymmetry", True), ("anchor homomorphism", False)]


@pytest.mark.parametrize("spec", [
    ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 3),)),
    cs_spec(rank=3),
], ids=["bf-p1r3", "cs-rank3"])
def test_courant_rows_on_the_generic_action(spec):
    # Rank 3 fills every antisymmetric slot group (f3, f6), so every symbol
    # family is nonzero.  Only the Jacobi-type rows depend on the data.
    residuals = check_courant(PStructure(spec), build_S1_generic(spec).expr)
    assert verdicts(residuals) == [
        ("leibniz-jacobi for o", False),
        ("anchor homomorphism", False),
        ("anchored Leibniz", True),
        ("symmetrized bracket = D<,>", True),
        ("anchor invariance of <,>", True),
        ("<DF,e> = rho(e)F", True),
    ]


def component_anchor_homomorphism(p, S):
    """The anchor homomorphism of the action S compared on vector-field components.

    With rho(x)^i = rho(x) phi^i, checks [rho(x1), rho(x2)]^i =
    sum_j rho(x1)^j d_j rho(x2)^i - rho(x2)^j d_j rho(x1)^i against
    rho(x1 o x2)^i for every basis pair, and for n=3 also with x1 scaled by
    a generic function F.
    """
    D = partial(p.bracket, Hamiltonian(S))
    base = range(1, p.spec.d + 1)
    if p.n == 2:
        rho = partial(derived_bracket, p, D)
        scalings = (Expr.scalar(1),)
    else:
        rho = partial(anchor, p, D)
        scalings = (Expr.scalar(1), Expr.symbol(CoeffSymbol("F")))
    reps = [e for _, e in section_representatives(p.spec)]
    for e1, e2, s in itertools.product(reps, reps, scalings):
        x1 = s * e1
        v1 = [rho(x1, Expr.base(i)) for i in base]
        v2 = [rho(e2, Expr.base(i)) for i in base]
        x12 = derived_bracket(p, D, x1, e2)
        for i_pos, i in enumerate(base):
            comm = Expr.zero()
            for j_pos, j in enumerate(base):
                comm = comm + v1[j_pos] * v2[i_pos].partial_base(j)
                comm = comm - v2[j_pos] * v1[i_pos].partial_base(j)
            if comm != rho(x12, Expr.base(i)):
                return False
    return True


def corpus_models():
    """(name, spec, data) of every N2, N3 and CS corpus entry."""
    out = [(name, n2_spec(), maker()) for name, maker, _ in N2_CORPUS]
    out += [(name, mkspec(), maker()) for name, mkspec, maker, _ in N3_CORPUS]
    for name, rank, maker, _ in CS_CORPUS:
        spec = cs_spec(rank=rank)
        out.append((name, spec, maker(spec)))
    return out


CORPUS_MODELS = corpus_models()


@pytest.mark.parametrize("name,spec,data", CORPUS_MODELS, ids=[c[0] for c in CORPUS_MODELS])
def test_anchor_homomorphism_matches_component_route(name, spec, data):
    p = PStructure(spec)
    S = build_S1_generic(spec).expr.substitute(data)
    verdict = not algebroid_residuals(p, S)["anchor homomorphism"]
    assert verdict == component_anchor_homomorphism(p, S)


# -- per-check operation tables -------------------------------------------------------


def count_operation_calls(monkeypatch, p):
    """Wrap derived_bracket and anchor in the algebroid module, and
    ``p.bracket``; the returned dict lists the operand tuple (p and D left
    out) of each call.  A bracket with S, a Hamiltonian, first is a call of
    D; any other bracket made outside derived_bracket and anchor is a
    pairing."""
    calls = {name: [] for name in ALL_OPERATIONS}
    inside = []
    for name in ("derived_bracket", "anchor"):
        fn = getattr(algebroid, name)

        def counted(p, D, *operands, fn=fn, seen=calls[name]):
            seen.append(operands)
            inside.append(fn)
            try:
                return fn(p, D, *operands)
            finally:
                inside.pop()

        monkeypatch.setattr(algebroid, name, counted)
    bracket = p.bracket

    def counted_bracket(f, g):
        if isinstance(f, Hamiltonian):
            calls["D"].append((g,))
        elif not inside:
            calls["pairing"].append((f, g))
        return bracket(f, g)

    monkeypatch.setattr(p, "bracket", counted_bracket)
    return calls


ALL_OPERATIONS = ("derived_bracket", "anchor", "D", "pairing")


@pytest.mark.parametrize("mkspec,run,ops", [
    (n3_spec, lambda p, s1: not any(check_courant(p, s1.substitute(exact_courant_data())).values()), ALL_OPERATIONS),
    (n2_spec, lambda p, s1: not any(check_lie_algebroid(p, s1.substitute(so3_data())).values()), ("derived_bracket", "D")),
    (n3_spec, operation_table, ALL_OPERATIONS),
], ids=["exact-courant", "so3", "operation-table"])
def test_each_operation_is_computed_once_per_check(monkeypatch, mkspec, run, ops):
    spec = mkspec()
    p = PStructure(spec)
    s1 = build_S1_generic(spec).expr
    calls = count_operation_calls(monkeypatch, p)
    assert run(p, s1)
    for name, seen in calls.items():
        assert bool(seen) == (name in ops), name
        # Compared by value, pairwise, so the check does not lean on the hash.
        assert all(a != b for a, b in itertools.combinations(seen, 2)), name
    if run is operation_table:
        # One derived bracket per basis pair; (S,x) once per representative
        # and once per base coordinate the anchor acts on.
        n_reps = len(section_representatives(spec))
        assert len(calls["derived_bracket"]) == n_reps ** 2
        assert len(calls["D"]) == n_reps + spec.d


@pytest.mark.parametrize("name,spec,data", CORPUS_MODELS, ids=[c[0] for c in CORPUS_MODELS])
def test_operation_tables_match_uncached_checks(monkeypatch, name, spec, data):
    p = PStructure(spec)
    S = build_S1_generic(spec).expr.substitute(data)
    cached = algebroid_residuals(p, S)
    monkeypatch.setattr(algebroid, "functools", SimpleNamespace(cache=lambda fn: fn))
    plain = algebroid_residuals(p, S)
    assert list(cached.items()) == list(plain.items())
