import itertools

import pytest

from bvsigma.algebroid import (
    SectionBasis,
    anchor,
    check_courant,
    check_lie_algebroid,
    d_op,
    derived_bracket,
    operation_table,
    pairing,
)
from bvsigma.grading import GradedVar
from bvsigma.master import verify_structure_data
from bvsigma.models import build_S1_generic
from bvsigma.pstructure import PStructure
from bvsigma.symalg import Expr

from corpus import (
    anchored_cs_data,
    bad_bivector_data,
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
    zero_n2_data,
)


# -- symbolic operation tables ------------------------------------------------------


def test_bf_operation_table_matches_published_lines():
    spec = n3_spec()
    p = PStructure.from_model(spec)
    s1 = build_S1_generic(spec)
    basis = SectionBasis.for_model(spec)
    rows = {(op, l, r): e for op, l, r, e in operation_table(p, s1, basis)}
    r_range = (1, 2)

    def A(c):
        return Expr.var(GradedVar("A1", 1, c))

    def B(c):
        return Expr.var(GradedVar("B1", 1, c))

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
    p = PStructure.from_model(spec)
    s1 = build_S1_generic(spec)
    basis = SectionBasis.for_model(spec)
    rows = {(op, l, r): e for op, l, r, e in operation_table(p, s1, basis)}
    R = (1, 2, 3)

    def A(c):
        return Expr.var(GradedVar("A1", 1, c))

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
    p = PStructure.from_model(spec)
    s1 = build_S1_generic(spec)
    # [phi^i, phi^j] = -f^{ij}
    for i, j in itertools.combinations((1, 2, 3), 2):
        got = derived_bracket(p, p.hamiltonian(s1.expr), Expr.base(i), Expr.base(j))
        assert got == sym_expr(spec, "f1", (), (i, j), coeff=-1)
    # rho(phi^i) F = -f^{ij} d_j F on a monomial test function
    F = Expr.base(1) * Expr.base(2)
    got = anchor(p, p.hamiltonian(s1.expr), Expr.base(1), F)
    expected = Expr.zero()
    for j in (1, 2, 3):
        expected = expected + sym_expr(spec, "f1", (), (1, j), coeff=-1) * F.partial_base(j)
    assert got == expected


def test_d_op_lands_in_section_space():
    spec = n3_spec()
    p = PStructure.from_model(spec)
    s1 = build_S1_generic(spec)
    img = d_op(p, p.hamiltonian(s1.expr), Expr.base(1))
    assert img.homogeneous_degree() == 1
    blocks = {v.block for mono in img.terms for v in mono}
    assert blocks <= {"A1", "B1"}


def test_anchor_rejects_fiber_arguments():
    spec = n3_spec()
    p = PStructure.from_model(spec)
    s1 = build_S1_generic(spec)
    with pytest.raises(ValueError):
        anchor(p, p.hamiltonian(s1.expr), Expr.var(GradedVar("A1", 1, 1)), Expr.var(GradedVar("B1", 1, 1)))


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
    p = PStructure.from_model(spec)
    s1 = build_S1_generic(spec)
    data = maker()
    basis = SectionBasis.for_model(spec)
    master_ok = verify_structure_data(p, s1, data).passed
    axioms = check_lie_algebroid(p, s1, data, basis, seed=3, samples=8)
    assert master_ok == expect
    assert axioms.passed == expect
    if not expect:
        assert axioms.witnesses


N3_CORPUS = [
    ("exact-courant", n3_spec, exact_courant_data, True),
    ("f4-lie", n3_spec, e_star_lie_data, True),
    ("perturbed", n3_spec, perturbed_courant_data, False),
]


@pytest.mark.parametrize("name,mkspec,maker,expect", N3_CORPUS, ids=[c[0] for c in N3_CORPUS])
def test_courant_axioms_iff_master_n3(name, mkspec, maker, expect):
    spec = mkspec()
    p = PStructure.from_model(spec)
    s1 = build_S1_generic(spec)
    data = maker()
    basis = SectionBasis.for_model(spec)
    master_ok = verify_structure_data(p, s1, data).passed
    axioms = check_courant(p, s1, data, basis, seed=3, samples=8)
    assert master_ok == expect
    assert axioms.passed == expect


CS_CORPUS = [
    ("su2", 3, su2_data, True),
    ("non-jacobi", 5, non_jacobi_cs_data, False),
    ("anchored", 2, anchored_cs_data, False),
]


@pytest.mark.parametrize("name,rank,maker,expect", CS_CORPUS, ids=[c[0] for c in CS_CORPUS])
def test_courant_axioms_iff_master_cs(name, rank, maker, expect):
    spec = cs_spec(rank=rank)
    p = PStructure.from_model(spec)
    s1 = build_S1_generic(spec)
    data = maker(spec)
    basis = SectionBasis.for_model(spec)
    master_ok = verify_structure_data(p, s1, data).passed
    axioms = check_courant(p, s1, data, basis, seed=3, samples=6)
    assert master_ok == expect
    assert axioms.passed == expect


def test_n2_bracket_antisymmetry_on_basis():
    spec = n2_spec()
    p = PStructure.from_model(spec)
    s1 = build_S1_generic(spec)
    sub = s1.expr.substitute(so3_data())
    for i, j in itertools.product((1, 2, 3), repeat=2):
        lhs = derived_bracket(p, p.hamiltonian(sub), Expr.base(i), Expr.base(j))
        rhs = derived_bracket(p, p.hamiltonian(sub), Expr.base(j), Expr.base(i))
        assert (lhs + rhs).is_zero()
