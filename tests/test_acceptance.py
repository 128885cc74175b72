"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every comparison is by exact Fraction equality (zero tolerance).  Each test
prints one summary line.
"""

import functools
import io
import itertools
import json
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import oracle
from corpus import (
    anchored_cs_data,
    bad_bivector_data,
    cli_report,
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
    zero_n3_data,
)
from test_modelfile import print_model

from bvsigma import cli
from bvsigma.algebroid import check_courant, check_lie_algebroid, operation_table
from bvsigma.master import (
    EQUAL,
    N2_JACOBI,
    N3_BF,
    N3_CS,
    compare_identity_spans,
    expand_master,
    extract_identities,
    transcribe_paper_identities,
)
from bvsigma.models import (
    BfBlock,
    CsBlock,
    CS_BF,
    ModelSpec,
    build_S1_generic,
)
from bvsigma.modelfile import parse_model
from bvsigma.pstructure import (
    BRACKET_LAWS,
    LAPLACIAN_LAWS,
    PStructure,
    check_bv_identities,
)
from bvsigma.symalg import Expr, monomial_str
from bvsigma.worldsheet import (
    GeneratorTable,
    component_exprs,
    first_order_check,
    integrate,
    kinetic_master_check,
    theorem1_sum,
    theorem1_witness,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "src" / "bvsigma" / "examples"
K2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

BRACKET_FAMILIES = [
    ("cotangent n=2", ModelSpec(n=2, d=2)),
    ("cotangent n=3", ModelSpec(n=3, d=2)),
    ("cotangent n=4", ModelSpec(n=4, d=2)),
    ("cotangent n=5", ModelSpec(n=5, d=2)),
    ("E+E* n=3", ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),))),
    ("E+E* n=4", ModelSpec(n=4, d=2, bf_blocks=(BfBlock(1, 2),))),
    ("self-paired n=3", ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, K2))),
]


@functools.lru_cache(maxsize=None)
def bv_report(name):
    """check_bv_identities on the named BRACKET_FAMILIES entry.  Criteria 1
    and 9 read the same seven reports, so each is computed once per test
    run; no test changes a report."""
    spec = dict(BRACKET_FAMILIES)[name]
    return check_bv_identities(PStructure(spec))


def conclude(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = " (%s)" % detail if detail else ""
    print("CRITERION %s: %s - %s%s" % (number, status, description, suffix))
    assert ok, "criterion %s failed%s" % (number, suffix)


def test_criterion_01_antibracket_law_suite():
    failures = []
    for name, spec in BRACKET_FAMILIES:
        rep = bv_report(name)
        for law in BRACKET_LAWS:
            if rep[law] is not None:
                failures.append("%s: %s" % (name, law))
    conclude(
        1,
        "four antibracket laws, proved on generic operand pairs and triples of every degree class per family",
        not failures,
        "; ".join(failures),
    )


def test_criterion_02_kinetic_master_equation():
    cases = [
        ModelSpec(n=2, d=2),
        ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),)),
        ModelSpec(n=4, d=2, bf_blocks=(BfBlock(1, 2),)),
        ModelSpec(n=5, d=2, bf_blocks=(BfBlock(1, 2), BfBlock(2, 2))),
        ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, K2)),
        ModelSpec(n=5, d=2, flavor=CS_BF, bf_blocks=(BfBlock(1, 2),), cs_block=CsBlock(2, K2)),
    ]
    bad = []
    for spec in cases:
        if kinetic_master_check(spec):
            bad.append(spec.fingerprint())
    conclude(2, "(S0,S0) reduces to 0 in the worldsheet algebra, n=2..5", not bad, "; ".join(bad))


def _engine_to_oracle(expr, var_ids, d):
    out = {}
    for mono, cpoly in expr.terms.items():
        fibers = tuple(var_ids[v] for v in mono)
        for (syms, base), coeff in cpoly.terms.items():
            assert not syms
            exps = [0] * d
            for j, p in base:
                exps[j - 1] = p
            key = (tuple(exps), fibers)
            out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v}


def test_criterion_03_n2_identity_recovery():
    spec = n2_spec()
    p = PStructure(spec)
    s1 = build_S1_generic(spec).expr
    okay = []

    extracted = extract_identities(p, s1)
    transcribed = transcribe_paper_identities(N2_JACOBI, spec)
    okay.append(compare_identity_spans(extracted, transcribed).relation == EQUAL)

    okay.append(expand_master(p, s1.substitute(so3_data())).is_zero())

    residual = expand_master(p, s1.substitute(bad_bivector_data()))
    okay.append({monomial_str(m): str(c) for m, c in residual.terms.items()} == {"B1_1*B1_2*B1_3": "-2*phi1"})

    # Independent oracle: its own bracket expansion and the Jacobiator.
    f_so3 = {
        (0, 1): {(0, 0, 1): Fraction(1)},
        (0, 2): {(0, 1, 0): Fraction(-1)},
        (1, 2): {(1, 0, 0): Fraction(1)},
    }
    okay.append(oracle.poisson_sigma_bracket_expansion(3, f_so3) == {})
    f_bad = {
        (0, 1): {(1, 0, 0): Fraction(1)},
        (0, 2): {},
        (1, 2): {(0, 1, 0): Fraction(1)},
    }
    expansion = oracle.poisson_sigma_bracket_expansion(3, f_bad)
    okay.append(expansion == {((1, 0, 0), (0, 1, 2)): Fraction(-2)})
    okay.append(oracle.jacobiator(3, f_bad)[(0, 1, 2)] == {(1, 0, 0): Fraction(1)})

    # Engine and oracle agree on the full expansions.
    sub = expand_master(p, s1).substitute(bad_bivector_data())
    ids = {v: i for i, v in enumerate(spec.vars_of("B1"))}
    okay.append(_engine_to_oracle(sub, ids, 3) == expansion)

    conclude(3, "n=2 identities: span equality, so(3) passes, bad bivector fails", all(okay))


def _oracle_n3_bf_expansion(data):
    """(S1,S1) for the two-block n=3 model via the standalone calculator."""
    d, r = 2, 2
    parities = {}
    A = {a: a for a in range(r)}
    B1 = {a: r + a for a in range(r)}
    B2 = {i: 2 * r + i for i in range(d)}
    for v in A.values():
        parities[v] = 1
    for v in B1.values():
        parities[v] = 1
    for v in B2.values():
        parities[v] = 0
    alg = oracle.GAlg(d, parities)

    def poly_terms(name, lower, upper):
        key = (name, tuple(lower), tuple(upper))
        return data.values.get(key, None)

    s1 = alg.zero()
    for a in range(r):
        for i in range(d):
            val = poly_terms("f1", (a + 1,), (i + 1,))
            if val:
                for (syms, base), c in val.terms.items():
                    exps = [0] * d
                    for j, pw in base:
                        exps[j - 1] = pw
                    s1 = alg.add(s1, alg.term(c, exps, (A[a], B2[i])))
            val = poly_terms("f2", (), (a + 1, i + 1))
            if val:
                for (syms, base), c in val.terms.items():
                    exps = [0] * d
                    for j, pw in base:
                        exps[j - 1] = pw
                    # our f2 multiplies B1_a B2_i
                    s1 = alg.add(s1, alg.term(c, exps, (B1[a], B2[i])))
    for c_idx in range(r):
        val = poly_terms("f4", (1, 2), (c_idx + 1,))
        if val:
            for (syms, base), c in val.terms.items():
                exps = [0] * d
                for j, pw in base:
                    exps[j - 1] = pw
                s1 = alg.add(s1, alg.term(c, exps, (A[0], A[1], B1[c_idx])))
        val = poly_terms("f5", (c_idx + 1,), (1, 2))
        if val:
            for (syms, base), c in val.terms.items():
                exps = [0] * d
                for j, pw in base:
                    exps[j - 1] = pw
                s1 = alg.add(s1, alg.term(c, exps, (A[c_idx], B1[0], B1[1])))
    base_pairs = [(i, B2[i]) for i in range(d)]
    fiber_pairs = [(A[a], B1[a], 1) for a in range(r)]
    return alg, antibracket_full_ids(alg, 3, base_pairs, fiber_pairs, [], s1)


def antibracket_full_ids(alg, n, base_pairs, fiber_pairs, self_blocks, s1):
    return oracle.antibracket_full(alg, n, base_pairs, fiber_pairs, self_blocks, s1, s1)


def test_criterion_04_n3_bf_identity_recovery():
    spec = n3_spec()
    p = PStructure(spec)
    s1 = build_S1_generic(spec).expr
    okay = []

    extracted = extract_identities(p, s1)
    transcribed = transcribe_paper_identities(N3_BF, spec)
    okay.append(compare_identity_spans(extracted, transcribed).relation == EQUAL)

    okay.append(expand_master(p, s1.substitute(exact_courant_data())).is_zero())
    okay.append(not expand_master(p, s1.substitute(perturbed_courant_data())).is_zero())

    # oracle agreement on both expansions
    ids = {}
    for a in (1, 2):
        ids[spec.vars_of("A1")[a - 1]] = a - 1
        ids[spec.vars_of("B1")[a - 1]] = 2 + a - 1
        ids[spec.vars_of("B2")[a - 1]] = 4 + a - 1
    for data, expect_zero in ((exact_courant_data(), True), (perturbed_courant_data(), False)):
        _, expansion = _oracle_n3_bf_expansion(data)
        sub = expand_master(p, s1).substitute(data)
        okay.append(_engine_to_oracle(sub, ids, 2) == expansion)
        okay.append((expansion == {}) == expect_zero)

    conclude(4, "n=3 two-block identities: span equality, data verdicts, oracle agreement", all(okay))


def _oracle_cs_expansion(spec, data):
    d = spec.d
    r = spec.cs_block.rank
    k = spec.cs_block.metric
    parities = {a: 1 for a in range(r)}
    for i in range(d):
        parities[r + i] = 0
    alg = oracle.GAlg(d, parities)

    def add_terms(s1, val, fibers):
        for (syms, base), c in val.terms.items():
            exps = [0] * d
            for j, pw in base:
                exps[j - 1] = pw
            s1 = alg.add(s1, alg.term(c, exps, fibers))
        return s1

    s1 = alg.zero()
    for a in range(r):
        for i in range(d):
            val = data.values.get(("f1", (a + 1,), (i + 1,)))
            if val:
                s1 = add_terms(s1, val, (a, r + i))
    for combo in itertools.combinations(range(r), 3):
        val = data.values.get(("f2", tuple(x + 1 for x in combo), ()))
        if val:
            s1 = add_terms(s1, val, combo)
    base_pairs = [(i, r + i) for i in range(d)]
    return alg, oracle.antibracket_full(
        alg, 3, base_pairs, [], [(list(range(r)), k)], s1, s1
    )


def test_criterion_05_n3_cs_identity_recovery():
    okay = []
    spec2 = cs_spec(rank=2)
    p2 = PStructure(spec2)
    extracted = extract_identities(p2, build_S1_generic(spec2).expr)
    transcribed = transcribe_paper_identities(N3_CS, spec2)
    okay.append(compare_identity_spans(extracted, transcribed).relation == EQUAL)

    spec3 = cs_spec(rank=3)
    p3 = PStructure(spec3)
    s13 = build_S1_generic(spec3).expr
    good = su2_data(spec3)
    okay.append(expand_master(p3, s13.substitute(good)).is_zero())

    spec5 = cs_spec(rank=5)
    p5 = PStructure(spec5)
    s15 = build_S1_generic(spec5).expr
    bad = non_jacobi_cs_data(spec5)
    okay.append(not expand_master(p5, s15.substitute(bad)).is_zero())

    # oracle agreement for both
    for spec, s1, data, expect_zero in (
        (spec3, s13, good, True),
        (spec5, s15, bad, False),
    ):
        r = spec.cs_block.rank
        ids = {}
        for a in range(1, r + 1):
            ids[spec.vars_of("A1")[a - 1]] = a - 1
        for i in (1, 2):
            ids[spec.vars_of("B2")[i - 1]] = r + i - 1
        _, expansion = _oracle_cs_expansion(spec, data)
        p = PStructure(spec)
        sub = expand_master(p, s1).substitute(data)
        okay.append(_engine_to_oracle(sub, ids, 2) == expansion)
        okay.append((expansion == {}) == expect_zero)

    conclude(5, "n=3 self-paired identities: span equality, data verdicts, oracle agreement", all(okay))


def test_criterion_06_derived_bracket_tables():
    okay = []
    spec = n3_spec()
    p = PStructure(spec)
    s1 = build_S1_generic(spec).expr
    rows = {(op, l, r): e for op, l, r, e in operation_table(p, s1)}

    def A(c):
        return Expr.var(spec.vars_of("A1")[c - 1])

    def B(c):
        return Expr.var(spec.vars_of("B1")[c - 1])

    for a, b in itertools.product((1, 2), (1, 2)):
        expected = Expr.zero()
        for c in (1, 2):
            expected = expected + sym_expr(spec, "f5", (c,), (a, b), coeff=-1) * A(c)
            expected = expected + sym_expr(spec, "f6", (), (a, b, c), coeff=-1) * B(c)
        okay.append(rows[("circ", "A1_%d" % a, "A1_%d" % b)] == expected)

        expected = Expr.zero()
        for c in (1, 2):
            expected = expected + sym_expr(spec, "f4", (b, c), (a,), coeff=-1) * A(c)
            expected = expected + sym_expr(spec, "f5", (b,), (a, c)) * B(c)
        okay.append(rows[("circ", "A1_%d" % a, "B1_%d" % b)] == expected)

        expected = Expr.zero()
        for c in (1, 2):
            expected = expected + sym_expr(spec, "f3", (a, b, c), (), coeff=-1) * A(c)
            expected = expected + sym_expr(spec, "f4", (a, b), (c,), coeff=-1) * B(c)
        okay.append(rows[("circ", "B1_%d" % a, "B1_%d" % b)] == expected)

        okay.append(
            rows[("pair", "A1_%d" % a, "B1_%d" % b)]
            == (Expr.scalar(1) if a == b else Expr.zero())
        )
    for a in (1, 2):
        for i in (1, 2):
            okay.append(
                rows[("anchor", "A1_%d" % a, "phi%d" % i)]
                == sym_expr(spec, "f2", (), (a, i), coeff=-1)
            )
            okay.append(
                rows[("anchor", "B1_%d" % a, "phi%d" % i)]
                == sym_expr(spec, "f1", (a,), (i,), coeff=-1)
            )

    speccs = cs_spec(rank=3)
    k = speccs.cs_block.metric
    pcs = PStructure(speccs)
    s1cs = build_S1_generic(speccs).expr
    rows = {
        (op, l, r): e
        for op, l, r, e in operation_table(pcs, s1cs)
    }
    for a, b in itertools.product((1, 2, 3), (1, 2, 3)):
        expected = Expr.zero()
        for c, dd, e in itertools.product((1, 2, 3), repeat=3):
            coeff = k[a - 1][c - 1] * k[b - 1][dd - 1]
            if coeff:
                expected = expected + sym_expr(speccs, "f2", (c, dd, e), (), coeff=-coeff) * Expr.var(
                    speccs.vars_of("A1")[e - 1]
                )
        okay.append(rows[("circ", "A1_%d" % a, "A1_%d" % b)] == expected)
        okay.append(rows[("pair", "A1_%d" % a, "A1_%d" % b)] == Expr.scalar(k[a - 1][b - 1]))
    for a in (1, 2, 3):
        for i in (1, 2):
            expected = Expr.zero()
            for c in (1, 2, 3):
                if k[a - 1][c - 1]:
                    expected = expected + sym_expr(speccs, "f1", (c,), (i,), coeff=-k[a - 1][c - 1])
            okay.append(rows[("anchor", "A1_%d" % a, "phi%d" % i)] == expected)

    conclude(6, "derived-bracket operation tables reproduce the published lines", all(okay))


def test_criterion_07_axiom_equivalence_corpus():
    verdicts = []
    spec2 = n2_spec()
    p2 = PStructure(spec2)
    s12 = build_S1_generic(spec2).expr
    for maker in (so3_data, quadratic_poisson_data, zero_n2_data, bad_bivector_data):
        S = s12.substitute(maker())
        master_ok = expand_master(p2, S).is_zero()
        axioms_ok = not any(check_lie_algebroid(p2, S).values())
        verdicts.append(master_ok == axioms_ok)

    spec3 = n3_spec()
    p3 = PStructure(spec3)
    s13 = build_S1_generic(spec3).expr
    for maker in (exact_courant_data, e_star_lie_data, zero_n3_data, perturbed_courant_data):
        S = s13.substitute(maker())
        master_ok = expand_master(p3, S).is_zero()
        axioms_ok = not any(check_courant(p3, S).values())
        verdicts.append(master_ok == axioms_ok)

    for rank, maker in ((3, su2_data), (5, non_jacobi_cs_data), (2, anchored_cs_data)):
        spec = cs_spec(rank=rank)
        p = PStructure(spec)
        S = build_S1_generic(spec).expr.substitute(maker(spec))
        master_ok = expand_master(p, S).is_zero()
        axioms_ok = not any(check_courant(p, S).values())
        verdicts.append(master_ok == axioms_ok)

    conclude(7, "master equation passes iff the algebroid axioms pass, full corpus", all(verdicts))


def test_criterion_08_theorem1_and_first_order():
    okay = []
    for n in (2, 3, 4, 5):
        for pf, pg in itertools.product((0, 1), repeat=2):
            table = GeneratorTable(n, (("F", pf), ("G", pg)))
            f = component_exprs(table, "F", pf)
            g = component_exprs(table, "G", pg)
            total = theorem1_sum(table, f, g)
            t, w = theorem1_witness(table, f, g)
            okay.append((total - t.delta0() - w.d()).is_zero())
            okay.append(integrate(total - t.delta0()).is_zero())
    ansatz_specs = [
        ModelSpec(n=2, d=3),
        ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),)),
        ModelSpec(n=4, d=2, bf_blocks=(BfBlock(1, 2),)),
        ModelSpec(n=5, d=2, bf_blocks=(BfBlock(1, 2), BfBlock(2, 2))),
        ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, K2)),
        ModelSpec(n=5, d=2, flavor=CS_BF, bf_blocks=(BfBlock(1, 2),), cs_block=CsBlock(2, K2)),
    ]
    for spec in ansatz_specs:
        okay.append(not any(first_order_check(spec, build_S1_generic(spec).expr).values()))
    conclude(8, "Theorem-1 witness exact for n=2..5; first order vanishes for every ansatz", all(okay))


EVEN_FAMILIES = [f for f in BRACKET_FAMILIES if f[1].n % 2 == 0]
ODD_FAMILIES = [f for f in BRACKET_FAMILIES if f[1].n % 2 == 1]


def test_criterion_09_bv_laplacian_even_structures():
    failures = []
    for name, spec in BRACKET_FAMILIES:
        rep = bv_report(name)
        if rep["Delta degree = |F|-(n-1)"] is not None:
            failures.append("%s: degree" % name)
    for name, spec in EVEN_FAMILIES:
        rep = bv_report(name)
        for law in LAPLACIAN_LAWS:
            if rep[law] is not None:
                failures.append("%s: %s" % (name, law))
    conclude(
        "9 (even-n clause)",
        "Delta^2 = 0, Delta-Leibniz and degree shift on even-n structures",
        not failures,
        "; ".join(failures),
    )


def _published_delta_leibniz_holds(p, f, fd, g):
    """Delta(FG) = Delta(F) G + (-1)^((n+1)|F|) (F,G) + (-1)^|F| F Delta(G),
    with the Darboux bracket: the equation check_bv_identities tests."""
    rhs = (
        p.laplacian(f) * g
        + p.bracket_darboux(f, g).scale((-1) ** ((p.n + 1) * fd))
        + (f * p.laplacian(g)).scale((-1) ** fd)
    )
    return p.laplacian(f * g) == rhs


def test_criterion_09_bv_laplacian_odd_structures_unattainable():
    """The published Delta identities on the odd-n families, asserted as
    the documented obstruction.  At the finite-dimensional target level
    with odd n the antibracket has even total degree and is
    graded-antisymmetric, while the Leibniz defect of the (then even)
    second-order operator Delta is graded-symmetric, and Delta^2 is an
    honest fourth-order operator.  The identities hold in the field theory,
    where the functional Laplacian stays odd for every n; no
    finite-dimensional sign convention can rescue them.

    For each odd family this checks that check_bv_identities returns a
    Delta-Leibniz residual and that the check-bv report shows its
    counterexample and the odd-n note, while the bracket laws and the
    degree shift pass; and it proves the
    obstruction exactly.  F = phi1 and G = B{n-1}_1 both have even degree,
    so no degree-dependent sign tells (F,G) from (G,F): (F,G) = 1 =
    -(G,F), the Leibniz defect D(F,G) equals D(G,F), and the published
    equation holds for (F,G) and fails for (G,F).  Delta^2 of
    phi1^2 (B{n-1}_1)^2 is the scalar 4, and the checker flags Delta^2 = 0
    with a witness at every odd n, n=5 included, where 2(n-1) exceeds n+2.
    """
    failures = []
    for name, spec in ODD_FAMILIES:
        p = PStructure(spec)
        n = p.n
        rep = bv_report(name)
        _, report = cli_report("check-bv", spec)

        if rep["Delta-Leibniz"] is None:
            failures.append("%s: Delta-Leibniz not flagged" % name)
        if not any(m.startswith("Delta-Leibniz: |F|,|G| = ") for m in report["witnesses"]):
            failures.append("%s: no Delta-Leibniz counterexample" % name)
        if not any(line.startswith("note: ") and "cannot hold for odd n" in line for line in report["details"]):
            failures.append("%s: odd-n note missing" % name)
        for law in BRACKET_LAWS + ("Delta degree = |F|-(n-1)",):
            if rep[law] is not None:
                failures.append("%s: %s" % (name, law))

        f = Expr.base(1)
        g = Expr.var(spec.vars_of("B%d" % (n - 1))[0])
        if p.bracket(f, g) != Expr.scalar(1) or p.bracket(g, f) != Expr.scalar(-1):
            failures.append("%s: (F,G) = 1 = -(G,F) fails" % name)
        defect_fg = p.laplacian(f * g) - p.laplacian(f) * g - f * p.laplacian(g)
        defect_gf = p.laplacian(g * f) - p.laplacian(g) * f - g * p.laplacian(f)
        if defect_fg.is_zero() or defect_fg != defect_gf:
            failures.append("%s: Leibniz defect not graded-symmetric" % name)
        if not _published_delta_leibniz_holds(p, f, 0, g):
            failures.append("%s: published Delta-Leibniz fails on (F,G)" % name)
        if _published_delta_leibniz_holds(p, g, n - 1, f):
            failures.append("%s: published Delta-Leibniz holds on (G,F)" % name)

        if p.laplacian(p.laplacian(f * f * g * g)) != Expr.scalar(4):
            failures.append("%s: Delta^2(phi1^2 B^2) != 4" % name)
        if rep["Delta^2 = 0"] is None or not any(m.startswith("Delta^2 = 0: ") for m in report["witnesses"]):
            failures.append("%s: Delta^2 = 0 not flagged with a witness" % name)
    conclude(
        "9 (odd-n clause)",
        "Delta-Leibniz flagged with counterexamples and the odd-n note on odd-n "
        "structures, Delta^2 = 0 flagged with a witness; exact witnesses: (F,G) "
        "= -(G,F) with a graded-symmetric Leibniz defect, Delta^2(phi1^2 B^2) = 4",
        not failures,
        "; ".join(failures),
    )


GOLDEN_CASES = [
    ("so3_check_master", ["check-master", "--model", "n2_poisson_so3.model"], 0),
    ("bivector_check_master", ["check-master", "--model", "n2_bivector_fail.model"], 1),
    ("exact_courant_check_algebroid", ["check-algebroid", "--model", "n3_bf_exact_courant.model"], 0),
    ("cs_rank2_compare_paper", ["compare-identities", "--model", "n3_cs_rank2.model", "--against", "paper"], 0),
    ("cs_su2_extract", ["extract-identities", "--model", "n3_cs_su2.model"], 0),
    ("exact_courant_derived_table", ["derived-table", "--model", "n3_bf_exact_courant.model"], 0),
]


def test_criterion_10_cli_determinism():
    golden_dir = Path(__file__).resolve().parent / "golden"
    okay = []
    for name, argv, want in GOLDEN_CASES:
        argv = [str(EXAMPLES / a) if a.endswith(".model") else a for a in argv]
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            okay.append(code == want)
            outputs.append(buf.getvalue())
        okay.append(outputs[0] == outputs[1])
        okay.append(outputs[0] == (golden_dir / ("%s.json" % name)).read_text())
    for path in sorted(EXAMPLES.glob("*.model")):
        first = parse_model(path.read_text())
        second = parse_model(print_model(first))
        okay.append(second == first and print_model(second) == print_model(first))
    conclude(10, "golden reports byte-identical; parse-print-parse idempotent", all(okay))
