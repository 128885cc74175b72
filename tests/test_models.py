import importlib.util
import itertools
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from bvsigma.grading import GradedVar, sort_monomial
from bvsigma.modelfile import parse_model
from bvsigma.models import (
    BF,
    CS_BF,
    BfBlock,
    CsBlock,
    ModelError,
    ModelSpec,
    StructureData,
    ansatz_families,
    build_S1_generic,
)
from bvsigma.symalg import ANTISYM, LOWER, UPPER, CPoly, Expr, accumulate, make_symbol
from bvsigma.worldsheet import DgaExpr, kinetic_action_dga, superfield

K2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "src" / "bvsigma" / "examples"


def test_spec_validation():
    with pytest.raises(ModelError):
        ModelSpec(n=2, d=3, bf_blocks=(BfBlock(1, 2),))  # p out of range for n=2
    with pytest.raises(ModelError):
        ModelSpec(n=4, d=2, flavor=CS_BF, cs_block=CsBlock(2, K2))  # even n
    with pytest.raises(ModelError):
        ModelSpec(n=5, d=2, bf_blocks=(BfBlock(1, 2), BfBlock(1, 3)))  # duplicate p
    with pytest.raises(ModelError):
        ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, ((1, 0), (0, 0))))  # degenerate k
    with pytest.raises(ModelError):
        ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, ((0, 1), (-1, 0))))  # not symmetric
    with pytest.raises(ModelError):
        # the p = (n-1)/2 block is absorbed into the self block for cs models
        ModelSpec(n=3, d=2, flavor=CS_BF, bf_blocks=(BfBlock(1, 2),), cs_block=CsBlock(2, K2))


def test_blocks_and_degrees():
    spec = ModelSpec(n=5, d=2, bf_blocks=(BfBlock(1, 2), BfBlock(2, 1)))
    labels = {(b.label, b.degree, b.rank) for b in spec.blocks()}
    assert labels == {
        ("phi", 0, 2),
        ("B4", 4, 2),
        ("A1", 1, 2),
        ("B3", 3, 2),
        ("A2", 2, 1),
        ("B2", 2, 1),
    }


def test_n1_flagged_with_empty_ansatz():
    spec = ModelSpec(n=1, d=2)
    assert build_S1_generic(spec).expr.is_zero()


def _kinetic_weight(s0, n, b_label, b_degree, a_label, a_degree):
    """The weight of B_(n-1) dA_0 (component 1 of each family) in s0,
    relative to the bare product of the two components."""
    b = superfield(n, b_label + "_1", b_degree)[n - 1]
    da = superfield(n, a_label + "_1", a_degree)[0].d()
    ((mono, c),) = (DgaExpr.gen(n, b) * DgaExpr.gen(n, da)).terms.items()
    return Fraction(s0.terms.get(mono, 0), c)


def test_s0_kinetic_pairings_and_signs():
    spec = ModelSpec(n=2, d=3)
    assert [(p.a_block, p.b_block, p.p) for p in spec.pairs] == [("phi", "B1", 0)]
    assert _kinetic_weight(kinetic_action_dga(spec), 2, "B1", 1, "phi", 0) == 1

    spec3 = ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),))
    s0 = kinetic_action_dga(spec3)
    # (-1)^(n-p): p=0 gives -B2 dphi, p=1 gives +B1 dA1
    assert [(p.a_block, p.b_block, p.p) for p in spec3.pairs] == [("phi", "B2", 0), ("A1", "B1", 1)]
    assert _kinetic_weight(s0, 3, "B2", 2, "phi", 0) == -1
    assert _kinetic_weight(s0, 3, "B1", 1, "A1", 1) == 1

    speccs = ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, K2))
    assert [(sp.block, sp.rank) for sp in speccs.self_pairs] == [("A1", 2)]
    # the k/2 A1 dA1 term, with k = 1 on the diagonal
    assert _kinetic_weight(kinetic_action_dga(speccs), 3, "A1", 1, "A1", 1) == Fraction(1, 2)


def test_metric_must_be_nondegenerate():
    with pytest.raises(ModelError, match="metric k must be nondegenerate"):
        ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, ((1, 2), (2, 4))))
    ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, ((0, 1), (1, 0))))
    half = Fraction(1, 2)
    ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, ((half, 3), (3, Fraction(-2, 3)))))


def test_n2_ansatz_is_half_f_bb():
    spec = ModelSpec(n=2, d=3)
    s1 = build_S1_generic(spec)
    fams = ansatz_families(spec)
    assert len(fams) == 1
    expected = Expr.zero(spec.fingerprint())
    group = fams[0].groups
    for i in range(1, 4):
        for j in range(i + 1, 4):
            _, sym = make_symbol("f1", (), (i, j), (), group)
            expected = expected + Expr({(): CPoly.symbol(sym)}) * Expr.var(
                GradedVar("B1", 1, i)
            ) * Expr.var(GradedVar("B1", 1, j))
    assert s1.expr == expected
    assert s1.total_degree == 2


def test_n3_bf_ansatz_families_match_published_shape():
    spec = ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),))
    fams = {f.name: f for f in ansatz_families(spec)}
    assert set(fams) == {"f1", "f2", "f3", "f4", "f5", "f6"}
    assert fams["f1"].factor_blocks == ("A1", "B2")
    assert fams["f2"].factor_blocks == ("B1", "B2")
    assert fams["f3"].factor_blocks == ("A1", "A1", "A1")
    assert fams["f4"].factor_blocks == ("A1", "A1", "B1")
    assert fams["f5"].factor_blocks == ("A1", "B1", "B1")
    assert fams["f6"].factor_blocks == ("B1", "B1", "B1")
    # symmetry types: f3 antisym in 3 lower, f4 in 2 lower, f5 in 2 upper, f6 in 3 upper
    assert fams["f3"].groups == (type(fams["f3"].groups[0])(ANTISYM, LOWER, (0, 1, 2)),)
    assert [(g.kind, g.variance, g.slots) for g in fams["f4"].groups] == [
        (ANTISYM, LOWER, (0, 1))
    ]
    assert [(g.kind, g.variance, g.slots) for g in fams["f5"].groups] == [
        (ANTISYM, UPPER, (0, 1))
    ]
    assert [(g.kind, g.variance, g.slots) for g in fams["f6"].groups] == [
        (ANTISYM, UPPER, (0, 1, 2))
    ]


def test_n3_cs_ansatz_families():
    spec = ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, K2))
    fams = ansatz_families(spec)
    assert [(f.name, f.factor_blocks) for f in fams] == [
        ("f1", ("A1", "B2")),
        ("f2", ("A1", "A1", "A1")),
    ]
    assert [(g.kind, g.variance, g.slots) for g in fams[1].groups] == [
        (ANTISYM, LOWER, (0, 1, 2))
    ]


def _family_specs():
    """bf and cs_bf specs for n = 2..8 with several block sets."""
    out = []
    for n in range(2, 9):
        ps = range(1, (n - 1) // 2 + 1)
        for chosen in ((), tuple(ps), tuple(p for p in ps if p % 2), tuple(ps)[-1:]):
            out.append(ModelSpec(n=n, d=2, bf_blocks=tuple(BfBlock(p, 2) for p in chosen)))
        if n % 2:
            cs_ps = range(1, (n - 3) // 2 + 1)
            for chosen in ((), tuple(cs_ps)):
                out.append(
                    ModelSpec(
                        n=n,
                        d=2,
                        flavor=CS_BF,
                        bf_blocks=tuple(BfBlock(p, 3) for p in chosen),
                        cs_block=CsBlock(2, K2),
                    )
                )
    return list(dict.fromkeys(out))


@pytest.mark.parametrize("spec", _family_specs(), ids=lambda s: s.fingerprint())
def test_ansatz_families_match_brute_force_filter(spec):
    degree = {b.label: b.degree for b in spec.blocks()}
    labels = sorted(lbl for lbl, deg in degree.items() if deg > 0 and lbl != "phi")
    classes = [
        combo
        for k in range(1, spec.n + 1)
        for combo in itertools.combinations_with_replacement(labels, k)
        if sum(degree[lbl] for lbl in combo) == spec.n
    ]
    classes.sort(key=lambda c: (len(c), c))
    fams = ansatz_families(spec)
    assert [f.factor_blocks for f in fams] == classes
    assert [f.name for f in fams] == ["f%d" % i for i in range(1, len(classes) + 1)]
    for f in fams:
        assert sorted(f.lower_blocks + f.upper_blocks) == list(f.factor_blocks)
        assert all(lbl.startswith("A") for lbl in f.lower_blocks)
        assert all(lbl.startswith("B") for lbl in f.upper_blocks)


def test_n9_ansatz_has_37_families():
    spec = ModelSpec(n=9, d=3, bf_blocks=tuple(BfBlock(p, 3) for p in range(1, 5)))
    fams = ansatz_families(spec)
    assert len(fams) == 37
    assert fams[0].factor_blocks == ("A1", "B8")
    assert fams[-1].factor_blocks == ("A1",) * 9


def test_block_table_is_not_a_field():
    a = ModelSpec(n=5, d=2, bf_blocks=(BfBlock(1, 2),))
    b = ModelSpec(n=5, d=2, bf_blocks=(BfBlock(1, 2),))
    assert a == b and hash(a) == hash(b)
    assert a.block("B3").rank == 2
    assert [blk.label for blk in a.blocks()] == ["phi", "B4", "A1", "B3"]
    with pytest.raises(ModelError):
        a.block("A2")


def test_ansatz_deterministic():
    spec = ModelSpec(n=4, d=2, bf_blocks=(BfBlock(1, 2),))
    assert build_S1_generic(spec).expr == build_S1_generic(spec).expr


def test_s1_has_total_degree_n():
    for spec in (
        ModelSpec(n=2, d=3),
        ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),)),
        ModelSpec(n=3, d=2, flavor=CS_BF, cs_block=CsBlock(2, K2)),
        ModelSpec(n=5, d=2, bf_blocks=(BfBlock(1, 2), BfBlock(2, 2))),
    ):
        s1 = build_S1_generic(spec)
        assert s1.total_degree == spec.n
        assert s1.expr.monomial_degrees() == {spec.n}, spec.fingerprint()


def test_structure_data_normalizes_assignments():
    spec = ModelSpec(n=2, d=3)
    data = StructureData(spec)
    data.assign("f1", (), (2, 1), CPoly.base(3))  # stored as f1[;1,2] = -phi3
    _, sym = make_symbol("f1", (), (1, 2), (), data.families["f1"].groups)
    assert data.value_of(sym) == CPoly.base(3).scale(-1)


def test_structure_data_conflicts_and_ranges():
    spec = ModelSpec(n=2, d=3)
    data = StructureData(spec)
    data.assign("f1", (), (1, 2), CPoly.base(3))
    with pytest.raises(ModelError):
        data.assign("f1", (), (2, 1), CPoly.base(3))  # conflicts after normalization
    with pytest.raises(ModelError):
        data.assign("f1", (), (1, 7), CPoly.zero())  # index out of range
    with pytest.raises(ModelError):
        data.assign("f1", (1,), (1, 2), CPoly.zero())  # wrong slot count
    with pytest.raises(ModelError):
        data.assign("f1", (), (1, 1), CPoly.base(2))  # vanishing combo, nonzero value
    data.assign("f1", (), (1, 1), CPoly.zero())  # zero on a vanishing combo is fine


def _s1_by_full_product(spec):
    """The ansatz summed over every index tuple of every family, 1/m! per
    run of m identical factors, permutations folded by ``accumulate``: the
    reference for the orbit walk of ``build_S1_generic``."""
    acc = {}
    for fam in ansatz_families(spec):
        norm = Fraction(1)
        for _, grp in itertools.groupby(fam.factor_blocks):
            norm /= factorial(len(list(grp)))
        lower_pos = [k for k, lbl in enumerate(fam.factor_blocks) if lbl.startswith("A")]
        upper_pos = [k for k, lbl in enumerate(fam.factor_blocks) if lbl.startswith("B")]
        for fvars in itertools.product(*(spec.vars_of(lbl) for lbl in fam.factor_blocks)):
            lower = tuple(fvars[k].index for k in lower_pos)
            upper = tuple(fvars[k].index for k in upper_pos)
            sign, sym = make_symbol(fam.name, lower, upper, (), fam.groups)
            if sym is None:
                continue
            vsign, mono = sort_monomial(fvars)
            if vsign == 0:
                continue
            accumulate(acc, mono, CPoly.symbol(sym, norm * (sign * vsign)))
    return Expr(acc, spec.fingerprint())


def _generated_specs():
    """The generated model specs of the benchmark workloads."""
    loader = importlib.util.spec_from_file_location("_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    return [(stem, parse_model(make()).spec) for stem, make in sorted(workloads.GENERATED.items())]


def _reference_specs():
    out = []
    for n in range(2, 10):
        for r in (3, 4):
            blocks = tuple(BfBlock(p, r) for p in range(1, (n - 1) // 2 + 1))
            out.append(("bf_n%d_r%d" % (n, r), ModelSpec(n=n, d=r, bf_blocks=blocks)))
    metric = ((2, 1, 0), (1, 0, Fraction(1, 2)), (0, Fraction(1, 2), -3))
    for n, blocks in ((3, ()), (7, (BfBlock(1, 3), BfBlock(2, 3)))):
        cs = CsBlock(3, metric)
        out.append(("cs_n%d" % n, ModelSpec(n=n, d=3, flavor=CS_BF, bf_blocks=blocks, cs_block=cs)))
    out += _generated_specs()
    for path in sorted(EXAMPLES.glob("*.model")):
        out.append((path.stem, parse_model(path.read_text(encoding="utf-8")).spec))
    return out


@pytest.mark.parametrize("spec", [pytest.param(s, id=i) for i, s in _reference_specs()])
def test_s1_orbit_walk_matches_the_full_index_product(spec):
    got = build_S1_generic(spec).expr
    want = _s1_by_full_product(spec)
    assert got.scope == want.scope
    assert list(got.terms) == list(want.terms)
    for mono, poly in want.terms.items():
        assert got.terms[mono].terms == poly.terms
        assert [type(v) for v in got.terms[mono].terms.values()] == [
            type(v) for v in poly.terms.values()
        ]
