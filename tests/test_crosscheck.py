"""Dual-route and property-based checks tying the engine to the oracle."""

import functools
import io
import itertools
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from corpus import cs_spec, load_workloads, n3_spec

from bvsigma import cli
from bvsigma.algebroid import check_algebroid
from bvsigma.master import (
    EQUAL,
    N3_BF,
    compare_identity_spans,
    expand_master,
    extract_identities,
    transcribe_paper_identities,
    verify_structure_data,
)
from bvsigma.modelfile import parse_model
from bvsigma.models import CS_BF, BfBlock, CsBlock, ModelSpec, StructureData, build_S1_generic
from bvsigma.pstructure import PStructure
from bvsigma.symalg import CPoly, Expr
from bvsigma.worldsheet import DgaExpr, kinetic_master_check

EXAMPLES = Path(__file__).resolve().parents[1] / "src" / "bvsigma" / "examples"

A1, A2 = n3_spec().vars_of("A1")
B1, B2 = n3_spec().vars_of("B1")
C1, C2 = n3_spec().vars_of("B2")
VARS = [A1, A2, B1, B2, C1, C2]
ORACLE_IDS = {A1: 0, A2: 1, B1: 2, B2: 3, C1: 4, C2: 5}
ORACLE_PARITIES = {0: 1, 1: 1, 2: 1, 3: 1, 4: 0, 5: 0}


def _expr_strategy():
    term = st.tuples(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)),
        st.lists(st.sampled_from(VARS), min_size=0, max_size=3),
    )
    return st.lists(term, min_size=1, max_size=3)


def _build_engine(terms):
    expr = Expr.zero()
    for num, den, (e1, e2), fibers in terms:
        poly = CPoly.scalar(Fraction(num, den))
        if e1:
            poly = poly * CPoly.base(1, e1)
        if e2:
            poly = poly * CPoly.base(2, e2)
        part = Expr({(): poly})
        for v in fibers:
            part = part * Expr.var(v)
        expr = expr + part
    return expr


def _build_oracle(alg, terms):
    out = alg.zero()
    for num, den, (e1, e2), fibers in terms:
        out = alg.add(
            out,
            alg.term(Fraction(num, den), (e1, e2), tuple(ORACLE_IDS[v] for v in fibers)),
        )
    return out


def _engine_to_oracle(expr):
    out = {}
    for mono, cpoly in expr.terms.items():
        fibers = tuple(ORACLE_IDS[v] for v in mono)
        for (syms, base), coeff in cpoly.terms.items():
            assert not syms
            exps = [0, 0]
            for j, p in base:
                exps[j - 1] = p
            key = (tuple(exps), fibers)
            out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v}


@settings(max_examples=120, derandomize=True, deadline=None)
@given(_expr_strategy(), _expr_strategy())
def test_bracket_agrees_with_oracle_on_random_inputs(t1, t2):
    spec = n3_spec()
    p = PStructure(spec)
    f = _build_engine(t1)
    g = _build_engine(t2)
    engine = _engine_to_oracle(p.bracket(f, g))

    alg = oracle.GAlg(2, ORACLE_PARITIES)
    of = _build_oracle(alg, t1)
    og = _build_oracle(alg, t2)
    base_pairs = [(0, 4), (1, 5)]
    fiber_pairs = [(0, 2, 1), (1, 3, 1)]
    assert engine == oracle.antibracket_full(alg, 3, base_pairs, fiber_pairs, [], of, og)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(_expr_strategy(), _expr_strategy())
def test_product_agrees_with_oracle(t1, t2):
    f, g = _build_engine(t1), _build_engine(t2)
    alg = oracle.GAlg(2, ORACLE_PARITIES)
    of, og = _build_oracle(alg, t1), _build_oracle(alg, t2)
    assert _engine_to_oracle(f * g) == alg.mul(of, og)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_expr_strategy(), _expr_strategy(), _expr_strategy())
def test_multiplication_associative_and_distributive(t1, t2, t3):
    a, b, c = (_build_engine(t) for t in (t1, t2, t3))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_extraction_runs_for_higher_n():
    # raw identity extraction is n-generic even where no published system
    # is transcribed
    for spec in (
        ModelSpec(n=4, d=2, bf_blocks=(BfBlock(1, 1),)),
        ModelSpec(n=5, d=1, bf_blocks=(BfBlock(1, 1), BfBlock(2, 1))),
    ):
        p = PStructure(spec)
        idents = extract_identities(p, build_S1_generic(spec))
        assert idents
        tags = [tag for tag, _ in idents]
        assert len(tags) == len(set(tags))


def test_span_comparison_detects_a_corrupted_transcription():
    spec = n3_spec()
    p = PStructure(spec)
    extracted = extract_identities(p, build_S1_generic(spec))
    transcribed = transcribe_paper_identities(N3_BF, spec)
    assert compare_identity_spans(extracted, transcribed).relation == EQUAL
    # corrupt one equation with a stray symbol term
    stray = next(iter(transcribed[3][1].symbols()))
    corrupted = list(transcribed)
    tag, poly = corrupted[3]
    corrupted[3] = (tag, poly + CPoly.symbol(stray, Fraction(7)))
    assert compare_identity_spans(extracted, corrupted).relation != EQUAL


# The specs of the oracle comparison at n = 4..7 (ROADMAP item 4): up to
# three Darboux fiber pairs, and a self-paired block at n=7.
HIGHER_N_SPECS = (
    ModelSpec(n=4, d=2, bf_blocks=(BfBlock(1, 3),)),
    ModelSpec(n=5, d=2, bf_blocks=(BfBlock(1, 2), BfBlock(2, 2))),
    ModelSpec(n=6, d=2, bf_blocks=(BfBlock(1, 2), BfBlock(2, 2))),
    ModelSpec(n=7, d=2, bf_blocks=(BfBlock(1, 2), BfBlock(2, 2), BfBlock(3, 2))),
    ModelSpec(n=7, d=2, flavor=CS_BF, bf_blocks=(BfBlock(1, 1),),
              cs_block=CsBlock(2, ((2, Fraction(1, 2)), (Fraction(1, 2), -3)))),
)


def _oracle_frame(spec):
    """The oracle's variables and pairs for ``spec``, from n and the blocks
    alone: phi_j with B_{n-1}, A_p with B_{n-p-1}, and A_q (q = (n-1)/2)
    with itself through k.  Returns (ids by (block, index), parities,
    base pairs, fiber pairs, self blocks), as ``antibracket_full`` takes."""
    n = spec.n
    blocks = [("B%d" % (n - 1), n - 1, spec.d)]
    for blk in spec.bf_blocks:
        blocks += [("A%d" % blk.p, blk.p, blk.rank), ("B%d" % (n - blk.p - 1), n - blk.p - 1, blk.rank)]
    if spec.cs_block is not None:
        blocks.append(("A%d" % ((n - 1) // 2), (n - 1) // 2, spec.cs_block.rank))
    ids, parities = {}, {}
    for label, degree, rank in blocks:
        for i in range(1, rank + 1):
            parities[ids.setdefault((label, i), len(ids))] = degree % 2
    base_pairs = [(j - 1, ids["B%d" % (n - 1), j]) for j in range(1, spec.d + 1)]
    fiber_pairs = [
        (ids["A%d" % blk.p, i], ids["B%d" % (n - blk.p - 1), i], blk.p)
        for blk in spec.bf_blocks for i in range(1, blk.rank + 1)
    ]
    self_blocks = []
    if spec.cs_block is not None:
        q, cs = (n - 1) // 2, spec.cs_block
        self_blocks.append(([ids["A%d" % q, i] for i in range(1, cs.rank + 1)], cs.metric))
    return ids, parities, base_pairs, fiber_pairs, self_blocks


def _random_operand(rng, spec, alg, ids, degree=None):
    """One random operand, as an engine Expr and as an oracle polynomial:
    up to three terms of a small rational times a phi monomial times a
    fiber word of at most four variables, repeats allowed.  With
    ``degree``, every word has that total degree."""
    fibers = spec.fiber_vars()
    expr, poly = Expr.zero(spec.fingerprint()), alg.zero()
    for _ in range(rng.randint(1, 3)):
        word = [rng.choice(fibers) for _ in range(rng.randint(0, 4))]
        while degree is not None and sum(v.degree for v in word) != degree:
            word = [rng.choice(fibers) for _ in range(rng.randint(1, 4))]
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        exps = [rng.randint(0, 2) for _ in range(spec.d)]
        coeffs = CPoly.scalar(coeff)
        for j, e in enumerate(exps, 1):
            coeffs = coeffs * CPoly.base(j, e) if e else coeffs
        part = Expr({(): coeffs})
        for v in word:
            part = part * Expr.var(v)
        expr = expr + part
        poly = alg.add(poly, alg.term(coeff, exps, [ids[v.block, v.index] for v in word]))
    return expr, poly


def _as_oracle(alg, spec, ids, expr):
    """An engine Expr as an oracle polynomial, each fiber word re-sorted
    (and signed) by the oracle."""
    out = alg.zero()
    for mono, cpoly in expr.terms.items():
        for (syms, base), coeff in cpoly.terms.items():
            assert not syms
            exps = [0] * spec.d
            for j, power in base:
                exps[j - 1] = power
            out = alg.add(out, alg.term(coeff, exps, [ids[v.block, v.index] for v in mono]))
    return out


@pytest.mark.parametrize("spec", HIGHER_N_SPECS, ids=lambda s: s.fingerprint())
def test_bracket_agrees_with_oracle_at_higher_n(spec):
    """(F,G) for distinct operands and the (F,F) square path of a
    homogeneous F of degree n (as S1 is) or n + 2, against
    ``oracle.antibracket_full`` on 40 seeded random draws each.  At n=7 with
    a self block every (F,F) of degree n is zero, since each word holds the
    one A1; degree n + 2 reaches the self-block terms there."""
    ids, parities, base_pairs, fiber_pairs, self_blocks = _oracle_frame(spec)
    assert sorted(ids) == sorted((v.block, v.index) for v in spec.fiber_vars())
    alg = oracle.GAlg(spec.d, parities)
    p = PStructure(spec)
    rng = random.Random(spec.fingerprint())

    def reference(f, g):
        return oracle.antibracket_full(alg, spec.n, base_pairs, fiber_pairs, self_blocks, f, g)

    nonzero = [0, 0]
    for _ in range(40):
        (f, of), (g, og) = (_random_operand(rng, spec, alg, ids) for _ in range(2))
        got = p.bracket(f, g)
        assert _as_oracle(alg, spec, ids, got) == reference(of, og)
        degree = rng.choice((spec.n, spec.n + 2))
        sq, osq = _random_operand(rng, spec, alg, ids, degree)
        assert sq.is_zero() or sq.homogeneous_degree() == degree
        got_sq = p.bracket(sq, sq)
        assert _as_oracle(alg, spec, ids, got_sq) == reference(osq, osq)
        nonzero[0] += bool(got)
        nonzero[1] += bool(got_sq)
    assert min(nonzero) >= 5, nonzero


# -- substitution commutes with the bracket ----------------------------------------
# (S1,S1)|data, the generic square with the data substituted afterwards, is
# the oracle for (S1|data, S1|data), which verify_structure_data computes.


def _models_with_data():
    texts = {path.stem: path.read_text(encoding="utf-8") for path in sorted(EXAMPLES.glob("*.model"))}
    workloads = load_workloads()
    for stem in ("courant_d3", "u2_poisson_d4"):
        texts[stem] = workloads.GENERATED[stem]()
    models = [(stem, parse_model(text)) for stem, text in texts.items()]
    return [pytest.param(mf, id=stem) for stem, mf in models if mf.data is not None]


def _assert_substitution_commutes(p, s1, square, data):
    want = square.substitute(data)
    s = s1.expr.substitute(data)
    assert p.bracket(s, s) == want
    assert verify_structure_data(p, s1, data) == want


@pytest.mark.parametrize("mf", _models_with_data())
def test_substituted_square_equals_square_of_substituted_action(mf):
    p, s1 = PStructure(mf.spec), build_S1_generic(mf.spec)
    _assert_substitution_commutes(p, s1, expand_master(p, s1), mf.data)


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.model")), ids=lambda path: path.stem)
def test_checks_return_their_residuals(path):
    """On every shipped example, kinetic_master_check returns a zero
    DgaExpr, and verify_structure_data, where there is data, returns the
    Expr (S,S) of S = S1|data, scoped to the spec; check_algebroid returns
    one Expr per row of the check-algebroid report, zero exactly where the
    row reads ok."""
    mf = parse_model(path.read_text(encoding="utf-8"))
    residue = kinetic_master_check(mf.spec)
    assert type(residue) is DgaExpr and residue.is_zero()
    if mf.data is not None:
        p, s1 = PStructure(mf.spec), build_S1_generic(mf.spec)
        s = s1.expr.substitute(mf.data)
        residual = verify_structure_data(p, s1, mf.data)
        assert type(residual) is Expr and residual.scope == mf.spec.fingerprint()
        assert residual == p.bracket(s, s)
        residuals = check_algebroid(p, s1, mf.data)
        assert all(type(r) is Expr for r in residuals.values())
        with redirect_stdout(io.StringIO()) as out:
            code = cli.main(["check-algebroid", "--model", str(path)])
        rows = ["%s: %s" % (law, "FAILED" if r else "ok") for law, r in residuals.items()]
        assert json.loads(out.getvalue())["details"] == rows
        assert code == (1 if any(residuals.values()) else 0)


@functools.lru_cache(maxsize=None)
def _generic(spec):
    p, s1 = PStructure(spec), build_S1_generic(spec)
    return p, s1, expand_master(p, s1), sorted(s1.expr.symbols())


def _poly_strategy(d):
    """A polynomial in phi1..phid of up to three terms, each exponent up to 2."""
    term = st.tuples(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.lists(st.integers(min_value=0, max_value=2), min_size=d, max_size=d),
    )

    def build(terms):
        poly = CPoly.zero()
        for num, den, exps in terms:
            mono = CPoly.scalar(1)
            for j, e in enumerate(exps, 1):
                if e:
                    mono = mono * CPoly.base(j, e)
            poly = poly + mono.scale(Fraction(num, den))
        return poly

    return st.lists(term, max_size=3).map(build)


# Rank 3 reaches every family: f3 and f6 of the two-block model have three
# antisymmetric slots, and so does the cs model's f2.
COMMUTATION_SPECS = [
    pytest.param(ModelSpec(n=2, d=4), id="n2_d4"),
    pytest.param(ModelSpec(n=3, d=3, bf_blocks=(BfBlock(1, 3),)), id="bf_n3_d3_r3"),
    pytest.param(cs_spec(rank=3, d=3), id="cs_n3_d3_r3"),
]


@pytest.mark.parametrize("spec", COMMUTATION_SPECS)
@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.data())
def test_substitution_commutes_with_the_square_on_random_data(spec, draw):
    p, s1, square, symbols = _generic(spec)
    polys = draw.draw(st.lists(_poly_strategy(spec.d), min_size=len(symbols), max_size=len(symbols)))
    data = StructureData(spec)
    for sym, poly in zip(symbols, polys):
        data.assign(sym.name, sym.lower, sym.upper, poly)
    _assert_substitution_commutes(p, s1, square, data)
