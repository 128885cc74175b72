"""Dual-route and property-based checks tying the engine to the oracle."""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from corpus import n3_spec

from bvsigma.master import (
    EQUAL,
    N3_BF,
    compare_identity_spans,
    extract_identities,
    transcribe_paper_identities,
)
from bvsigma.models import BfBlock, ModelSpec, build_S1_generic
from bvsigma.pstructure import PStructure
from bvsigma.symalg import CPoly, Expr

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
        assert idents.equations
        tags = [tag for tag, _ in idents.equations]
        assert len(tags) == len(set(tags))


def test_span_comparison_detects_a_corrupted_transcription():
    spec = n3_spec()
    p = PStructure(spec)
    extracted = extract_identities(p, build_S1_generic(spec))
    transcribed = transcribe_paper_identities(N3_BF, spec)
    assert compare_identity_spans(extracted, transcribed).relation == EQUAL
    # corrupt one equation with a stray symbol term
    stray = next(iter(transcribed.equations[3][1].symbols()))
    corrupted = list(transcribed.equations)
    tag, poly = corrupted[3]
    corrupted[3] = (tag, poly + CPoly.symbol(stray, Fraction(7)))
    bad = type(transcribed)(transcribed.spec, transcribed.provenance, corrupted)
    assert compare_identity_spans(extracted, bad).relation != EQUAL
