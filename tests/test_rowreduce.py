from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvsigma.rowreduce import RowSpan, _eliminate, span_includes
from bvsigma.symalg import exact

NCOLS = 6

_values = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
_rows = st.dictionaries(st.integers(0, NCOLS - 1), _values, max_size=4)


def _dense_rank(rows):
    """Rank by plain Gaussian elimination on dense Fraction rows."""
    mat = [[Fraction(r.get(c, 0)) for c in range(NCOLS)] for r in rows]
    rank = 0
    for col in range(NCOLS):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _span(rows):
    span = RowSpan()
    for r in rows:
        span.add(r)
    return span


@settings(max_examples=300, derandomize=True)
@given(st.lists(_rows, max_size=8))
def test_basis_stays_fully_reduced_and_rank_matches_dense(rows):
    span = _span(rows)
    for pivot, row in span.basis.items():
        assert row[pivot] == 1 and pivot == min(row)
        assert not (set(span.basis) - {pivot}) & set(row)
        assert all(row.values())
    assert span.rank == _dense_rank(rows)
    assert all(span.contains(r) for r in rows)


@settings(max_examples=300, derandomize=True)
@given(st.lists(_rows, max_size=8), _rows)
def test_eliminate_clears_every_pivot_within_the_coset(rows, extra):
    span = _span(rows)
    red = _eliminate(extra, span.basis)
    assert not set(red) & set(span.basis)
    assert all(red.values())
    diff = {c: extra.get(c, 0) - red.get(c, 0) for c in set(extra) | set(red)}
    assert span.contains({c: v for c, v in diff.items() if v})
    assert span.contains(extra) == (not red)
    assert (span_includes(rows, [extra]) is None) == (_dense_rank(rows + [extra]) == _dense_rank(rows))


def _canonical(v):
    return type(v) is int or v.denominator != 1


@settings(max_examples=300, derandomize=True)
@given(st.lists(_rows, max_size=8), _rows)
def test_basis_and_residuals_hold_canonical_scalars(rows, extra):
    span = _span(rows)
    assert all(_canonical(v) for row in span.basis.values() for v in row.values())
    for row in rows + [extra]:
        assert all(_canonical(v) for v in _eliminate(row, span.basis).values())


def _first_outside(rows, candidates):
    """span_includes with every row and every candidate eliminated."""
    span = _span(rows)
    return next((i for i, c in enumerate(candidates) if not span.contains(c)), None)


_A, _B = {0: 1, 3: 2}, {1: -1, 2: Fraction(1, 2)}
_SPAN_CASES = {
    "rational_multiples": ([_A, _B], [{0: Fraction(1, 3), 3: Fraction(2, 3)}, {1: 2, 2: -1}, {0: -2, 3: -4}], None),
    "plus_minus_and_scaled_duplicates": ([_A, {0: -1, 3: -2}, {0: 3, 3: 6}, _B], [_B, {0: 1}, {1: 2, 2: -1}], 1),
    "zero_rows_and_candidates": ([{}, _A, {}], [{}, {0: 2, 3: 4}, {}], None),
    "zero_rows_span_nothing": ([{}], [{}, _A], 1),
    "same_support_other_direction": ([{0: 1, 1: 1}, _A], [{0: 2, 1: 2}, {0: 1, 1: -1}], 1),
    "sum_of_two_rows": ([{0: 1}, {1: 1}], [{0: 1, 1: 1}, {0: 1, 1: -1}], None),
    "span_of_sums": ([{0: 1, 1: 1}, {0: 1, 1: -1}], [{0: 1}, {1: 1}], None),
    "a_in_b": ([_A], [{0: 2, 3: 4}, _B], 1),
    "b_in_a": ([_A, _B], [{0: 2, 3: 4}], None),
    "incomparable_first_witness": ([_A, {5: 1}], [_B, {0: 3, 3: 6}, {4: 1}], 0),
    "incomparable_later_witness": ([_B, {5: 1}], [{5: -2}, {0: 3, 3: 6}, _A], 1),
}


@pytest.mark.parametrize("case", sorted(_SPAN_CASES))
def test_span_includes_matches_full_elimination(case):
    rows, candidates, expected = _SPAN_CASES[case]
    assert _first_outside(rows, candidates) == expected
    assert span_includes(rows, candidates) == expected


@settings(max_examples=300, derandomize=True)
@given(st.lists(_rows, max_size=6), st.lists(st.tuples(st.integers(0, 9), _values, _rows), max_size=6))
def test_span_includes_matches_full_elimination_on_scaled_copies(rows, picks):
    """Candidates are scaled copies of rows (when the pick names one) or
    random rows, so both the matched and the eliminated routes are taken."""
    candidates = [
        {col: exact(v * scale) for col, v in rows[k].items()} if k < len(rows) else other
        for k, scale, other in picks
    ]
    assert span_includes(rows, candidates) == _first_outside(rows, candidates)
    assert span_includes(rows + candidates, rows) is None
