from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bvsigma.rowreduce import RowSpan, _eliminate, span_includes

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
