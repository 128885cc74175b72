import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import merge_monomials, perm_sign

from bvsigma.grading import GradedVar, permutation_sign, sort_monomial
from bvsigma.models import BfBlock, ModelSpec

# Blocks A1 (odd), A2, B2 (even), B3 (odd), B4 (even) and phi, in that order.
SPEC = ModelSpec(n=5, d=2, bf_blocks=(BfBlock(1, 4), BfBlock(2, 1)))


def V(block, index=1):
    return SPEC.vars_of(block)[index - 1]


x = V("B3", 1)
y = V("B3", 2)
z = V("B3", 3)
even = V("B4", 1)


def koszul_sign(before, after):
    """Sign picked up reordering ``before`` into ``after``.

    The reference for the sort and merge tests: it counts inversions among
    the odd variables of an explicit position mapping, independently of
    ``sort_monomial`` and the oracle's ``merge_monomials``.

    Each transposition of two adjacent odd variables contributes -1; moves
    past even variables are free.  Raises ValueError unless ``after`` is a
    permutation of ``before``.  With repeated odd variables the sign is
    matching-dependent, but any monomial containing a repeated odd variable
    is zero, so the stable first-to-first matching used here is harmless.
    """
    if len(before) != len(after):
        raise ValueError("sequences are not permutations of each other")
    if sorted(before) != sorted(after):
        raise ValueError("sequences are not permutations of each other")
    # Map positions in `after` back to positions in `before`, stably.
    pool = {}
    for pos, v in enumerate(before):
        pool.setdefault(v, []).append(pos)
    taken = {v: 0 for v in pool}
    mapped = []
    for v in after:
        mapped.append(pool[v][taken[v]])
        taken[v] += 1
    # Count inversions among odd variables only.
    odd_positions = [mapped[i] for i, v in enumerate(after) if v.parity]
    inversions = 0
    for i in range(len(odd_positions)):
        for j in range(i + 1, len(odd_positions)):
            if odd_positions[i] > odd_positions[j]:
                inversions += 1
    return -1 if inversions & 1 else 1


def test_parity_values():
    assert [V(b).parity for b in ("phi", "A1", "A2", "B2", "B3", "B4")] == [0, 1, 0, 0, 1, 0]


def test_single_odd_swap():
    assert koszul_sign([x, y], [y, x]) == -1


def test_even_commutes():
    assert koszul_sign([x, even], [even, x]) == 1


def test_reversal_of_three_odds():
    # three pairwise transpositions of odd variables
    assert koszul_sign([x, y, z], [z, y, x]) == -1


def test_identity_permutation():
    assert koszul_sign([x, y, even, z], [x, y, even, z]) == 1


def test_not_a_permutation():
    with pytest.raises(ValueError):
        koszul_sign([x, y], [x, x])
    with pytest.raises(ValueError):
        koszul_sign([x], [x, y])


@st.composite
def _sequences(draw):
    pool = [x, y, z, even, V("B4", 2), V("A1", 1)]
    seq = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=6, unique=True))
    perm1 = draw(st.permutations(seq))
    perm2 = draw(st.permutations(seq))
    return seq, perm1, perm2


@settings(max_examples=150, derandomize=True)
@given(_sequences())
def test_multiplicative_under_composition(case):
    seq, mid, end = case
    assert koszul_sign(seq, mid) * koszul_sign(mid, end) == koszul_sign(seq, end)


def test_permutation_sign_matches_cycle_count():
    """Every permutation of length <= 6: its inversion parity equals the
    oracle's cycle-length sign, of it and of its inverse (the argsort that
    sorts it, which ``make_symbol`` signed before)."""
    for size in range(7):
        for perm in itertools.permutations(range(size)):
            inverse = sorted(range(size), key=perm.__getitem__)
            assert permutation_sign(perm) == perm_sign(perm) == perm_sign(inverse), perm


def test_sort_monomial_absorbs_sign():
    sign, mono = sort_monomial((y, x))
    assert sign == -1 and mono == (x, y)
    sign, mono = sort_monomial((even, x))
    assert sign == 1 and mono == (x, even)


def test_sort_monomial_kills_odd_squares():
    sign, mono = sort_monomial((x, y, x))
    assert sign == 0 and mono == ()


def test_sort_monomial_keeps_even_powers():
    sign, mono = sort_monomial((even, even))
    assert sign == 1 and mono == (even, even)


@st.composite
def _products(draw):
    """Variable sequences with repeated odd and even variables; half of them
    are two ascending runs, the shape of a product of two monomials."""
    pool = [x, y, z, even, V("B4", 2), V("A1", 1), V("A2")]
    seq = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=8))
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(seq)))
        seq = sorted(seq[:cut]) + sorted(seq[cut:])
    return seq


@settings(max_examples=400, derandomize=True)
@given(_products())
def test_sort_monomial_matches_koszul_sign_and_sorted(seq):
    ordered = sorted(seq)
    if any(a == b and a.parity for a, b in zip(ordered, ordered[1:])):
        expected = (0, ())
    else:
        expected = (koszul_sign(seq, ordered), tuple(ordered))
    assert sort_monomial(seq) == expected


def test_canonical_order_is_block_degree_index():
    vars_ = [V("phi", 2), V("A1", 2), V("A1", 1), V("B3", 1)]
    assert sorted(vars_) == [V("A1", 1), V("A1", 2), V("B3", 1), V("phi", 2)]


def test_graded_var_value_semantics():
    """A variable is the int 2 * (canonical position) + parity of its spec."""
    v = V("A1", 2)
    assert v == 3 and type(v) is GradedVar and isinstance(v, int)
    assert repr(v) == "GradedVar(A1_2=3)"
    assert str(v) == "A1_2" and "%s" % v == "A1_2" and "{}".format(v) == "A1_2"
    assert hash(v) == hash(3)  # an int's hash: equal codes hash equal
    assert (v.block, v.degree, v.index, v.parity, v.scope) == ("A1", 1, 2, 1, SPEC.fingerprint())
    assert V("B2").parity == 0
    assert v == SPEC.vars_of("A1")[1] and v != V("A1", 3)
    for w in (copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(w) is GradedVar and (w, str(w), w.degree, w.scope) == (v, str(v), v.degree, v.scope)
    assert V("A1", 4) < V("A2") < V("B2") < V("B3", 1) < V("B4", 1)


@st.composite
def _canonical_pair(draw):
    """Two canonical monomials: ascending, odd variables at most once.  Half
    the time the left one holds three or four odd items and the right one
    sits wholly below them, so that each of its odd items overtakes three or
    more."""
    pool = [x, y, z, even, V("B4", 2), V("A1", 1), V("A2"), V("phi")]

    def mono(items, min_size=0):
        seq = sorted(draw(st.lists(st.sampled_from(items), min_size=min_size, max_size=5)))
        return tuple(v for i, v in enumerate(seq) if not (v.parity and i and seq[i - 1] == v))

    if draw(st.booleans()):
        odds = draw(st.lists(st.sampled_from([x, y, z, V("B3", 4)]), min_size=3, max_size=4, unique=True))
        left = tuple(sorted(odds + draw(st.lists(st.sampled_from([even, V("phi")]), max_size=2))))
        return left, mono([V("A1", 1), V("A1", 2), V("A2")], min_size=1)
    return mono(pool), mono(pool)


@pytest.mark.parametrize(
    "left,right,sign",
    [
        ((y,), (x,), -1),
        ((x, y), (V("A1", 1),), 1),
        ((x, y, z), (V("A1", 1),), -1),  # one odd item overtakes three
        ((x, even), (V("A1", 1), y), -1),
        ((x,), (x,), 0),
    ],
    ids=["one-odd", "two-odds", "three-odds", "interleaved", "odd-repeat"],
)
def test_merge_monomials_table(left, right, sign):
    assert merge_monomials(left, right) == (sign, tuple(sorted(left + right)) if sign else ())


@settings(max_examples=400, derandomize=True)
@given(_canonical_pair())
def test_merge_monomials_matches_koszul_sign_and_sorted(pair):
    a, b = pair
    ordered = sorted(a + b)
    if any(u == v and u.parity for u, v in zip(ordered, ordered[1:])):
        expected = (0, ())
    else:
        expected = (koszul_sign(a + b, ordered), tuple(ordered))
    assert merge_monomials(a, b) == expected
