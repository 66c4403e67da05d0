import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sigpath.tensor as tn
from sigpath.paths import PiecewiseLinearPath
from sigpath.signature import signature
from helpers_oracle import enumerate_interleavings, iterated_integral_riemann

words_st = st.lists(st.integers(0, 2), max_size=4).map(tuple)


def test_word_index_examples():
    # 1 + 3 shorter words, then (1, 2) is the sixth of the nine of length 2
    assert tn.word_index((), 3) == 0
    assert tn.word_index((1,), 3) == 2
    assert tn.word_index((1, 2), 3) == 4 + 5
    assert tn.word_index((0, 0, 0), 1) == 3
    with pytest.raises(ValueError):
        tn.word_index((3,), 3)


@given(words_st)
def test_word_index_round_trip(word):
    # the index's bijective base-3 digits (1, 2, 3) spell the word back
    index, digits = tn.word_index(word, 3), []
    while index:
        index, digit = divmod(index - 1, 3)
        digits.append(digit)
    assert tuple(reversed(digits)) == word
    assert tn.word_index(word, 3) < tn.total_entries(3, len(word))


def test_all_words_order_matches_blocks():
    words = tn.all_words(2, 2)
    assert words == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    for k, word in enumerate(words):
        assert tn.word_index(word, 2) == k
    with pytest.raises(ValueError, match="level must be >= 0"):
        tn.all_words(2, -1)


def test_shuffle_examples():
    assert tn.shuffle((1,), (2,)) == {(1, 2): 1, (2, 1): 1}
    assert tn.shuffle((1,), (1,)) == {(1, 1): 2}
    assert tn.shuffle((1, 2), (3,)) == {(1, 2, 3): 1, (1, 3, 2): 1, (3, 1, 2): 1}
    assert tn.shuffle((), (1, 2)) == {(1, 2): 1}


def test_shuffle_multiplicities_exhaustive():
    # all word pairs over a 3-letter alphabet with lengths up to 4
    words = tn.all_words(3, 4)
    for i in words:
        for j in words:
            total = sum(tn.shuffle(i, j).values())
            assert total == math.comb(len(i) + len(j), len(i))


@given(words_st, words_st)
def test_shuffle_symmetry(i, j):
    assert tn.shuffle(i, j) == tn.shuffle(j, i)


@given(
    st.lists(st.integers(0, 2), max_size=3).map(tuple),
    st.lists(st.integers(0, 2), max_size=3).map(tuple),
)
def test_shuffle_matches_interleaving_enumeration(i, j):
    expected = enumerate_interleavings(i, j)
    if not i and not j:
        expected = {(): 1}
    assert tn.shuffle(i, j) == expected


def test_apply_shuffle_check_on_unit():
    one = tn.unit(2, 3)
    lhs, rhs = tn.apply_shuffle_check(one, 2, (0,), (1,))
    assert lhs == 0.0 and rhs == 0.0


def test_apply_shuffle_check_on_exponential():
    g = tn.exp(tn.basis_element((0,), 1, 2), 1)
    lhs, rhs = tn.apply_shuffle_check(g, 1, (0,), (0,))
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)


def test_apply_shuffle_check_on_axis_path():
    # unit step along each axis; coordinates cross-checked by Riemann sums
    path = PiecewiseLinearPath([0, 1, 2], [[0, 0], [1, 0], [1, 1]])
    g = signature(path, 2)
    for word in [(0,), (1,), (0, 1), (1, 0)]:
        oracle = iterated_integral_riemann(path, word)
        assert g[tn.word_index(word, 2)] == pytest.approx(oracle, abs=1e-3)
    lhs, rhs = tn.apply_shuffle_check(g, 2, (0,), (1,))
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)


def test_apply_shuffle_check_rejects_long_words():
    g = tn.unit(2, 2)
    with pytest.raises(ValueError):
        tn.apply_shuffle_check(g, 2, (0, 1), (1,))
