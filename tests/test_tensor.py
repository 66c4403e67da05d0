import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as nph

import sigpath.tensor as tn
from helpers_oracle import series_product_1d


def coeffs_in(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def rows(draw, dim, level, zero_scalar=False):
    row = draw(
        nph.arrays(np.float64, (tn.total_entries(dim, level),), elements=coeffs_in(-1, 1))
    )
    if zero_scalar:
        row[0] = 0.0
    return row


def test_add_examples():
    one = tn.unit(1, 1)
    e1 = tn.basis_element((0,), 1, 1)
    total = one + e1
    assert total[0] == 1.0 and total[1] == 1.0

    a = np.array([1.0, 2.0])
    b = np.array([1.0, 3.0])
    assert np.array_equal(a + b, [2.0, 5.0])
    assert np.array_equal(a + np.zeros(2), a)


def test_scale_examples():
    a = np.array([1.0, 1.0])
    assert np.array_equal(0.0 * a, [0.0, 0.0])
    assert np.array_equal(1.0 * a, a)
    assert np.array_equal(2.0 * a, [2.0, 2.0])
    assert np.array_equal(a * 2.0, [2.0, 2.0])


def test_mul_expands_convolution():
    a = tn.unit(2, 2) + tn.basis_element((0,), 2, 2)
    b = tn.unit(2, 2) + tn.basis_element((1,), 2, 2)
    prod = tn.mul(a, b, 2)
    assert prod[tn.word_index((), 2)] == 1.0
    assert prod[tn.word_index((0,), 2)] == 1.0
    assert prod[tn.word_index((1,), 2)] == 1.0
    assert prod[tn.word_index((0, 1), 2)] == 1.0
    for word in [(0, 0), (1, 0), (1, 1)]:
        assert prod[tn.word_index(word, 2)] == 0.0


def test_mul_unit_neutral():
    rng = np.random.default_rng(0)
    a = np.concatenate([rng.normal(size=2**n) for n in range(4)])
    assert np.allclose(tn.mul(a, tn.unit(2, 3), 2), a)
    assert np.allclose(tn.mul(tn.unit(2, 3), a, 2), a)


def test_mul_exp_inverse_matches_series_oracle():
    # over R^1 the level blocks are single entries, so a row is a series
    g = tn.exp(tn.basis_element((0,), 1, 4), 1)
    h = tn.exp(-1.0 * tn.basis_element((0,), 1, 4), 1)
    prod = tn.mul(g, h, 1)
    oracle = series_product_1d(list(g), list(h))
    assert np.allclose(prod, oracle, atol=1e-15)
    assert np.allclose(prod, tn.unit(1, 4), atol=1e-12)


def test_exp_examples():
    g = tn.exp(tn.basis_element((0,), 1, 3), 1)
    assert np.allclose(g, [1.0, 1.0, 0.5, 1.0 / 6.0])

    assert np.array_equal(tn.exp(np.zeros(15), 2), tn.unit(2, 3))

    diag = tn.basis_element((0,), 2, 2) + tn.basis_element((1,), 2, 2)
    g2 = tn.exp(diag, 2)
    assert np.allclose(tn.level_blocks(g2, 2)[2], 0.5)


def test_exp_rejects_nonzero_scalar():
    with pytest.raises(ValueError):
        tn.exp(tn.unit(1, 2), 1)


def test_log_examples():
    assert np.array_equal(tn.log(tn.unit(2, 3), 2), np.zeros(15))

    e1 = tn.basis_element((0,), 1, 4)
    assert np.allclose(tn.log(tn.exp(e1, 1), 1), e1, atol=1e-12)

    g = np.array([1.0, 1.0, 0.5, 1.0 / 6.0])
    assert np.allclose(tn.log(g, 1), [0.0, 1.0, 0.0, 0.0], atol=1e-15)

    with pytest.raises(ValueError):
        tn.log(np.zeros(3), 1)


def test_norm_examples():
    assert tn.norm(tn.unit(2, 3), 2) == 1.0
    assert tn.norm([1.0, 3.0, 4.0], 2) == 5.0


def test_storage_matches_dimension_formula():
    for dim in range(1, 5):
        for level in range(6):
            row = tn.unit(dim, level)
            assert row.shape == (tn.total_entries(dim, level),)
            assert tn.row_level(row, dim) == level
            blocks = tn.level_blocks(row, dim)
            assert [b.size for b in blocks] == [dim**n for n in range(level + 1)]


def test_shape_validation_and_mismatches():
    # a row's level is read from its size, which must be total_entries(dim, n)
    with pytest.raises(ValueError, match=r"shape \(2,\) is no truncated tensor over R\^2"):
        tn.row_level([1.0, 1.0], 2)  # level-1 block too small
    with pytest.raises(ValueError, match="no truncated tensor"):
        tn.row_level(np.zeros(0), 1)  # no level 0
    with pytest.raises(ValueError, match="no truncated tensor"):
        tn.row_level(np.zeros((1, 3)), 2)  # not one row
    with pytest.raises(ValueError):
        tn.unit(2, 2) + tn.unit(2, 3)
    with pytest.raises(ValueError, match=r"no truncated tensor over R\^2"):
        tn.mul(np.zeros(7), np.zeros(13), 2)  # a row over R^3
    with pytest.raises(ValueError, match="rows of levels 1 and 2 do not multiply"):
        tn.mul(np.zeros(3), np.zeros(7), 2)
    with pytest.raises(ValueError, match="dim must be >= 1"):
        tn.row_level([1.0], 0)
    with pytest.raises(ValueError, match=r"\|I\|\+\|J\| = 2 exceeds tensor level 1"):
        tn.apply_shuffle_check(tn.unit(2, 1), 2, (0, 1), ())
    with pytest.raises(ValueError, match="word length 2 exceeds level 1"):
        tn.basis_element((0, 1), 2, 1)


@settings(deadline=None)
@given(st.data())
def test_associativity(data):
    dim = data.draw(st.integers(1, 3))
    level = data.draw(st.integers(0, 5))
    a = data.draw(rows(dim, level))
    b = data.draw(rows(dim, level))
    c = data.draw(rows(dim, level))
    left = tn.mul(tn.mul(a, b, dim), c, dim)
    right = tn.mul(a, tn.mul(b, c, dim), dim)
    bound = 1e-10 * (1.0 + tn.norm(a, dim) * tn.norm(b, dim) * tn.norm(c, dim))
    assert tn.norm(left - right, dim) <= bound


@settings(deadline=None)
@given(st.data())
def test_distributivity(data):
    dim = data.draw(st.integers(1, 3))
    level = data.draw(st.integers(0, 4))
    a = data.draw(rows(dim, level))
    b = data.draw(rows(dim, level))
    c = data.draw(rows(dim, level))
    lhs = tn.mul(a, b + c, dim)
    rhs = tn.mul(a, b, dim) + tn.mul(a, c, dim)
    assert np.allclose(lhs, rhs, atol=1e-12)


@settings(deadline=None)
@given(st.data())
def test_exp_log_round_trip(data):
    dim = data.draw(st.integers(1, 3))
    level = data.draw(st.integers(0, 5))
    a = data.draw(rows(dim, level, zero_scalar=True))
    back = tn.log(tn.exp(a, dim), dim)
    assert np.allclose(back, a, atol=1e-10)


@settings(deadline=None)
@given(st.data())
def test_dilation_grading(data):
    dim = data.draw(st.integers(1, 3))
    level = data.draw(st.integers(1, 5))
    vec = data.draw(nph.arrays(np.float64, (dim,), elements=coeffs_in(-1, 1)))
    lam = data.draw(st.floats(-2, 2, allow_nan=False))
    a = np.zeros(tn.total_entries(dim, level))
    a[1 : dim + 1] = vec
    g = tn.level_blocks(tn.exp(a, dim), dim)
    g_lam = tn.level_blocks(tn.exp(lam * a, dim), dim)
    for n in range(level + 1):
        assert np.allclose(g_lam[n], lam**n * g[n], atol=1e-12)
