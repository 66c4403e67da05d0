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
def tensors(draw, dim=None, level=None, zero_scalar=False):
    dim = dim if dim is not None else draw(st.integers(1, 3))
    level = level if level is not None else draw(st.integers(0, 5))
    blocks = [
        draw(nph.arrays(np.float64, (dim**n,), elements=coeffs_in(-1, 1)))
        for n in range(level + 1)
    ]
    if zero_scalar:
        blocks[0] = np.zeros(1)
    return tn.TruncatedTensor(dim, level, blocks)


def test_add_examples():
    one = tn.unit(1, 1)
    e1 = tn.basis_element((0,), 1, 1)
    total = one + e1
    assert total.coeffs[0][0] == 1.0 and total.coeffs[1][0] == 1.0

    a = tn.TruncatedTensor(1, 1, [1.0, [2.0]])
    b = tn.TruncatedTensor(1, 1, [1.0, [3.0]])
    assert np.array_equal((a + b).flat(), [2.0, 5.0])
    assert np.array_equal((a + tn.zeros(1, 1)).flat(), a.flat())


def test_scale_examples():
    a = tn.TruncatedTensor(1, 1, [1.0, [1.0]])
    assert np.array_equal((0.0 * a).flat(), [0.0, 0.0])
    assert np.array_equal((1.0 * a).flat(), a.flat())
    assert np.array_equal((2.0 * a).flat(), [2.0, 2.0])
    assert np.array_equal((a * 2.0).flat(), [2.0, 2.0])


def test_mul_expands_convolution():
    a = tn.unit(2, 2) + tn.basis_element((0,), 2, 2)
    b = tn.unit(2, 2) + tn.basis_element((1,), 2, 2)
    prod = tn.mul(a, b)
    assert prod.coefficient(()) == 1.0
    assert prod.coefficient((0,)) == 1.0
    assert prod.coefficient((1,)) == 1.0
    assert prod.coefficient((0, 1)) == 1.0
    for word in [(0, 0), (1, 0), (1, 1)]:
        assert prod.coefficient(word) == 0.0


def test_mul_unit_neutral():
    rng = np.random.default_rng(0)
    a = tn.TruncatedTensor(2, 3, [rng.normal(size=2**n) for n in range(4)])
    assert np.allclose(tn.mul(a, tn.unit(2, 3)).flat(), a.flat())
    assert np.allclose(tn.mul(tn.unit(2, 3), a).flat(), a.flat())


def test_mul_exp_inverse_matches_series_oracle():
    g = tn.exp(tn.basis_element((0,), 1, 4))
    h = tn.exp(-1.0 * tn.basis_element((0,), 1, 4))
    prod = tn.mul(g, h)
    oracle = series_product_1d(
        [b[0] for b in g.coeffs], [b[0] for b in h.coeffs]
    )
    assert np.allclose(prod.flat(), oracle, atol=1e-15)
    assert np.allclose(prod.flat(), tn.unit(1, 4).flat(), atol=1e-12)


def test_exp_examples():
    g = tn.exp(tn.basis_element((0,), 1, 3))
    assert np.allclose(g.flat(), [1.0, 1.0, 0.5, 1.0 / 6.0])

    assert np.array_equal(tn.exp(tn.zeros(2, 3)).flat(), tn.unit(2, 3).flat())

    diag = tn.basis_element((0,), 2, 2) + tn.basis_element((1,), 2, 2)
    g2 = tn.exp(diag)
    assert np.allclose(g2.coeffs[2], 0.5)


def test_exp_rejects_nonzero_scalar():
    with pytest.raises(ValueError):
        tn.exp(tn.unit(1, 2))


def test_log_examples():
    assert np.array_equal(tn.log(tn.unit(2, 3)).flat(), tn.zeros(2, 3).flat())

    e1 = tn.basis_element((0,), 1, 4)
    assert np.allclose(tn.log(tn.exp(e1)).flat(), e1.flat(), atol=1e-12)

    g = tn.TruncatedTensor(1, 3, [1.0, 1.0, 0.5, [1.0 / 6.0]])
    assert np.allclose(tn.log(g).flat(), [0.0, 1.0, 0.0, 0.0], atol=1e-15)

    with pytest.raises(ValueError):
        tn.log(tn.zeros(1, 2))


def test_norm_examples():
    assert tn.norm(tn.unit(2, 3)) == 1.0
    a = tn.TruncatedTensor(2, 1, [1.0, [3.0, 4.0]])
    assert tn.norm(a) == 5.0


def test_storage_matches_dimension_formula():
    for dim in range(1, 5):
        for level in range(6):
            t = tn.zeros(dim, level)
            assert sum(b.size for b in t.coeffs) == tn.total_entries(dim, level)


def test_shape_validation_and_mismatches():
    with pytest.raises(ValueError):
        tn.TruncatedTensor(2, 1, [1.0, [1.0]])  # level-1 block too small
    with pytest.raises(ValueError):
        tn.TruncatedTensor(1, 1, [np.nan, [0.0]])
    with pytest.raises(ValueError):
        tn.zeros(2, 2) + tn.zeros(2, 3)
    with pytest.raises(ValueError):
        tn.mul(tn.zeros(2, 2), tn.zeros(3, 2))
    with pytest.raises(ValueError, match="dim must be >= 1"):
        tn.TruncatedTensor(0, 0, [1.0])
    with pytest.raises(ValueError, match="level must be >= 0"):
        tn.TruncatedTensor(1, -1, [])
    with pytest.raises(ValueError, match="expected 2 blocks, got 1"):
        tn.TruncatedTensor(1, 1, [1.0])
    with pytest.raises(ValueError, match="word length 2 exceeds level 1"):
        tn.unit(2, 1).coefficient((0, 1))
    with pytest.raises(ValueError, match="word length 2 exceeds level 1"):
        tn.basis_element((0, 1), 2, 1)


@settings(deadline=None)
@given(st.data())
def test_associativity(data):
    dim = data.draw(st.integers(1, 3))
    level = data.draw(st.integers(0, 5))
    a = data.draw(tensors(dim, level))
    b = data.draw(tensors(dim, level))
    c = data.draw(tensors(dim, level))
    left = tn.mul(tn.mul(a, b), c)
    right = tn.mul(a, tn.mul(b, c))
    bound = 1e-10 * (1.0 + tn.norm(a) * tn.norm(b) * tn.norm(c))
    assert tn.norm(left - right) <= bound


@settings(deadline=None)
@given(st.data())
def test_distributivity(data):
    dim = data.draw(st.integers(1, 3))
    level = data.draw(st.integers(0, 4))
    a = data.draw(tensors(dim, level))
    b = data.draw(tensors(dim, level))
    c = data.draw(tensors(dim, level))
    lhs = tn.mul(a, b + c)
    rhs = tn.mul(a, b) + tn.mul(a, c)
    assert np.allclose(lhs.flat(), rhs.flat(), atol=1e-12)


@settings(deadline=None)
@given(st.data())
def test_exp_log_round_trip(data):
    dim = data.draw(st.integers(1, 3))
    level = data.draw(st.integers(0, 5))
    a = data.draw(tensors(dim, level, zero_scalar=True))
    back = tn.log(tn.exp(a))
    assert np.allclose(back.flat(), a.flat(), atol=1e-10)


@settings(deadline=None)
@given(st.data())
def test_dilation_grading(data):
    dim = data.draw(st.integers(1, 3))
    level = data.draw(st.integers(1, 5))
    vec = data.draw(nph.arrays(np.float64, (dim,), elements=coeffs_in(-1, 1)))
    lam = data.draw(st.floats(-2, 2, allow_nan=False))
    blocks = [np.zeros(dim**n) for n in range(level + 1)]
    blocks[1] = vec
    a = tn.TruncatedTensor(dim, level, blocks)
    g = tn.exp(a)
    g_lam = tn.exp(lam * a)
    for n in range(level + 1):
        assert np.allclose(g_lam.coeffs[n], lam**n * g.coeffs[n], atol=1e-12)
