import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigpath.tensor as tn
import sigpath.words as wd
from sigpath.paths import PiecewiseLinearPath, insert_breakpoint, time_extend
from sigpath.signature import (
    LinearFunctional,
    levy_area_functional,
    reverse_check,
    segment_signature,
    signature,
    signature_stream,
    stream_table,
    word_streams,
)
from sigpath.experiments import LEVY_TARGETS, _levy_functional
from helpers_oracle import (
    chen_stream_oracle,
    iterated_integral_riemann,
    random_pl_path,
)

# the package re-exports the function `signature`, which shadows the module
sg = importlib.import_module("sigpath.signature")


def scaled(path, lam):
    return PiecewiseLinearPath(path.times, lam * path.values)


def test_segment_signature_examples():
    g = segment_signature([1.0], 3)
    assert np.allclose(g.flat(), [1, 1, 0.5, 1 / 6])

    assert np.array_equal(segment_signature([0.0, 0.0], 2).flat(), tn.unit(2, 2).flat())

    diag = segment_signature([1.0, 1.0], 2)
    assert np.allclose(diag.coeffs[2], 0.5)


def test_signature_of_line_is_partition_free():
    line = PiecewiseLinearPath([0, 1], [[0.0, 0.0], [2.0, -1.0]])
    refined = insert_breakpoint(insert_breakpoint(line, 0.3), 0.77)
    expected = segment_signature([2.0, -1.0], 4)
    assert np.allclose(signature(line, 4).flat(), expected.flat(), atol=1e-15)
    assert np.allclose(signature(refined, 4).flat(), expected.flat(), atol=1e-13)


def test_signature_axis_path_frozen_values():
    path = PiecewiseLinearPath([0, 1, 2], [[0, 0], [1, 0], [1, 1]])
    g = signature(path, 2)
    expected = {
        (0,): 1.0,
        (1,): 1.0,
        (0, 0): 0.5,
        (1, 1): 0.5,
        (0, 1): 1.0,
        (1, 0): 0.0,
    }
    for word, value in expected.items():
        assert g.coefficient(word) == pytest.approx(value, abs=1e-14)
    # same numbers from the Chen product of the two segment exponentials
    chen = tn.mul(segment_signature([1, 0], 2), segment_signature([0, 1], 2))
    assert np.allclose(g.flat(), chen.flat(), atol=1e-15)


def test_signature_matches_riemann_oracle():
    rng = np.random.default_rng(2)
    for _ in range(3):
        path = random_pl_path(rng, 3, 2)
        g = signature(path, 3)
        for word in wd.all_words(2, 3):
            if word:
                oracle = iterated_integral_riemann(path, word)
                assert g.coefficient(word) == pytest.approx(oracle, abs=1e-3)


def test_time_coordinate_identity():
    rng = np.random.default_rng(3)
    hat = time_extend(random_pl_path(rng, 6, 1))
    stream = signature_stream(hat, 5)
    for tensor, t in zip(stream, stream.times):
        for k in range(6):
            assert tensor.coefficient((0,) * k) == pytest.approx(
                t**k / math.factorial(k), abs=1e-12
            )


def test_stream_consistency():
    rng = np.random.default_rng(4)
    path = random_pl_path(rng, 7, 2)
    stream = signature_stream(path, 3)
    assert len(stream) == path.n_segments + 1
    assert np.array_equal(stream[0].flat(), tn.unit(2, 3).flat())
    assert np.allclose(
        stream[-1].flat(), signature(path, 3).flat(), atol=1e-15
    )
    # Chen step: next tensor is the running tensor times the segment exponential
    for k in range(path.n_segments):
        step = segment_signature(path.values[k + 1] - path.values[k], 3)
        chained = tn.mul(stream[k], step)
        assert np.allclose(chained.flat(), stream[k + 1].flat(), atol=1e-12)


def test_signature_is_last_stream_table_row():
    rng = np.random.default_rng(8)
    for dim, level in [(1, 0), (1, 5), (2, 4), (3, 3)]:
        for n_seg in (1, 9):
            path = random_pl_path(rng, n_seg, dim)
            row = chen_stream_oracle(path.values, level)[-1]
            assert np.array_equal(signature(path, level).flat(), row)
    with pytest.raises(ValueError, match="level"):
        signature(path, -1)


def test_stream_of_line_midpoint():
    line = PiecewiseLinearPath([0, 0.5, 1], [[0.0], [1.0], [2.0]])
    stream = signature_stream(line, 3)
    assert np.allclose(
        stream[1].flat(), segment_signature([1.0], 3).flat(), atol=1e-15
    )


def test_chen_identity_over_all_splits():
    rng = np.random.default_rng(5)
    for dim, level in [(1, 5), (2, 4), (3, 3)]:
        path = random_pl_path(rng, 10, dim)
        whole = signature(path, level)
        for k in range(1, path.n_segments):
            t_split = path.times[k]
            prefix = PiecewiseLinearPath(path.times[: k + 1], path.values[: k + 1])
            suffix = PiecewiseLinearPath(
                path.times[k:] - t_split, path.values[k:]
            )
            product = tn.mul(signature(prefix, level), signature(suffix, level))
            for n in range(level + 1):
                scale = 1.0 + np.abs(whole.coeffs[n]).max()
                assert np.allclose(
                    product.coeffs[n], whole.coeffs[n], atol=1e-12 * scale
                )


def test_signatures_are_group_like():
    rng = np.random.default_rng(6)
    for dim, level in [(2, 4), (3, 4)]:
        g = signature(random_pl_path(rng, 8, dim), level)
        words = [w for w in wd.all_words(dim, level - 1) if w]
        for i in words:
            for j in words:
                if len(i) + len(j) <= level:
                    lhs, rhs = wd.apply_shuffle_check(g, i, j)
                    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_reparametrization_invariance():
    rng = np.random.default_rng(7)
    path = random_pl_path(rng, 6, 2)
    refined = insert_breakpoint(path, 0.41 * path.T)
    a, b = signature(path, 4), signature(refined, 4)
    assert np.allclose(a.flat(), b.flat(), atol=1e-13 * (1 + np.abs(a.flat()).max()))


def test_scaling_grading():
    rng = np.random.default_rng(8)
    path = random_pl_path(rng, 6, 2)
    lam = 1.37
    g = signature(path, 4)
    g_lam = signature(scaled(path, lam), 4)
    for n in range(5):
        assert np.allclose(
            g_lam.coeffs[n], lam**n * g.coeffs[n], atol=1e-12 * (1 + lam**n)
        )


def test_reverse_check_examples():
    line = PiecewiseLinearPath([0, 1], [[0.0, 0.0], [1.0, 2.0]])
    assert reverse_check(line, 4) <= 1e-12

    rng = np.random.default_rng(9)
    assert reverse_check(random_pl_path(rng, 5, 2), 4) <= 1e-10

    const = PiecewiseLinearPath([0, 1], [[1.0], [1.0]])
    assert reverse_check(const, 3) == 0.0


def test_apply_examples():
    rng = np.random.default_rng(10)
    g = signature(random_pl_path(rng, 4, 2), 3)
    two = LinearFunctional(2, 0, {(): 2.0})
    assert two.apply(g) == pytest.approx(2.0)

    line = PiecewiseLinearPath([0, 1], [[0.0, 0.0], [0.5, -2.0]])
    pick = LinearFunctional(2, 1, {(0,): 1.0})
    assert pick.apply(signature(line, 2)) == pytest.approx(0.5)

    ramp = time_extend(PiecewiseLinearPath([0, 1], [[0.0], [1.0]]))
    running_integral = LinearFunctional(2, 2, {(1, 0): 1.0})
    assert running_integral.apply(signature(ramp, 2)) == pytest.approx(0.5)


def test_apply_rejects_mismatches():
    g = signature(PiecewiseLinearPath([0, 1], [[0.0], [1.0]]), 2)
    with pytest.raises(ValueError):
        LinearFunctional(2, 1, {(1,): 1.0}).apply(g)
    with pytest.raises(ValueError):
        LinearFunctional(1, 3, {(0, 0, 0): 1.0}).apply(g)


def test_functional_dict_round_trip():
    f = LinearFunctional(3, 2, {(): 1.5, (0, 1): -0.25, (2,): 3.0})
    payload = f.to_dict()
    assert payload["coeffs"] == {"": 1.5, "0,1": -0.25, "2": 3.0}
    back = LinearFunctional.from_dict(payload)
    assert back.coeffs == f.coeffs


def test_levy_area_of_axis_path():
    path = time_extend(PiecewiseLinearPath([0, 1, 2], [[0, 0], [1, 0], [1, 1]]))
    area = levy_area_functional().apply(signature(path, 2))
    assert area == pytest.approx(0.5, abs=1e-14)


@st.composite
def word_stream_cases(draw):
    dim = draw(st.integers(1, 3))
    level = draw(st.integers(1, 4))
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    n_pts = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=batch + (n_pts, dim)).cumsum(axis=-2)
    eval_idx = sorted(draw(st.sets(st.integers(0, n_pts - 1))))
    words = wd.all_words(dim, level)
    picks = draw(st.lists(st.integers(0, len(words) - 1), max_size=6))
    return values, level, eval_idx, [words[i] for i in picks]


@settings(deadline=None, max_examples=150)
@given(word_stream_cases())
def test_word_streams_equal_dense_columns(case):
    # arbitrary (not prefix-closed, possibly repeated) word sets
    values, level, eval_idx, words = case
    dense = chen_stream_oracle(values, level, eval_idx=eval_idx)
    columns = [wd.all_words(values.shape[-1], level).index(w) for w in words]
    sparse = word_streams(values, words, eval_idx=eval_idx)
    assert sparse.shape == dense[..., columns].shape
    assert np.array_equal(sparse, dense[..., columns])


@pytest.mark.parametrize("target", LEVY_TARGETS)
def test_apply_stream_matches_dense_levy_targets(target):
    # more paths than one word_streams block, on a strided eval grid
    functional = _levy_functional(target)
    rng = np.random.default_rng(11)
    values = rng.normal(size=(70, 129, 3)).cumsum(axis=1)
    eval_idx = np.arange(0, 129, 4)
    got = functional.apply_stream(values, eval_idx=eval_idx)
    dense = chen_stream_oracle(values, functional.level, eval_idx=eval_idx)
    assert np.array_equal(got, dense @ functional.coefficient_vector())
    assert got.flags.c_contiguous
    with pytest.raises(ValueError):
        functional.apply_stream(values[..., :2])


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def stream_table_cases(draw):
    dim = draw(st.integers(1, 3))
    level = draw(st.integers(0, 4))
    batch = draw(
        st.one_of(
            st.just(()),
            st.tuples(st.integers(1, 40)),
            st.tuples(st.integers(1, 3), st.integers(1, 3)),
        )
    )
    n_pts = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=batch + (n_pts, dim)).cumsum(axis=-2)
    eval_idx = draw(
        st.one_of(st.none(), st.sets(st.integers(0, n_pts - 1)).map(sorted))
    )
    return values, level, eval_idx


@settings(deadline=None, max_examples=150)
@given(stream_table_cases())
def test_stream_table_equals_chen_oracle_bitwise(case):
    values, level, eval_idx = case
    got = stream_table(values, level, eval_idx=eval_idx)
    want = chen_stream_oracle(values, level, eval_idx=eval_idx)
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def test_stream_table_independent_of_blocking(monkeypatch):
    # segment counts on both sides of each chunk size and one that carries
    # into a third chunk, 33 paths on both sides of each block size; all rows
    # kept, so every chunk edge is compared
    default_chunk, default_block = sg._SEGMENT_CHUNK, sg._WORD_BLOCK
    rng = np.random.default_rng(12)
    for chunk in (1, 7, default_chunk):
        for n_seg in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            values = rng.normal(size=(default_block + 1, n_seg + 1, 2)).cumsum(axis=1)
            want = bits(chen_stream_oracle(values, 3))
            for block in (1, 7, default_block):
                monkeypatch.setattr(sg, "_SEGMENT_CHUNK", chunk)
                monkeypatch.setattr(sg, "_WORD_BLOCK", block)
                assert np.array_equal(bits(stream_table(values, 3)), want)


def test_stream_table_memory_is_bounded_by_block_and_chunk():
    values = np.random.default_rng(13).normal(size=(10, 65537, 2)).cumsum(axis=1)
    stream_table(values[:, :3], 4)  # warm up outside the trace
    tracemalloc.start()
    try:
        row = stream_table(values, 4, eval_idx=[65536])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row.shape == (10, 1, 31)
    # unchunked, the per-word (paths, K) temporaries peak near 155 MiB
    assert peak <= 32 * 2**20


def test_stream_table_rejects_negative_level():
    with pytest.raises(ValueError, match="level"):
        stream_table(np.zeros((3, 2)), -1)
