import io
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigpath.paths as pth
from helpers_oracle import (
    dense_holder_oracle,
    lag_scan_oracle,
    random_pl_path,
    refine_times,
)


@st.composite
def pl_paths(draw, max_segments=8, max_dim=3):
    seed = draw(st.integers(0, 2**31 - 1))
    n_seg = draw(st.integers(1, max_segments))
    dim = draw(st.integers(1, max_dim))
    return random_pl_path(np.random.default_rng(seed), n_seg, dim)


def test_eval_examples():
    line = pth.PiecewiseLinearPath([0, 1], [[0.0], [2.0]])
    assert line.eval(0.5)[0] == pytest.approx(1.0)
    assert line.eval(1.0)[0] == 2.0  # breakpoint returns the stored value

    vee = pth.PiecewiseLinearPath([0, 1, 2], [[0.0], [1.0], [0.0]])
    assert vee.eval(1.5)[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        vee.eval(2.5)
    with pytest.raises(ValueError):
        vee.eval(-0.1)
    with pytest.raises(ValueError, match="time outside"):
        vee.eval(np.nan)
    with pytest.raises(ValueError, match="time outside"):
        vee.eval([0.5, np.nan])


def test_partition_validation():
    with pytest.raises(ValueError):
        pth.PiecewiseLinearPath([0.5, 1], [[0.0], [1.0]])
    with pytest.raises(ValueError):
        pth.PiecewiseLinearPath([0, 1, 1], [[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError):
        pth.PiecewiseLinearPath([0], [[0.0]])
    with pytest.raises(ValueError, match="non-finite partition time"):
        pth.PiecewiseLinearPath([0, np.nan], [[0.0], [1.0]])
    # the step from 1e308 to -1e308 overflows; the check compares instead
    with pytest.raises(ValueError, match="strictly increasing"):
        pth.PiecewiseLinearPath([0, 1e308, -1e308], [[0.0], [0.0], [1.0]])
    for values in ([[0.0], [1.0], [2.0]], np.zeros((2, 1, 1))):
        with pytest.raises(ValueError, match=r"values must be \(n_breakpoints, dim\)"):
            pth.PiecewiseLinearPath([0, 1], values)
    with pytest.raises(ValueError, match="non-finite path value"):
        pth.PiecewiseLinearPath([0, 1], [[0.0], [np.inf]])


def test_time_extend_examples():
    const = pth.PiecewiseLinearPath([0, 0.5, 1], [[3.0]] * 3)
    hat = pth.time_extend(const)
    assert np.array_equal(hat.values[:, 0], const.times)
    assert (hat.values[:, 1] == 3.0).all()

    line = pth.PiecewiseLinearPath([0, 1], [[0.0], [1.0]])
    assert np.array_equal(pth.time_extend(line).values, [[0, 0], [1, 1]])


@given(pl_paths())
def test_time_extend_structure(path):
    hat = pth.time_extend(path)
    assert hat.dim == path.dim + 1
    assert np.array_equal(hat.times, path.times)


def test_insert_breakpoint_examples():
    line = pth.PiecewiseLinearPath([0, 1], [[0.0], [2.0]])
    refined = pth.insert_breakpoint(line, 0.5)
    assert np.array_equal(refined.times, [0, 0.5, 1])
    assert np.array_equal(refined.values[:, 0], [0, 1, 2])

    same = pth.insert_breakpoint(refined, 0.5)
    assert np.array_equal(same.times, refined.times)

    with pytest.raises(ValueError):
        pth.insert_breakpoint(line, 1.0)


@given(pl_paths(), st.floats(0.05, 0.95), st.floats(0.0, 1.0))
def test_insert_breakpoint_preserves_geometry(path, where, query):
    t_new = where * path.T
    t_query = query * path.T
    refined = pth.insert_breakpoint(path, t_new)
    before = path.eval(t_query)
    after = refined.eval(t_query)
    scale = 1.0 + np.abs(path.values).max()
    assert np.allclose(before, after, atol=1e-14 * scale)
    # original breakpoints are untouched
    for t, v in zip(path.times, path.values):
        assert np.array_equal(refined.eval(t), v)


def refined_norm(path, alpha, m):
    grid = refine_times(path.times, m)
    return float(pth.max_increment_ratio(grid, path.eval(grid), alpha))


def test_holder_norm_straight_line():
    for alpha in (0.4, 0.7, 1.0):
        line = pth.PiecewiseLinearPath([0, 0.5, 2.0], [[0, 0], [1.5, 2], [6, 8]])
        # slope vector (3, 4), so the ratio peaks at the full interval
        expected = 5.0 * 2.0 ** (1.0 - alpha)
        assert pth.holder_norm(line, alpha) == pytest.approx(expected)
        assert refined_norm(line, alpha, 8) == pytest.approx(expected)


def test_holder_norm_lipschitz_is_max_slope():
    rng = np.random.default_rng(5)
    path = random_pl_path(rng, 10, 2)
    slopes = np.linalg.norm(
        np.diff(path.values, axis=0) / np.diff(path.times)[:, None], axis=1
    )
    assert pth.holder_norm(path, 1.0) == pytest.approx(slopes.max(), rel=1e-12)


def test_holder_norm_vee_against_dense_oracle():
    vee = pth.PiecewiseLinearPath([0, 1, 2], [[0.0], [1.0], [0.0]])
    est = pth.holder_norm(vee, 0.5)
    oracle = dense_holder_oracle(vee, 0.5, 4097)
    assert est == pytest.approx(oracle, rel=1e-12)


def test_holder_norm_bracketing_random_paths():
    # the breakpoint norm brackets every grid estimate from below, and the
    # dense oracle over the refined grid from above; both meet it
    rng = np.random.default_rng(11)
    for _ in range(5):
        path = random_pl_path(rng, 10, 2)
        lo = pth.holder_norm(path, 0.4)
        est = refined_norm(path, 0.4, 64)
        hi = dense_holder_oracle(
            path, 0.4, 4097, extra_times=refine_times(path.times, 64)
        )
        assert lo <= est <= hi + 1e-12
        assert hi == pytest.approx(lo, rel=1e-12)


@settings(deadline=None, max_examples=30)
@given(pl_paths(max_segments=6, max_dim=2), st.sampled_from([2, 4, 8]))
def test_holder_norm_monotone_in_refinement(path, m):
    # the 2m grid holds the m grid, which holds the breakpoints
    coarse = refined_norm(path, 0.5, m)
    assert refined_norm(path, 0.5, 2 * m) >= coarse >= pth.holder_norm(path, 0.5)


@settings(deadline=None, max_examples=40)
@given(pl_paths(), st.sampled_from([0.3, 0.5, 1.0]), st.integers(2, 8))
def test_holder_norm_is_the_breakpoint_maximum(path, alpha, m):
    # the ratio is quasiconvex along each segment, so no refined grid and no
    # dense grid through the breakpoints finds a larger pair than the
    # breakpoint scan (beyond rounding)
    norm = pth.holder_norm(path, alpha)
    refined = refined_norm(path, alpha, m)
    assert refined >= norm
    assert refined == pytest.approx(norm, rel=1e-12)
    # at alpha = 1 every pair on the steepest segment ties; the oracle sums
    # each increment from the segment slopes, so a short pair rounds relative
    # to its own increment (a few ulps), not relative to the path's values
    dense = dense_holder_oracle(path, alpha, n_points=257, extra_times=path.times)
    assert dense == pytest.approx(norm, rel=1e-12)


def test_holder_norm_rejects_bad_alpha():
    line = pth.PiecewiseLinearPath([0, 1], [[0.0], [1.0]])
    with pytest.raises(ValueError):
        pth.holder_norm(line, 0.0)
    with pytest.raises(ValueError):
        pth.holder_norm(line, 1.5)


SCAN_GRIDS = {
    "two-point": np.array([0.0, 1.0]),
    "dyadic": pth.dyadic_times(1.0, 4),
    "non-dyadic": refine_times(pth.dyadic_times(2.5, 4), 3),
}


def scan_values(seed, batch, n_grid, dim):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=batch + (n_grid, dim)), axis=-2)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([(), (5,), (3, 4), (2, 130)]),
    st.sampled_from(sorted(SCAN_GRIDS)),
    st.sampled_from([0, 1, 2, 3, 8, 9]),
    st.sampled_from([0.4, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_lag_scan_matches_oracle_bitwise(batch, grid, dim, alpha, seed):
    times = SCAN_GRIDS[grid]
    values = scan_values(seed, batch, times.size, dim)
    assert_same_bits(
        pth.max_increment_ratio(times, values, alpha),
        lag_scan_oracle(times, values, alpha),
    )


BLOCK = pth._HOLDER_BLOCK


# one block less a path, one block, one path more, two blocks and a part;
# 127-129 and 300 add sizes inside one block and across one edge
@pytest.mark.parametrize(
    "n", sorted({127, 128, 129, 300, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 44})
)
@pytest.mark.parametrize("dim", [2, 3])
def test_lag_scan_block_edges(n, dim):
    times = SCAN_GRIDS["non-dyadic"]
    values = scan_values(n, (n,), times.size, dim)
    cases = [values]
    if n > BLOCK:
        # coordinate 0 equal on the first block's paths only: that block
        # leads with one row (two after time), the others with none (one)
        lead = values.copy()
        lead[:BLOCK, :, 0] = lead[0, :, 0]
        cases += [lead, pth.time_extend_values(times, lead)]
    for vals in cases:
        assert_same_bits(
            pth.max_increment_ratio(times, vals, 0.4),
            lag_scan_oracle(times, vals, 0.4),
        )


# T = 1 makes every divisor of a lag one value (the root and the division
# follow the maximum); T = 0.3 rounds the grid, so they stay per element
@pytest.mark.parametrize("T", [1.0, 0.3])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("alpha", [0.4, 1.0])
def test_lag_scan_time_extended_matches_oracle_bitwise(T, d, alpha):
    times = pth.dyadic_times(T, 4)
    values = pth.time_extend_values(times, scan_values(d, (130,), times.size, d))
    # two leading rows: time, then a coordinate equal on every path
    shared = np.broadcast_to(scan_values(d + 10, (), times.size, 1), (130, times.size, 1))
    two_rows = np.concatenate([values[..., :1], shared, values[..., 1:]], axis=-1)
    for vals in (values, two_rows):
        assert_same_bits(
            pth.max_increment_ratio(times, vals, alpha),
            lag_scan_oracle(times, vals, alpha),
        )


@pytest.mark.parametrize("T", [1.0, 0.3])
def test_lag_scan_shared_middle_coordinate_keeps_the_order_of_addition(T):
    times = pth.dyadic_times(T, 4)
    values = scan_values(6, (130,), times.size, 3)
    values[:, :, 1] = values[0, :, 1]
    assert_same_bits(
        pth.max_increment_ratio(times, values, 0.4),
        lag_scan_oracle(times, values, 0.4),
    )


@pytest.mark.parametrize("T", [1.0, 0.3])
@pytest.mark.parametrize("batch", [(), (5,)], ids=["one-path", "identical-paths"])
def test_lag_scan_every_coordinate_shared(T, batch):
    times = pth.dyadic_times(T, 4)
    one = pth.time_extend_values(times, scan_values(7, (), times.size, 2))
    values = np.broadcast_to(one, batch + one.shape)
    want = lag_scan_oracle(times, values, 0.4)
    assert_same_bits(pth.max_increment_ratio(times, values, 0.4), want)
    assert np.all(want == want.flat[0])


# divisors (t - s)^alpha of 0 (1e3), inf (-1e3) and NaN take the per-element
# root and division; with no coordinates, a zero sum over a zero divisor is NaN
@pytest.mark.parametrize("alpha", [1e3, -1e3, np.nan])
@pytest.mark.parametrize("d", [0, 1])
def test_lag_scan_degenerate_divisors_match_oracle_bitwise(alpha, d):
    times = pth.dyadic_times(1.0, 4)
    values = scan_values(8, (130,), times.size, d)
    if d:
        values = pth.time_extend_values(times, values)
    with np.errstate(all="ignore"):
        got = pth.max_increment_ratio(times, values, alpha)
        want = lag_scan_oracle(times, values, alpha)
    assert_same_bits(got, want)


@pytest.mark.parametrize("T", [1.0, 0.3])
def test_lag_scan_non_finite_values_and_signed_zeros_match_oracle_bitwise(T):
    times = pth.dyadic_times(T, 4)
    values = pth.time_extend_values(times, scan_values(9, (130,), times.size, 3))
    values[5, 3, 1] = np.nan
    values[7, 4, 3] = np.inf
    values[8, 2, 3] = -np.inf
    values[9, [6, 9], 3] = np.inf  # inf - inf is NaN
    # coordinate 2 stays shared when its zeros differ in sign across paths
    values[:, [5, 6], 2] = 0.0
    values[::2, 5, 2] = -0.0
    values[:, 6, 2] = -0.0
    with np.errstate(invalid="ignore"):
        got = pth.max_increment_ratio(times, values, 0.4)
        want = lag_scan_oracle(times, values, 0.4)
    assert np.isnan(want[[5, 9]]).all() and np.isinf(want[[7, 8]]).all()
    assert np.isfinite(np.delete(want, [5, 7, 8, 9])).all()
    assert_same_bits(got, want)


@pytest.mark.parametrize("T", [1.0, 0.3])
@pytest.mark.parametrize("shared_first", [True, False], ids=["shared-first", "shared-last"])
def test_lag_scan_nan_bits_follow_the_operand_order(T, shared_first):
    # inf - inf is a NaN with the sign bit set and np.nan has it clear; an
    # addition of two NaNs returns its first operand.  On three points they
    # meet in the pair (1, 2), last in its row, whose maximum keeps its bits.
    times = pth.dyadic_times(T, 1)
    values = scan_values(10, (3,), times.size, 2)
    shared, varying = (0, 1) if shared_first else (1, 0)
    values[:, :, shared] = [values[0, 0, shared], np.inf, np.inf]
    values[1, 2, varying] = np.nan
    with np.errstate(invalid="ignore"):
        got = pth.max_increment_ratio(times, values, 0.4)
        want = lag_scan_oracle(times, values, 0.4)
    assert np.signbit(want[1]) == shared_first
    assert_same_bits(got, want)


def test_lag_scan_independent_of_blocking_and_workers(monkeypatch):
    times = SCAN_GRIDS["dyadic"]
    values = scan_values(3, (300,), times.size, 3)
    extended = pth.time_extend_values(times, values)
    wants = [
        (vals, lag_scan_oracle(times, vals, 0.4)) for vals in (values, extended)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers as often as possible
    try:
        for block in (1, 7, 1000):
            for workers in (1, 2, 4):
                monkeypatch.setattr(pth, "_HOLDER_BLOCK", block)
                monkeypatch.setattr(pth, "_HOLDER_WORKERS", workers)
                for vals, want in wants:
                    assert_same_bits(pth.max_increment_ratio(times, vals, 0.4), want)
    finally:
        sys.setswitchinterval(interval)


def test_lag_scan_workers_keep_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(pth, "_HOLDER_WORKERS", 2)
    times = SCAN_GRIDS["dyadic"]
    # many blocks, and one path alone, which runs on the pool too
    for batch in ((300,), ()):
        values = scan_values(5, batch, times.size, 2) * 1e200
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                pth.max_increment_ratio(times, values, 0.4)
        with np.errstate(over="ignore"):
            assert np.isinf(pth.max_increment_ratio(times, values, 0.4)).all()


def test_lag_scan_memory_on_the_holder_moments_shape(monkeypatch):
    # 1000 time-extended paths at depth 8 on two workers: each worker holds
    # one (block, G) copy of the varying coordinate and one (block, G - 1)
    # sum, about 2.3 MiB in all.  The bound is the first-call peak of the
    # scan that also copied the time coordinate per path and kept a second
    # sum buffer (2.29 MiB once warm), so this scan may not grow past it.
    monkeypatch.setattr(pth, "_HOLDER_WORKERS", 2)
    times = pth.dyadic_times(1.0, 8)
    values = pth.time_extend_values(times, scan_values(10, (1000,), times.size, 1))
    tracemalloc.start()
    try:
        pth.max_increment_ratio(times, values, 0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.87 * 2**20


@pytest.mark.parametrize(
    "times, shape",
    [([0.0, 1.0], (5, 1)), ([0.0, 1.0], (3, 1, 1)), ([0.0, 0.5, 1.0], (2, 1)),
     ([0.0, 1.0], (2,))],
    ids=["extra-rows", "batched-too-few-rows", "too-few-rows", "no-dim-axis"],
)
def test_lag_scan_rejects_mismatched_grid(times, shape):
    with pytest.raises(ValueError, match=r"values must be \(\.\.\., len\(times\), dim\)"):
        pth.max_increment_ratio(times, np.ones(shape), 0.4)


def test_weight_examples():
    const = pth.PiecewiseLinearPath([0, 1], [[2.0], [2.0]])
    assert pth.weight(const, 0.4, beta=1.0) == 1.0

    line = pth.PiecewiseLinearPath([0, 1], [[0.0], [1.0]])
    assert pth.weight(line, 0.5, beta=1.0, gamma=2.0) == pytest.approx(np.e)

    rng = np.random.default_rng(1)
    path = random_pl_path(rng, 6, 1)
    w_small = pth.weight(path, 0.4, beta=0.01)
    w_large = pth.weight(path, 0.4, beta=0.05)
    assert w_large > w_small > 1.0 or w_small == w_large == 1.0

    with pytest.raises(ValueError, match="beta must be > 0"):
        pth.weight(line, 0.5, beta=0.0)
    with pytest.raises(ValueError, match="gamma must be >= 1"):
        pth.weight(line, 0.5, beta=1.0, gamma=0.5)


def test_weight_at_least_one_for_time_extended():
    rng = np.random.default_rng(3)
    for _ in range(5):
        hat = pth.time_extend(random_pl_path(rng, 5, 2))
        assert pth.weight(hat, 0.4, beta=0.05) > 1.0


def test_stopped_holder_sup_attained_at_full_horizon():
    rng = np.random.default_rng(19)
    for _ in range(3):
        hat = pth.time_extend(random_pl_path(rng, 8, 1))
        base = pth.holder_norm(hat, 0.4)
        stopped = []
        for k in range(hat.times.size):
            # the spatial coordinate freezes at breakpoint k, time runs on
            v = hat.values.copy()
            v[k + 1 :, 1:] = v[k, 1:]
            stopped.append(pth.holder_norm(pth.PiecewiseLinearPath(hat.times, v), 0.4))
        assert stopped[-1] == pytest.approx(base, rel=1e-12)
        assert max(stopped) >= base
        assert max(stopped) <= 1.1 * base


def test_csv_round_trip_and_precision():
    rng = np.random.default_rng(23)
    path = random_pl_path(rng, 5, 2)
    buf = io.StringIO()
    pth.write_path_csv(path, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "t,x1,x2"
    back = pth.read_path_csv(io.StringIO(text))
    assert np.array_equal(back.times, path.times)
    assert np.array_equal(back.values, path.values)


def test_csv_stream_byte_order_mark_is_dropped():
    # a text stream of a spreadsheet "CSV UTF-8" export starts with U+FEFF
    # (tests/test_cli.py reads such a file through `sigpath sig`)
    text = "t,x1,x2\n0,0,1\n0.5,2,-1\n1.5,0.25,3\n"
    plain = pth.read_path_csv(io.StringIO(text))
    marked = pth.read_path_csv(io.StringIO("\ufeff" + text))
    assert np.array_equal(marked.times, plain.times)
    assert np.array_equal(marked.values, plain.values)


@pytest.mark.parametrize(
    "text, line",
    [("t,x1\n", 2), ("t,x1\n\n\n0,1\n", 5), ("t,x1\n0,0", 3)],
    ids=["header-only", "blank-lines-then-one-row", "one-row"],
)
def test_too_few_breakpoints_names_the_line_after_the_last(text, line):
    # the missing breakpoint belongs on the line after the last non-blank one,
    # not on a blank line 2
    with pytest.raises(
        pth.PathFormatError, match=f"^line {line}: need at least two breakpoints$"
    ):
        pth.read_path_csv(io.StringIO(text))


def test_csv_errors_carry_line_numbers(tmp_path):
    with pytest.raises(pth.PathFormatError, match="line 1: empty file"):
        pth.read_path_csv(io.StringIO(""))
    with pytest.raises(pth.PathFormatError, match="header"):
        pth.read_path_csv(io.StringIO("a,b\n0,0\n1,1\n"))
    with pytest.raises(pth.PathFormatError, match="line 3"):
        pth.read_path_csv(io.StringIO("t,x1\n0,0\n0,1\n"))
    with pytest.raises(pth.PathFormatError, match="two breakpoints"):
        pth.read_path_csv(io.StringIO("t,x1\n0,0\n"))
    with pytest.raises(pth.PathFormatError, match="non-numeric"):
        pth.read_path_csv(io.StringIO("t,x1\n0,0\n1,oops\n"))
    with pytest.raises(pth.PathFormatError, match="fields"):
        pth.read_path_csv(io.StringIO("t,x1\n0,0\n1,1,2\n"))
    with pytest.raises(pth.PathFormatError, match="line 3"):
        pth.read_path_csv(io.StringIO("t,x1\n0,0\n1,inf\n2,3"))
    with pytest.raises(pth.PathFormatError, match="line 4"):
        pth.read_path_csv(io.StringIO("t,x1\n0,0\n1,1\ninf,3"))
    with pytest.raises(pth.PathFormatError, match="line 2"):
        pth.read_path_csv(io.StringIO("t,x1\n1,0\n2,1\n"))
    # a subnormal time step, reported after every non-increasing one
    with pytest.raises(pth.PathFormatError, match=r"line 3: time step below 2\*\*-1022"):
        pth.read_path_csv(io.StringIO("t,x1\n0,0\n5e-324,0\n1e-323,1\n"))
    with pytest.raises(pth.PathFormatError, match="line 3: non-increasing time column"):
        pth.read_path_csv(io.StringIO("t,x1\n0,0\n0,0\n5e-324,1\n"))
    with pytest.raises(pth.PathFormatError, match="line 4: non-increasing time column"):
        pth.read_path_csv(io.StringIO("t,x1\n0,0\n5e-324,0\n0,1\n"))
    # times are compared, not subtracted: this step would overflow
    with pytest.raises(pth.PathFormatError, match="line 4: non-increasing time column"):
        pth.read_path_csv(io.StringIO("t,x1\n0,0\n1e308,0\n-1e308,1\n"))
    # a file name, not a stream, is opened
    path = random_pl_path(np.random.default_rng(29), 4, 1)
    pth.write_path_csv(path, tmp_path / "path.csv")
    back = pth.read_path_csv(tmp_path / "path.csv")
    assert np.array_equal(back.times, path.times)
    assert np.array_equal(back.values, path.values)
