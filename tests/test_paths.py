import concurrent.futures
import io
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigpath.paths as pth
from helpers_oracle import dense_holder_oracle, lag_scan_oracle, random_pl_path


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


def test_partition_validation():
    with pytest.raises(ValueError):
        pth.PiecewiseLinearPath([0.5, 1], [[0.0], [1.0]])
    with pytest.raises(ValueError):
        pth.PiecewiseLinearPath([0, 1, 1], [[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError):
        pth.PiecewiseLinearPath([0], [[0.0]])


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


def test_holder_norm_straight_line():
    for alpha in (0.4, 0.7, 1.0):
        line = pth.PiecewiseLinearPath([0, 0.5, 2.0], [[0, 0], [1.5, 2], [6, 8]])
        # slope vector (3, 4), so the ratio peaks at the full interval
        expected = 5.0 * 2.0 ** (1.0 - alpha)
        assert pth.holder_norm(line, alpha, m=1) == pytest.approx(expected)
        assert pth.holder_norm(line, alpha, m=8) == pytest.approx(expected)


def test_holder_norm_lipschitz_is_max_slope():
    rng = np.random.default_rng(5)
    path = random_pl_path(rng, 10, 2)
    slopes = np.linalg.norm(
        np.diff(path.values, axis=0) / np.diff(path.times)[:, None], axis=1
    )
    assert pth.holder_norm(path, 1.0, m=16) == pytest.approx(slopes.max(), rel=1e-12)


def test_holder_norm_vee_against_dense_oracle():
    vee = pth.PiecewiseLinearPath([0, 1, 2], [[0.0], [1.0], [0.0]])
    est = pth.holder_norm(vee, 0.5, m=64)
    oracle = dense_holder_oracle(vee, 0.5, 4097)
    assert est == pytest.approx(oracle, rel=1e-3)


def test_holder_norm_bracketing_random_paths():
    rng = np.random.default_rng(11)
    for _ in range(5):
        path = random_pl_path(rng, 10, 2)
        lo = pth.holder_norm(path, 0.4, m=1)
        est = pth.holder_norm(path, 0.4, m=64)
        hi = dense_holder_oracle(
            path, 0.4, 4097, extra_times=pth.refine_times(path.times, 64)
        )
        assert lo <= est <= hi + 1e-12
        assert hi - est <= 1e-3 * hi


@settings(deadline=None, max_examples=30)
@given(pl_paths(max_segments=6, max_dim=2), st.sampled_from([2, 4, 8]))
def test_holder_norm_monotone_in_refinement(path, m):
    assert pth.holder_norm(path, 0.5, 2 * m) >= pth.holder_norm(path, 0.5, m)


def test_holder_norm_rejects_bad_alpha():
    line = pth.PiecewiseLinearPath([0, 1], [[0.0], [1.0]])
    with pytest.raises(ValueError):
        pth.holder_norm(line, 0.0)
    with pytest.raises(ValueError):
        pth.holder_norm(line, 1.5)


SCAN_GRIDS = {
    "two-point": np.array([0.0, 1.0]),
    "dyadic": pth.dyadic_times(1.0, 4),
    "non-dyadic": pth.refine_times(pth.dyadic_times(2.5, 4), 3),
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
    st.sampled_from([1, 2, 3, 9]),
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


@pytest.mark.parametrize("n", [127, 128, 129, 300])
@pytest.mark.parametrize("dim", [2, 3])
def test_lag_scan_block_edges(n, dim):
    times = SCAN_GRIDS["non-dyadic"]
    values = scan_values(n, (n,), times.size, dim)
    assert_same_bits(
        pth.max_increment_ratio(times, values, 0.4),
        lag_scan_oracle(times, values, 0.4),
    )


def test_lag_scan_independent_of_blocking_and_workers(monkeypatch):
    times = SCAN_GRIDS["dyadic"]
    values = scan_values(3, (300,), times.size, 3)
    want = lag_scan_oracle(times, values, 0.4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers as often as possible
    try:
        for block in (1, 7, 1000):
            for workers in (1, 2, 4):
                monkeypatch.setattr(pth, "_HOLDER_BLOCK", block)
                monkeypatch.setattr(pth, "_HOLDER_WORKERS", workers)
                assert_same_bits(pth.max_increment_ratio(times, values, 0.4), want)
    finally:
        sys.setswitchinterval(interval)


def test_lag_scan_single_path_runs_inline(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("single-path scan built a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(pth, "_HOLDER_WORKERS", 2)
    times = SCAN_GRIDS["non-dyadic"]
    values = scan_values(4, (), times.size, 2)
    assert_same_bits(
        pth.max_increment_ratio(times, values, 0.4),
        lag_scan_oracle(times, values, 0.4),
    )
    path = pth.PiecewiseLinearPath(times, values)
    assert pth.holder_norm(path, 0.4, m=4) > 0.0
    assert pth.weight(path, 0.4, beta=0.01, m=4) > 1.0


def test_lag_scan_workers_keep_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(pth, "_HOLDER_WORKERS", 2)
    times = SCAN_GRIDS["dyadic"]
    values = scan_values(5, (300,), times.size, 2) * 1e200
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            pth.max_increment_ratio(times, values, 0.4)
    with np.errstate(over="ignore"):
        assert np.isinf(pth.max_increment_ratio(times, values, 0.4)).all()


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


def test_weight_at_least_one_for_time_extended():
    rng = np.random.default_rng(3)
    for _ in range(5):
        hat = pth.time_extend(random_pl_path(rng, 5, 2))
        assert pth.weight(hat, 0.4, beta=0.05) > 1.0


def test_stop_and_materialize_examples():
    rng = np.random.default_rng(7)
    hat = pth.time_extend(random_pl_path(rng, 6, 1))

    full = pth.materialize(pth.stop(hat, hat.T))
    assert np.array_equal(full.times, hat.times)
    assert np.array_equal(full.values, hat.values)

    flat = pth.materialize(pth.stop(hat, 0.0))
    assert np.array_equal(flat.values[:, 0], flat.times)
    assert (flat.values[:, 1] == hat.values[0, 1]).all()

    t_mid = 0.37 * hat.T
    frozen = pth.materialize(pth.stop(hat, t_mid))
    assert t_mid in frozen.times
    after = frozen.times > t_mid
    assert np.allclose(frozen.values[after, 1], hat.eval(t_mid)[1])
    assert np.array_equal(frozen.values[:, 0], frozen.times)

    with pytest.raises(ValueError):
        pth.stop(hat, hat.T + 1.0)
    with pytest.raises(ValueError):
        pth.stop(random_pl_path(rng, 3, 1), 0.5)  # not time-extended


def test_stopped_holder_sup_attained_at_full_horizon():
    rng = np.random.default_rng(19)
    for _ in range(3):
        hat = pth.time_extend(random_pl_path(rng, 8, 1))
        base = pth.holder_norm(hat, 0.4, m=8)
        stopped = [
            pth.holder_norm(pth.materialize(pth.stop(hat, t)), 0.4, m=8)
            for t in hat.times
        ]
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


def test_csv_errors_carry_line_numbers():
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
