import math
import tracemalloc

import numpy as np
import pytest

import sigpath.stochastic as sto
from sigpath.paths import dyadic_times
from sigpath.signature import LinearFunctional, levy_area_functional
from helpers_oracle import nearest_breakpoints


def test_lattice_starts_at_zero():
    for seed in (0, 1, 99):
        w = sto.sample_brownian_batch(seed, [0], 2, 1.0, 5)[0]
        assert (w[0] == 0.0).all()


def test_nested_restriction_is_bit_identical():
    deep = sto.sample_brownian_batch(7, [0, 1, 2], 2, 1.0, 10)
    for depth in (0, 6):
        shallow = sto.sample_brownian_batch(7, [0, 1, 2], 2, 1.0, depth)
        assert np.array_equal(deep[:, :: 2 ** (10 - depth), :], shallow)


def test_sampling_is_reproducible_and_index_addressed():
    a = sto.sample_brownian_batch(3, [5], 1, 2.0, 4)
    b = sto.sample_brownian_batch(3, [4, 5, 6], 1, 2.0, 4)
    assert np.array_equal(a[0], b[1])


@pytest.mark.parametrize("d", [1, 2])
def test_blocked_batch_matches_single_paths_and_deeper_lattice(d):
    n_max = 14
    rows = sto._SAMPLE_BLOCK // (2 ** (n_max - 1) * d)  # paths per finest-level block
    assert rows >= 2
    for batch in (rows - 1, rows, rows + 1):
        idx = np.arange(batch) + 3
        w = sto.sample_brownian_batch(9, idx, d, 1.5, n_max)
        singles = [sto.sample_brownian_batch(9, [i], d, 1.5, n_max)[0] for i in idx]
        assert np.array_equal(w, np.stack(singles))
        deep = sto.sample_brownian_batch(9, idx, d, 1.5, n_max + 1)
        assert np.array_equal(deep[:, ::2, :], w)


def test_sampler_peak_memory_is_output_plus_block_slack():
    sto.sample_brownian_batch(1, np.arange(2), 2, 1.0, 4)  # warm up outside the trace
    # one path at n_max 20 draws 2**19 positions x 2 coordinates at its last
    # level, 16 blocks
    for n_paths, n_max in ((64, 14), (1, 20)):
        tracemalloc.start()
        try:
            w = sto.sample_brownian_batch(1, np.arange(n_paths), 2, 1.0, n_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # ten block-sized 8-byte temporaries; an unblocked sampler, or one
        # blocked only in whole paths at n_max 20, holds several lattice-sized
        # ones (about five times the 16 MiB output in both cases)
        assert peak <= w.nbytes + 10 * 8 * sto._SAMPLE_BLOCK, n_max


@pytest.mark.parametrize("d", [1, 2, 3])
def test_position_blocks_keep_the_bits(monkeypatch, d):
    idx = [0, 4, 7]
    want = sto.sample_brownian_batch(5, idx, d, 0.8, 7)
    # 7 variates per block: positions split into uneven blocks at every d
    monkeypatch.setattr(sto, "_SAMPLE_BLOCK", 7)
    assert np.array_equal(sto.sample_brownian_batch(5, idx, d, 0.8, 7), want)


def test_endpoint_statistics():
    n = 10_000
    w = sto.sample_brownian_batch(12, np.arange(n), 1, 1.0, 0)
    terminal = w[:, -1, 0]
    assert abs(terminal.mean()) <= 3.0 * np.sqrt(1.0 / n)
    assert abs(terminal.var(ddof=1) - 1.0) <= 0.05


def test_disjoint_increments_nearly_uncorrelated():
    n = 10_000
    w = sto.sample_brownian_batch(5, np.arange(n), 1, 1.0, 1)
    first = w[:, 1, 0] - w[:, 0, 0]
    second = w[:, 2, 0] - w[:, 1, 0]
    assert abs(np.corrcoef(first, second)[0, 1]) <= 4.0 / np.sqrt(n)


def test_endpoints_pass_a_kolmogorov_smirnov_check():
    # 2**20 depth-0 endpoints against the N(0, 1) CDF; sqrt(n) D has the
    # Kolmogorov limit law, whose critical value at alpha = 0.001 is 1.95
    n = 2**20
    x = np.sort(sto.sample_brownian_batch(12345, np.arange(n), 1, 1.0, 0)[:, -1, 0])
    cdf = 0.5 * (1.0 + np.array([math.erf(v) for v in x / math.sqrt(2.0)]))
    rank = np.arange(1, n + 1)
    d_stat = max((rank / n - cdf).max(), (cdf - (rank - 1) / n).max())
    assert math.sqrt(n) * d_stat <= 1.95


def test_lattice_increments_are_uncorrelated_with_unit_variance():
    # standardized increments of a depth-10 lattice: neighbours along a path
    # and the two coordinates of one step are uncorrelated, and each has
    # variance 1, each within 5 standard errors
    depth = 10
    w = sto.sample_brownian_batch(7, np.arange(1024), 2, 1.0, depth)
    z = np.diff(w, axis=1) * math.sqrt(2.0**depth)
    lag_1 = z[:, :-1] * z[:, 1:]
    cross = z[..., 0] * z[..., 1]
    for products in (lag_1, cross):
        assert abs(products.mean()) <= 5.0 / math.sqrt(products.size)
    assert abs((z * z).mean() - 1.0) <= 5.0 * math.sqrt(2.0 / z.size)


def test_uint64_wrap_around_needs_no_errstate():
    # the key hashing wraps modulo 2**64 at the largest seed and sample index;
    # as array arithmetic it raises nothing even when every check is "raise"
    # (a numpy scalar product in the hashing would raise here)
    args = (2**64 - 1, [0, 2**48 - 1], 2, 1.0, 6)
    want = sto.sample_brownian_batch(*args), sto.train_mask(2**64 - 1, 100)
    with np.errstate(all="raise"):
        got = sto.sample_brownian_batch(*args), sto.train_mask(2**64 - 1, 100)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_rejects_bad_depth():
    with pytest.raises(ValueError):
        sto.sample_brownian_batch(0, [0], 1, 1.0, 25)
    # d = 257 would give coordinate 256 the keys of coordinate 0
    with pytest.raises(ValueError):
        sto.sample_brownian_batch(0, [0], 257, 1.0, 2)
    for seed, idx in ((-1, [0]), (0, [0, -1])):
        with pytest.raises(ValueError, match="seed and sample indices must be"):
            sto.sample_brownian_batch(seed, idx, 1, 1.0, 2)


def test_identity_field_reproduces_driver():
    w = sto.sample_brownian_batch(5, [0], 1, 1.0, 6)[0]
    field = sto.VECTOR_FIELDS["zero-drift-identity"](0.0, 1.0)
    y, _ = sto.solve_ode_batch(dyadic_times(1.0, 6), w, field, 0.0, substeps=2)
    assert np.allclose(y, w[:, 0], atol=1e-12)


def test_linear_field_matches_closed_form():
    rng = np.random.default_rng(0)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.2, 10))])
    x = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, 0.3, 10))])
    field = sto.VECTOR_FIELDS["linear"](0.0, 1.0)
    y, _ = sto.solve_ode_batch(times, x[:, None], field, 1.0, substeps=16)
    assert np.abs(y - np.exp(x)).max() <= 1e-8


def test_rk4_order_via_richardson():
    times, x = [0.0, 0.4, 1.0], [[0.0], [1.1], [0.3]]
    field = sto.VECTOR_FIELDS["tanh-bounded"](0.0, 1.0)

    def terminal(substeps):
        return sto.solve_ode_batch(times, x, field, 0.7, substeps)[0][-1]

    ref = terminal(512)
    err = [abs(terminal(s) - ref) for s in (2, 4)]
    assert 8.0 <= err[0] / err[1] <= 32.0  # fourth order: ratio near 16


def test_ode_blowup_is_reported():
    # per path, as run_regression's exclusions read it: a driver that blows
    # up next to a tame one
    times = np.arange(41.0)
    drivers = np.stack([np.arange(0.0, 4100.0, 100.0), np.zeros(41)])[..., None]
    field = sto.VECTOR_FIELDS["linear"](0.0, 50.0)
    with np.errstate(over="ignore", invalid="ignore"):
        y, blown = sto.solve_ode_batch(times, drivers, field, 1.0, substeps=1)
    assert blown.tolist() == [True, False]
    # the blown row ends non-finite, the tame one stays finite
    assert not np.isfinite(y[0, -1]) and np.isfinite(y[1]).all()
    with pytest.raises(ValueError, match="substeps must be >= 1"):
        sto.solve_ode_batch(times, drivers, field, 1.0, substeps=0)


def test_gbm_examples():
    ts = dyadic_times(1.0, 4)
    w = sto.sample_brownian_batch(21, [0], 1, 1.0, 8)[0, ::16]

    drifted = sto.sde_exact_gbm(ts, w, a=0.3, b=0.0, y0=2.0)
    assert np.allclose(drifted, 2.0 * np.exp(0.3 * ts))

    frozen = sto.sde_exact_gbm(ts, w, a=0.0, b=0.0, y0=2.0)
    assert (frozen == 2.0).all()

    driftless = sto.sde_exact_gbm(ts, w, a=0.0, b=1.0, y0=1.0)
    assert np.allclose(driftless, np.exp(w[:, 0]))

    with pytest.raises(ValueError, match="scalar"):
        sto.sde_exact_gbm(ts, np.zeros((ts.size, 2)), a=0.0, b=1.0, y0=1.0)


def test_gbm_lognormal_mean():
    n = 10_000
    w = sto.sample_brownian_batch(31, np.arange(n), 1, 1.0, 0)
    y_t = np.exp(w[:, -1, 0])
    se = y_t.std(ddof=1) / np.sqrt(n)
    assert abs(y_t.mean() - np.exp(0.5)) <= 3.0 * se


def test_reference_time_and_coordinate_functionals():
    # the levy reference reads the stream at every 2**(n - e)-th breakpoint
    times = dyadic_times(1.0, 8)
    w = sto.sample_brownian_batch(41, [0], 1, 1.0, 8)[0]
    strided = np.arange(2**5 + 1) * 2**3

    time_values = LinearFunctional(2, 1, {(0,): 1.0}).apply_stream(
        times, w, eval_idx=strided
    )
    assert np.allclose(time_values, dyadic_times(1.0, 5), atol=1e-12)

    coord = LinearFunctional(2, 1, {(1,): 1.0}).apply_stream(times, w, eval_idx=strided)
    assert np.allclose(coord, w[::8, 0], atol=1e-12)


def test_reference_self_consistency_across_depths():
    # the two finest references nearly agree, and both sit far from a coarse one
    n = 100
    area = levy_area_functional()
    r10, r9, r4 = (
        area.apply_stream(
            dyadic_times(1.0, depth),
            sto.sample_brownian_batch(17, np.arange(n), 2, 1.0, depth),
            eval_idx=np.arange(2**4 + 1) * 2 ** (depth - 4),
        )
        for depth in (10, 9, 4)
    )
    gap_ref = np.mean((r10 - r9) ** 2, axis=-1)
    gap_coarse = np.mean((r10 - r4) ** 2, axis=-1)
    assert np.sqrt(np.mean(gap_ref)) < 0.5 * np.sqrt(np.mean(gap_coarse))


def test_targets_on_a_batch_equal_per_path_calls():
    times = dyadic_times(1.0, 6)
    w1 = sto.sample_brownian_batch(5, np.arange(6), 1, 1.0, 6)
    w2 = sto.sample_brownian_batch(5, np.arange(6), 2, 1.0, 6)
    area = levy_area_functional()
    strided = np.arange(2**3 + 1) * 2**3
    gbm = sto.sde_exact_gbm(times, w1, 0.3, 0.8, 1.5)
    ref = area.apply_stream(times, w2, eval_idx=strided)
    assert gbm.shape == (6, times.size) and ref.shape == (6, strided.size)
    for i in range(6):
        assert np.array_equal(gbm[i], sto.sde_exact_gbm(times, w1[i], 0.3, 0.8, 1.5))
        assert np.array_equal(ref[i], area.apply_stream(times, w2[i], eval_idx=strided))
    nested = area.apply_stream(times, w2.reshape(2, 3, -1, 2), eval_idx=strided)
    assert np.array_equal(nested, ref.reshape(2, 3, -1))


def test_reference_at_dyadic_times_reads_the_strided_breakpoints():
    # the levy runner's eval grid: the breakpoints nearest a coarser dyadic
    # grid are exactly every 2**(n - e)-th fine breakpoint, for any T, and
    # streaming only those rows keeps the bits of the full stream
    area = levy_area_functional()
    strided = np.arange(2**5 + 1) * 2**4
    for T in (1.0, 2.5, 0.3, 7 / 3):
        fine_times = dyadic_times(T, 9)
        assert np.array_equal(
            nearest_breakpoints(fine_times, dyadic_times(T, 5)), strided
        )
        fine = sto.sample_brownian_batch(3, np.arange(4), 2, T, 9)
        full = area.apply_stream(fine_times, fine)
        ref = area.apply_stream(fine_times, fine, eval_idx=strided)
        assert np.array_equal(ref, full[:, strided])


def test_reference_peak_memory_is_below_one_time_extended_copy():
    # the levy reference on 64 paths of 2^14 segments; a (64, 16385, 3)
    # time-extended copy of the lattice alone would take 24 MiB
    fine_times = dyadic_times(1.0, 14)
    fine = sto.sample_brownian_batch(2, np.arange(64), 2, 1.0, 14)
    area, strided = levy_area_functional(), np.arange(2**11 + 1) * 2**3
    area.apply_stream(fine_times[:3], fine[:2, :3], eval_idx=[0])  # warm up
    tracemalloc.start()
    try:
        ref = area.apply_stream(fine_times, fine, eval_idx=strided)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ref.shape == (64, strided.size)
    assert peak < 64 * fine_times.size * 3 * 8
