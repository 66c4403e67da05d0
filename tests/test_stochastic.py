import tracemalloc

import numpy as np
import pytest

import sigpath.stochastic as sto
from sigpath.paths import (
    PiecewiseLinearPath,
    dyadic_times,
    time_extend,
    time_extend_values,
)
from sigpath.signature import LinearFunctional, levy_area_functional


def test_lattice_starts_at_zero():
    for seed in (0, 1, 99):
        lat = sto.sample_brownian(seed, 0, 2, 1.0, 5)
        assert (lat.values[0] == 0.0).all()


def test_nested_restriction_is_bit_identical():
    deep = sto.sample_brownian_batch(7, [0, 1, 2], 2, 1.0, 10)
    shallow = sto.sample_brownian_batch(7, [0, 1, 2], 2, 1.0, 6)
    assert np.array_equal(deep[:, ::16, :], shallow)


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
        singles = [sto.sample_brownian(9, i, d, 1.5, n_max).values for i in idx]
        assert np.array_equal(w, np.stack(singles))
        deep = sto.sample_brownian_batch(9, idx, d, 1.5, n_max + 1)
        assert np.array_equal(deep[:, ::2, :], w)


def test_sampler_peak_memory_is_output_plus_block_slack():
    sto.sample_brownian_batch(1, np.arange(2), 2, 1.0, 4)  # warm up outside the trace
    tracemalloc.start()
    try:
        w = sto.sample_brownian_batch(1, np.arange(64), 2, 1.0, 14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # ten block-sized 8-byte temporaries; an unblocked sampler holds several
    # lattice-sized ones (about five times the 16 MiB output here)
    assert peak <= w.nbytes + 10 * 8 * sto._SAMPLE_BLOCK


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


def test_rejects_bad_depth():
    with pytest.raises(ValueError):
        sto.sample_brownian(0, 0, 1, 1.0, 25)


def test_interpolate_examples():
    lat = sto.sample_brownian(11, 0, 2, 1.0, 6)

    seg = sto.interpolate(lat, 0)
    assert seg.n_segments == 1
    assert np.array_equal(seg.values[-1], lat.values[-1])

    path = sto.interpolate(lat, 6)
    assert np.array_equal(path.eval(path.times), lat.values)

    coarse = sto.interpolate(lat, 3)
    fine = sto.interpolate(lat, 6)
    assert np.array_equal(coarse.values, fine.values[::8])

    with pytest.raises(ValueError):
        sto.interpolate(lat, 7)


def test_identity_field_reproduces_driver():
    lat = sto.sample_brownian(5, 0, 1, 1.0, 6)
    driver = time_extend(sto.interpolate(lat, 6))
    vf = sto.make_vector_field("zero-drift-identity", d=1)
    y = sto.solve_ode_pl(driver, vf, [0.0], substeps=2)
    assert np.allclose(y[:, 0], lat.restrict(6)[:, 0], atol=1e-12)


def test_linear_field_matches_closed_form():
    rng = np.random.default_rng(0)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.2, 10))])
    x = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, 0.3, 10))])
    driver = time_extend(PiecewiseLinearPath(times, x[:, None]))
    vf = sto.make_vector_field("linear", a=0.0, b=1.0)
    y = sto.solve_ode_pl(driver, vf, [1.0], substeps=16)
    assert np.abs(y[:, 0] - np.exp(x)).max() <= 1e-8


def test_rk4_order_via_richardson():
    driver = time_extend(
        PiecewiseLinearPath([0.0, 0.4, 1.0], [[0.0], [1.1], [0.3]])
    )
    vf = sto.make_vector_field("tanh-bounded")
    ref = sto.solve_ode_pl(driver, vf, [0.7], substeps=512)[-1, 0]
    err = [
        abs(sto.solve_ode_pl(driver, vf, [0.7], substeps=s)[-1, 0] - ref)
        for s in (2, 4)
    ]
    assert 8.0 <= err[0] / err[1] <= 32.0  # fourth order: ratio near 16


def test_ode_blowup_is_reported():
    driver = time_extend(
        PiecewiseLinearPath(np.arange(41.0), np.arange(0.0, 4100.0, 100.0)[:, None])
    )
    vf = sto.make_vector_field("linear", a=0.0, b=50.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(sto.OdeBlowupError, match="segment"):
            sto.solve_ode_pl(driver, vf, [1.0], substeps=1)


def test_gbm_examples():
    lat = sto.sample_brownian(21, 0, 1, 1.0, 8)
    ts = dyadic_times(1.0, 4)
    w = lat.restrict(4)

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
    lat = sto.sample_brownian(41, 0, 1, 1.0, 8)
    ts = dyadic_times(1.0, 5)

    time_values = sto.stratonovich_reference(
        lat.times, lat.values, LinearFunctional(2, 1, {(0,): 1.0}), ts
    )
    assert np.allclose(time_values, ts, atol=1e-12)

    coord = sto.stratonovich_reference(
        lat.times, lat.values, LinearFunctional(2, 1, {(1,): 1.0}), ts
    )
    assert np.allclose(coord, lat.restrict(5)[:, 0], atol=1e-12)

    with pytest.raises(ValueError):
        sto.stratonovich_reference(
            lat.times, lat.values, LinearFunctional(2, 1, {(0,): 1.0}), [2.0]
        )


def test_reference_self_consistency_across_depths():
    # the two finest references nearly agree, and both sit far from a coarse one
    n = 100
    ts = dyadic_times(1.0, 4)
    area = levy_area_functional()
    gap_ref = []
    gap_coarse = []
    for i in range(n):
        lat10 = sto.sample_brownian(17, i, 2, 1.0, 10)
        lat9 = sto.sample_brownian(17, i, 2, 1.0, 9)
        lat4 = sto.sample_brownian(17, i, 2, 1.0, 4)
        r10 = sto.stratonovich_reference(lat10.times, lat10.values, area, ts)
        r9 = sto.stratonovich_reference(lat9.times, lat9.values, area, ts)
        r4 = sto.stratonovich_reference(lat4.times, lat4.values, area, ts)
        gap_ref.append(np.mean((r10 - r9) ** 2))
        gap_coarse.append(np.mean((r10 - r4) ** 2))
    assert np.sqrt(np.mean(gap_ref)) < 0.5 * np.sqrt(np.mean(gap_coarse))


def test_targets_on_a_batch_equal_per_path_calls():
    times = dyadic_times(1.0, 6)
    w1 = sto.sample_brownian_batch(5, np.arange(6), 1, 1.0, 6)
    w2 = sto.sample_brownian_batch(5, np.arange(6), 2, 1.0, 6)
    area = levy_area_functional()
    ts = np.array([[0.0, 0.3], [0.51, 1.0]])  # off-breakpoint, 2-D
    gbm = sto.sde_exact_gbm(times, w1, 0.3, 0.8, 1.5)
    ref = sto.stratonovich_reference(times, w2, area, ts)
    assert gbm.shape == (6, times.size) and ref.shape == (6, 2, 2)
    for i in range(6):
        assert np.array_equal(gbm[i], sto.sde_exact_gbm(times, w1[i], 0.3, 0.8, 1.5))
        assert np.array_equal(
            ref[i], sto.stratonovich_reference(times, w2[i], area, ts)
        )
    nested = sto.stratonovich_reference(times, w2.reshape(2, 3, -1, 2), area, ts)
    assert np.array_equal(nested, ref.reshape(2, 3, 2, 2))


def test_reference_at_dyadic_times_reads_the_strided_breakpoints():
    # the levy runner's reference: the breakpoints nearest a coarser dyadic
    # grid are exactly every 2**(n - e)-th fine breakpoint, for any T
    area = levy_area_functional()
    for T in (1.0, 2.5, 0.3):
        fine_times = dyadic_times(T, 9)
        fine = sto.sample_brownian_batch(3, np.arange(4), 2, T, 9)
        ref = sto.stratonovich_reference(fine_times, fine, area, dyadic_times(T, 5))
        hat = time_extend_values(fine_times, fine)
        strided = area.apply_stream(hat, eval_idx=np.arange(2**5 + 1) * 2**4)
        assert np.array_equal(ref, strided)
