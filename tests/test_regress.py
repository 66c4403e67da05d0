import numpy as np
import pytest

import sigpath.regress as rg
from sigpath.paths import PiecewiseLinearPath, dyadic_times, time_extend
from sigpath.signature import LinearFunctional, signature
from sigpath.stochastic import sample_brownian_batch
from sigpath.tensor import total_entries
from sigpath.words import all_words


def brownian_features(seed, n, depth, level, mode="terminal"):
    times = dyadic_times(1.0, depth)
    values = sample_brownian_batch(seed, np.arange(n), 1, 1.0, depth)
    hat = np.concatenate(
        [np.broadcast_to(times, (n, times.size))[..., None], values], axis=-1
    )
    return rg.features_from_values(times, hat, level, mode)


def test_terminal_features_of_single_line():
    hat = time_extend(PiecewiseLinearPath([0.0, 2.0], [[0.0], [3.0]]))
    feats = rg.build_features([hat], 1, mode="terminal")
    assert np.allclose(feats.matrix, [[1.0, 2.0, 3.0]])
    assert feats.words == [(), (0,), (1,)]


def test_stopped_time_columns():
    hat = time_extend(PiecewiseLinearPath([0, 0.25, 0.5, 1.0], [[0.0]] * 4))
    feats = rg.build_features([hat], 2, mode="stopped")
    words = feats.words
    t_col = feats.matrix[:, words.index((0,))]
    tt_col = feats.matrix[:, words.index((0, 0))]
    assert np.allclose(t_col, hat.times, atol=1e-12)
    assert np.allclose(tt_col, hat.times**2 / 2.0, atol=1e-12)
    assert np.allclose(np.sum(feats.time_weights), hat.T)


def test_stopped_eval_times_snap_to_breakpoints():
    hat = time_extend(PiecewiseLinearPath([0, 0.25, 0.5, 1.0], [[0.0]] * 4))
    feats = rg.build_features([hat], 1, mode="stopped", eval_times=[0.26, 0.9])
    t_col = feats.matrix[:, 1]
    assert np.allclose(t_col, [0.25, 1.0])


def test_feature_matrix_invariants():
    feats = brownian_features(0, 50, 4, 3)
    assert (feats.matrix[:, 0] == 1.0).all()
    assert feats.matrix.shape[1] == total_entries(2, 3) == (2**4 - 1) // 1


def test_exact_recovery_of_column_targets():
    # stopped mode: time variation breaks the terminal-time collinearities,
    # so the coefficient itself is identifiable
    feats = brownian_features(1, 200, 5, 3, mode="stopped")
    target_word = (1, 0)
    col = feats.words.index(target_word)
    report = rg.fit(feats, feats.matrix[:, col], lam=0.0)
    assert report.train_error <= 1e-8
    assert report.test_error <= 1e-8
    assert report.functional.coeffs[target_word] == pytest.approx(1.0, abs=1e-6)


def test_exact_recovery_of_random_combinations():
    feats = brownian_features(2, 500, 6, 3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        coeff = rng.normal(size=feats.matrix.shape[1])
        y = feats.matrix @ coeff
        report = rg.fit(feats, y, lam=0.0)
        assert report.train_error <= 1e-8
        assert report.test_error <= 1e-8


def test_squared_terminal_recovers_shuffle_coefficient():
    feats = brownian_features(3, 500, 6, 2)
    w_t = feats.matrix[:, feats.words.index((1,))]
    report = rg.fit(feats, w_t**2, lam=0.0)
    assert report.test_error <= 1e-6
    assert report.functional.coeffs[(1, 1)] == pytest.approx(2.0, abs=1e-6)


def test_huge_ridge_shrinks_noneconstant_coefficients():
    feats = brownian_features(4, 200, 5, 2)
    y = feats.matrix[:, feats.words.index((1,))].copy()
    y -= y.mean()
    report = rg.fit(feats, y, lam=1e9)
    for word, coeff in report.functional.coeffs.items():
        if word != ():
            assert abs(coeff) < 1e-6


def test_normal_equation_residual_bound():
    for seed, level in [(5, 2), (6, 3)]:
        feats = brownian_features(seed, 300, 5, level)
        y = np.tanh(feats.matrix[:, feats.words.index((1,))])
        for lam in (0.0, None, 1e-3):
            report = rg.fit(feats, y, lam=lam)
            x_tr = feats.matrix
            bound = 1e-8 * (1.0 + np.linalg.norm(x_tr.T @ y))
            assert report.normal_eq_residual <= bound


def test_rank_deficiency_flagged_at_terminal_mode():
    # pure-time words are constants at the terminal time, so lam=0 is singular
    feats = brownian_features(7, 100, 4, 2)
    y = feats.matrix[:, feats.words.index((1,))]
    report = rg.fit(feats, y, lam=0.0)
    assert report.rank_deficient
    assert report.gram_eig_min <= 1e-8 * report.gram_eig_max


def test_train_error_non_increasing_in_level():
    feats = brownian_features(8, 400, 6, 4)
    w_t = feats.matrix[:, feats.words.index((1,))]
    y = np.clip(np.exp(w_t), -10.0, 10.0)
    errors = []
    for level in (1, 2, 3, 4):
        report = rg.fit(feats.truncated(level), y, lam=0.0)
        errors.append(report.train_error)
    assert all(errors[i + 1] <= errors[i] + 1e-12 for i in range(3))


def test_fit_is_split_deterministic():
    feats = brownian_features(9, 120, 4, 2)
    y = feats.matrix[:, 2] ** 2
    a = rg.fit(feats, y, lam=None, split_seed=123)
    b = rg.fit(feats, y, lam=None, split_seed=123)
    assert a.train_error == b.train_error
    assert a.test_error == b.test_error
    assert a.functional.coeffs == b.functional.coeffs
    c = rg.fit(feats, y, lam=None, split_seed=124)
    assert c.test_error != a.test_error


def test_fit_rejects_bad_inputs():
    feats = brownian_features(10, 20, 3, 1)
    with pytest.raises(ValueError):
        rg.fit(feats, np.full(feats.matrix.shape[0], np.nan))
    with pytest.raises(ValueError):
        rg.fit(feats, np.zeros(3))
    with pytest.raises(ValueError):
        rg.fit(feats, np.zeros(feats.matrix.shape[0]), lam=-1.0)


def test_lp_error_examples():
    matrix = np.ones((2, 1))
    feats = rg.FeatureMatrix(matrix, 2, 0, np.arange(2))
    zero = LinearFunctional(2, 0, {})
    assert rg.lp_error(zero, feats, [3.0, 4.0], 2.0) == pytest.approx(
        np.sqrt(25.0 / 2.0)
    )

    const = LinearFunctional(2, 0, {(): 7.0})
    assert rg.lp_error(const, feats, [7.0, 7.0], 2.0) == 0.0

    with pytest.raises(ValueError):
        rg.lp_error(zero, feats, [1.0, 2.0], 0.5)


def test_lp_error_exact_functional_is_zero():
    feats = brownian_features(11, 50, 4, 2, mode="stopped")
    functional = LinearFunctional(2, 2, {(0,): 2.0, (1, 1): -1.0})
    y = feats.matrix @ np.array(
        [functional.coeffs.get(w, 0.0) for w in feats.words]
    )
    assert rg.lp_error(functional, feats, y, 2.0) <= 1e-12


def test_build_features_requires_common_partition():
    a = time_extend(PiecewiseLinearPath([0, 1], [[0.0], [1.0]]))
    b = time_extend(PiecewiseLinearPath([0, 0.5, 1], [[0.0], [1.0], [2.0]]))
    with pytest.raises(ValueError):
        rg.build_features([a, b], 2)


def test_build_features_equals_features_from_values():
    times = dyadic_times(1.0, 3)
    values = sample_brownian_batch(9, np.arange(5), 2, 1.0, 3)
    paths = [PiecewiseLinearPath(times, v) for v in values]
    cases = [
        ("terminal", None, None),
        ("stopped", None, None),
        # nearest breakpoints 0.125, 0.25, 0.25, 0.75
        ("stopped", [0.1, 0.3, 0.3, 0.74], [1, 2, 6]),
    ]
    for mode, eval_times, eval_idx in cases:
        built = rg.build_features(paths, 3, mode, eval_times)
        direct = rg.features_from_values(times, values, 3, mode, eval_idx)
        for field in ("matrix", "sample_ids", "eval_times", "time_weights"):
            assert np.array_equal(
                getattr(built, field), getattr(direct, field)
            ), (mode, eval_times, field)
    # and the batched rows are the single-path signatures, bit for bit
    terminal = rg.build_features(paths, 3, "terminal").matrix
    assert np.array_equal(terminal, np.stack([signature(p, 3).flat() for p in paths]))
