import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigpath.experiments as ex
import sigpath.regress as rg
from sigpath.paths import PiecewiseLinearPath, dyadic_times, time_extend
from sigpath.signature import LinearFunctional, signature, signature_stream
from sigpath.stochastic import _split_permutation, sample_brownian_batch
from sigpath.tensor import total_entries
from sigpath.tensor import all_words
from helpers_oracle import (
    exact_ridge_oracle,
    expected_signature_stream,
    expected_terminal_signature,
    gbm_population_forms,
    gram_from_expected,
    lstsq_oracle,
    population_gram,
    ridge_oracle,
    taylor_functional,
)


def brownian_features(seed, n, depth, level, mode="terminal"):
    times = dyadic_times(1.0, depth)
    values = sample_brownian_batch(seed, np.arange(n), 1, 1.0, depth)
    return rg.features_from_values(times, values, level, mode)


def _train_rows(feats, split_seed):
    """fit's training rows: every row of a sample outside the split's first
    fifth."""
    n_samples, rows = feats.table.shape[:2]
    train = np.ones(n_samples, dtype=bool)
    train[_split_permutation(split_seed, n_samples)[: n_samples // 5]] = False
    return np.repeat(train, rows)


def test_terminal_features_of_single_line():
    line = PiecewiseLinearPath([0.0, 2.0], [[0.0], [3.0]])
    feats = rg.features_from_values(line.times, line.values[None], 1, "terminal")
    assert np.allclose(feats.matrix, [[1.0, 2.0, 3.0]])
    assert feats.words == [(), (0,), (1,)]


def test_stopped_time_columns():
    const = PiecewiseLinearPath([0, 0.25, 0.5, 1.0], [[0.0]] * 4)
    feats = rg.features_from_values(const.times, const.values[None], 2, "stopped")
    words = feats.words
    t_col = feats.matrix[:, words.index((0,))]
    tt_col = feats.matrix[:, words.index((0, 0))]
    assert np.allclose(t_col, const.times, atol=1e-12)
    assert np.allclose(tt_col, const.times**2 / 2.0, atol=1e-12)
    assert np.allclose(np.sum(feats.time_weights), const.T)


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


@pytest.mark.parametrize("d", [1, 2])
def test_population_gram_of_terminal_features_loses_the_time_shuffles(d):
    # S^u T = S^(u sh 0) on every path, one linear relation per word u of
    # length < N, and no other: the Gram of the depth-3 interpolation over
    # T = 1 has exactly total_entries(d + 1, N - 1) zero eigenvalues, so its
    # rank is (d + 1)^N.  Measured: the zeros at or below 1.6e-16 of the top
    # one, the others at or above 4.7e-5.
    for level in (1, 2, 3, 4):
        eig = np.abs(np.linalg.eigvalsh(population_gram(d, 1.0, 3, level)))
        n_zero = total_entries(d + 1, level - 1)
        assert (eig <= 1e-12 * eig.max()).sum() == n_zero
        assert np.sort(eig)[n_zero] >= 1e-6 * eig.max()


def test_population_moments_match_a_monte_carlo_of_the_sampler():
    # the oracle's expected stream, its Gram and the GBM cross and square
    # moments against 20,000 sampled depth-3 paths, each within 5 standard
    # errors (plus the rounding of a mean of 20,000 equal pure-time entries);
    # the stream's last row is the repeated-squaring terminal value
    a, b, n, level = 0.5, 0.3, 20000, 2
    times = dyadic_times(1.0, 3)
    values = sample_brownian_batch(11, np.arange(n), 1, 1.0, 3)
    table = rg.features_from_values(times, values, 2 * level, "stopped").table
    y = np.exp(a * times + b * values[..., 0])
    gram, cross, square = gbm_population_forms(a, b, 1.0, 1.0, 3, level)
    low = total_entries(2, level)
    draws = {
        "stream": (table, expected_signature_stream(1, 1.0, 3, 2 * level)),
        "gram": (table[..., :low, None] * table[..., None, :low], gram),
        "cross": (y[..., None] * table[..., :low], cross),
        "square": (y * y, square),
    }
    for name, (sample, exact) in draws.items():
        error = np.abs(sample.mean(axis=0) - exact)
        assert np.all(error <= 5 * sample.std(axis=0) / np.sqrt(n) + 1e-12 * np.abs(exact)), name
    stream = draws["stream"][1]
    assert np.allclose(stream[-1], expected_terminal_signature(1, 1.0, 3, 2 * level),
                       rtol=1e-13, atol=0.0)
    assert np.array_equal(gram_from_expected(stream[-1], 2, level)[None], gram[-1:])


# Largest measured population excess-risk ratio minus 1 of `lam: 0` sde fits
# (d 1, a 0.5, b 0.3, depth 4, 500 paths), over seeds 1, 2, 3 and 7, per
# level: 0.053, 0.105, 0.325 and 0.687 (seed 3 gave the last two).  The
# bounds add about half again.  A singular-value cutoff of 1e-2 instead of
# 1e-10 read 1.99-2.28 at level 3 and 13.2-16.6 at level 4.
SDE_EXCESS_RISK_BOUND = {1: 1.1, 2: 1.2, 3: 1.5, 4: 2.1}


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_sde_fits_have_bounded_population_excess_risk(seed):
    # the fit minimizes the unweighted squared error over every stopped row,
    # so its population risk R is sum_k E[(y_k - beta S_k)^2] and the
    # minimizer of R bounds it from below: R(beta) / R(beta*) >= 1 exactly
    cfg = ex.ExperimentConfig.from_dict(
        {"kind": "sde", "d": 1, "a": 0.5, "b": 0.3, "depths": [4],
         "levels": [1, 2, 3, 4], "n_samples": 500, "lam": 0.0, "seed": seed}
    )
    _, reports = ex.run_regression(cfg)
    gram, cross, square = gbm_population_forms(0.5, 0.3, 1.0, 1.0, 4, 4)
    for level, bound in SDE_EXCESS_RISK_BOUND.items():
        width = total_entries(2, level)
        functional = reports[f"gbm/depth=4/level={level}"]["functional"]
        beta = LinearFunctional.from_dict(functional).coefficient_vector()
        G, c = gram[:, :width, :width].sum(axis=0), cross[:, :width].sum(axis=0)
        best = np.linalg.solve(G, c)
        least = square.sum() - c @ best
        # R(beta) - R(beta*) is the quadratic form of beta - beta*, exactly
        ratio = 1.0 + (beta - best) @ G @ (beta - best) / least
        assert least > 0 and 1.0 <= ratio <= bound, (level, ratio)


@pytest.mark.parametrize(
    "target, exact",
    [("integral", {(1, 0): 1.0}), ("terminal-square", {(1, 1): 2.0})],
    ids=["integral", "terminal-square"],
)
def test_exact_targets_fit_with_zero_population_risk(target, exact):
    # criterion 4's targets are the functionals S^(1,0) and 2 S^(1,1); the
    # minimum-norm fit differs from them on the terminal Gram's null space,
    # so its population risk (beta - ell)' G (beta - ell) is zero up to
    # rounding.  Measured: at most 6.0e-17 of E[y^2] (depths 4, 6 and 8).
    cfg = ex.ExperimentConfig.from_dict(
        {"kind": "functional", "target": target, "depths": [6], "levels": [2, 3, 4],
         "n_samples": 400, "lam": 0.0, "seed": 7}
    )
    _, reports = ex.run_regression(cfg)
    for level in (2, 3, 4):
        gram = population_gram(1, 1.0, 6, level)
        ell = LinearFunctional(2, level, exact).coefficient_vector()
        functional = reports[f"{target}/depth=6/level={level}"]["functional"]
        delta = LinearFunctional.from_dict(functional).coefficient_vector() - ell
        scale = ell @ gram @ ell  # E[y^2]
        assert abs(delta @ gram @ delta) <= 1e-15 * scale, level
        # the check is sharp: 1e-3 more on the word (1,), W_T, is seen
        off = delta + 1e-3 * (np.arange(delta.size) == 2)
        assert off @ gram @ off > 1e-8 * scale


@pytest.mark.parametrize("d", [1, 2])
def test_minimum_norm_terminal_fits_are_rank_deficient_at_every_level(d):
    # the population Gram's null space above holds on every sample
    cfg = ex.ExperimentConfig.from_dict(
        {
            "kind": "functional", "d": d, "target": "terminal-square", "depths": [4],
            "levels": [1, 2, 3, 4], "n_samples": 200, "lam": 0.0,
        }
    )
    rows, _ = ex.run_regression(cfg)
    assert [row["rank_deficient"] for row in rows] == [True] * 4


def test_train_error_non_increasing_in_level():
    feats = brownian_features(8, 400, 6, 4)
    w_t = feats.matrix[:, feats.words.index((1,))]
    y = np.clip(np.exp(w_t), -10.0, 10.0)
    errors = []
    for level in (1, 2, 3, 4):
        report = rg.fit(feats, y, lam=0.0, level=level)
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
    for bad in (np.nan, np.inf):
        for lam in (None, 0.0):
            with pytest.raises(ValueError):
                rg.fit(feats, np.full(feats.matrix.shape[0], bad), lam=lam)
    with pytest.raises(ValueError):
        rg.fit(feats, np.zeros(3))
    with pytest.raises(ValueError):
        rg.fit(feats, np.zeros(feats.matrix.shape[0]), lam=-1.0)
    for level in (-1, feats.level + 1):
        with pytest.raises(ValueError):
            rg.fit(feats, np.zeros(feats.matrix.shape[0]), level=level)
    # dim 2, level 1 has 3 columns
    for table in (np.ones((2, 1, 2)), np.ones((2, 3))):
        with pytest.raises(ValueError, match="feature table must have shape"):
            rg.FeatureMatrix(table, 2, 1, np.ones(1))
    with pytest.raises(ValueError, match="empty-word column must be identically 1"):
        rg.FeatureMatrix(np.full((2, 1, 3), 2.0), 2, 1, np.ones(1))
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        rg.features_from_values(dyadic_times(1.0, 2), np.zeros((2, 5, 1)), 1, "bogus")


@pytest.mark.parametrize("p", [0, 0.5, np.nan, np.inf])
def test_every_lp_error_rejects_p_outside_one_to_inf(p):
    # below 1 the power mean is no norm, at inf it is not the sup norm
    feats = brownian_features(12, 20, 3, 1)
    y = feats.matrix[:, 1]
    with pytest.raises(ValueError, match=r"p must lie in \[1, inf\)"):
        rg.fit(feats, y, p=p)
    with pytest.raises(ValueError, match=r"p must lie in \[1, inf\)"):
        rg.lp_error(LinearFunctional(2, 1, {}), feats, y, p)


def test_lp_error_examples():
    feats = rg.FeatureMatrix(np.ones((2, 1, 1)), 2, 0, np.ones(1))
    zero = LinearFunctional(2, 0, {})
    assert rg.lp_error(zero, feats, [3.0, 4.0], 2.0) == pytest.approx(
        np.sqrt(25.0 / 2.0)
    )

    const = LinearFunctional(2, 0, {(): 7.0})
    assert rg.lp_error(const, feats, [7.0, 7.0], 2.0) == 0.0

    with pytest.raises(ValueError):
        rg.lp_error(zero, feats, [1.0, 2.0], 0.5)
    with pytest.raises(ValueError, match="functional level exceeds feature level"):
        rg.lp_error(LinearFunctional(2, 1, {}), feats, [1.0, 2.0], 2.0)


def test_feature_matrix_holds_one_time_weight_per_row():
    stopped = brownian_features(3, 10, 2, 1, mode="stopped")
    assert stopped.time_weights.shape == stopped.table.shape[1:2] == (5,)
    assert brownian_features(3, 10, 2, 1).time_weights.tolist() == [1.0]
    for weights in (np.ones(1), None, np.ones((5, 1))):
        with pytest.raises(ValueError, match="one weight per row of a sample"):
            rg.FeatureMatrix(stopped.table, stopped.dim, stopped.level, weights)


def test_lp_error_exact_functional_is_zero():
    feats = brownian_features(11, 50, 4, 2, mode="stopped")
    functional = LinearFunctional(2, 2, {(0,): 2.0, (1, 1): -1.0})
    y = feats.matrix @ np.array(
        [functional.coeffs.get(w, 0.0) for w in feats.words]
    )
    assert rg.lp_error(functional, feats, y, 2.0) <= 1e-12


def test_feature_rows_are_time_extended_single_path_signatures():
    # bit for bit: the terminal rows are the signatures and the stopped rows
    # the signature streams of the time-extended paths
    times = dyadic_times(1.0, 3)
    values = sample_brownian_batch(9, np.arange(5), 2, 1.0, 3)
    paths = [PiecewiseLinearPath(times, v) for v in values]
    terminal = rg.features_from_values(times, values, 3, "terminal").table
    singles = [signature(time_extend(p), 3) for p in paths]
    assert np.array_equal(terminal, np.stack(singles)[:, None])
    stopped = rg.features_from_values(times, values, 3, "stopped").table
    streams = [signature_stream(time_extend(p), 3) for p in paths]
    assert np.array_equal(stopped, np.stack(streams))


@st.composite
def fit_cases(draw):
    """Brownian features of dims 1-2 at levels 1-4 in terminal mode (rank-
    deficient from level 2: the pure-time words are constants) or stopped
    mode, from 10 paths (underdetermined) to a few hundred, with a target
    no truncated functional fits exactly; the fit reads a drawn level at or
    below the features' level."""
    d = draw(st.integers(1, 2))
    level = draw(st.integers(1, 4))
    mode = draw(st.sampled_from(["terminal", "stopped"]))
    n = draw(st.integers(10, 300))
    depth = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    times = dyadic_times(1.0, depth)
    values = sample_brownian_batch(seed, np.arange(n), d, 1.0, depth)
    feats = rg.features_from_values(times, values, level, mode)
    x = feats.matrix[:, feats.words.index((1,))]
    fit_level = draw(st.integers(1, level))
    return feats, np.sin(3.0 * x) + x * feats.matrix[:, -1], seed, fit_level


@settings(deadline=None, max_examples=60)
@given(fit_cases())
def test_min_norm_fit_matches_lstsq_oracle_bitwise(case):
    feats, y, split_seed, level = case
    report = rg.fit(feats, y, lam=0.0, split_seed=split_seed, level=level)
    train = _train_rows(feats, split_seed)
    width = total_entries(feats.dim, level)
    beta, rank = lstsq_oracle(feats.matrix[train, :width], y[train])
    got = report.functional.coefficient_vector()
    assert report.functional.level == level
    assert np.array_equal(got.view(np.uint64), beta.view(np.uint64))
    assert report.rank_deficient == (rank < width)


@settings(deadline=None, max_examples=60)
@given(fit_cases(), st.sampled_from([None, 1e-3]))
def test_ridge_fit_matches_cholesky_oracle(case, lam):
    feats, y, split_seed, level = case
    report = rg.fit(feats, y, lam=lam, split_seed=split_seed, level=level)
    train = _train_rows(feats, split_seed)
    width = total_entries(feats.dim, level)
    X = feats.matrix[:, :width]
    lhs = X[train].T @ X[train] + report.lam * np.eye(width)
    want = ridge_oracle(lhs, X[train].T @ y[train])
    got = report.functional.coefficient_vector()
    # two backward-stable solves of one system agree to its condition number
    # times the rounding of width-term sums; the default lam leaves cond(lhs)
    # near 1e10 on a few paths at d = 2, level 4
    tol = max(1e-12, width * np.finfo(float).eps * np.linalg.cond(lhs))
    assert np.abs(X @ got - X @ want).max() <= tol * max(1.0, np.abs(y).max())
    if np.linalg.matrix_rank(X[train]) == width:
        assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())


@pytest.mark.parametrize(
    "d, level, n, seed", [(1, 4, 10, 7), (1, 4, 15, 3), (2, 3, 10, 4), (2, 3, 15, 2)]
)
def test_default_ridge_matches_the_exact_solution(d, level, n, seed):
    # the default lam leaves cond(lhs) near 1e9 on a few paths; a plain LU
    # solve of the normal equations is then off by up to 5e-8, the refined
    # solve by rounding. With more columns than training rows the ridge fit
    # interpolates, so the exact solution itself moves only at rounding level
    # when X does (with fewer, e.g. d = 1 at level 3, it moves by about 1e-9)
    times = dyadic_times(1.0, 3)
    values = sample_brownian_batch(seed, np.arange(n), d, 1.0, 3)
    feats = rg.features_from_values(times, values, level)
    x = feats.matrix[:, feats.words.index((1,))]
    y = np.sin(3.0 * x) + x * feats.matrix[:, -1]
    report = rg.fit(feats, y, split_seed=seed)
    train = _train_rows(feats, seed)
    want = exact_ridge_oracle(feats.matrix[train], y[train], report.lam)
    got = report.functional.coefficient_vector()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _report_bits(report):
    """Every FitReport field, floats as their uint64 bit patterns."""
    bits = {}
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if isinstance(value, LinearFunctional):
            coeffs = value.coefficient_vector().view(np.uint64)
            value = (value.dim, value.level, tuple(coeffs.tolist()))
        elif isinstance(value, float):
            value = int(np.float64(value).view(np.uint64))
        bits[field.name] = value
    return bits


@pytest.mark.parametrize("mode", ["terminal", "stopped"])
@pytest.mark.parametrize("d", [1, 2])
def test_column_prefix_fit_keeps_the_bits_of_a_direct_fit(d, mode):
    # fit(level=l) on top-level features reads the column prefix of width
    # total_entries(d + 1, l); its training rows must be a contiguous copy,
    # since a strided view changes the gram's bits (and normal_eq_residual)
    top = 4
    times = dyadic_times(1.0, 4)
    values = sample_brownian_batch(13, np.arange(150), d, 1.0, 4)
    feats = rg.features_from_values(times, values, top, mode)
    x = feats.matrix[:, feats.words.index((1,))]
    y = np.sin(3.0 * x) + x * feats.matrix[:, -1]
    for level in range(top):
        direct = rg.features_from_values(times, values, level, mode)
        for lam in (0.0, None):
            got = rg.fit(feats, y, lam=lam, split_seed=5, level=level)
            want = rg.fit(direct, y, lam=lam, split_seed=5)
            assert _report_bits(got) == _report_bits(want), (level, lam)


@pytest.mark.parametrize("ratio", [3e-11, 3e-10])
def test_min_norm_fit_keeps_the_oracle_cutoff(ratio):
    # the last column is made collinear with the (1,) column up to a
    # perturbation whose singular value sits at `ratio` times the largest on
    # the training rows: below the 1e-10 cutoff it is dropped, above it kept
    feats = brownian_features(12, 200, 4, 2, mode="stopped")
    train = _train_rows(feats, 0)
    noise = np.random.default_rng(0).normal(size=feats.matrix.shape[0])
    matrix = feats.matrix.copy()
    x = matrix[:, feats.words.index((1,))]
    for _ in range(3):
        s = np.linalg.svd(matrix[train], compute_uv=False)
        noise *= ratio / (s[-1] / s[0])
        matrix[:, -1] = x + noise
    s = np.linalg.svd(matrix[train], compute_uv=False)
    assert 0.5 * ratio < s[-1] / s[0] < 2.0 * ratio
    near = rg.FeatureMatrix(
        matrix.reshape(feats.table.shape), feats.dim, feats.level, feats.time_weights
    )
    y = np.sin(3.0 * x) + matrix[:, -1]
    report = rg.fit(near, y, lam=0.0)
    beta, rank = lstsq_oracle(matrix[train], y[train])
    assert report.rank_deficient == (ratio < 1e-10) == (rank < matrix.shape[1])
    got = report.functional.coefficient_vector()
    assert np.array_equal(got.view(np.uint64), beta.view(np.uint64))


# -- Taylor certificate: the ode and sde fits against y0 exp(a t + b W) -------

TAYLOR_RUNS = {
    "sde": {"kind": "sde", "a": 0.5, "b": 1.0},
    "ode-linear": {"kind": "ode", "field": "linear", "a": 0.0, "b": 0.5},
}


def regression_fits(monkeypatch, config):
    """Run run_regression on `config` at depth 6 with 500 paths, levels 1-4;
    returns the config and the (features, targets, report) of each fit."""
    calls = []

    def spy(features, targets, **kwargs):
        report = rg.fit(features, targets, **kwargs)
        calls.append((features, np.asarray(targets), report))
        return report

    monkeypatch.setattr(ex, "fit", spy)
    cfg = ex.ExperimentConfig.from_dict(
        {"seed": 1, "depths": [6], "levels": [1, 2, 3, 4], "n_samples": 500, **config}
    )
    ex.run_regression(cfg)
    assert [report.functional.level for _, _, report in calls] == list(cfg.levels)
    return cfg, calls


@pytest.mark.parametrize("run", sorted(TAYLOR_RUNS))
def test_taylor_functional_contracts_the_stopped_table_to_the_series(monkeypatch, run):
    cfg, calls = regression_fits(monkeypatch, TAYLOR_RUNS[run])
    table = calls[0][0].table
    times = dyadic_times(cfg.T, 6)
    w = sample_brownian_batch(cfg.seed, np.arange(cfg.n_samples), 1, cfg.T, 6)[..., 0]
    assert table.shape[:2] == w.shape  # no path excluded
    z = cfg.a * times + cfg.b * w
    # Z of the path with absolute increments, |a| t + |b| * variation of W:
    # its series bounds the sum of the absolute values of every term summed,
    # on either side of the identity
    variation = np.cumsum(np.abs(np.diff(w, axis=1)), axis=1)
    z_abs = abs(cfg.a) * times + abs(cfg.b) * np.pad(variation, ((0, 0), (1, 0)))
    n_grid = times.size
    for level in cfg.levels:
        coeffs = taylor_functional(cfg.a, cfg.b, cfg.y0, level)
        got = table[..., : coeffs.size] @ coeffs
        want, term = np.zeros_like(z), np.ones_like(z)
        scale, term_abs = np.zeros_like(z), np.ones_like(z)
        for n in range(level + 1):
            want += term
            scale += term_abs
            term = term * z / (n + 1)
            term_abs = term_abs * z_abs / (n + 1)
        want *= cfg.y0
        scale *= abs(cfg.y0)
        # Roundings per summed term, at most: a signature entry of length
        # n <= level has n increments, n divisions, 2n products and n nested
        # sums of n_grid - 1 prefix and n + 1 Chen terms, n (n_grid + n + 4);
        # its coefficient takes level products and the contraction
        # coeffs.size; the series 5 level (Z, then a product and a division
        # and a sum per order).
        m = level * (n_grid + level + 10) + coeffs.size
        u = 2.0**-53
        assert (np.abs(got - want) <= m * u / (1 - m * u) * scale).all(), level


@pytest.mark.parametrize("run", sorted(TAYLOR_RUNS))
@pytest.mark.parametrize("lam", [0.0, None], ids=["lam-0", "default-ridge"])
def test_fit_objective_at_most_the_taylor_functionals(monkeypatch, run, lam):
    # the fit minimizes RSS + lam |beta|^2 over the training rows, unweighted
    # (the trapezoid weights only enter the reported errors), so no other
    # functional of the same level does better on it
    config = TAYLOR_RUNS[run] if lam is None else {**TAYLOR_RUNS[run], "lam": lam}
    cfg, calls = regression_fits(monkeypatch, config)
    for feats, y, report in calls:
        assert (report.lam > 0.0) == (lam is None)
        train = _train_rows(feats, cfg.seed)
        coeffs = taylor_functional(cfg.a, cfg.b, cfg.y0, report.functional.level)
        X, y_tr = feats.matrix[train, : coeffs.size], y.ravel()[train]

        def objective(beta):
            r = y_tr - X @ beta
            return r @ r + report.lam * (beta @ beta)

        fitted = objective(report.functional.coefficient_vector())
        assert fitted <= objective(coeffs), report.functional.level
