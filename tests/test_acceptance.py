"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with `pytest -s tests/test_acceptance.py` to see them).

The experiment-scale criteria (4-8) run the same configs the CLI would; the
algebraic criteria (1-3) exercise the library against independent oracles.
"""

import math
import time

import numpy as np
import pytest

import sigpath.tensor as tn
from sigpath.experiments import (
    ExperimentConfig,
    run_config,
    run_levy,
    run_moments,
    run_regression,
)
from sigpath.paths import PiecewiseLinearPath, time_extend
from sigpath.signature import reverse_check, signature, signature_stream
from helpers_oracle import iterated_integral_riemann, random_pl_path

ACCEPTANCE_SEED = 1


def report(number, name, started, limit):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f} s)")


def test_criterion_1_algebraic_identity_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    for case in range(100):
        dim = 1 + case % 3
        level = 4 + case % 2
        path = random_pl_path(rng, 20, dim)
        whole = signature(path, level)
        blocks = tn.level_blocks(whole, dim)

        # Chen identity at every interior breakpoint
        for k in range(1, path.n_segments):
            prefix = PiecewiseLinearPath(path.times[: k + 1], path.values[: k + 1])
            suffix = PiecewiseLinearPath(
                path.times[k:] - path.times[k], path.values[k:]
            )
            product = tn.mul(signature(prefix, level), signature(suffix, level), dim)
            for got, want in zip(tn.level_blocks(product, dim), blocks):
                scale = 1.0 + np.abs(want).max()
                assert np.allclose(got, want, atol=1e-12 * scale)

        # shuffle identity for all word pairs with |I| + |J| <= 4
        words = [w for w in tn.all_words(dim, 3) if w]
        for i in words:
            for j in words:
                if len(i) + len(j) <= 4:
                    lhs, rhs = tn.apply_shuffle_check(whole, dim, i, j)
                    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

        # exp/log round trip through the group-like signature
        back = tn.exp(tn.log(whole, dim), dim)
        assert np.allclose(back, whole, atol=1e-10)

        # group inverse via the reversed path
        assert reverse_check(path, level) <= 1e-10

        # dilation grading
        lam = 0.7 + 0.01 * case
        dilated = signature(
            PiecewiseLinearPath(path.times, lam * path.values), level
        )
        for n, (got, want) in enumerate(zip(tn.level_blocks(dilated, dim), blocks)):
            assert np.allclose(
                got, lam**n * want, atol=1e-12 * (1.0 + np.abs(want).max())
            )
    report(1, "algebraic identity suite", started, 30.0)


def test_criterion_2_time_coordinate_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    for _ in range(10):
        hat = time_extend(random_pl_path(rng, 12, 1))
        stream = signature_stream(hat, 5)
        for row, t in zip(stream, hat.times):
            for k in range(6):
                expected = t**k / math.factorial(k)
                assert abs(row[tn.word_index((0,) * k, 2)] - expected) <= 1e-12
    report(2, "time-coordinate identity", started, 5.0)


def test_criterion_3_brute_force_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    for _ in range(20):
        path = random_pl_path(rng, 3, 2)
        g = signature(path, 3)
        for word in tn.all_words(2, 3):
            if word:
                oracle = iterated_integral_riemann(path, word, n_grid=1000)
                assert abs(g[tn.word_index(word, 2)] - oracle) <= 1e-3
    report(3, "brute-force oracle equivalence", started, 60.0)


def test_criterion_4_exact_representability():
    started = time.perf_counter()
    for target in ("integral", "terminal-square"):
        cfg = ExperimentConfig.from_dict(
            {
                "kind": "functional",
                "seed": ACCEPTANCE_SEED,
                "target": target,
                "depths": [8],
                "levels": [2, 3, 4],
                "n_samples": 2000,
                "lam": 0.0,
            }
        )
        rows, _ = run_regression(cfg)
        for row in rows:
            assert row["test_error"] <= 1e-6, (target, row["level"], row["test_error"])
    report(4, "exact-representability regressions", started, 120.0)


def test_criterion_5_expressiveness_monotonicity():
    started = time.perf_counter()
    sequences = {}
    for target in ("running-max", "exp-terminal"):
        cfg = ExperimentConfig.from_dict(
            {
                "kind": "functional",
                "seed": ACCEPTANCE_SEED,
                "target": target,
                "depths": [8],
                "levels": [1, 2, 3, 4],
                "n_samples": 2000,
                "lam": 0.0,
            }
        )
        rows, _ = run_regression(cfg)
        sequences[target] = [r["test_error"] for r in rows]

    cfg = ExperimentConfig.from_dict(
        {
            "kind": "ode",
            "seed": ACCEPTANCE_SEED,
            "field": "linear",
            "a": 0.0,
            "b": 0.5,
            "depths": [8],
            "levels": [1, 2, 3, 4],
            "n_samples": 2000,
            "lam": 0.0,
        }
    )
    rows, _ = run_regression(cfg)
    sequences["linear-ode"] = [r["test_error"] for r in rows]

    cfg = ExperimentConfig.from_dict(
        {
            "kind": "sde",
            "seed": ACCEPTANCE_SEED,
            "a": 0.5,
            "b": 1.0,
            "depths": [8],
            "levels": [1, 2, 3, 4],
            "n_samples": 2000,
            "n_max": 14,
            "lam": 0.0,
        }
    )
    rows, _ = run_regression(cfg)
    sequences["gbm-sde"] = [r["test_error"] for r in rows]

    for target, errs in sequences.items():
        assert all(
            errs[i + 1] < errs[i] for i in range(len(errs) - 1)
        ), f"{target}: {errs}"
    report(5, "expressiveness monotonicity", started, 600.0)


@pytest.mark.slow
def test_criterion_6_interpolated_signature_convergence():
    started = time.perf_counter()
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "levy",
            "seed": ACCEPTANCE_SEED,
            "depths": [4, 5, 6, 7, 8, 9, 10],
            "n_samples": 10000,
            "n_max": 14,
        }
    )
    rows, _ = run_levy(cfg)
    distances = [r["distance"] for r in rows]
    assert all(b < a for a, b in zip(distances, distances[1:])), distances
    slope = rows[0]["slope"]
    assert -0.65 <= slope <= -0.35, slope
    report(6, "interpolated-signature convergence", started, 600.0)


def test_criterion_7_exponential_moment_stability():
    started = time.perf_counter()
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "moments",
            "seed": ACCEPTANCE_SEED,
            "depths": [8],
            "n_samples": 10000,
            "alpha": 0.4,
            "beta": 0.01,
            "gamma": 2.0,
            "p": 2.0,
        }
    )
    rows, _ = run_moments(cfg)
    row = rows[0]
    assert math.isfinite(row["estimate"])
    assert 0.8 <= row["half_full_ratio"] <= 1.25, row["half_full_ratio"]
    assert row["stable"]
    report(7, "exponential-moment stability", started, 300.0)


def test_criterion_8_determinism(tmp_path):
    started = time.perf_counter()
    configs = [
        {
            "kind": "functional",
            "seed": ACCEPTANCE_SEED,
            "target": "exp-terminal",
            "depths": [5],
            "levels": [1, 2],
            "n_samples": 50,
        },
        {
            "kind": "ode",
            "seed": ACCEPTANCE_SEED,
            "field": "tanh-bounded",
            "depths": [4],
            "levels": [1, 2],
            "n_samples": 40,
        },
        {
            "kind": "sde",
            "seed": ACCEPTANCE_SEED,
            "depths": [4],
            "levels": [1, 2],
            "n_samples": 40,
            "n_max": 9,
        },
        {
            "kind": "levy",
            "seed": ACCEPTANCE_SEED,
            "depths": [3, 4],
            "n_samples": 40,
            "n_max": 9,
        },
        {
            "kind": "moments",
            "seed": ACCEPTANCE_SEED,
            "depths": [5],
            "n_samples": 50,
        },
    ]
    for i, payload in enumerate(configs):
        cfg = ExperimentConfig.from_dict(payload)
        first = tmp_path / f"{payload['kind']}{i}_a.csv"
        second = tmp_path / f"{payload['kind']}{i}_b.csv"
        run_config(cfg, out=str(first))
        run_config(cfg, out=str(second))
        assert first.read_bytes() == second.read_bytes(), payload["kind"]
        fj = first.with_name(first.name[:-4] + ".functionals.json")
        sj = second.with_name(second.name[:-4] + ".functionals.json")
        if fj.exists():
            assert fj.read_bytes() == sj.read_bytes(), payload["kind"]
    report(8, "determinism", started, 300.0)
