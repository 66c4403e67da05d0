import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigpath.experiments as experiments
from sigpath.cli import main
from sigpath.experiments import (
    EXPERIMENT_KINDS,
    FUNCTIONAL_TARGETS,
    LEVY_TARGETS,
    VECTOR_FIELDS,
    ExperimentConfig,
    run_config,
    run_levy,
    run_moments,
    run_regression,
)


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def small_functional_config(**overrides):
    base = {
        "kind": "functional",
        "seed": 1,
        "target": "terminal-square",
        "depths": [4],
        "levels": [1, 2],
        "n_samples": 40,
        "lam": 0.0,
    }
    base.update(overrides)
    return base


def test_sig_command_on_unit_line(tmp_path, capsys):
    csv = tmp_path / "line.csv"
    csv.write_text("t,x1\n0,0\n1,1\n")
    assert main(["sig", "--input", str(csv), "--level", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 2 and payload["level"] == 2
    assert payload["coeffs"][0] == [1.0]
    assert payload["coeffs"][1] == [1.0, 1.0]  # time and space increments
    assert np.allclose(payload["coeffs"][2], 0.5)


def test_sig_command_default_level(tmp_path, capsys):
    csv = tmp_path / "line.csv"
    csv.write_text("t,x1\n0,0\n1,1\n")
    assert main(["sig", "--input", str(csv)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["level"] == 4


def test_sig_command_rejects_bad_csv(tmp_path, capsys):
    single = tmp_path / "single.csv"
    single.write_text("t,x1\n0,0\n")
    assert main(["sig", "--input", str(single)]) == 2

    unsorted = tmp_path / "unsorted.csv"
    unsorted.write_text("t,x1\n0,0\n0.5,1\n0.25,2\n")
    assert main(["sig", "--input", str(unsorted)]) == 2
    assert "line" in capsys.readouterr().err


def test_run_writes_results_and_functionals(tmp_path, capsys):
    cfg = write_config(tmp_path, "exp.json", small_functional_config())
    out = tmp_path / "res.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("experiment,target,depth,level,")
    assert len(lines) == 3  # header + two levels
    reports = json.loads((tmp_path / "res.functionals.json").read_text())
    assert "terminal-square/depth=4/level=2" in reports


def test_run_is_bit_deterministic(tmp_path):
    cfg = write_config(tmp_path, "exp.json", small_functional_config())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.functionals.json").read_bytes() == (
        tmp_path / "b.functionals.json"
    ).read_bytes()


def test_seed_override_changes_hash(tmp_path):
    cfg = write_config(tmp_path, "exp.json", small_functional_config())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b), "--seed", "9"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_append_guards_schema(tmp_path):
    cfg = write_config(tmp_path, "exp.json", small_functional_config())
    out = tmp_path / "res.csv"
    out.write_text("something,else\n1,2\n")
    assert main(["run", "--config", cfg, "--out", str(out), "--append"]) == 2


def test_append_extends_matching_schema(tmp_path):
    cfg = write_config(tmp_path, "exp.json", small_functional_config())
    out = tmp_path / "res.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    n_lines = len(out.read_text().splitlines())
    assert main(["run", "--config", cfg, "--out", str(out), "--append"]) == 0
    assert len(out.read_text().splitlines()) == 2 * n_lines - 1


def test_config_errors_exit_2(tmp_path):
    bad = [
        small_functional_config(target="no-such-target"),
        small_functional_config(alpha=0.6),
        small_functional_config(n_samples=5),
        small_functional_config(unknown_key=1),
        {"kind": "sde", "depths": [8], "n_max": 10},  # depth gap < 4
        {"kind": "levy", "d": 1},
        {"kind": "mystery"},
    ]
    for i, payload in enumerate(bad):
        cfg = write_config(tmp_path, f"bad{i}.json", payload)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2


@pytest.mark.parametrize(
    "payload, extra",
    [
        (small_functional_config(n_samples=2000.0), []),
        (small_functional_config(p="2"), []),
        (small_functional_config(lam="x"), []),
        ([small_functional_config()], []),
        ([small_functional_config()], ["--seed", "3"]),
        (small_functional_config(seed=True), []),
        (small_functional_config(depths=[2.7]), []),
        (small_functional_config(T=float("nan")), []),
        (small_functional_config(T=None), []),
    ],
    ids=["float-n_samples", "string-p", "string-lam", "json-list",
         "json-list-seed-override", "bool-seed", "fractional-depth", "nan-T",
         "null-T"],
)
def test_mistyped_config_exits_2(tmp_path, payload, extra):
    cfg = write_config(tmp_path, "bad.json", payload)
    out = tmp_path / "o.csv"
    assert main(["run", "--config", cfg, "--out", str(out)] + extra) == 2
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize(
    "case",
    ["negative-level", "non-utf8-config", "non-utf8-input", "dir-config",
     "dir-input", "dir-out"],
)
def test_bad_cli_input_exits_2(tmp_path, case):
    csv = tmp_path / "line.csv"
    csv.write_text("t,x1\n0,0\n1,1\n")
    cfg = write_config(tmp_path, "exp.json", small_functional_config())
    binary = tmp_path / "latin1.txt"
    binary.write_bytes("t,x1\n0,\u00e9\n".encode("latin-1"))
    argv = {
        "negative-level": ["sig", "--input", str(csv), "--level", "-1"],
        "non-utf8-config": ["run", "--config", str(binary)],
        "non-utf8-input": ["sig", "--input", str(binary)],
        "dir-config": ["run", "--config", str(tmp_path)],
        "dir-input": ["sig", "--input", str(tmp_path)],
        "dir-out": ["run", "--config", cfg, "--out", str(tmp_path)],
    }[case]
    assert main(argv) == 2


@pytest.mark.parametrize("case", ["dir-out", "missing-parent"])
def test_bad_out_exits_2_before_the_run(tmp_path, monkeypatch, case):
    def never(cfg):
        raise AssertionError("the experiment ran before --out was checked")

    monkeypatch.setitem(experiments._RUNNERS, "functional", never)
    cfg = write_config(tmp_path, "exp.json", small_functional_config())
    out = {"dir-out": tmp_path, "missing-parent": tmp_path / "no" / "o.csv"}[case]
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2


# Tiny valid values per config key: no config drawn here asks for more than
# 40 paths on a 2^10 lattice.
CONFIG_FIELDS = {
    "seed": st.integers(0, 2**64 - 1),
    "d": st.integers(1, 2),
    "T": st.sampled_from([0.5, 1.0, 2.5]),
    "depths": st.lists(st.integers(0, 6), min_size=1, max_size=2),
    "levels": st.lists(st.integers(1, 3), min_size=1, max_size=2),
    "n_samples": st.integers(10, 40),
    "p": st.sampled_from([1, 2.0, 3.5]),
    "alpha": st.sampled_from([0.34, 0.4, 0.49]),
    "beta": st.sampled_from([0.01, 0.05, 500.0]),
    "gamma": st.sampled_from([1, 2.0]),
    "m": st.integers(1, 4),
    "lam": st.sampled_from([None, 0.0, 1e-3]),
    "target": st.sampled_from(FUNCTIONAL_TARGETS + LEVY_TARGETS),
    "field": st.sampled_from(VECTOR_FIELDS),
    "a": st.sampled_from([-0.5, 0.0, 0.5]),
    "b": st.sampled_from([0.5, 1.0]),
    "y0": st.sampled_from([-1.0, 1.0]),
    "substeps": st.integers(1, 4),
    "n_max": st.integers(0, 10),
}
# Mistyped and out-of-range values; no large integer, since a valid huge
# n_samples, d or m would be accepted and allocated.
BAD_VALUES = st.sampled_from(
    ["x", "8", -1, 0, 2.5, True, None, [], [-1], [2.5], {}, float("nan"), "mystery"]
)


@st.composite
def run_configs(draw):
    payload = {"kind": draw(st.sampled_from(EXPERIMENT_KINDS))}
    optional = draw(st.lists(st.sampled_from(sorted(CONFIG_FIELDS)), max_size=5))
    for key in ["n_samples", "depths", "n_max", *optional]:
        payload[key] = draw(CONFIG_FIELDS[key])
    for key in draw(st.lists(st.sampled_from(sorted(payload)), max_size=2)):
        payload[key] = draw(BAD_VALUES)
    if draw(st.integers(0, 3)) == 0:
        payload["bogus"] = 1
    return payload


@settings(deadline=None, max_examples=40)
@given(run_configs())
def test_run_exit_code_contract(payload):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), "cfg.json", payload)
        out = Path(tmp) / "out.csv"
        code = main(["run", "--config", cfg, "--out", str(out)])
        assert code in (0, 2, 3)
        assert out.exists() == (code == 0)


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_example_config_runs(tmp_path, name):
    payload = json.loads((CONFIG_DIR / name).read_text())
    payload["n_samples"] = 20
    cfg = write_config(tmp_path, name, payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0


def test_config_defaults_by_kind():
    levy = ExperimentConfig.from_dict({"kind": "levy"})
    assert levy.d == 2 and levy.n_samples == 10000 and levy.n_max == 14
    moments = ExperimentConfig.from_dict({"kind": "moments"})
    assert moments.beta == 0.01 and moments.m == 2
    func = ExperimentConfig.from_dict({"kind": "functional"})
    assert func.depths == (8,) and func.n_max == 8


def test_moments_beta_zero_limit_and_monotonicity():
    estimates = []
    for beta in (1e-6, 0.005, 0.01, 0.02):
        cfg = ExperimentConfig.from_dict(
            {"kind": "moments", "seed": 1, "n_samples": 200, "depths": [5], "beta": beta}
        )
        _, rows, _ = run_moments(cfg)
        estimates.append(rows[0]["estimate"])
    assert estimates[0] == pytest.approx(1.0, rel=0.01)
    assert estimates[1] < estimates[2] < estimates[3]


def test_moments_overflow_aborts(tmp_path):
    cfg = write_config(
        tmp_path,
        "m.json",
        {"kind": "moments", "seed": 1, "n_samples": 20, "depths": [4], "beta": 500.0},
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "m.csv")]) == 3


def test_levy_time_coordinate_distance_is_zero():
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "levy",
            "seed": 1,
            "target": "time-coordinate",
            "n_samples": 20,
            "depths": [4, 5],
            "n_max": 10,
        }
    )
    _, rows, _ = run_levy(cfg)
    assert all(r["distance"] <= 1e-12 for r in rows)


def test_levy_single_depth_has_no_slope():
    cfg = ExperimentConfig.from_dict(
        {"kind": "levy", "seed": 1, "n_samples": 10, "depths": [1], "n_max": 5}
    )
    _, rows, _ = run_levy(cfg)
    assert len(rows) == 1 and math.isnan(rows[0]["slope"])


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "levy", "n_samples": 10, "depths": [1, 1], "n_max": 5},
        small_functional_config(depths=[4, 3, 4]),
        small_functional_config(levels=[1, 2, 1]),
    ],
    ids=["levy-depth", "functional-depth", "functional-level"],
)
def test_repeated_depth_or_level_exits_2(tmp_path, payload):
    cfg = write_config(tmp_path, "rep.json", payload)
    out = tmp_path / "o.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_levy_first_coordinate_slope(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "levy",
            "seed": 1,
            "target": "first-coordinate",
            "n_samples": 300,
            "depths": [3, 4, 5, 6],
            "n_max": 11,
        }
    )
    _, rows, _ = run_levy(cfg)
    dists = [r["distance"] for r in rows]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert -0.75 <= rows[0]["slope"] <= -0.25


def test_rows_carry_config_hash(tmp_path):
    cfg = ExperimentConfig.from_dict(small_functional_config())
    out = str(tmp_path / "res.csv")
    _, rows = run_config(cfg, out=out)
    assert all(r["config_hash"] == cfg.config_hash() for r in rows)
    text = Path(out).read_text()
    assert cfg.config_hash() in text


def test_ode_blowups_excluded_and_counted():
    # steep driver plus strong linear growth makes some samples explode
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "ode",
            "seed": 1,
            "field": "linear",
            "a": 0.0,
            "b": 40.0,
            "levels": [1],
            "n_samples": 30,
            "depths": [2],
            "substeps": 1,
            "lam": 0.0,
        }
    )
    with np.errstate(over="ignore", invalid="ignore"):
        _, rows, _ = run_regression(cfg)
    assert rows[0]["n_excluded"] >= 0  # runs to completion either way
    assert math.isfinite(rows[0]["test_error"])


def test_sde_samples_each_depth_and_ignores_n_max(monkeypatch):
    sampled = []
    sampler = experiments.sample_brownian_batch

    def recording(seed, sample_indices, d, T, n_max):
        sampled.append(n_max)
        return sampler(seed, sample_indices, d, T, n_max)

    monkeypatch.setattr(experiments, "sample_brownian_batch", recording)
    payload = {
        "kind": "sde", "seed": 4, "depths": [4, 6, 8], "levels": [1, 2],
        "n_samples": 200, "lam": 0.0,
    }
    results = {}
    for n_max in (12, 14):
        sampled.clear()
        cfg = ExperimentConfig.from_dict({**payload, "n_max": n_max})
        _, rows, reports = run_regression(cfg)
        assert sampled == [4, 6, 8]
        results[n_max] = (
            [{k: v for k, v in row.items() if k != "config_hash"} for row in rows],
            reports,
        )
    assert results[12] == results[14]
