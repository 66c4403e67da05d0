import ast
import csv
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigpath.experiments as experiments
from helpers_hashes import mismatch_note, output_hashes
from helpers_oracle import (
    levy_mean_square_oracle,
    levy_rows_oracle,
    levy_square_draws,
    refined_holder_oracle,
)
from sigpath.cli import main
from sigpath.experiments import (
    EXPERIMENT_KINDS,
    FUNCTIONAL_TARGETS,
    LEVY_TARGETS,
    VECTOR_FIELDS,
    ConfigError,
    ExperimentConfig,
    run_config,
    run_levy,
    run_moments,
    run_regression,
)
from sigpath.paths import dyadic_times
from sigpath.stochastic import sample_brownian_batch, solve_ode_batch


ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
SCRIPT_DIR = ROOT / "scripts"
# sha256 of every output of the example configs and sweep scripts, by
# example; recorded at the default BLAS thread count of a 2-CPU host, as
# benchmarks/reference_hashes.json is
EXAMPLE_HASHES = json.loads((ROOT / "tests" / "example_hashes.json").read_text())


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


def sig_pin_csv(d):
    """Nine breakpoints whose time steps run from 1e-4 to 1e4 and whose
    values run from 1e-5 to 1e3, with alternating signs."""
    rows = ["t," + ",".join(f"x{c + 1}" for c in range(d))]
    t = 0.0
    for k in range(9):
        if k:
            t += 10.0 ** ((7 * k) % 9 - 4) * (1 + k / 7)
        values = [
            (-1) ** (k + c) * 10.0 ** ((3 * k + 5 * c) % 7 - 3) * ((13 * k + 5 * c) % 11 + 1) / 11
            for c in range(d)
        ]
        rows.append(",".join(repr(v) for v in [t] + values))
    return "\n".join(rows) + "\n"


# sha256 of `sigpath sig` stdout on sig_pin_csv(d) at each (d, --level)
SIG_HASHES = {
    (1, 0): "647ee787a490fe3452e738a572c339d5608d2b3d0db37453c170fe4f30e0dd60",
    (1, 1): "b9830b20d066b6c67f8315103e4c7bce59e692f4e4383a754c37fe254fd5c9f9",
    (1, 2): "6a6a98e37417aba266ba780818c5838d0229fd6eab9d14dca6de66e1d7115982",
    (1, 3): "9f37f4c14bc4d9ed338c64148215bf73ac85b387f9f6998aa2f42e74aa2b6451",
    (1, 4): "e0f0d49469ddee94f0f329b08a254c18fa66d46f64f49761fb3c9a0b93e62995",
    (1, 5): "85a152c32f7cee34579c5a660c24a38a2f8ff2af01a797360e3a2f7e0338e91c",
    (2, 0): "c03f7dc8cac669416bc7ce2697554a7526b23083bced3fb64f5b88ddca95af12",
    (2, 1): "68a5df584da5c15a4a2036b9737d071b00081c949e428e7d3ba43d059fda2ad7",
    (2, 2): "b29c2924fa780181dbcf744fff925d6590b6e10a3d904b8c8d06a1749cdf8c7d",
    (2, 3): "1d3ba0d770943bed32417a29421f1b705234ef7e341a401010e0806c6103d5fe",
    (2, 4): "f5c7f843a33dd5a5481135677cfbc709dd448f6b4cfc7ad41607c20ed5535126",
    (2, 5): "3f1474a4139deb9829c79eea66e39edc277b8799c60cd19e338c065297280cd7",
    (3, 0): "d315757475a60dfa519deac6c426a247308780e4021db6e107855a0eb11a73d6",
    (3, 1): "079e963276c8bbf63e270597ecfd318f219550ca27b3ee77b642078d5e49668c",
    (3, 2): "36b8e57075208c424dab18f20d2e8423d97d5be81531e8209181238b99bd7689",
    (3, 3): "d6653a272930701c32971140fb39b892355d76de348fb60426619797515fa15f",
    (3, 4): "fe8023bfdbcc832ab11adc14002a5d745fd1a1ba1ad75b21a588d92c1912a761",
    (3, 5): "16fc6fc569cc6163bd7b9ccaf73648ba84a1737a19db2b6a26b54b7a18db8fbc",
}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sig_command_output_bytes_are_pinned(tmp_path, capsys, d):
    # the default level is 4 for d = 1 and 3 otherwise
    csv = tmp_path / "pin.csv"
    csv.write_text(sig_pin_csv(d))
    for level in (None, 0, 1, 2, 3, 4, 5):
        argv = ["sig", "--input", str(csv)]
        if level is not None:
            argv += ["--level", str(level)]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == SIG_HASHES[d, (4 if d == 1 else 3) if level is None else level]


def test_sig_command_overflow_exits_3(tmp_path, capsys):
    csv = tmp_path / "huge.csv"
    csv.write_text("t,x1\n0,0\n1,1e200\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sig", "--input", str(csv), "--level", "3"]) == 3
    assert not caught
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "signature overflows at level 3" in captured.err


def test_sig_command_rejects_subnormal_time_steps(tmp_path, capsys):
    # steps below 2**-1022 lost the signature's relative precision: this path
    # printed S^(0,1) = 5e-324 and S^(1,0) = 0
    csv = tmp_path / "tiny.csv"
    csv.write_text("t,x1\n0,0\n5e-324,0\n1e-323,1\n")
    assert main(["sig", "--input", str(csv), "--level", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: line 3: time step below 2**-1022" in captured.err
    # normal steps still print, and S^(0,1) + S^(1,0) = S^(0) S^(1) holds
    csv.write_text("t,x1\n0,0\n2.3e-308,0\n4.6e-308,1\n")
    assert main(["sig", "--input", str(csv), "--level", "3"]) == 0
    coeffs = json.loads(capsys.readouterr().out)["coeffs"]
    assert coeffs[2][1] + coeffs[2][2] == coeffs[1][0] * coeffs[1][1] == 4.6e-308


def test_sig_command_under_python_W_error_exits_2_on_an_overflowing_step(tmp_path):
    # the step from 1e308 to -1e308 overflows if taken: it warned, and under
    # -W error exited 1 with a traceback
    csv = tmp_path / "jump.csv"
    csv.write_text("t,x1\n0,0\n1e308,0\n-1e308,1\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sigpath.cli", "sig", "--input", str(csv)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: line 4: non-increasing time column\n"


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
    first = out.read_text()
    n_lines = len(first.splitlines())
    # the second input lost its final newline: the appended rows must still
    # start on a line of their own
    for existing in (first, first.rstrip("\n")):
        out.write_text(existing)
        assert main(["run", "--config", cfg, "--out", str(out), "--append"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 * n_lines - 1
        n_fields = lines[0].count(",")
        assert all(line.count(",") == n_fields for line in lines)


def test_append_merges_fitted_functionals(tmp_path):
    def run(out, append, **overrides):
        cfg = write_config(tmp_path, "exp.json", small_functional_config(**overrides))
        argv = ["run", "--config", cfg, "--out", str(tmp_path / out)]
        assert main(argv + ["--append"] * append) == 0
        return json.loads((tmp_path / out).with_suffix(".functionals.json").read_text())

    first = run("res.csv", False)
    integral = run("res.csv", True, target="integral", seed=2)
    assert set(integral) == set(first) | {
        f"integral/depth=4/level={level}" for level in (1, 2)
    }
    assert all(integral[key] == first[key] for key in first)
    # a repeated key takes the latest run's report
    merged = run("res.csv", True, seed=3)
    alone = run("alone.csv", False, seed=3)
    assert set(merged) == set(integral) and alone != first
    assert all(merged[key] == alone[key] for key in alone)
    assert all(merged[key] == integral[key] for key in set(integral) - set(alone))


# past json's parser limits: a RecursionError and a ValueError, not a
# JSONDecodeError
DEEP_JSON = "[" * 100_000 + "]" * 100_000 + "\n"
LONG_INT_JSON = '{"seed": ' + "1" * 5000 + "}\n"


@pytest.mark.parametrize(
    "stored",
    ["[1, 2]\n", "not json\n", DEEP_JSON, LONG_INT_JSON],
    ids=["list", "not-json", "deep-nesting", "long-int"],
)
def test_append_onto_a_non_object_functionals_file_exits_2(tmp_path, monkeypatch, stored):
    cfg = write_config(tmp_path, "exp.json", small_functional_config())
    out, side = tmp_path / "res.csv", tmp_path / "res.functionals.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    csv_bytes = out.read_bytes()
    side.write_text(stored)

    def never(cfg):
        raise AssertionError("the experiment ran before the functionals were read")

    monkeypatch.setitem(experiments.EXPERIMENT_KINDS, "functional", (never, {}))
    assert main(["run", "--config", cfg, "--out", str(out), "--append"]) == 2
    assert out.read_bytes() == csv_bytes and side.read_text() == stored


def _run_script(monkeypatch, name, out, *args):
    """Run a sweep script's `main` in-process on the given arguments."""
    spec = importlib.util.spec_from_file_location(name[:-3], SCRIPT_DIR / name)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [name, "--out", str(out), *args])
    script.main()
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    reports = json.loads(out.with_suffix(".functionals.json").read_text())
    return rows, reports


def test_sweep_scripts_keep_every_fitted_functional(tmp_path, monkeypatch):
    rows, reports = _run_script(
        monkeypatch, "functional_targets.py", tmp_path / "functional.csv",
        "--samples", "20", "--depth", "3",
    )
    keys = {f"{r['target']}/depth={r['depth']}/level={r['level']}" for r in rows}
    assert len(rows) == 16 and set(reports) == keys
    assert {key.split("/")[0] for key in keys} == {
        "terminal-square", "integral", "running-max", "exp-terminal"
    }

    rows, reports = _run_script(
        monkeypatch, "ode_sde_targets.py", tmp_path / "odesde.csv", "--samples", "20"
    )
    keys = {f"{r['target']}/depth={r['depth']}/level={r['level']}" for r in rows}
    assert len(rows) == 20 and set(reports) == keys
    assert {key.split("/")[0] for key in keys} == {"linear", "tanh-bounded", "gbm"}


def test_config_errors_exit_2(tmp_path, capsys):
    scalar = {"depths": [3], "levels": [1], "n_samples": 10}
    bad = [
        (small_functional_config(target="no-such-target"),
         "unknown target 'no-such-target'"),
        (small_functional_config(alpha=0.6), "alpha must lie in (1/3, 1/2)"),
        (small_functional_config(n_samples=5), "n_samples must lie in [10, 2**48]"),
        (small_functional_config(unknown_key=1), "unknown config key 'unknown_key'"),
        # the levy eval grid (depth 11) would be finer than the lattice
        ({"kind": "levy", "depths": [10], "n_max": 10},
         "levy depths must stay >= 4 levels below the reference n_max"),
        ({"kind": "levy", "d": 1}, "levy experiment needs d = 2"),
        ({"kind": "mystery"}, "unknown experiment kind 'mystery'"),
        # not an experiment kind; `sigpath sig` prints one
        ({"kind": "sig"}, "unknown experiment kind 'sig'"),
        # coordinate 256 would share the Brownian keys of coordinate 0
        ({"kind": "moments", "d": 257, "depths": [2], "n_samples": 10},
         "need 1 <= d <= 256"),
        # T / 2**24 would be subnormal or T * 2**24 infinite
        *((small_functional_config(T=T), "T must lie in [2**-998, 2**1000)")
          for T in (0, -1.0, 2.0**-999, 2.0**1000)),
        # 2**41 - 1 signature coordinates, rejected before any is enumerated
        (small_functional_config(levels=[40]), "levels exceed 4096 signature features"),
        # and without raising 2 to a huge power
        (small_functional_config(levels=[10**18]),
         "levels exceed 4096 signature features"),
        # more paths than any machine holds, rejected before any allocation
        *(({"kind": "functional", "depths": [2], "levels": [1], "n_samples": n},
           "n_samples must lie in [10, 2**48]") for n in (2**60, 10**30, 2**63 - 1)),
        # more RK4 steps per path than the deepest lattice has positions
        *(({"kind": "ode", "substeps": n, "depths": [1], "levels": [1], "n_samples": 10},
           "substeps must be >= 1 and substeps * 2**depth <= 2**24")
          for n in (10**9, 10**30)),
        ({"kind": "ode", "depths": [24], "n_max": 24},  # 4 substeps of 2**24
         "substeps must be >= 1 and substeps * 2**depth <= 2**24"),
        *((small_functional_config(seed=seed), "seed must be an integer in [0, 2**64)")
          for seed in (-1, 2**64)),
        (small_functional_config(n_max=3),
         "depths must lie in 0..n_max and n_max <= 24"),
        ({"kind": "levy", "n_max": 25}, "depths must lie in 0..n_max and n_max <= 24"),
        (small_functional_config(p=0.5), "p must be >= 1"),
        *((small_functional_config(**{key: value}), "need beta > 0, gamma >= 1, m >= 1")
          for key, value in (("beta", 0.0), ("gamma", 0.5), ("m", 0))),
        (small_functional_config(lam=-1.0), "lam must be >= 0"),
        (small_functional_config(levels=[0, 1]), "levels must all be >= 1"),
        ({"kind": "ode", "d": 2, **scalar}, "ode experiment drives a scalar field (d = 1)"),
        ({"kind": "sde", "d": 2, **scalar}, "sde experiment is scalar (d = 1)"),
        # list entries follow the rule of integer fields: no integral floats
        (small_functional_config(depths=[8.0]), "depths entry must be an integer, got 8.0"),
        (small_functional_config(p=10**400), "p must be finite"),
    ]
    for i, (payload, message) in enumerate(bad):
        cfg = write_config(tmp_path, f"bad{i}.json", payload)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert f"error: {message}" in capsys.readouterr().err, payload


# every config field but `kind`, which is looked up before any field check
CHECKED_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)][1:]


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
        # no n_max: it is derived from the depths, which must not crash
        ({"kind": "functional", "depths": []}, []),
        ({"kind": "ode", "depths": []}, []),
        ({"kind": "moments", "depths": []}, []),
        # kinds and targets are looked up in tables, which cannot hash these
        ({"kind": []}, []),
        ({"kind": {}}, []),
        ({"kind": "functional", "target": []}, []),
        ({"kind": "levy", "target": {}}, []),
        # every field is type-checked, also one its kind never reads
        *((small_functional_config(**{name: True}), []) for name in CHECKED_FIELDS),
        # the output path is --out or run_config(out=...), not a config key
        (small_functional_config(out="o.csv"), []),
    ],
    ids=["float-n_samples", "string-p", "string-lam", "json-list",
         "json-list-seed-override", "bool-seed", "fractional-depth", "nan-T",
         "null-T", "empty-depths-functional", "empty-depths-ode",
         "empty-depths-moments", "list-kind", "object-kind",
         "list-functional-target", "object-levy-target",
         *(f"true-{name}" for name in CHECKED_FIELDS), "out-key"],
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
    ["negative-level", "huge-level", "non-utf8-config", "non-utf8-input",
     "dir-config", "dir-input", "dir-out", "default-level-too-wide",
     "deep-config", "long-int-config"],
)
def test_bad_cli_input_exits_2(tmp_path, capsys, case):
    csv = tmp_path / "line.csv"
    csv.write_text("t,x1\n0,0\n1,1\n")
    # 15 coordinates: the default level 3 has 1 + 16 + 256 + 4096 > MAX_WORDS words
    wide = tmp_path / "wide.csv"
    wide.write_text(
        "t," + ",".join(f"x{i}" for i in range(1, 16)) + "\n"
        + "0" + ",0" * 15 + "\n" + "1" + ",1" * 15 + "\n"
    )
    cfg = write_config(tmp_path, "exp.json", small_functional_config())
    binary = tmp_path / "latin1.txt"
    binary.write_bytes("t,x1\n0,\u00e9\n".encode("latin-1"))
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    long_int = tmp_path / "long_int.json"
    long_int.write_text(LONG_INT_JSON)
    argv = {
        "negative-level": ["sig", "--input", str(csv), "--level", "-1"],
        "huge-level": ["sig", "--input", str(csv), "--level", "40"],
        "non-utf8-config": ["run", "--config", str(binary)],
        "non-utf8-input": ["sig", "--input", str(binary)],
        "dir-config": ["run", "--config", str(tmp_path)],
        "dir-input": ["sig", "--input", str(tmp_path)],
        "dir-out": ["run", "--config", cfg, "--out", str(tmp_path)],
        "default-level-too-wide": ["sig", "--input", str(wide)],
        "deep-config": ["run", "--config", str(deep)],
        "long-int-config": ["run", "--config", str(long_int)],
    }[case]
    assert main(argv) == 2
    if case in ("deep-config", "long-int-config"):
        assert capsys.readouterr().err.startswith("error: config ")
    if case == "default-level-too-wide":
        assert capsys.readouterr().err == (
            "error: the default level 3 exceeds 4096 signature coordinates;"
            " pass a lower --level\n"
        )


@pytest.mark.parametrize("case", ["dir-out", "missing-parent", "dir-functionals"])
def test_bad_out_exits_2_before_the_run(tmp_path, monkeypatch, case):
    def never(cfg):
        raise AssertionError("the experiment ran before --out was checked")

    monkeypatch.setitem(experiments.EXPERIMENT_KINDS, "functional", (never, {}))
    cfg = write_config(tmp_path, "exp.json", small_functional_config())
    if case == "dir-functionals":
        (tmp_path / "o.functionals.json").mkdir()
    out = {
        "dir-out": tmp_path,
        "missing-parent": tmp_path / "no" / "o.csv",
        "dir-functionals": tmp_path / "o.csv",
    }[case]
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not (tmp_path / "o.csv").exists()


# Tiny values per config key, all valid but the huge d, n_samples, substeps
# and level 40: no config drawn here runs more than 40 paths on a 2^14
# lattice (levy's default n_max).
CONFIG_FIELDS = {
    "seed": st.integers(0, 2**64 - 1),
    "d": st.one_of(st.integers(1, 2), st.sampled_from([257, 10**12])),
    "T": st.sampled_from([0.5, 1.0, 2.5, 1e100, 10**30, 5e-324, 1e300, 1e308]),
    "depths": st.lists(st.integers(0, 6), min_size=1, max_size=2),
    "levels": st.lists(
        st.one_of(st.integers(1, 3), st.just(40)), min_size=1, max_size=2
    ),
    "n_samples": st.one_of(st.integers(10, 40), st.sampled_from([2**60, 10**30])),
    "p": st.sampled_from([1, 2.0, 3.5]),
    "alpha": st.sampled_from([0.34, 0.4, 0.49]),
    # 13.2 squares a moments weight past the float range (exponent above 354.9)
    # while the weight itself stays finite
    "beta": st.sampled_from([0.01, 0.05, 13.2, 500.0]),
    "gamma": st.sampled_from([1, 2.0]),
    "m": st.one_of(st.integers(1, 4), st.just(10**12)),
    "lam": st.sampled_from([None, 0.0, 1e-3, 1e-300]),
    "target": st.sampled_from([*FUNCTIONAL_TARGETS, *LEVY_TARGETS]),
    "field": st.sampled_from(list(VECTOR_FIELDS)),
    "a": st.sampled_from([-0.5, 0.0, 0.5]),
    "b": st.sampled_from([0.5, 1.0, 1e300]),
    "y0": st.sampled_from([-1.0, 1.0]),
    "substeps": st.one_of(st.integers(1, 4), st.just(10**30)),
    "n_max": st.integers(0, 10),
}
# Mistyped and out-of-range values.  10**30 is rejected before any allocation
# by every integer key but m, which only records it, and runs as a float key
# (exit 0 or 3).  CONFIG_FIELDS draws the valid values of each key next to its
# huge ones (d above 256, n_samples above 2**48, substeps past 2**24 RK4 steps
# per path, m, T, whose subnormal and near-max draws fall outside
# [2**-998, 2**1000)).
BAD_VALUES = st.sampled_from(
    ["x", "8", -1, 0, 2.5, True, None, [], [-1], [2.5], {}, float("nan"), "mystery",
     10**30]
)


@st.composite
def run_configs(draw):
    payload = {"kind": draw(st.sampled_from(list(EXPERIMENT_KINDS)))}
    optional = draw(st.lists(st.sampled_from(sorted(CONFIG_FIELDS)), max_size=5))
    # n_max is sometimes left out: every kind but levy derives it from the depths
    keys = ["n_samples", "depths"] + (["n_max"] if draw(st.booleans()) else [])
    for key in keys + optional:
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


@pytest.mark.parametrize("kind", list(EXPERIMENT_KINDS))
def test_huge_integer_T_runs_or_exits_3(tmp_path, kind):
    # a JSON integer beyond int64 reaches the sampler as a Python int
    payload = {"kind": kind, "depths": [2], "levels": [1], "n_samples": 20, "T": 10**30}
    if kind == "levy":
        payload["n_max"] = 7
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "o.csv"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code in (0, 3)
    assert out.exists() == (code == 0)


# T at and beyond both ends of [2**-998, 2**1000): inside it, every dyadic
# grid up to depth 24 is a finite partition; outside it, a grid repeats a
# time or overflows.
_T_EDGES = {
    "5e-324": 5e-324, "1e-310": 1e-310, "2**-999": 2.0**-999, "2**-998": 2.0**-998,
    "1e300": 1e300, "max": math.nextafter(2.0**1000, 0), "2**1000": 2.0**1000,
    "1e308": 1e308,
}
_OVERFLOW_AT_HUGE_T = {
    "functional": "normal equations overflow at level 1: non-finite X'X or X'y",
    "ode": "no path kept at depth 3: all 10 excluded",
    "sde": "non-finite value in sde targets",
    "levy": "non-finite distance at depth 3",
    "moments": "non-finite moment sums at depth 3 with beta=0.01",
}


def extreme_T_config(kind, T):
    payload = {"kind": kind, "depths": [3], "levels": [1], "n_samples": 10, "T": T}
    if kind == "levy":
        payload["n_max"] = 7
    return payload


@pytest.mark.parametrize("T", list(_T_EDGES.values()), ids=list(_T_EDGES))
@pytest.mark.parametrize("kind", list(EXPERIMENT_KINDS))
def test_extreme_T_exits_2_or_3_without_warning(tmp_path, capsys, kind, T):
    # the suite turns warnings into errors, so a warning inside a run fails
    cfg = write_config(tmp_path, "cfg.json", extreme_T_config(kind, T))
    out = tmp_path / "o.csv"
    code = main(["run", "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    if not 2.0**-998 <= T < 2.0**1000:
        assert (code, err) == (2, "error: T must lie in [2**-998, 2**1000)\n")
    elif T < 1:  # the smallest accepted T runs
        assert code == 0 and out.exists()
    else:
        assert code == 3 and not out.exists()
        assert err == f"numerical failure: {_OVERFLOW_AT_HUGE_T[kind]}\n"


def test_overflow_under_python_W_error_exits_3_without_traceback(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", extreme_T_config("moments", 1e300))
    out = tmp_path / "o.csv"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sigpath.cli", "run", "--config", cfg,
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 3
    assert proc.stderr == (
        f"numerical failure: {_OVERFLOW_AT_HUGE_T['moments']}\n"
    )
    assert not out.exists()


def check_example_hashes(hashes, name):
    """Each output of `name` is the table's, and so are its bytes where the
    table pins them.  A null entry is an output whose bytes move with the BLAS
    thread count (the `lam: 0` ode and sde fits, until ROADMAP item 1): only
    that it is written is checked."""
    expected = EXAMPLE_HASHES[name]
    seen = {k: v if expected.get(k) else None for k, v in hashes.items()}
    assert seen == expected, mismatch_note()


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_example_config_runs(tmp_path, name):
    # seeds 1 and 7 at reduced size (levy 50 paths, the rest 200); a config
    # with `lam` also runs without it (the default ridge fit)
    hashes = {}
    for seed in (1, 7):
        payload = json.loads((CONFIG_DIR / name).read_text())
        payload.update(seed=seed, n_samples=50 if payload["kind"] == "levy" else 200)
        runs = {tmp_path / f"seed{seed}.csv": payload}
        if "lam" in payload:
            runs[tmp_path / f"seed{seed}-ridge.csv"] = dict(payload, lam=None)
        for out, run in runs.items():
            cfg = write_config(tmp_path, "cfg.json", run)
            assert main(["run", "--config", cfg, "--out", str(out)]) == 0
            hashes.update(output_hashes(out))
    check_example_hashes(hashes, name)


@pytest.mark.parametrize("name", sorted(p.name for p in SCRIPT_DIR.glob("*.py")))
def test_sweep_script_outputs(tmp_path, monkeypatch, name):
    hashes = {}
    for seed in (1, 7):
        out = tmp_path / f"seed{seed}.csv"
        _run_script(monkeypatch, name, out, "--seed", str(seed), "--samples", "200")
        hashes.update(output_hashes(out))
    check_example_hashes(hashes, name)


def test_config_defaults_by_kind():
    levy = ExperimentConfig.from_dict({"kind": "levy"})
    assert levy.d == 2 and levy.n_samples == 10000 and levy.n_max == 14
    moments = ExperimentConfig.from_dict({"kind": "moments"})
    assert moments.beta == 0.01 and moments.m == 2
    func = ExperimentConfig.from_dict({"kind": "functional"})
    assert func.depths == (8,) and func.n_max == 8
    assert ExperimentConfig.from_dict({"kind": "sde"}).n_max == 8


def test_sde_depth_past_levy_reference_runs(tmp_path):
    # sde never reads n_max, so its depths are bounded only as the other
    # regression kinds' are: n_max is derived from them
    payload = {"kind": "sde", "depths": [15], "levels": [1], "n_samples": 10}
    cfg = write_config(tmp_path, "sde.json", payload)
    out = tmp_path / "o.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    with out.open() as fh:
        assert [int(r["depth"]) for r in csv.DictReader(fh)] == [15]


def test_config_checks_itself_when_built():
    assert not hasattr(ExperimentConfig, "validate")
    with pytest.raises(ConfigError, match="levy experiment needs d = 2"):
        ExperimentConfig(kind="levy")
    with pytest.raises(ConfigError, match="unknown experiment kind 'mystery'"):
        ExperimentConfig(kind="mystery")
    levy = ExperimentConfig(kind="levy", d=2, target="levy-area", n_max=14)
    assert levy == ExperimentConfig.from_dict(
        {"kind": "levy", "depths": [8], "levels": [1, 2, 3, 4], "n_samples": 2000}
    )
    # field types and the n_max rule hold however a config is built
    with pytest.raises(ConfigError, match="seed must be an integer, got 'x'"):
        ExperimentConfig(kind="functional", seed="x")
    with pytest.raises(ConfigError, match="depths entry must be an integer, got 8.0"):
        ExperimentConfig(kind="functional", depths=[8.0])
    assert ExperimentConfig(kind="sde", depths=(15,)).n_max == 15
    built = ExperimentConfig(kind="functional", depths=[4, 8])
    assert built.depths == (4, 8) and built.n_max == 8
    assert hash(built) == hash(ExperimentConfig.from_dict(
        {"kind": "functional", "depths": [4, 8]}
    ))
    for path in sorted(CONFIG_DIR.glob("*.json")):
        raw = json.loads(path.read_text())
        kind = raw.pop("kind")
        direct = ExperimentConfig(kind=kind, **{**EXPERIMENT_KINDS[kind][1], **raw})
        loaded = ExperimentConfig.from_dict({"kind": kind, **raw})
        assert direct == loaded and direct.config_hash() == loaded.config_hash(), path


def test_write_rows_formats_numpy_scalars_as_python_numbers(tmp_path):
    out = tmp_path / "rows.csv"
    row = {"x": np.float64(1.5), "ok": True, "yes": np.True_, "no": np.False_}
    experiments.write_rows(out, [row])
    assert out.read_text() == "x,ok,yes,no\n1.5,true,true,false\n"


def test_moments_beta_zero_limit_and_monotonicity():
    estimates = []
    for beta in (1e-6, 0.005, 0.01, 0.02):
        cfg = ExperimentConfig.from_dict(
            {"kind": "moments", "seed": 1, "n_samples": 200, "depths": [5], "beta": beta}
        )
        rows, _ = run_moments(cfg)
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


@settings(deadline=None, max_examples=40)
@given(
    st.integers(1, 2),
    st.integers(1, 16),
    st.integers(0, 6),
    st.sampled_from([0.3, 1.0, 2.5]),
    st.sampled_from([0.34, 0.4, 0.49]),
    st.integers(10, 13),
    st.integers(0, 2**32 - 1),
)
def test_moment_norms_scan_the_breakpoints_with_the_refined_bits(
    d, m, depth, T, alpha, n_samples, seed
):
    # every breakpoint pair sits in the refined grid with the same bits, and
    # no interior pair beats them, so the breakpoint scan the moments kind
    # runs keeps the bits of the refined-grid route it replaced
    cfg = ExperimentConfig.from_dict(
        {"kind": "moments", "d": d, "m": m, "depths": [depth], "T": T,
         "alpha": alpha, "n_samples": n_samples, "seed": seed}
    )
    calls = []
    scan = experiments.max_increment_ratio

    def recording_scan(times, values, a):
        norms = scan(times, values, a)
        calls.append((times, values, norms))
        return norms

    chunk = 4
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "max_increment_ratio", recording_scan)
        mp.setattr(experiments, "_MOMENT_CHUNK", chunk)
        run_moments(cfg)
    times = dyadic_times(T, depth)
    assert len(calls) == math.ceil(n_samples / chunk)
    for start, (got_times, values, norms) in zip(range(0, n_samples, chunk), calls):
        idx = np.arange(start, min(start + chunk, n_samples))
        assert np.array_equal(got_times, times)
        assert values.shape == (idx.size, 2**depth + 1, d + 1)
        want = refined_holder_oracle(
            times, sample_brownian_batch(seed, idx, d, T, depth), alpha, m
        )
        assert np.array_equal(norms.view(np.uint64), want.view(np.uint64))


def test_singular_ridge_solve_exits_3(tmp_path):
    # lam = 1e-300 leaves the rank-deficient terminal gram singular, so the
    # LU solve raises numpy's LinAlgError
    cfg = write_config(
        tmp_path,
        "ridge.json",
        {"kind": "functional", "target": "terminal-square", "depths": [3],
         "levels": [3], "n_samples": 20, "lam": 1e-300, "seed": 1},
    )
    out = tmp_path / "r.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, message",
    [
        # every path blows up, so the depth keeps none
        ({"kind": "ode", "field": "linear", "b": 1e300, "depths": [3],
          "levels": [1], "n_samples": 10, "lam": 0.0},
         "no path kept at depth 3: all 10 excluded"),
        # the pure-time word (0, 0, 0) = T^3 / 6 overflows
        ({"kind": "functional", "T": 1e160, "depths": [2], "levels": [3],
          "n_samples": 10, "lam": 0.0}, "non-finite feature entry"),
        ({"kind": "ode", "field": "tanh-bounded", "T": 1e300, "depths": [3],
          "levels": [2], "n_samples": 10, "lam": 0.0}, "non-finite feature entry"),
        # finite features whose gram overflows, before the ridge solve
        ({"kind": "functional", "T": 1e60, "depths": [2], "levels": [3],
          "n_samples": 10}, "normal equations overflow"),
        ({"kind": "functional", "T": 1e60, "depths": [2], "levels": [3],
          "n_samples": 10, "lam": 0.001}, "normal equations overflow"),
        # an inf weighted distance on the eval grid
        ({"kind": "levy", "n_max": 7, "depths": [2, 3], "n_samples": 10, "T": 1e200},
         "non-finite distance at depth 2"),
        # finite fits whose |residual|^p overflows
        ({"kind": "functional", "depths": [3], "levels": [1], "n_samples": 20,
          "p": 1e6}, "bad error value inf at depth 3, level 1"),
        # the square sum overflows while every weight stays finite; at 13.4
        # the squared estimate would overflow too
        *(({"kind": "moments", "depths": [4], "n_samples": 200, "beta": beta,
            "seed": 1}, f"non-finite moment sums at depth 4 with beta={beta}")
          for beta in (13.2, 13.4)),
    ],
    ids=["ode-all-excluded", "functional-feature-overflow",
         "ode-feature-overflow", "ridge-default-gram-overflow",
         "ridge-gram-overflow", "levy-distance-overflow",
         "functional-error-overflow", "moments-beta-13.2",
         "moments-beta-13.4"],
)
def test_overflow_or_empty_run_exits_3(tmp_path, capsys, payload, message):
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "o.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


# Runs tiny configs through `sigpath.cli.main` in a fresh interpreter where
# importing scipy fails; its last stdout line lists, per config, the exit code
# and whether a scipy module had been loaded by then.
_SCIPY_PROBE = """
import json, sys
sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[1])
from sigpath import cli
results = []
for path in sys.argv[2:]:
    code = cli.main(["run", "--config", path, "--out", path + ".csv"])
    results.append([code, sys.modules["scipy"] is not None])
print(json.dumps(results))
"""


def test_run_path_never_imports_scipy(tmp_path):
    payloads = [
        {"kind": "levy", "depths": [2, 3], "n_samples": 10, "n_max": 7},
        {"kind": "moments", "depths": [3], "n_samples": 10},
        small_functional_config(),
        {"kind": "ode", "depths": [3], "levels": [1, 2], "n_samples": 10, "lam": 0.0},
        {"kind": "sde", "depths": [3, 4], "levels": [2], "n_samples": 10, "lam": 0.0},
        {"kind": "ode", "depths": [3], "levels": [1, 2], "n_samples": 10},
        small_functional_config(lam=1e-3),
    ]
    paths = [write_config(tmp_path, f"c{i}.json", p) for i, p in enumerate(payloads)]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _SCIPY_PROBE, str(ROOT / "src"), *paths],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    # every kind runs, the ridge fits (default lam and lam > 0) included
    assert results == [[0, False]] * len(payloads)


def test_stochastic_is_a_leaf_and_no_function_imports_sigpath():
    # stochastic imports nothing from the package, so every other module can
    # import it at the top; a function-level import of a sigpath module would
    # hide a cycle (stdlib lazy imports, as paths' thread pool, stay allowed)
    def sigpath_imports(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = f"sigpath.{node.module or ''}" if node.level else node.module
                if module.split(".")[0] == "sigpath":
                    yield module
            elif isinstance(node, ast.Import):
                yield from (a.name for a in node.names if a.name.startswith("sigpath"))

    leaf, lazy = None, []
    for source in sorted((ROOT / "src" / "sigpath").glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        if source.name == "stochastic.py":
            leaf = list(sigpath_imports(tree))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lazy += [(source.name, fn.name) for _ in sigpath_imports(fn)]
    assert leaf == []
    assert lazy == []


def test_no_module_imports_a_private_name_from_another():
    # a `_`-prefixed name is its module's own; callers use the public API
    private = []
    for source in sorted((ROOT / "src" / "sigpath").glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "sigpath"
            ):
                names = [a.name for a in node.names if a.name.startswith("_")]
                private += [(source.name, name) for name in names]
    assert private == []


def test_errstate_is_set_only_by_run_config_sig_and_stochastic():
    # a run's floating-point rule lives in run_config; `sig` does not pass
    # through it, and the polar method's rejected pairs take log(0) and the
    # root of a negative number by design.  The uint64 hashing wraps as
    # array arithmetic, which numpy never checks, so it needs no errstate.
    found = set()
    for source in sorted((ROOT / "src" / "sigpath").glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                name = getattr(node, "attr", getattr(node, "id", None))
                if name == "errstate":
                    found.add((source.stem, getattr(top, "name", None)))
    assert found == {
        ("experiments", "run_config"), ("cli", "_cmd_sig"), ("stochastic", "_polar"),
    }


# Runs one config through `sigpath.cli.main` in a fresh interpreter whose
# address space is capped at 3 GiB, so an oversized allocation fails at once
# instead of being attempted.
_MEMORY_PROBE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))
sys.path.insert(0, sys.argv[1])
from sigpath import cli
sys.exit(cli.main(["run", "--config", sys.argv[2], "--out", sys.argv[3]]))
"""


def test_out_of_memory_run_exits_2(tmp_path):
    # passes the config checks, then the depth-20 lattice of 2000 paths needs 15.6 GiB
    cfg = write_config(
        tmp_path, "big.json",
        {"kind": "functional", "depths": [20], "levels": [1, 2],
         "n_samples": 2000, "lam": 0.0},
    )
    out = tmp_path / "big.csv"
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _MEMORY_PROBE, str(ROOT / "src"), cfg, str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: out of memory")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "payload",
    [
        small_functional_config(),
        {"kind": "ode", "depths": [3], "levels": [1, 2], "n_samples": 10, "lam": 0.0},
        {"kind": "sde", "depths": [3], "levels": [1], "n_samples": 10, "n_max": 7},
        {"kind": "levy", "depths": [2, 3], "n_samples": 10, "n_max": 7},
        {"kind": "moments", "depths": [3], "n_samples": 10},
    ],
    ids=lambda payload: payload["kind"],
)
def test_traced_benchmark_op_records_its_spans(tmp_path, payload):
    # the tracer wraps the names bound in sigpath.experiments, so the runners
    # must call the sampler and write_rows through those bindings
    cfg = write_config(tmp_path, "c.json", payload)
    result = tmp_path / "result.json"
    argv = [sys.executable, "-I", str(ROOT / "benchmarks" / "op.py"), str(ROOT / "src"),
            cfg, str(tmp_path / "o.csv"), str(result), "1", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(result.read_text())["spans"]
    names = {span["name"] for span in spans}
    assert {"experiments.driver", "stochastic.sample", "experiments.write"} <= names
    ode = [span["counts"] for span in spans if span["name"] == "stochastic.ode"]
    if payload["kind"] == "ode":
        # 10 paths of 9 points, 8 segments of 4 substeps each
        assert ode == [{"points_per_path": 9, "rk4_steps": 320, "excluded": 0}]
    else:
        assert ode == []


def test_every_public_name_resolves():
    # a stale __all__ entry would otherwise break only `from ... import *`
    names = sorted(p.stem for p in (ROOT / "src" / "sigpath").glob("*.py"))
    for name in names:
        module = importlib.import_module("sigpath" if name == "__init__" else f"sigpath.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)


def test_numpy_is_the_only_runtime_dependency():
    # function-local imports count too: a lazy import on a branch that no
    # test takes still fails here
    imported = set()
    for source in (ROOT / "src" / "sigpath").glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert imported - set(sys.stdlib_module_names) <= {"numpy", "sigpath"}
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == ["numpy"]


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
    rows, _ = run_levy(cfg)
    assert all(r["distance"] <= 1e-12 for r in rows)


def oracle_levy_config(target, n_samples):
    return ExperimentConfig.from_dict(
        {"kind": "levy", "seed": 1, "target": target, "T": 1.0, "n_max": 7,
         "depths": [1, 2, 3], "p": 2, "n_samples": n_samples}
    )


def test_levy_square_oracle_has_the_closed_forms():
    exact = {t: levy_mean_square_oracle(oracle_levy_config(t, 10)) for t in LEVY_TARGETS}
    # the polygon-area prototype's values
    assert exact["levy-area"] == pytest.approx(
        {1: 63 / 1024, 2: 36 / 1024, 3: 18 / 1024}, rel=1e-12
    )
    # at fraction r of a coarse segment of length h the first coordinate's
    # error is a Brownian bridge, of variance h r (1 - r); eval spacing 1/16
    r = np.arange(17) / 16
    weights = np.r_[0.5, np.ones(15), 0.5] / 16
    bridge = {
        dep: float(weights @ (2.0**-dep * (r * 2**dep % 1) * (1 - r * 2**dep % 1)))
        for dep in (1, 2, 3)
    }
    assert exact["first-coordinate"] == pytest.approx(bridge, rel=1e-12)
    assert exact["time-coordinate"] == {1: 0.0, 2: 0.0, 3: 0.0}


# Standard errors allowed between the runner's mean square distance and the
# exact one; the spread of a path's squared distance is estimated from
# _ORACLE_DRAWS independent draws of the oracle's quadratic forms (seed 2024).
_ORACLE_SES = 4
_ORACLE_DRAWS = 4000


@pytest.mark.parametrize("target", list(LEVY_TARGETS))
def test_levy_mean_square_distance_matches_the_exact_oracle(target):
    # at p = 2 the squared distance is a mean over paths of a weighted sum of
    # squared quadratic forms in the Gaussian increments, whose expectation
    # is exact (Isserlis); time-coordinate has no error, so its bound is 0
    cfg = oracle_levy_config(target, 20000)
    exact = levy_mean_square_oracle(cfg)
    draws = levy_square_draws(cfg, np.random.default_rng(2024), _ORACLE_DRAWS)
    rows, _ = run_levy(cfg)
    for row in rows:
        dep, spread = row["depth"], draws[row["depth"]].std(ddof=1)
        # the draws themselves check the exact expectation
        assert abs(draws[dep].mean() - exact[dep]) <= _ORACLE_SES * spread / np.sqrt(
            _ORACLE_DRAWS
        )
        bound = _ORACLE_SES * spread / np.sqrt(cfg.n_samples)
        assert abs(row["distance"] ** 2 - exact[dep]) <= bound, (dep, row["distance"])


def test_levy_single_depth_has_no_slope():
    cfg = ExperimentConfig.from_dict(
        {"kind": "levy", "seed": 1, "n_samples": 10, "depths": [1], "n_max": 5}
    )
    rows, _ = run_levy(cfg)
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
    rows, _ = run_levy(cfg)
    dists = [r["distance"] for r in rows]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert -0.75 <= rows[0]["slope"] <= -0.25


@pytest.mark.parametrize("p", [1, 2, 3.5])
@pytest.mark.parametrize("target", LEVY_TARGETS)
def test_sliced_levy_chunks_keep_the_whole_chunk_bits(monkeypatch, target, p):
    # 30 paths in chunks of 12, 12 and 6, sampled in slices of 5 paths: each
    # full chunk ends on a short slice of 2, the last on a slice of 1; the
    # horizons whose dyadic times are not exact binary fractions check the
    # strided reference against the oracle's nearest breakpoints
    monkeypatch.setattr(experiments, "_LEVY_CHUNK", 12)
    monkeypatch.setattr(experiments, "_LEVY_SLICE_FLOATS", 5 * 2 * 2**9)
    for T in (1.0, 0.3, 7 / 3):
        cfg = ExperimentConfig.from_dict(
            {"kind": "levy", "seed": 5, "target": target, "p": p, "T": T,
             "n_samples": 30, "depths": [2, 3, 4, 5], "n_max": 9}
        )
        rows, _ = run_levy(cfg)
        want = levy_rows_oracle(cfg)
        # repr keeps every bit of a float and compares nan slopes equal
        assert [{k: repr(v) for k, v in r.items()} for r in rows] == [
            {k: repr(v) for k, v in r.items()} for r in want
        ], T


def test_levy_holds_one_slice_lattice_at_a_time(monkeypatch):
    n_paths, n_max, depths = 128, 14, list(range(4, 11))
    asked = []

    def recording_sampler(seed, sample_indices, *args):
        asked.append(len(sample_indices))
        return sample_brownian_batch(seed, sample_indices, *args)

    monkeypatch.setattr(experiments, "sample_brownian_batch", recording_sampler)
    warm = {"kind": "levy", "n_samples": 10, "depths": [1, 2], "n_max": 6}
    run_levy(ExperimentConfig.from_dict(warm))  # caches outside the trace
    asked.clear()
    cfg = ExperimentConfig.from_dict(
        {"kind": "levy", "seed": 3, "n_samples": n_paths, "depths": depths,
         "n_max": n_max}
    )
    tracemalloc.start()
    try:
        run_levy(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_slice = max(1, experiments._LEVY_SLICE_FLOATS // (2 * 2**n_max))
    assert sum(asked) == n_paths and max(asked) <= n_slice
    lattice = (2**n_max + 1) * 2 * 8  # bytes of one path's fine lattice
    terms = len(depths) * n_paths * (2 ** (depths[-1] + 1) + 1) * 8
    # a slice's word-stream intermediates and reference values take about
    # one more slice lattice (8.6 MB against 8.4 MB at n_max 14); 1.5 MiB of
    # slack covers the difference and the small arrays
    bound = terms + 2 * n_slice * lattice + 3 * 2**19
    assert bound < n_paths * lattice  # the whole lattice alone: 33.5 MB
    assert peak < bound


def test_huge_m_moments_run_exits_0(tmp_path):
    cfg = write_config(
        tmp_path,
        "m.json",
        {"kind": "moments", "depths": [3], "n_samples": 10, "alpha": 0.4999,
         "m": 1000000},
    )
    out = tmp_path / "m.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        assert [row["m"] for row in csv.DictReader(fh)] == ["1000000"]


def test_normal_eq_residual_beyond_the_square_range_stays_finite(tmp_path):
    # the residual entries reach about 1e165, so their squares overflow
    cfg = write_config(
        tmp_path,
        "big.json",
        {"kind": "functional", "T": 1e120, "depths": [2], "levels": [1],
         "n_samples": 20, "lam": 0.001, "seed": 1},
    )
    out = tmp_path / "big.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["normal_eq_residual"]) == pytest.approx(1.38e165, rel=1e-2)


def test_rows_carry_config_hash(tmp_path):
    cfg = ExperimentConfig.from_dict(small_functional_config())
    out = str(tmp_path / "res.csv")
    _, rows = run_config(cfg, out=out)
    assert all(r["config_hash"] == cfg.config_hash() for r in rows)
    text = Path(out).read_text()
    assert cfg.config_hash() in text


def test_ode_blowups_excluded_and_counted():
    # a driver that blows up next to a tame one, through the target step the
    # runner takes: the steep path is counted and dropped with its targets
    cfg = ExperimentConfig.from_dict(
        {"kind": "ode", "field": "linear", "a": 0.0, "b": 50.0, "substeps": 1}
    )
    times = np.arange(41.0)
    tame = 0.01 * np.sin(times)
    drivers = np.stack([np.arange(0.0, 4100.0, 100.0), tame])[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        label, mode, kept, y, n_excluded = experiments._regression_target(
            cfg, times, drivers
        )
    assert (label, mode, n_excluded) == ("linear", "stopped", 1)
    assert np.array_equal(kept, drivers[1:])
    field = VECTOR_FIELDS["linear"](0.0, 50.0)
    alone, blown = solve_ode_batch(times, drivers[1:], field, 1.0, substeps=1)
    assert not blown.any() and np.array_equal(y, alone)


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
    for n_max in (8, 12, 14):
        sampled.clear()
        cfg = ExperimentConfig.from_dict({**payload, "n_max": n_max})
        rows, reports = run_regression(cfg)
        assert sampled == [4, 6, 8]
        results[n_max] = (
            [{k: v for k, v in row.items() if k != "config_hash"} for row in rows],
            reports,
        )
    assert results[8] == results[12] == results[14]
