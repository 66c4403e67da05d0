"""Every output byte of the benchmark workloads, pinned.

Runs each config of `benchmarks/run.py`'s WORKLOADS with seed 0 through
`sigpath.cli.main(["run", ...])` in this process, and compares the sha256 of
each CSV and `.functionals.json` with `benchmarks/reference_hashes.json`, the
table the benchmark checks its own outputs against.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from helpers_hashes import mismatch_note, output_hashes
from sigpath.cli import main

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_run", BENCHMARKS / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()
REFERENCE = json.loads((BENCHMARKS / "reference_hashes.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_benchmark_outputs_match_the_reference_hashes(tmp_path, workload):
    hashes = {}
    for label, config in WORKLOADS[workload].items():
        cfg = tmp_path / f"{label}.json"
        cfg.write_text(json.dumps(dict(config, seed=0)))
        out = tmp_path / f"{label}.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        hashes.update(output_hashes(out))
    assert hashes == REFERENCE[workload]["0"], mismatch_note()
