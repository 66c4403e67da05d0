"""Fit linear functionals of terminal signatures to the four built-in path
functionals and tabulate test errors across truncation levels.

The runs are configs/functional-terminal-square.json with its target, depth,
seed and sample count replaced, one config per target. One `run_config` call
runs them all and writes one fresh CSV and `.functionals.json`.

Usage: python3 scripts/functional_targets.py [--out results/functional.csv]
"""

import argparse
import json
from pathlib import Path

from sigpath.experiments import ExperimentConfig, run_config

TARGETS = ("terminal-square", "integral", "running-max", "exp-terminal")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="functional-results.csv")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--depth", type=int, default=8)
    args = ap.parse_args()

    configs = Path(__file__).resolve().parent.parent / "configs"
    base = json.loads((configs / "functional-terminal-square.json").read_text())
    cfgs = [
        ExperimentConfig.from_dict(
            dict(base, target=target, depths=[args.depth], seed=args.seed,
                 n_samples=args.samples)
        )
        for target in TARGETS
    ]
    run_config(*cfgs, out=args.out)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
