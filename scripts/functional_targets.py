"""Fit linear functionals of terminal signatures to the four built-in path
functionals and tabulate test errors across truncation levels.

Each run is configs/functional-terminal-square.json with its target, depth,
seed and sample count replaced.

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
    for i, target in enumerate(TARGETS):
        cfg = ExperimentConfig.from_dict(
            dict(base, target=target, depths=[args.depth], seed=args.seed,
                 n_samples=args.samples)
        )
        run_config(cfg, out=args.out, append=i > 0)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
