"""Approximate random-ODE and geometric-Brownian SDE solutions by linear
functionals on signature streams, across truncation levels and depths.

The runs are configs/ode-linear.json, the same with the tanh-bounded field,
and configs/sde-gbm.json, each with its seed and sample count replaced. One
`run_config` call runs all three and writes one fresh CSV and
`.functionals.json`.

Usage: python3 scripts/ode_sde_targets.py [--out results/odesde.csv]
"""

import argparse
import json
from pathlib import Path

from sigpath.experiments import ExperimentConfig, run_config


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="odesde-results.csv")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--samples", type=int, default=2000)
    args = ap.parse_args()

    configs = Path(__file__).resolve().parent.parent / "configs"
    ode_linear = json.loads((configs / "ode-linear.json").read_text())
    sde_gbm = json.loads((configs / "sde-gbm.json").read_text())
    ode_tanh = dict(ode_linear, field="tanh-bounded")
    cfgs = [
        ExperimentConfig.from_dict(dict(payload, seed=args.seed, n_samples=args.samples))
        for payload in (ode_linear, ode_tanh, sde_gbm)
    ]
    run_config(*cfgs, out=args.out)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
