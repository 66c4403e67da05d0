"""Command line entry points.

`sigpath sig` prints the truncated signature of a CSV path; `sigpath run`
runs one or more experiment configs into one fresh results file.  Exit codes:
0 success, 2 config/input error or out of memory, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .experiments import ConfigError, ExperimentConfig, run_config
from .paths import PathFormatError, read_path_csv, time_extend
from .signature import signature
from .tensor import MAX_WORDS, exceeds_max_words, level_blocks


def _cmd_sig(args) -> int:
    path = read_path_csv(args.input)
    level = args.level
    if level is None:
        level = 4 if path.dim == 1 else 3
    elif level < 0:
        raise ConfigError(f"--level must be >= 0, got {level}")
    if exceeds_max_words(path.dim + 1, level):
        asked = f"--level {level}" if args.level is not None else f"the default level {level}"
        raise ConfigError(
            f"{asked} exceeds {MAX_WORDS} signature coordinates; pass a lower --level"
        )
    # the features' own row: the signature of the time-extended path
    with np.errstate(over="ignore", invalid="ignore"):
        row = signature(time_extend(path), level)
    dim = path.dim + 1
    payload = {
        "dim": dim,
        "level": level,
        "coeffs": [blk.tolist() for blk in level_blocks(row, dim)],
    }
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_run(args) -> int:
    # every config is read and checked before any runs
    overrides = {} if args.seed is None else {"seed": args.seed}
    cfgs = [ExperimentConfig.load(path, **overrides) for path in args.config]
    csv_path, _ = run_config(*cfgs, out=args.out)
    print(csv_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigpath",
        description="Signatures of piecewise linear paths and approximation "
        "experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sig = sub.add_parser("sig", help="print the signature of a CSV path")
    p_sig.add_argument("--input", required=True, help="breakpoint CSV (t,x1,...,xd)")
    p_sig.add_argument("--level", type=int, default=None, help="truncation order")
    p_sig.set_defaults(func=_cmd_sig)

    p_run = sub.add_parser("run", help="run experiment configs into one results file")
    p_run.add_argument(
        "--config", required=True, action="append", help="JSON experiment config (repeatable)"
    )
    p_run.add_argument("--out", default=None, help="results CSV path")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PathFormatError, OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        # a config too large for this machine is an input error
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 2
    except (FloatingPointError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
