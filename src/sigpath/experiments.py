"""Reproducible experiment driver.

Parses a declarative JSON config, orchestrates sampling -> features -> fit ->
evaluation, and persists one CSV row per (depth, level) cell plus a JSON file
with the fitted functionals.  Identical configs (including the seed) produce
bit-identical output files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .paths import dyadic_times, max_increment_ratio, time_extend_values
from .regress import features_from_values, fit, trapezoid_weights
from .signature import LinearFunctional, levy_area_functional
# Not called here any more; still bound so that tools wrapping the stream
# layer by name (benchmarks/op.py) find it.
from .signature import stream_table  # noqa: F401
from .stochastic import (
    MAX_DEPTH,
    MAX_DIM,
    VECTOR_FIELDS,
    sample_brownian_batch,
    sde_exact_gbm,
    solve_ode_batch,
)
from .tensor import MAX_WORDS, exceeds_max_words

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "run_config",
    "run_regression",
    "run_levy",
    "run_moments",
]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# Path functionals of the first coordinate w1 (paths, points) on `times`.
FUNCTIONAL_TARGETS = {
    "terminal-square": lambda times, w1: w1[:, -1] ** 2,
    "integral": lambda times, w1: 0.5 * (w1[:, :-1] + w1[:, 1:]) @ np.diff(times),
    "running-max": lambda times, w1: w1.max(axis=1),
    "exp-terminal": lambda times, w1: np.clip(np.exp(w1[:, -1]), -10.0, 10.0),
}
# Functionals of the time-extended 2-D Brownian signature.
LEVY_TARGETS = {
    "levy-area": levy_area_functional(),
    "time-coordinate": LinearFunctional(3, 2, {(0,): 1.0}),
    "first-coordinate": LinearFunctional(3, 2, {(1,): 1.0}),
}

_LEVY_CHUNK = 500
# Fine-lattice floats per levy slice: a chunk is sampled and streamed a slice
# of paths at a time (at least one path), so no whole-chunk lattice is held.
_LEVY_SLICE_FLOATS = 2**20
_MOMENT_CHUNK = 2500


def _check_int(key, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _int_list(key, value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list of integers, got {value!r}")
    return tuple(_check_int(f"{key} entry", v) for v in value)


def _lookup(table, name, what):
    """table[name], or a ConfigError when `name` is not one of its keys (a
    JSON list or object included, which a dict lookup cannot hash)."""
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"unknown {what} {name!r}")
    return table[name]


def _check_number(key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return value


def _check_str(key, value):
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


# The checker of each ExperimentConfig annotation, run by __post_init__ on every
# field but `kind`: lists become tuples, and an int p stays an int.
_FIELD_CHECKS = {
    "int": _check_int,
    "tuple": _int_list,
    "float": _check_number,
    "float | None": lambda key, value: value if value is None else _check_number(key, value),
    "int | None": lambda key, value: value if value is None else _check_int(key, value),
    "str": _check_str,
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int = 1
    d: int = 1
    T: float = 1.0
    depths: tuple = (8,)
    levels: tuple = (1, 2, 3, 4)
    n_samples: int = 2000
    p: float = 2.0
    alpha: float = 0.4
    beta: float = 0.05
    gamma: float = 2.0
    # recorded only: the moments kind scans the exact breakpoint norm, but the
    # field stays in config_hash and in the moments rows
    m: int = 16
    lam: float | None = None
    target: str = "terminal-square"
    field: str = "linear"
    a: float = 0.0
    b: float = 1.0
    y0: float = 1.0
    substeps: int = 4
    # the levy reference depth (a levy default, 14); unset is max(depths, default=0)
    n_max: int | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        defaults = _lookup(EXPERIMENT_KINDS, raw.get("kind"), "experiment kind")[1]
        names = {f.name for f in fields(cls)}
        for key in raw:
            if key not in names:
                raise ConfigError(f"unknown config key {key!r}")
        return cls(**{**defaults, **raw})

    def __post_init__(self):
        c = self
        _lookup(EXPERIMENT_KINDS, c.kind, "experiment kind")
        for f in fields(self)[1:]:
            value = _FIELD_CHECKS[f.type](f.name, getattr(c, f.name))
            object.__setattr__(self, f.name, value)
        if c.n_max is None:  # empty depths fail the non-empty check below
            object.__setattr__(self, "n_max", max(c.depths, default=0))
        if not 0 <= c.seed < 2**64:
            raise ConfigError("seed must be an integer in [0, 2**64)")
        if not 1 <= c.d <= MAX_DIM:
            raise ConfigError(f"need 1 <= d <= {MAX_DIM}")
        # every dyadic grid up to MAX_DEPTH is then a finite partition:
        # T / 2**MAX_DEPTH is a normal float and T * 2**MAX_DEPTH is finite
        if not 2.0 ** (MAX_DEPTH - 1022) <= c.T < 2.0 ** (1024 - MAX_DEPTH):
            raise ConfigError(
                f"T must lie in [2**{MAX_DEPTH - 1022}, 2**{1024 - MAX_DEPTH})"
            )
        if not c.depths:
            raise ConfigError("depths must be non-empty")
        if any(len(set(v)) != len(v) for v in (c.depths, c.levels)):
            raise ConfigError("depths and levels must not repeat an entry")
        if c.n_max > MAX_DEPTH or any(not 0 <= dep <= c.n_max for dep in c.depths):
            raise ConfigError(f"depths must lie in 0..n_max and n_max <= {MAX_DEPTH}")
        if not 10 <= c.n_samples <= 2**48:
            # 2**48 depth-0 lattices (two floats each) alone need 4 PiB
            raise ConfigError("n_samples must lie in [10, 2**48]")
        if c.p < 1:
            raise ConfigError("p must be >= 1")
        if not 1.0 / 3.0 < c.alpha < 0.5:
            raise ConfigError("alpha must lie in (1/3, 1/2) for Brownian runs")
        if c.beta <= 0 or c.gamma < 1 or c.m < 1:
            raise ConfigError("need beta > 0, gamma >= 1, m >= 1")
        if c.lam is not None and c.lam < 0:
            raise ConfigError("lam must be >= 0")
        if c.kind in ("functional", "ode", "sde"):
            if not c.levels or any(lv < 1 for lv in c.levels):
                raise ConfigError("levels must all be >= 1")
            if exceeds_max_words(c.d + 1, max(c.levels)):
                raise ConfigError(f"levels exceed {MAX_WORDS} signature features")
        if c.kind == "functional":
            _lookup(FUNCTIONAL_TARGETS, c.target, "target")
        if c.kind == "ode":
            _lookup(VECTOR_FIELDS, c.field, "vector field")
            if c.d != 1:
                raise ConfigError("ode experiment drives a scalar field (d = 1)")
            # RK4 steps per path, bounded by the deepest lattice's positions
            if not 1 <= c.substeps * 2 ** max(c.depths) <= 2**MAX_DEPTH:
                raise ConfigError(
                    f"substeps must be >= 1 and substeps * 2**depth <= 2**{MAX_DEPTH}"
                )
        if c.kind == "sde" and c.d != 1:
            raise ConfigError("sde experiment is scalar (d = 1)")
        if c.kind == "levy":
            if c.d != 2:
                raise ConfigError("levy experiment needs d = 2")
            _lookup(LEVY_TARGETS, c.target, "levy target")
            if max(c.depths) > c.n_max - 4:
                raise ConfigError(
                    "levy depths must stay >= 4 levels below the reference n_max"
                )

    def config_hash(self) -> str:
        payload = asdict(self)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


# -- shared helpers -------------------------------------------------------------


def _regression_row(cfg, target, depth, level, n_excluded, report):
    for value in (report.train_error, report.test_error):
        if not np.isfinite(value) or value < 0:
            raise FloatingPointError(
                f"bad error value {value} at depth {depth}, level {level}"
            )
    return {
        "experiment": cfg.kind,
        "target": target,
        "depth": depth,
        "level": level,
        "n_samples": cfg.n_samples,
        "n_excluded": n_excluded,
        "p": cfg.p,
        "lam": report.lam,
        "train_error": report.train_error,
        "test_error": report.test_error,
        "normal_eq_residual": report.normal_eq_residual,
        "gram_eig_min": report.gram_eig_min,
        "gram_eig_max": report.gram_eig_max,
        "rank_deficient": report.rank_deficient,
        "config_hash": cfg.config_hash(),
    }


def _log(msg):
    print(msg, file=sys.stderr)


# -- experiment runners ----------------------------------------------------------


def _regression_target(cfg, times, values):
    """(label, feature mode, kept paths, targets, excluded count) of one
    depth's Brownian values for a functional, ode or sde config."""
    if cfg.kind == "functional":
        y = FUNCTIONAL_TARGETS[cfg.target](times, values[..., 0])
        return cfg.target, "terminal", values, y, 0
    if cfg.kind == "ode":
        field = VECTOR_FIELDS[cfg.field](cfg.a, cfg.b)
        y_table, blown = solve_ode_batch(times, values, field, cfg.y0, cfg.substeps)
        n_excluded = int(blown.sum())
        if n_excluded:
            values = values[~blown]
            y_table = y_table[~blown]
        return cfg.field, "stopped", values, y_table, n_excluded
    y = sde_exact_gbm(times, values, cfg.a, cfg.b, cfg.y0)
    return "gbm", "stopped", values, y, 0


def run_regression(cfg: ExperimentConfig):
    """Per depth: sample, compute targets, build features at the top level
    and fit every level on a column prefix of them."""
    rows, reports = [], {}
    for depth in cfg.depths:
        t0 = time.perf_counter()
        times = dyadic_times(cfg.T, depth)
        # Brownian values on the depth grid itself
        values = sample_brownian_batch(
            cfg.seed, np.arange(cfg.n_samples), cfg.d, cfg.T, depth
        )
        label, mode, values, y, n_excluded = _regression_target(cfg, times, values)
        if not len(values):
            raise FloatingPointError(
                f"no path kept at depth {depth}: all {n_excluded} excluded"
            )
        if not np.isfinite(y).all():
            raise FloatingPointError(f"non-finite value in {cfg.kind} targets")
        feats = features_from_values(times, values, max(cfg.levels), mode)
        for level in cfg.levels:
            report = fit(
                feats, y, lam=cfg.lam, p=cfg.p, split_seed=cfg.seed, level=level
            )
            rows.append(
                _regression_row(cfg, label, depth, level, n_excluded, report)
            )
            reports[f"{label}/depth={depth}/level={level}"] = report.to_dict()
        _log(
            f"[{cfg.kind}:{label}] depth={depth} excluded={n_excluded} "
            f"({time.perf_counter() - t0:.1f}s)"
        )
    return rows, reports


def _upsample_dyadic(values: np.ndarray, gap: int) -> np.ndarray:
    """Insert 2**gap - 1 linearly interpolated points per segment; the
    trajectory is unchanged, only the partition refines."""
    frac = np.arange(2**gap) / 2**gap
    left = values[:, :-1, None, :]
    right = values[:, 1:, None, :]
    dense = left + frac[None, None, :, None] * (right - left)
    dense = dense.reshape(values.shape[0], -1, values.shape[2])
    return np.concatenate([dense, values[:, -1:, :]], axis=1)


def run_levy(cfg: ExperimentConfig):
    """Lp distance, per depth, between the levy target along each depth's
    interpolation and along the depth-n_max reference, on one quadrature grid.

    Paths run in chunks of _LEVY_CHUNK. A chunk is sampled and streamed in
    slices of max(1, _LEVY_SLICE_FLOATS // (d * 2**n_max)) paths (32 at
    n_max 14, one word_streams block), so one slice's fine lattice is held at
    a time. Each slice writes its quadrature terms into its rows of the
    chunk's (depths, chunk, 2**eval_depth + 1) array `terms`; each depth then
    adds the sum of its terms, chunk by chunk in order. Sampler, streams and
    terms are per path, so the bits depend on _LEVY_CHUNK and that in-order
    sum but not on the slice.
    """
    functional = LEVY_TARGETS[cfg.target]
    depths = sorted(cfg.depths)
    # All depths are compared on one quadrature grid strictly finer than the
    # finest experiment depth (coordinate functionals have no error at their
    # own breakpoints); coarse paths are refined onto it without change.
    eval_depth = depths[-1] + 1
    fine_times = dyadic_times(cfg.T, cfg.n_max)
    # the eval grid is every 2**(n_max - eval_depth)-th fine breakpoint, the
    # same bits as dyadic_times(cfg.T, eval_depth)
    eval_idx = np.arange(2**eval_depth + 1) * 2 ** (cfg.n_max - eval_depth)
    eval_times = fine_times[eval_idx]
    weights = trapezoid_weights(eval_times)
    n_slice = max(1, _LEVY_SLICE_FLOATS // (cfg.d * 2**cfg.n_max))

    def slice_terms(idx, out):
        """Write the weighted |delta|^p quadrature terms of the paths `idx`
        into `out` (depths, paths, eval points): delta is each depth's
        interpolation against the depth-n_max reference.  The slice's lattice
        and temporaries die on return, before the next slice is sampled."""
        fine = sample_brownian_batch(cfg.seed, idx, cfg.d, cfg.T, cfg.n_max)
        ref_vals = functional.apply_stream(fine_times, fine, eval_idx=eval_idx)
        for i, dep in enumerate(depths):
            stride = 2 ** (cfg.n_max - dep)
            coarse = _upsample_dyadic(fine[:, ::stride, :], eval_depth - dep)
            delta = functional.apply_stream(eval_times, coarse) - ref_vals
            out[i] = weights * np.abs(delta) ** cfg.p

    sums = [0.0] * len(depths)
    t0 = time.perf_counter()
    for start in range(0, cfg.n_samples, _LEVY_CHUNK):
        stop = min(start + _LEVY_CHUNK, cfg.n_samples)
        terms = np.empty((len(depths), stop - start, eval_times.size))
        for lo in range(start, stop, n_slice):
            idx = np.arange(lo, min(lo + n_slice, stop))
            slice_terms(idx, terms[:, lo - start : lo - start + idx.size])
        sums = [acc + float(np.sum(t)) for acc, t in zip(sums, terms)]
    distances = [(total / cfg.n_samples) ** (1.0 / cfg.p) for total in sums]
    for dep, dist in zip(depths, distances):
        if not np.isfinite(dist):
            raise FloatingPointError(f"non-finite distance at depth {dep}")
    if len(distances) >= 2 and all(d > 0 for d in distances):
        slope = float(np.polyfit(depths, np.log2(distances), 1)[0])
    else:
        slope = float("nan")
    rows = []
    for dep, dist in zip(depths, distances):
        rows.append(
            {
                "experiment": "levy",
                "target": cfg.target,
                "depth": dep,
                "level": functional.level,
                "n_samples": cfg.n_samples,
                "p": cfg.p,
                "distance": dist,
                "log2_distance": float(np.log2(dist)) if dist > 0 else float("-inf"),
                "slope": slope,
                "config_hash": cfg.config_hash(),
            }
        )
    _log(
        f"[levy:{cfg.target}] depths={depths} slope={slope:.3f} "
        f"({time.perf_counter() - t0:.1f}s)"
    )
    return rows, {}


def run_moments(cfg: ExperimentConfig):
    """Monte Carlo estimate of E[exp(beta p |X|_alpha^gamma)] per depth, where
    X is the time-extended Brownian path on the depth's dyadic partition and
    its norm is the exact breakpoint scan; `m` is only recorded in the rows.
    The sums run over chunks of _MOMENT_CHUNK paths, an order the estimate's
    bits depend on."""
    rows = []
    for depth in cfg.depths:
        t0 = time.perf_counter()
        times = dyadic_times(cfg.T, depth)
        total = total_sq = half_total = 0.0
        n_half = cfg.n_samples // 2
        for start in range(0, cfg.n_samples, _MOMENT_CHUNK):
            idx = np.arange(start, min(start + _MOMENT_CHUNK, cfg.n_samples))
            values = sample_brownian_batch(cfg.seed, idx, cfg.d, cfg.T, depth)
            norms = max_increment_ratio(
                times, time_extend_values(times, values), cfg.alpha
            )
            x = np.exp(cfg.beta * cfg.p * norms**cfg.gamma)
            total += float(x.sum())
            total_sq += float((x**2).sum())
            if start < n_half:
                half_total += float(x[: n_half - start].sum())
        if not (np.isfinite(total) and np.isfinite(total_sq)):
            raise FloatingPointError(
                f"non-finite moment sums at depth {depth} with beta={cfg.beta}"
            )
        estimate = total / cfg.n_samples
        var = max(total_sq / cfg.n_samples - estimate**2, 0.0)
        var *= cfg.n_samples / (cfg.n_samples - 1)
        std_error = float(np.sqrt(var / cfg.n_samples))
        ratio = half_total / n_half / estimate
        rows.append(
            {
                "experiment": "moments",
                "depth": depth,
                "n_samples": cfg.n_samples,
                "p": cfg.p,
                "alpha": cfg.alpha,
                "beta": cfg.beta,
                "gamma": cfg.gamma,
                "m": cfg.m,
                "estimate": estimate,
                "std_error": std_error,
                "half_full_ratio": ratio,
                "stable": bool(0.8 <= ratio <= 1.25),
                "config_hash": cfg.config_hash(),
            }
        )
        _log(
            f"[moments] depth={depth} estimate={estimate:.6g} "
            f"({time.perf_counter() - t0:.1f}s)"
        )
    return rows, {}


# -- persistence -----------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def write_rows(path, rows, append=False):
    """Write (or append) `rows`, dicts whose key order is the CSV header."""
    header = ",".join(rows[0])
    lines = [",".join(_format_cell(v) for v in row.values()) for row in rows]
    append = append and os.path.exists(path)
    with open(path, "a+" if append else "w", encoding="utf-8") as fh:
        if append:
            fh.seek(0)
            text = fh.read()
            if text.split("\n", 1)[0] != header:
                raise ConfigError(f"refusing to append: schema of {path} does not match")
            if not text.endswith("\n"):
                # start on a new line, not on the end of the last row
                lines.insert(0, "")
        else:
            lines.insert(0, header)
        fh.write("".join(line + "\n" for line in lines))


def _reports_path(csv_path: str) -> str:
    base = csv_path[:-4] if csv_path.endswith(".csv") else csv_path
    return base + ".functionals.json"


def _existing_reports(path: str) -> dict:
    """The fitted functionals already stored at `path` ({} if none), which
    an appending run extends."""
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            existing = json.load(fh)
        except (ValueError, RecursionError):
            # malformed JSON (a ValueError too), or past the parser's
            # nesting or integer-digit limit
            existing = None
    if not isinstance(existing, dict):
        raise ConfigError(f"refusing to append: {path} is not a JSON object")
    return existing


# kind -> (runner, the defaults that differ from ExperimentConfig's)
EXPERIMENT_KINDS = {
    "functional": (run_regression, {}),
    "ode": (run_regression, {"b": 0.5}),
    "sde": (run_regression, {"depths": (4, 6, 8), "a": 0.5}),
    "levy": (
        run_levy,
        {"d": 2, "depths": (4, 5, 6, 7, 8, 9, 10), "levels": (2,),
         "n_samples": 10000, "target": "levy-area", "n_max": 14},
    ),
    "moments": (run_moments, {"levels": (), "n_samples": 10000, "beta": 0.01, "m": 2}),
}


def run_config(cfg: ExperimentConfig, out: str | None = None, append: bool = False):
    """Run one experiment config and persist results; returns (csv_path, rows)."""
    csv_path = out or f"{cfg.kind}-results.csv"
    reports_path = _reports_path(csv_path)
    if os.path.isdir(csv_path):
        raise ConfigError(f"results path {csv_path} is a directory")
    if not os.path.isdir(os.path.dirname(csv_path) or "."):
        raise ConfigError(f"directory of results path {csv_path} does not exist")
    existing = {}
    if cfg.kind in ("functional", "ode", "sde"):
        if os.path.isdir(reports_path):
            raise ConfigError(f"functionals path {reports_path} is a directory")
        if append:
            existing = _existing_reports(reports_path)
    # The run's one floating-point rule: nothing warns inside a run, and each
    # runner's result checks turn a non-finite value into FloatingPointError
    # (ODE blow-ups are excluded per path instead).
    with np.errstate(all="ignore"):
        rows, reports = EXPERIMENT_KINDS[cfg.kind][0](cfg)
    # a repeated key takes this run's report
    reports = {**existing, **reports}
    write_rows(csv_path, rows, append=append)
    if reports:
        with open(reports_path, "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return csv_path, rows
