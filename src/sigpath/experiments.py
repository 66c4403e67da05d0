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
from dataclasses import asdict, dataclass

import numpy as np

from .paths import dyadic_times, max_increment_ratio, refine_times, time_extend_values
from .regress import features_from_values, fit, trapezoid_weights
from .signature import LinearFunctional, levy_area_functional
# Not called here any more; still bound so that tools wrapping the stream
# layer by name (benchmarks/op.py) find it.
from .signature import stream_table  # noqa: F401
from .stochastic import (
    make_vector_field,
    sample_brownian_batch,
    sde_exact_gbm,
    solve_ode_batch,
    stratonovich_reference,
)

__all__ = [
    "ConfigError",
    "NumericalError",
    "ExperimentConfig",
    "run_config",
    "run_regression",
    "run_levy",
    "run_moments",
]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class NumericalError(RuntimeError):
    """Non-finite intermediate or overflow during an experiment."""


EXPERIMENT_KINDS = ("sig", "functional", "ode", "sde", "levy", "moments")
FUNCTIONAL_TARGETS = ("terminal-square", "integral", "running-max", "exp-terminal")
VECTOR_FIELDS = ("zero-drift-identity", "linear", "tanh-bounded")
LEVY_TARGETS = ("levy-area", "time-coordinate", "first-coordinate")

REGRESSION_COLUMNS = [
    "experiment", "target", "depth", "level", "n_samples", "n_excluded",
    "p", "lam", "train_error", "test_error", "normal_eq_residual",
    "gram_eig_min", "gram_eig_max", "rank_deficient", "config_hash",
]
LEVY_COLUMNS = [
    "experiment", "target", "depth", "level", "n_samples", "p",
    "distance", "log2_distance", "slope", "config_hash",
]
MOMENTS_COLUMNS = [
    "experiment", "depth", "n_samples", "p", "alpha", "beta", "gamma", "m",
    "estimate", "std_error", "half_full_ratio", "stable", "config_hash",
]

_LEVY_CHUNK = 500
_MOMENT_CHUNK = 2500

_DEFAULTS_BY_KIND = {
    "functional": dict(
        d=1, depths=(8,), levels=(1, 2, 3, 4), n_samples=2000,
        target="terminal-square", beta=0.05, m=16,
    ),
    "ode": dict(
        d=1, depths=(8,), levels=(1, 2, 3, 4), n_samples=2000,
        field="linear", a=0.0, b=0.5, beta=0.05, m=16,
    ),
    "sde": dict(
        d=1, depths=(4, 6, 8), levels=(1, 2, 3, 4), n_samples=2000,
        a=0.5, b=1.0, n_max=14, beta=0.05, m=16,
    ),
    "levy": dict(
        d=2, depths=(4, 5, 6, 7, 8, 9, 10), levels=(2,), n_samples=10000,
        target="levy-area", n_max=14, beta=0.05, m=16,
    ),
    "moments": dict(
        d=1, depths=(8,), levels=(), n_samples=10000, beta=0.01, m=2,
    ),
}


# Field types checked by ExperimentConfig.from_dict.  Values keep the type
# they were given (an int p stays int), so config_hash is unchanged for every
# config that parses.
_INT_KEYS = ("seed", "d", "n_samples", "m", "substeps", "n_max")
_INT_LIST_KEYS = ("depths", "levels")
_NUMBER_KEYS = ("T", "p", "alpha", "beta", "gamma", "lam", "a", "b", "y0")


def _check_int(key, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")


def _int_list(key, value) -> tuple:
    """Entries may be integral floats, converted as they always were."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list of integers, got {value!r}")
    out = []
    for v in value:
        if isinstance(v, float) and v.is_integer():
            v = int(v)
        _check_int(f"{key} entry", v)
        out.append(v)
    return tuple(out)


def _check_number(key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{key} must be finite, got {value!r}")


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
    m: int = 16
    lam: float | None = None
    target: str = "terminal-square"
    field: str = "linear"
    a: float = 0.0
    b: float = 1.0
    y0: float = 1.0
    substeps: int = 4
    n_max: int = 14
    out: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        raw = dict(raw)
        kind = raw.pop("kind", None)
        if kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        merged = dict(_DEFAULTS_BY_KIND.get(kind, {}))
        known = set(cls.__dataclass_fields__) - {"kind"}
        for key, value in raw.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = value
        for key in _INT_LIST_KEYS:
            if key in merged:
                merged[key] = _int_list(key, merged[key])
        for key in _INT_KEYS:
            if key in merged:
                _check_int(key, merged[key])
        for key in _NUMBER_KEYS:
            if key in merged and not (key == "lam" and merged[key] is None):
                _check_number(key, merged[key])
        if merged.get("out") is not None and not isinstance(merged["out"], str):
            raise ConfigError(f"out must be a path string, got {merged['out']!r}")
        if "n_max" not in merged and kind in ("functional", "ode", "moments"):
            merged["n_max"] = max(merged["depths"])
        cfg = cls(kind=kind, **merged)
        cfg.validate()
        return cfg

    def validate(self):
        c = self
        if c.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {c.kind!r}")
        if c.kind == "sig":
            return
        if not isinstance(c.seed, int) or not 0 <= c.seed < 2**64:
            raise ConfigError("seed must be an integer in [0, 2**64)")
        if c.d < 1 or c.T <= 0:
            raise ConfigError("need d >= 1 and T > 0")
        if not c.depths:
            raise ConfigError("depths must be non-empty")
        if any(len(set(v)) != len(v) for v in (c.depths, c.levels)):
            raise ConfigError("depths and levels must not repeat an entry")
        if c.n_max > 24 or any(not 0 <= dep <= c.n_max for dep in c.depths):
            raise ConfigError("depths must lie in 0..n_max and n_max <= 24")
        if c.n_samples < 10:
            raise ConfigError("n_samples must be >= 10")
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
        if c.kind == "functional" and c.target not in FUNCTIONAL_TARGETS:
            raise ConfigError(f"unknown target {c.target!r}")
        if c.kind == "ode":
            if c.field not in VECTOR_FIELDS:
                raise ConfigError(f"unknown vector field {c.field!r}")
            if c.d != 1:
                raise ConfigError("ode experiment drives a scalar field (d = 1)")
            if c.substeps < 1:
                raise ConfigError("substeps must be >= 1")
        if c.kind == "sde" and c.d != 1:
            raise ConfigError("sde experiment is scalar (d = 1)")
        if c.kind == "levy":
            if c.d != 2:
                raise ConfigError("levy experiment needs d = 2")
            if c.target not in LEVY_TARGETS:
                raise ConfigError(f"unknown levy target {c.target!r}")
        if c.kind in ("sde", "levy") and max(c.depths) > c.n_max - 4:
            raise ConfigError(
                f"{c.kind} depths must stay >= 4 levels below the reference n_max"
            )

    def config_hash(self) -> str:
        payload = asdict(self)
        payload.pop("out")
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


# -- shared helpers -------------------------------------------------------------


def _sample_values(cfg, depth) -> np.ndarray:
    """(n_samples, 2**depth + 1, d) Brownian values on the depth grid itself."""
    return sample_brownian_batch(
        cfg.seed, np.arange(cfg.n_samples), cfg.d, cfg.T, depth
    )


def _regression_row(cfg, target, depth, level, n_excluded, report):
    for value in (report.train_error, report.test_error):
        if not np.isfinite(value) or value < 0:
            raise NumericalError(
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


def _functional_target(name, times, values):
    w1 = values[..., 0]
    if name == "terminal-square":
        return w1[:, -1] ** 2
    if name == "integral":
        gaps = np.diff(times)
        return 0.5 * (w1[:, :-1] + w1[:, 1:]) @ gaps
    if name == "running-max":
        return w1.max(axis=1)
    if name == "exp-terminal":
        return np.clip(np.exp(w1[:, -1]), -10.0, 10.0)
    raise ConfigError(f"unknown target {name!r}")


# -- experiment runners ----------------------------------------------------------


def _regression_target(cfg, times, values):
    """(label, feature mode, kept paths, targets, excluded count) of one
    depth's Brownian values for a functional, ode or sde config."""
    if cfg.kind == "functional":
        y = _functional_target(cfg.target, times, values)
        return cfg.target, "terminal", values, y, 0
    if cfg.kind == "ode":
        vf = make_vector_field(cfg.field, d=cfg.d, a=cfg.a, b=cfg.b)
        y_table, blown = solve_ode_batch(times, values, vf, cfg.y0, cfg.substeps)
        n_excluded = int(blown.sum())
        if n_excluded:
            values = values[~blown]
            y_table = y_table[~blown]
        return cfg.field, "stopped", values, y_table[..., 0], n_excluded
    y = sde_exact_gbm(times, values, cfg.a, cfg.b, cfg.y0)
    return "gbm", "stopped", values, y, 0


def run_regression(cfg: ExperimentConfig):
    """Per depth: sample, compute targets, build features at the top level
    and fit every level on a column prefix of them."""
    rows, reports = [], {}
    for depth in cfg.depths:
        t0 = time.perf_counter()
        times = dyadic_times(cfg.T, depth)
        label, mode, values, y, n_excluded = _regression_target(
            cfg, times, _sample_values(cfg, depth)
        )
        if not np.isfinite(y).all():
            raise NumericalError(f"non-finite value in {cfg.kind} targets")
        feats = features_from_values(
            times, time_extend_values(times, values), max(cfg.levels), mode
        )
        for level in cfg.levels:
            report = fit(
                feats.truncated(level), y, lam=cfg.lam, p=cfg.p, split_seed=cfg.seed
            )
            rows.append(
                _regression_row(cfg, label, depth, level, n_excluded, report)
            )
            reports[f"{label}/depth={depth}/level={level}"] = report.to_dict()
        _log(
            f"[{cfg.kind}:{label}] depth={depth} excluded={n_excluded} "
            f"({time.perf_counter() - t0:.1f}s)"
        )
    return REGRESSION_COLUMNS, rows, reports


def _levy_functional(name: str) -> LinearFunctional:
    if name == "levy-area":
        return levy_area_functional(dim=3)
    if name == "time-coordinate":
        return LinearFunctional(3, 2, {(0,): 1.0})
    if name == "first-coordinate":
        return LinearFunctional(3, 2, {(1,): 1.0})
    raise ConfigError(f"unknown levy target {name!r}")


def _upsample_dyadic(values: np.ndarray, gap: int) -> np.ndarray:
    """Insert 2**gap - 1 linearly interpolated points per segment; the
    trajectory is unchanged, only the partition refines."""
    if gap == 0:
        return values
    frac = np.arange(2**gap) / 2**gap
    left = values[:, :-1, None, :]
    right = values[:, 1:, None, :]
    dense = left + frac[None, None, :, None] * (right - left)
    dense = dense.reshape(values.shape[0], -1, values.shape[2])
    return np.concatenate([dense, values[:, -1:, :]], axis=1)


def run_levy(cfg: ExperimentConfig):
    functional = _levy_functional(cfg.target)
    depths = sorted(cfg.depths)
    # All depths are compared on one quadrature grid strictly finer than the
    # finest experiment depth (coordinate functionals have no error at their
    # own breakpoints); coarse paths are refined onto it without change.
    eval_depth = depths[-1] + 1
    eval_times = dyadic_times(cfg.T, eval_depth)
    fine_times = dyadic_times(cfg.T, cfg.n_max)
    weights = trapezoid_weights(eval_times)
    acc = {dep: 0.0 for dep in depths}
    t0 = time.perf_counter()
    for start in range(0, cfg.n_samples, _LEVY_CHUNK):
        idx = np.arange(start, min(start + _LEVY_CHUNK, cfg.n_samples))
        fine = sample_brownian_batch(cfg.seed, idx, 2, cfg.T, cfg.n_max)
        ref_vals = stratonovich_reference(fine_times, fine, functional, eval_times)
        for dep in depths:
            stride = 2 ** (cfg.n_max - dep)
            coarse = _upsample_dyadic(fine[:, ::stride, :], eval_depth - dep)
            vals = functional.apply_stream(time_extend_values(eval_times, coarse))
            delta = vals - ref_vals
            acc[dep] += float(np.sum(weights * np.abs(delta) ** cfg.p))
    distances = {
        dep: (acc[dep] / cfg.n_samples) ** (1.0 / cfg.p) for dep in depths
    }
    for dep, dist in distances.items():
        if not np.isfinite(dist):
            raise NumericalError(f"non-finite distance at depth {dep}")
    if len(distances) >= 2 and all(d > 0 for d in distances.values()):
        log2d = np.log2([distances[dep] for dep in depths])
        slope = float(np.polyfit(depths, log2d, 1)[0])
    else:
        slope = float("nan")
    rows = []
    for dep in depths:
        dist = distances[dep]
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
    return LEVY_COLUMNS, rows, {}


def run_moments(cfg: ExperimentConfig):
    rows = []
    for depth in cfg.depths:
        t0 = time.perf_counter()
        times = dyadic_times(cfg.T, depth)
        grid = refine_times(times, cfg.m)
        pos = np.clip(
            np.searchsorted(times, grid, side="right") - 1, 0, times.size - 2
        )
        frac = (grid - times[pos]) / (times[pos + 1] - times[pos])
        total = total_sq = half_total = 0.0
        n_half = cfg.n_samples // 2
        seen = 0
        for start in range(0, cfg.n_samples, _MOMENT_CHUNK):
            idx = np.arange(start, min(start + _MOMENT_CHUNK, cfg.n_samples))
            values = sample_brownian_batch(cfg.seed, idx, cfg.d, cfg.T, depth)
            hat = time_extend_values(times, values)
            hat_grid = hat[:, pos, :] * (1.0 - frac)[None, :, None] + hat[
                :, pos + 1, :
            ] * frac[None, :, None]
            norms = max_increment_ratio(grid, hat_grid, cfg.alpha)
            args = cfg.beta * cfg.p * norms**cfg.gamma
            if args.max() > 700.0:
                worst = float(norms[np.argmax(args)])
                raise NumericalError(
                    f"exp overflow at depth {depth}: holder norm {worst:.3g} "
                    f"with beta={cfg.beta}; lower beta"
                )
            x = np.exp(args)
            total += float(x.sum())
            total_sq += float((x**2).sum())
            if seen < n_half:
                half_total += float(x[: max(0, n_half - seen)].sum())
            seen += idx.size
        estimate = total / cfg.n_samples
        var = max(total_sq / cfg.n_samples - estimate**2, 0.0)
        var *= cfg.n_samples / max(cfg.n_samples - 1, 1)
        std_error = float(np.sqrt(var / cfg.n_samples))
        half_est = half_total / max(n_half, 1)
        ratio = half_est / estimate
        if not np.isfinite(estimate):
            raise NumericalError(f"non-finite moment estimate at depth {depth}")
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
    return MOMENTS_COLUMNS, rows, {}


# -- persistence -----------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows(path, columns, rows, append=False):
    header = ",".join(columns)
    body = [
        ",".join(_format_cell(row[col]) for col in columns) for row in rows
    ]
    if append and os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            existing = fh.readline().rstrip("\n")
        if existing != header:
            raise ConfigError(
                f"refusing to append: schema of {path} does not match"
            )
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in body))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.write("".join(line + "\n" for line in body))


def _reports_path(csv_path: str) -> str:
    base = csv_path[:-4] if csv_path.endswith(".csv") else csv_path
    return base + ".functionals.json"


_RUNNERS = {
    "functional": run_regression,
    "ode": run_regression,
    "sde": run_regression,
    "levy": run_levy,
    "moments": run_moments,
}


def run_config(cfg: ExperimentConfig, out: str | None = None, append: bool = False):
    """Run one experiment config and persist results; returns (csv_path, rows)."""
    if cfg.kind not in _RUNNERS:
        raise ConfigError(f"kind {cfg.kind!r} is not runnable via run_config")
    csv_path = out or cfg.out or f"{cfg.kind}-results.csv"
    if os.path.isdir(csv_path):
        raise ConfigError(f"results path {csv_path} is a directory")
    if not os.path.isdir(os.path.dirname(csv_path) or "."):
        raise ConfigError(f"directory of results path {csv_path} does not exist")
    columns, rows, reports = _RUNNERS[cfg.kind](cfg)
    write_rows(csv_path, columns, rows, append=append)
    if reports:
        with open(_reports_path(csv_path), "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return csv_path, rows
