"""Piecewise linear paths on a partition of [0, T].

Covers construction and evaluation, time extension, breakpoint insertion,
stopped paths, a grid estimate of the alpha-Hoelder norm, the exponential
weight built from it, and a small CSV interchange format.
"""

from __future__ import annotations

import contextvars
import io
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PiecewiseLinearPath",
    "StoppedPath",
    "PathFormatError",
    "check_partition",
    "dyadic_times",
    "nearest_breakpoints",
    "time_extend",
    "time_extend_values",
    "insert_breakpoint",
    "holder_norm",
    "weight",
    "stop",
    "materialize",
    "read_path_csv",
    "write_path_csv",
]


# Paths per block of the Hoelder lag scan: a block's coordinate rows and
# scratch buffers stay in cache across all lags.
_HOLDER_BLOCK = 128
# Threads for the lag scan; numpy releases the GIL inside its ufunc loops.
_HOLDER_WORKERS = min(2, os.cpu_count() or 1)


class PathFormatError(ValueError):
    """Malformed path CSV input."""


def check_partition(times: np.ndarray):
    """Validate a partition 0 = t_0 < ... < t_n = T with T > 0."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("partition needs at least two times")
    if not np.isfinite(times).all():
        raise ValueError("non-finite partition time")
    if times[0] != 0.0:
        raise ValueError("partition must start at 0")
    if not (np.diff(times) > 0).all():
        raise ValueError("partition times must be strictly increasing")
    return times


def dyadic_times(T: float, depth: int) -> np.ndarray:
    """Dyadic partition with 2**depth segments; scaling by the power of two
    keeps shared points bit-identical across depths."""
    n = 2**depth
    return np.arange(n + 1, dtype=float) * T / float(n)


def nearest_breakpoints(times: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Index of the breakpoint nearest each query time (ties go left)."""
    pos = np.clip(np.searchsorted(times, query), 1, times.size - 1)
    left_closer = np.abs(query - times[pos - 1]) <= np.abs(times[pos] - query)
    return np.where(left_closer, pos - 1, pos)


@dataclass(frozen=True, eq=False)
class PiecewiseLinearPath:
    """Breakpoint times and values; evaluation interpolates linearly."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = check_partition(self.times)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] != times.size:
            raise ValueError("values must be (n_breakpoints, dim)")
        if not np.isfinite(values).all():
            raise ValueError("non-finite path value")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def n_segments(self) -> int:
        return self.times.size - 1

    def eval(self, t):
        """Value at time(s) t in [0, T]; exact at breakpoints."""
        t_arr = np.asarray(t, dtype=float)
        if (t_arr < 0.0).any() or (t_arr > self.T).any():
            raise ValueError(f"time outside [0, {self.T}]")
        idx = np.searchsorted(self.times, t_arr, side="right") - 1
        idx = np.clip(idx, 0, self.n_segments - 1)
        t0 = self.times[idx]
        t1 = self.times[idx + 1]
        frac = (t_arr - t0) / (t1 - t0)
        out = self.values[idx] + frac[..., None] * (
            self.values[idx + 1] - self.values[idx]
        )
        at_right = t_arr == t1
        if at_right.any():
            out = np.where(at_right[..., None], self.values[idx + 1], out)
        if t_arr.ndim == 0:
            return out.reshape(self.dim)
        return out

    def reversed(self) -> "PiecewiseLinearPath":
        return PiecewiseLinearPath(
            self.T - self.times[::-1], self.values[::-1].copy()
        )


@dataclass(frozen=True)
class StoppedPath:
    """Time-extended path whose spatial coordinates freeze at stop_time while
    the time coordinate keeps running."""

    base: PiecewiseLinearPath
    stop_time: float


def time_extend_values(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Prepend the running time as coordinate 0 of breakpoint values
    (..., K, d) on the shared partition `times` (K,); returns (..., K, d + 1)."""
    t = np.broadcast_to(times, values.shape[:-1])
    return np.concatenate([t[..., None], values], axis=-1)


def time_extend(path: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Prepend the running time as coordinate 0; same partition."""
    return PiecewiseLinearPath(path.times, time_extend_values(path.times, path.values))


def _is_time_extended(path: PiecewiseLinearPath) -> bool:
    return path.dim >= 2 and np.allclose(
        path.values[:, 0], path.times, rtol=0.0, atol=1e-9 * max(path.T, 1.0)
    )


def insert_breakpoint(path: PiecewiseLinearPath, t: float) -> PiecewiseLinearPath:
    """Add a breakpoint at interior time t; the trajectory is unchanged."""
    if not 0.0 < t < path.T:
        raise ValueError(f"breakpoint {t} outside (0, {path.T})")
    pos = np.searchsorted(path.times, t)
    if pos < path.times.size and path.times[pos] == t:
        return PiecewiseLinearPath(path.times.copy(), path.values.copy())
    new_times = np.insert(path.times, pos, t)
    new_values = np.insert(path.values, pos, path.eval(t), axis=0)
    return PiecewiseLinearPath(new_times, new_values)


def refine_times(times: np.ndarray, m: int) -> np.ndarray:
    """Breakpoints plus m-1 equally spaced interior points per segment."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return np.asarray(times, dtype=float).copy()
    times = np.asarray(times, dtype=float)
    offsets = np.arange(m) / m
    grid = times[:-1, None] + offsets[None, :] * np.diff(times)[:, None]
    return np.append(grid.ravel(), times[-1])


def _scan_block(times, block, alpha, best):
    """Lag scan of one block (n, G, D) of paths into its slice `best` (n,).

    Each lag squares the coordinate increments and adds them in coordinate
    order, which is the order of np.sum's pairwise summation below eight
    terms, so the bits match the plain per-lag formula.  Wider paths sum
    each lag with np.sum itself.
    """
    n, n_grid, dim = block.shape
    coords = [np.ascontiguousarray(block[:, :, k]) for k in range(dim)]
    acc_buf = np.empty(n * (n_grid - 1))
    tmp_buf = np.empty_like(acc_buf)
    row_max = np.empty(n)
    for lag in range(1, n_grid):
        width = n_grid - lag
        acc = acc_buf[: n * width].reshape(n, width)
        if 0 < dim < 8:
            tmp = tmp_buf[: n * width].reshape(n, width)
            for k, coord in enumerate(coords):
                sq = tmp if k else acc
                np.subtract(coord[:, lag:], coord[:, :width], out=sq)
                np.multiply(sq, sq, out=sq)
                if k:
                    np.add(acc, sq, out=acc)
        else:
            dv = block[:, lag:, :] - block[:, :width, :]
            np.sum(dv * dv, axis=-1, out=acc)
        np.sqrt(acc, out=acc)
        np.divide(acc, (times[lag:] - times[:width]) ** alpha, out=acc)
        np.max(acc, axis=1, out=row_max)
        np.maximum(best, row_max, out=best)


def max_increment_ratio(times: np.ndarray, values: np.ndarray, alpha: float):
    """max over grid pairs s < t of |X_t - X_s| / (t - s)^alpha.

    `values` may carry a batch prefix: shape (..., G, dim).  The scan runs
    over index lags so the pairwise matrix is never materialised, in blocks
    of _HOLDER_BLOCK paths spread over _HOLDER_WORKERS threads; each block
    owns its slice of the result and max is exact, so the bits depend on
    neither the blocking nor the scheduling.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim < 2 or values.shape[-2] != times.size:
        raise ValueError("values must be (..., len(times), dim)")
    flat = values.reshape(math.prod(values.shape[:-2]), *values.shape[-2:])
    best = np.zeros(flat.shape[0])

    def scan(start):
        stop = start + _HOLDER_BLOCK
        _scan_block(times, flat[start:stop], alpha, best[start:stop])

    starts = range(0, flat.shape[0], _HOLDER_BLOCK)
    if len(starts) > 1 and _HOLDER_WORKERS > 1:
        # imported here so that runs without a batched scan load no thread pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(_HOLDER_WORKERS) as pool:
            # each task runs in a copy of the caller's context, so np.errstate
            # reaches the workers
            tasks = [
                pool.submit(contextvars.copy_context().run, scan, start)
                for start in starts
            ]
            for task in tasks:
                task.result()
    else:
        for start in starts:
            scan(start)
    # [()] makes the result for a single path a numpy scalar
    return best.reshape(values.shape[:-2])[()]


def holder_norm(path: PiecewiseLinearPath, alpha: float, m: int = 16) -> float:
    """Grid estimate of the alpha-Hoelder norm.

    The candidate set is the breakpoints plus m-1 interior points per
    segment; the estimate is a lower bound of the true supremum and is
    non-decreasing when m doubles.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    grid = refine_times(path.times, m)
    vals = path.eval(grid)
    return float(max_increment_ratio(grid, vals, alpha))


def weight(
    path: PiecewiseLinearPath,
    alpha: float,
    beta: float,
    gamma: float = 2.0,
    m: int = 16,
) -> float:
    """Exponential growth gauge exp(beta * holder_norm^gamma)."""
    if beta <= 0.0:
        raise ValueError("beta must be > 0")
    if gamma < 1.0:
        raise ValueError("gamma must be >= 1")
    return float(np.exp(beta * holder_norm(path, alpha, m) ** gamma))


def stop(path: PiecewiseLinearPath, t: float) -> StoppedPath:
    """Stop the spatial coordinates of a time-extended path at time t."""
    if not _is_time_extended(path):
        raise ValueError("stop requires a time-extended path")
    if not 0.0 <= t <= path.T:
        raise ValueError(f"stop time {t} outside [0, {path.T}]")
    return StoppedPath(path, float(t))


def materialize(stopped: StoppedPath) -> PiecewiseLinearPath:
    """Stopped path on the base partition (plus the stop breakpoint)."""
    base, t = stopped.base, stopped.stop_time
    if t == base.T:
        return PiecewiseLinearPath(base.times.copy(), base.values.copy())
    frozen = base.eval(t)[1:]
    pos = np.searchsorted(base.times, t)
    if pos < base.times.size and base.times[pos] == t:
        times = base.times.copy()
    else:
        times = np.insert(base.times, pos, t)
    values = np.empty((times.size, base.dim))
    values[:, 0] = times
    before = times <= t
    values[before, 1:] = base.eval(times[before])[:, 1:]
    values[~before, 1:] = frozen
    return PiecewiseLinearPath(times, values)


# -- CSV interchange -----------------------------------------------------------


def read_path_csv(source) -> PiecewiseLinearPath:
    """Parse the `t,x1,...,xd` breakpoint format."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    rows = [(i + 1, line.strip()) for i, line in enumerate(lines) if line.strip()]
    if not rows:
        raise PathFormatError("line 1: empty file")
    header_no, header = rows[0]
    fields = [f.strip() for f in header.split(",")]
    if len(fields) < 2 or fields[0] != "t":
        raise PathFormatError(
            f"line {header_no}: header must be 't,x1,...,xd', got {header!r}"
        )
    d = len(fields) - 1
    times, values = [], []
    for line_no, line in rows[1:]:
        parts = line.split(",")
        if len(parts) != d + 1:
            raise PathFormatError(
                f"line {line_no}: expected {d + 1} fields, got {len(parts)}"
            )
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise PathFormatError(f"line {line_no}: non-numeric value") from None
        times.append(row[0])
        values.append(row[1:])
    if len(times) < 2:
        raise PathFormatError("line 2: need at least two breakpoints")
    t_arr = np.asarray(times)
    if not (np.diff(t_arr) > 0).all():
        bad = int(np.flatnonzero(np.diff(t_arr) <= 0)[0])
        raise PathFormatError(
            f"line {rows[2 + bad][0]}: non-increasing time column"
        )
    try:
        return PiecewiseLinearPath(t_arr, np.asarray(values))
    except ValueError as err:
        raise PathFormatError(f"line {header_no}: {err}") from None


def write_path_csv(path: PiecewiseLinearPath, target) -> None:
    """Write the same format with 17 significant digits."""
    buf = io.StringIO()
    buf.write("t," + ",".join(f"x{i + 1}" for i in range(path.dim)) + "\n")
    for t, row in zip(path.times, path.values):
        buf.write(",".join(f"{v:.17g}" for v in (t, *row)) + "\n")
    text = buf.getvalue()
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
