"""Piecewise linear paths on a partition of [0, T].

Covers construction and evaluation, time extension, breakpoint insertion,
the exact alpha-Hoelder norm, the exponential weight built from it, and a
small CSV interchange format.  The norm's breakpoint lag scan keeps the
leading coordinates that every path shares (time) as rows and the others as
columns, starts every sum from zero as the plain per-lag formula does, and
takes the root and the division after the maximum wherever a lag's divisors
are one value, with the formula's bits.
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
    "PathFormatError",
    "check_partition",
    "dyadic_times",
    "time_extend",
    "time_extend_values",
    "insert_breakpoint",
    "holder_norm",
    "weight",
    "read_path_csv",
    "write_path_csv",
]


# Paths per block of the Hoelder lag scan: a block's coordinate rows and
# scratch buffer stay in cache across all lags.  256 ran the holder-moments
# benchmark about 7% faster than 128: half the blocks, half the per-lag calls.
_HOLDER_BLOCK = 256
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
    if not (times[1:] > times[:-1]).all():  # a difference could overflow
        raise ValueError("partition times must be strictly increasing")
    return times


def dyadic_times(T: float, depth: int) -> np.ndarray:
    """Dyadic partition with 2**depth segments; scaling by the power of two
    keeps shared points bit-identical across depths."""
    n = 2**depth
    return np.arange(n + 1, dtype=float) * T / float(n)


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
        if not ((0.0 <= t_arr) & (t_arr <= self.T)).all():  # NaN fails too
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
        out = np.where(at_right[..., None], self.values[idx + 1], out)
        if t_arr.ndim == 0:
            return out.reshape(self.dim)
        return out


def time_extend_values(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Prepend the running time as coordinate 0 of breakpoint values
    (..., K, d) on the shared partition `times` (K,); returns (..., K, d + 1)."""
    t = np.broadcast_to(times, values.shape[:-1])
    return np.concatenate([t[..., None], values], axis=-1)


def time_extend(path: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Prepend the running time as coordinate 0; same partition."""
    return PiecewiseLinearPath(path.times, time_extend_values(path.times, path.values))


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


def _scan_block(times, block, alpha, best):
    """Lag scan of one block (n, G, D) of paths into its slice `best` (n,).

    The leading coordinates that are equal on every path of the block (time,
    after time extension) are (G,) rows; every other coordinate is an (n, G)
    contiguous copy.  Each lag starts the sum from zeros, as the formula
    does, and adds the squared increments in coordinate order: the rows'
    as (width,) rows, then each column's, squared into one of two reused
    buffers.  The first column takes the running sum by broadcasting into
    its own buffer, the later ones add in place.  Equal values give equal
    increments up to the sign of a zero, which the square removes, and
    0 + x == x for every square, so the sums keep the formula's bits (where
    two NaNs meet, numpy's loop layout picks whose sign bit the sum
    carries).  A path with no coordinates has the sum 0, so its norm is 0.

    When all of a lag's divisors (t_{i+lag} - t_i)^alpha are one value c
    with 0 < c < inf (every lag of dyadic_times(T, depth) when T is a power
    of two), the map x -> fl(sqrt(x)) / c is monotone non-decreasing and
    maps NaN to NaN, so the root and the division run on each path's
    maximum sum alone, with the same result.  Any other lag takes them
    element by element.
    """
    n, n_grid, dim = block.shape
    n_rows = 0
    while n_rows < dim and (block[:, :, n_rows] == block[:1, :, n_rows]).all():
        n_rows += 1
    rows = [block[0, :, k].copy() for k in range(n_rows)]
    cols = [np.ascontiguousarray(block[:, :, k]) for k in range(n_rows, dim)]
    bufs = [np.empty(n * (n_grid - 1)) for _ in cols[:2]]
    for lag in range(1, n_grid):
        width = n_grid - lag
        acc = np.zeros(width)
        for row in rows:
            inc = row[lag:] - row[:width]
            np.add(acc, inc * inc, out=acc)
        for k, col in enumerate(cols):
            sq = bufs[min(k, 1)][: n * width].reshape(n, width)
            np.subtract(col[:, lag:], col[:, :width], out=sq)
            np.multiply(sq, sq, out=sq)
            acc = np.add(acc, sq, out=acc if k else sq)
        divisor = (times[lag:] - times[:width]) ** alpha
        c = divisor[0]
        if 0.0 < c < math.inf and (divisor == c).all():
            np.maximum(best, np.sqrt(np.max(acc, axis=-1)) / c, out=best)
        else:
            np.sqrt(acc, out=acc)
            np.divide(acc, divisor, out=acc)
            np.maximum(best, np.max(acc, axis=-1), out=best)


def max_increment_ratio(times: np.ndarray, values: np.ndarray, alpha: float):
    """max over grid pairs s < t of |X_t - X_s| / (t - s)^alpha.

    `values` may carry a batch prefix: shape (..., G, dim).  The scan runs
    over index lags so the pairwise matrix is never materialised, in blocks
    of _HOLDER_BLOCK paths on _HOLDER_WORKERS threads, a single path too,
    each in a copy of the caller's context so np.errstate reaches it; each
    block owns its slice of the result and max is exact, so the bits depend
    on neither the blocking nor the scheduling.  For time-extended paths
    with one more coordinate on a dyadic grid over a power-of-two T, time
    leads, so it is one row, and a lag makes four passes over a block:
    subtract, multiply, add the time row, max (see `_scan_block`).  Under
    np.errstate(under="raise"), an underflow in a ratio that is not its
    path's maximum at that lag goes unreported.
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

    # imported here so that runs without a lag scan load no thread pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(_HOLDER_WORKERS) as pool:
        tasks = [
            pool.submit(contextvars.copy_context().run, scan, start)
            for start in range(0, flat.shape[0], _HOLDER_BLOCK)
        ]
        for task in tasks:
            task.result()
    # [()] makes the result for a single path a numpy scalar
    return best.reshape(values.shape[:-2])[()]


def holder_norm(path: PiecewiseLinearPath, alpha: float) -> float:
    """Exact alpha-Hoelder norm: the maximum over breakpoint pairs.

    With one endpoint fixed, |X_t - X_s| is convex and (t - s)^alpha concave
    and positive along each segment, so their ratio is quasiconvex there and
    peaks at a breakpoint.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    return float(max_increment_ratio(path.times, path.values, alpha))


def weight(
    path: PiecewiseLinearPath, alpha: float, beta: float, gamma: float = 2.0
) -> float:
    """Exponential growth gauge exp(beta * holder_norm^gamma) of the exact
    breakpoint norm."""
    if beta <= 0.0:
        raise ValueError("beta must be > 0")
    if gamma < 1.0:
        raise ValueError("gamma must be >= 1")
    return float(np.exp(beta * holder_norm(path, alpha) ** gamma))


# -- CSV interchange -----------------------------------------------------------


def read_path_csv(source) -> PiecewiseLinearPath:
    """Parse the `t,x1,...,xd` breakpoint format."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = text.removeprefix("\ufeff").splitlines()  # drop a byte-order mark
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
        if not math.isfinite(row[0]):
            raise PathFormatError(f"line {line_no}: non-finite partition time")
        if not all(map(math.isfinite, row[1:])):
            raise PathFormatError(f"line {line_no}: non-finite path value")
        times.append(row[0])
        values.append(row[1:])
    if len(times) < 2:
        raise PathFormatError(f"line {rows[-1][0] + 1}: need at least two breakpoints")
    t_arr = np.asarray(times)
    # times are compared before any step is taken, which could overflow;
    # argmin finds the first failing step
    rising = t_arr[1:] > t_arr[:-1]
    if not rising.all():
        line_no = rows[2 + int(np.argmin(rising))][0]
        raise PathFormatError(f"line {line_no}: non-increasing time column")
    if t_arr[0] != 0.0:
        raise PathFormatError(f"line {rows[1][0]}: partition must start at 0")
    # a subnormal step would lose the signature's relative precision; the
    # dyadic grids of runs keep every step a normal float too
    normal = np.diff(t_arr) >= 2.0**-1022
    if not normal.all():
        line_no = rows[2 + int(np.argmin(normal))][0]
        raise PathFormatError(f"line {line_no}: time step below 2**-1022")
    return PiecewiseLinearPath(t_arr, np.asarray(values))


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
