"""Independent oracles used across the test suite.

These deliberately avoid the library's own kernels: iterated integrals are
done by cumulative Riemann-Stieltjes sums on a dense grid, signature streams
by one dense Chen product per breakpoint, Hoelder norms by explicit pairwise
maxima or a plain lag loop, shuffles by enumerating interleavings, and
products of one-dimensional tensors by series convolution.
"""

import itertools

import numpy as np


def iterated_integral_riemann(path, word, n_grid=1000):
    """Iterated integral of the path addressed by `word`, via nested
    trapezoid-weighted Riemann-Stieltjes sums on a uniform n_grid grid."""
    grid = np.linspace(0.0, path.T, n_grid + 1)
    vals = path.eval(grid)
    f = np.ones(n_grid + 1)
    for letter in word:
        dx = np.diff(vals[:, letter])
        mids = 0.5 * (f[:-1] + f[1:])
        f = np.concatenate([[0.0], np.cumsum(mids * dx)])
    return float(f[-1])


def chen_stream_oracle(values, level, eval_idx=None):
    """Signature stream of the piecewise linear path(s) through `values`
    (..., K, m) by one dense Chen product per breakpoint, rows at eval_idx
    (default: all K): the loop the word-stream kernel behind
    `signature.stream_table` must match bit for bit."""
    from sigpath.signature import segment_exp_blocks
    from sigpath.tensor import flatten_blocks, mul_blocks, total_entries, unit_blocks

    values = np.asarray(values, dtype=float)
    n_pts, m = values.shape[-2], values.shape[-1]
    batch = values.shape[:-2]
    eval_idx = np.arange(n_pts) if eval_idx is None else np.asarray(eval_idx, dtype=int)
    width = total_entries(m, level)
    out = np.empty(batch + (eval_idx.size, width))
    keep = np.full(n_pts, -1, dtype=int)
    keep[eval_idx] = np.arange(eval_idx.size)

    cur = unit_blocks(m, level, batch)
    if keep[0] >= 0:
        out[..., keep[0], :] = flatten_blocks(cur)
    for k in range(n_pts - 1):
        incr = values[..., k + 1, :] - values[..., k, :]
        cur = mul_blocks(cur, segment_exp_blocks(incr, level), m)
        if keep[k + 1] >= 0:
            out[..., keep[k + 1], :] = flatten_blocks(cur)
    return out


def dense_holder_oracle(path, alpha, n_points=4097, extra_times=None):
    """Pairwise maximum of |X_t - X_s| / (t-s)^alpha over a dense grid.

    The grid is the union of a uniform n_points grid with any extra times,
    so it dominates every candidate grid built from those times.  The pairs
    (i, j > i) are taken one row i at a time, so memory stays O(grid).
    """
    grid = np.linspace(0.0, path.T, n_points)
    if extra_times is not None:
        grid = np.union1d(grid, np.asarray(extra_times, dtype=float))
    vals = path.eval(grid)
    best = -np.inf
    for i in range(grid.size - 1):
        diffs = vals[i + 1 :] - vals[i]
        dist = np.sqrt(np.sum(diffs * diffs, axis=1))
        best = max(best, np.max(dist / (grid[i + 1 :] - grid[i]) ** alpha))
    return float(best)


def lag_scan_oracle(times, values, alpha):
    """max over grid pairs s < t of |X_t - X_s| / (t - s)^alpha, one index
    lag at a time over the whole (..., G, dim) batch: the plain formula the
    blocked scan in `paths.max_increment_ratio` must match bit for bit."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    n_grid = times.size
    best = np.zeros(values.shape[:-2])
    for lag in range(1, n_grid):
        dt = times[lag:] - times[:-lag]
        dv = values[..., lag:, :] - values[..., : n_grid - lag, :]
        ratio = np.sqrt(np.sum(dv * dv, axis=-1)) / dt**alpha
        best = np.maximum(best, ratio.max(axis=-1))
    return best


def series_product_1d(a, b):
    """Truncated product of two dim-1 tensors as polynomial convolution."""
    n = len(a)
    return [sum(a[k] * b[i - k] for k in range(i + 1)) for i in range(n)]


def enumerate_interleavings(i, j):
    """All order-preserving interleavings of two words, with multiplicity."""
    i, j = tuple(i), tuple(j)
    total = len(i) + len(j)
    counts = {}
    for positions in itertools.combinations(range(total), len(i)):
        word = [None] * total
        it_i = iter(i)
        it_j = iter(j)
        pos_set = set(positions)
        for k in range(total):
            word[k] = next(it_i) if k in pos_set else next(it_j)
        word = tuple(word)
        counts[word] = counts.get(word, 0) + 1
    return counts


def random_pl_path(rng, n_segments, dim, t_max=1.0, scale=1.0):
    """Random piecewise linear path starting at a random point at time 0."""
    from sigpath.paths import PiecewiseLinearPath

    gaps = rng.uniform(0.2, 1.0, n_segments)
    times = np.concatenate([[0.0], np.cumsum(gaps)]) * (t_max / gaps.sum())
    values = np.cumsum(
        np.concatenate(
            [rng.normal(0.0, scale, (1, dim)), rng.normal(0.0, scale, (n_segments, dim))]
        ),
        axis=0,
    )
    return PiecewiseLinearPath(times, values)
