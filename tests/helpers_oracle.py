"""Independent oracles used across the test suite.

These deliberately avoid the library's own algebra: iterated integrals are
done by cumulative Riemann-Stieltjes sums on a dense grid, Hoelder norms by
explicit pairwise maxima or a plain lag loop, shuffles by enumerating
interleavings, and products of one-dimensional tensors by series convolution.
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


def dense_holder_oracle(path, alpha, n_points=4097, extra_times=None):
    """Pairwise maximum of |X_t - X_s| / (t-s)^alpha over a dense grid.

    The grid is the union of a uniform n_points grid with any extra times,
    so it dominates every candidate grid built from those times.
    """
    grid = np.linspace(0.0, path.T, n_points)
    if extra_times is not None:
        grid = np.union1d(grid, np.asarray(extra_times, dtype=float))
    vals = path.eval(grid)
    ii, jj = np.triu_indices(grid.size, k=1)
    diffs = vals[jj] - vals[ii]
    dist = np.sqrt(np.sum(diffs * diffs, axis=1))
    return float(np.max(dist / (grid[jj] - grid[ii]) ** alpha))


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
