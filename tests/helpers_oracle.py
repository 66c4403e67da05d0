"""Independent oracles used across the test suite.

These deliberately avoid the library's own kernels: iterated integrals are
done by cumulative Riemann-Stieltjes sums on a dense grid, signature streams
by one dense Chen product per breakpoint in local tensor arithmetic, Hoelder
norms by explicit pairwise maxima or a plain lag loop (also over a refined
grid), shuffles by enumerating interleavings, products of one-dimensional
tensors by series convolution, minimum-norm and ridge least squares by
scipy's own LAPACK bindings, and ridge solutions exactly in rationals.  The
levy rows oracle is the exception: it runs the library's sampler and streams
over each chunk whole, to check the runner's slicing rather than the
kernels, but snaps its reference to the nearest fine breakpoints itself.
The levy mean square oracle is exact: each error is expanded by hand as a
quadratic form in the standardized Gaussian increments.  The population
moments are exact too: the expected signature stream, its Gram by the
shuffle identity and the geometric Brownian target's cross and square
moments by the Cameron-Martin shift.  They read the library's word order,
Chen product and shuffles, which the tests above check on their own.
"""

import itertools
import math

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


def _segment_exp(increment, level):
    """Level-n blocks incr^(x n) / n! of one segment's exponential, each
    level the outer product of the last with incr / n."""
    m = increment.shape[-1]
    batch = increment.shape[:-1]
    blocks = [np.ones(batch + (1,))]
    for n in range(1, level + 1):
        nxt = np.einsum("...i,...j->...ij", blocks[-1], increment / n)
        blocks.append(nxt.reshape(batch + (m**n,)))
    return blocks


def _chen_product(a, b, m):
    """Truncated tensor product of block lists: level n is the sum over
    k = 0..n, in that order, of the outer products a[k] (x) b[n - k]."""
    out = []
    for n in range(len(a)):
        acc = None
        for k in range(n + 1):
            term = np.einsum("...i,...j->...ij", a[k], b[n - k])
            term = term.reshape(term.shape[:-2] + (m**n,))
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def chen_stream_oracle(values, level, eval_idx=None):
    """Signature stream of the piecewise linear path(s) through `values`
    (..., K, m) by one dense Chen product per breakpoint, rows at eval_idx
    (default: all K): the loop the word-stream kernel behind
    `signature.stream_table` must match bit for bit.  Its tensor arithmetic
    is local, so a fault in the library's block kernels cannot reach it."""
    values = np.asarray(values, dtype=float)
    n_pts, m = values.shape[-2], values.shape[-1]
    batch = values.shape[:-2]
    eval_idx = np.arange(n_pts) if eval_idx is None else np.asarray(eval_idx, dtype=int)
    out = np.empty(batch + (eval_idx.size, sum(m**n for n in range(level + 1))))
    keep = np.full(n_pts, -1, dtype=int)
    keep[eval_idx] = np.arange(eval_idx.size)

    cur = [np.zeros(batch + (m**n,)) for n in range(level + 1)]
    cur[0][..., 0] = 1.0
    if keep[0] >= 0:
        out[..., keep[0], :] = np.concatenate(cur, axis=-1)
    for k in range(n_pts - 1):
        incr = values[..., k + 1, :] - values[..., k, :]
        cur = _chen_product(cur, _segment_exp(incr, level), m)
        if keep[k + 1] >= 0:
            out[..., keep[k + 1], :] = np.concatenate(cur, axis=-1)
    return out


def dense_holder_oracle(path, alpha, n_points=4097, extra_times=None):
    """Pairwise maximum of |X_t - X_s| / (t-s)^alpha over a dense grid.

    The grid is the union of a uniform n_points grid with any extra times,
    so it dominates every candidate grid built from those times.  Each
    increment is the sum over segments of the segment's slope times its
    overlap with [s, t], so a pair rounds relative to its own increment.
    (A difference of interpolated values rounds relative to the values: it
    put a pair 3.3e-5 long on the steepest segment 1.8e-12 above that slope
    at alpha = 1.)  The pairs (i, j > i) are taken one row i at a time, so
    memory stays O(grid x segments).
    """
    grid = np.linspace(0.0, path.T, n_points)
    if extra_times is not None:
        grid = np.union1d(grid, np.asarray(extra_times, dtype=float))
    starts, ends = path.times[:-1], path.times[1:]
    slopes = np.diff(path.values, axis=0) / (ends - starts)[:, None]
    # overlap of [s, t] with segment k: clipped[t, k] - clipped[s, k]
    clipped = np.clip(grid[:, None], starts, ends)
    first = np.searchsorted(ends, grid)  # segments ending by s add nothing
    best = -np.inf
    for i in range(grid.size - 1):
        k = first[i]
        diffs = (clipped[i + 1 :, k:] - clipped[i, k:]) @ slopes[k:]
        dist = np.sqrt(np.sum(diffs * diffs, axis=1))
        best = max(best, np.max(dist / (grid[i + 1 :] - grid[i]) ** alpha))
    return float(best)


def lag_scan_oracle(times, values, alpha):
    """max over grid pairs s < t of |X_t - X_s| / (t - s)^alpha, one index
    lag at a time over the whole (..., G, dim) batch, the squared coordinate
    increments summed in coordinate order: the plain formula the blocked
    scan in `paths.max_increment_ratio` must match bit for bit."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    n_grid = times.size
    best = np.zeros(values.shape[:-2])
    for lag in range(1, n_grid):
        dt = times[lag:] - times[:-lag]
        dv = values[..., lag:, :] - values[..., : n_grid - lag, :]
        sq = np.zeros(dv.shape[:-1])
        for k in range(dv.shape[-1]):
            sq = sq + dv[..., k] * dv[..., k]
        ratio = np.sqrt(sq) / dt**alpha
        best = np.maximum(best, ratio.max(axis=-1))
    return best


def refine_times(times, m):
    """Breakpoints plus m-1 equally spaced interior points per segment."""
    times = np.asarray(times, dtype=float)
    if m == 1:
        return times.copy()
    offsets = np.arange(m) / m
    grid = times[:-1, None] + offsets[None, :] * np.diff(times)[:, None]
    return np.append(grid.ravel(), times[-1])


def refined_holder_oracle(times, values, alpha, m):
    """Hoelder norms of the time-extended paths through spatial `values`
    (n, K, d) on the partition `times`, scanned over the grid refined to m
    points per segment: the refine, interpolate and lag-scan route the
    moments kind ran before it scanned the breakpoints alone, whose bits
    the breakpoint scan must keep."""
    from sigpath.paths import time_extend_values

    grid = refine_times(times, m)
    pos = np.clip(np.searchsorted(times, grid, side="right") - 1, 0, times.size - 2)
    frac = (grid - times[pos]) / (times[pos + 1] - times[pos])
    hat = time_extend_values(times, values)
    hat_grid = hat[:, pos, :] * (1.0 - frac)[None, :, None] + hat[
        :, pos + 1, :
    ] * frac[None, :, None]
    return lag_scan_oracle(grid, hat_grid, alpha)


def nearest_breakpoints(times, query):
    """Index of the breakpoint nearest each query time (ties go left)."""
    pos = np.clip(np.searchsorted(times, query), 1, times.size - 1)
    left_closer = np.abs(query - times[pos - 1]) <= np.abs(times[pos] - query)
    return np.where(left_closer, pos - 1, pos)


def levy_rows_oracle(cfg):
    """The rows of `experiments.run_levy` by its whole-chunk loop: each
    chunk of _LEVY_CHUNK paths (read at call time) is sampled at once, its
    reference read at the fine breakpoints nearest the eval times, and each
    depth adds the sum of the chunk's quadrature terms in chunk order. The
    sliced, strided runner must keep these bits."""
    from sigpath import experiments as ex
    from sigpath.paths import dyadic_times
    from sigpath.regress import trapezoid_weights
    from sigpath.stochastic import sample_brownian_batch

    functional = ex.LEVY_TARGETS[cfg.target]
    depths = sorted(cfg.depths)
    eval_depth = depths[-1] + 1
    eval_times = dyadic_times(cfg.T, eval_depth)
    fine_times = dyadic_times(cfg.T, cfg.n_max)
    weights = trapezoid_weights(eval_times)
    ref_idx = nearest_breakpoints(fine_times, eval_times)
    acc = {dep: 0.0 for dep in depths}
    for start in range(0, cfg.n_samples, ex._LEVY_CHUNK):
        idx = np.arange(start, min(start + ex._LEVY_CHUNK, cfg.n_samples))
        fine = sample_brownian_batch(cfg.seed, idx, 2, cfg.T, cfg.n_max)
        ref_vals = functional.apply_stream(fine_times, fine, eval_idx=ref_idx)
        for dep in depths:
            stride = 2 ** (cfg.n_max - dep)
            coarse = ex._upsample_dyadic(fine[:, ::stride, :], eval_depth - dep)
            vals = functional.apply_stream(eval_times, coarse)
            delta = vals - ref_vals
            with np.errstate(over="ignore"):
                acc[dep] += float(np.sum(weights * np.abs(delta) ** cfg.p))
    distances = {
        dep: (acc[dep] / cfg.n_samples) ** (1.0 / cfg.p) for dep in depths
    }
    if len(distances) >= 2 and all(d > 0 for d in distances.values()):
        log2d = np.log2([distances[dep] for dep in depths])
        slope = float(np.polyfit(depths, log2d, 1)[0])
    else:
        slope = float("nan")
    return [
        {
            "experiment": "levy",
            "target": cfg.target,
            "depth": dep,
            "level": functional.level,
            "n_samples": cfg.n_samples,
            "p": cfg.p,
            "distance": distances[dep],
            "log2_distance": (
                float(np.log2(distances[dep])) if distances[dep] > 0 else float("-inf")
            ),
            "slope": slope,
            "config_hash": cfg.config_hash(),
        }
        for dep in depths
    ]


def _polyline_functional(functional, const, lin, keep):
    """(c, a, Q) at each vertex in `keep` of the functional along the
    signature of the piecewise linear path through points affine in z:
    point k is const[k] + lin[k] @ z, so a word of length one is affine and
    a word of length two quadratic in z, read as c + a'z + z'Qz.  Level two
    adds X^i dX^j + dX^i dX^j / 2 segment by segment, X the point less the
    first one; products of affine terms are expanded by hand."""
    if any(len(word) > 2 for word in functional.coeffs):
        raise ValueError("the quadratic-form oracle covers levels 0 to 2 only")
    nz = lin.shape[-1]
    c, a, Q = functional.coeffs.get((), 0.0), np.zeros(nz), np.zeros((nz, nz))
    pairs = [(w, v) for w, v in functional.coeffs.items() if len(w) == 2]
    forms = []
    for k in range(const.shape[0]):
        if k:
            x_c, x_a = const[k - 1] - const[0], lin[k - 1] - lin[0]
            d_c, d_a = const[k] - const[k - 1], lin[k] - lin[k - 1]
            for (i, j), v in pairs:
                for (c1, a1), f in (((x_c[i], x_a[i]), 1.0), ((d_c[i], d_a[i]), 0.5)):
                    c += v * f * c1 * d_c[j]
                    a += v * f * (c1 * d_a[j] + d_c[j] * a1)
                    Q += v * f * np.outer(a1, d_a[j])
        if k in keep:
            cc, aa = c, a.copy()
            for (i,), v in ((w, v) for w, v in functional.coeffs.items() if len(w) == 1):
                cc += v * (const[k, i] - const[0, i])
                aa += v * (lin[k, i] - lin[0, i])
            forms.append((cc, aa, Q.copy()))
    return forms


def levy_square_forms(cfg):
    """Exact law of each depth's levy error at the eval times: (weights,
    {depth: (c, a, Q)}) with delta_j = c[j] + a[j]'z + z'Q[j]z, z the 2 * 2**n_max
    standardized fine increments of both coordinates, and weights the
    trapezoid weights of the eval grid.  The reference is the fine polyline
    read at its breakpoints; a depth's path is the polyline through every
    2**(n_max - depth)-th fine point, read at eval points on its segments.
    Time is the path's own clock, so both carry the exact eval times.  Q is
    dense, (2**(eval_depth) + 1) x (2 * 2**n_max)**2 floats per depth, so keep
    n_max at 8 or below."""
    from sigpath.experiments import LEVY_TARGETS

    n_fine, depths = 2**cfg.n_max, sorted(cfg.depths)
    eval_depth = depths[-1] + 1
    n_eval = 2**eval_depth
    step = n_fine // n_eval  # fine segments per eval segment
    # fine point k of coordinate c: sqrt(T / n_fine) times the sum of the
    # first k standardized increments of that coordinate
    lower = np.tril(np.ones((n_fine + 1, n_fine)), -1) * np.sqrt(cfg.T / n_fine)
    fine_lin = np.zeros((n_fine + 1, 3, 2 * n_fine))
    fine_lin[:, 1, :n_fine] = lower
    fine_lin[:, 2, n_fine:] = lower
    fine_const = np.zeros((n_fine + 1, 3))
    fine_const[:, 0] = np.arange(n_fine + 1) * cfg.T / n_fine
    eval_pos = np.arange(n_eval + 1) * step
    functional = LEVY_TARGETS[cfg.target]
    ref = _polyline_functional(functional, fine_const, fine_lin, set(eval_pos))
    weights = np.full(n_eval + 1, cfg.T / n_eval)
    weights[[0, -1]] /= 2
    forms = {}
    for dep in depths:
        stride = n_fine // 2**dep
        left = eval_pos // stride * stride
        frac = (eval_pos - left) / stride
        right = np.minimum(left + stride, n_fine)
        frac = frac[:, None, None]
        lin = (1 - frac) * fine_lin[left] + frac * fine_lin[right]
        coarse = _polyline_functional(
            functional, fine_const[eval_pos], lin, set(range(n_eval + 1))
        )
        forms[dep] = tuple(
            np.array([cf[n] - rf[n] for cf, rf in zip(coarse, ref)]) for n in range(3)
        )
    return weights, forms


def levy_mean_square_oracle(cfg):
    """E[distance**2] per depth of `experiments.run_levy` at p = 2: the
    weighted sum over eval times of E[delta_j**2] = (c + tr Q)**2 + |a|**2
    + 2 |Q_sym|_F**2 (Isserlis' theorem for the quadratic part)."""
    weights, forms = levy_square_forms(cfg)
    out = {}
    for dep, (c, a, Q) in forms.items():
        sym = 0.5 * (Q + Q.transpose(0, 2, 1))
        trace = np.trace(Q, axis1=1, axis2=2)
        second = (
            (c + trace) ** 2 + np.sum(a * a, axis=1) + 2 * np.sum(sym * sym, axis=(1, 2))
        )
        out[dep] = float(weights @ second)
    return out


def levy_square_draws(cfg, rng, n):
    """n independent draws per depth of the per-path squared distance
    sum_j w_j delta_j**2, with z from `rng`: a Monte Carlo of the law the
    runner averages, for its spread."""
    weights, forms = levy_square_forms(cfg)
    z = rng.standard_normal((n, 2 * 2**cfg.n_max))
    out = {}
    for dep, (c, a, Q) in forms.items():
        delta = np.stack(
            [cj + z @ aj + np.einsum("ni,ni->n", z @ Qj, z) for cj, aj, Qj in zip(c, a, Q)],
            axis=1,
        )
        out[dep] = delta**2 @ weights
    return out


def lstsq_oracle(X_tr, y_tr):
    """(beta, rank) of the minimum-norm least-squares fit through scipy's
    `gelsd` binding with singular values below 1e-10 times the largest
    dropped: the solve `regress.fit` ran at lam = 0 before it moved to
    `np.linalg.lstsq`, whose bits it must keep."""
    import scipy.linalg

    beta, _, rank, _ = scipy.linalg.lstsq(X_tr, y_tr, cond=1e-10)
    return beta, int(rank)


def ridge_oracle(lhs, xty):
    """Ridge coefficients through scipy's Cholesky solve of the regularized
    normal equations: the solve `regress.fit` ran at lam > 0 before it moved
    to `np.linalg.solve`."""
    import warnings

    import scipy.linalg

    # the suite turns warnings into errors; fit reported ill-conditioning in
    # gram_eig_min and gram_eig_max instead
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        return scipy.linalg.solve(lhs, xty, assume_a="pos")


def exact_ridge_oracle(X_tr, y_tr, lam):
    """Ridge coefficients of the float system (X'X + lam I) b = X'y solved
    exactly: every entry is a Fraction, the symmetric positive definite
    system is eliminated without pivoting, and only the solution is
    rounded."""
    from fractions import Fraction

    X = [[Fraction(v) for v in row] for row in X_tr.tolist()]
    y = [Fraction(v) for v in y_tr.tolist()]
    n = len(X[0])
    cols = list(zip(*X))
    a = [
        [sum(p * q for p, q in zip(cols[i], cols[j])) for j in range(n)]
        + [sum(p * q for p, q in zip(cols[i], y))]
        for i in range(n)
    ]
    for i in range(n):
        a[i][i] += Fraction(lam)
    for k in range(n):
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [u - f * v for u, v in zip(a[i], a[k])]
    beta = [Fraction(0)] * n
    for k in reversed(range(n)):
        rest = sum(a[k][j] * beta[j] for j in range(k + 1, n))
        beta[k] = (a[k][n] - rest) / a[k][k]
    return np.array([float(b) for b in beta])


def taylor_functional(a, b, y0, level):
    """Dense level-major coefficients, over the words of the time-extended
    one-dimensional path, of the level-`level` Taylor functional of
    y0 exp(a t + b W): the coefficient of word w is y0 times a per letter 0
    (time) and b per letter 1.  Contracted with the signature up to t it
    gives y0 * sum_{n <= level} Z^n / n! with Z = a t + b W_t, since the
    signature of the path a t + b W is the tensor exponential of Z."""
    from sigpath.tensor import all_words

    return np.array(
        [y0 * float(np.prod([(a, b)[letter] for letter in w])) for w in all_words(2, level)]
    )


def _gaussian_moments(mean, var, k_max):
    """E[X^k] for k = 0..k_max of X ~ N(mean, var), by the recursion
    E[X^k] = mean E[X^(k-1)] + (k - 1) var E[X^(k-2)]."""
    out = [1.0, mean]
    for k in range(2, k_max + 1):
        out.append(mean * out[-1] + (k - 1) * var * out[-2])
    return out[: k_max + 1]


def expected_segment_exp(d, h, level, drift=0.0):
    """E[exp(increment)] of one segment of the time-extended interpolation of
    d-dimensional Brownian motion with drift, increment (h, sqrt(h) Z + drift h)
    with Z ~ N(0, I_d): a level-major row over R^(d + 1) whose coordinate on
    word w is h^{#0} prod_{l >= 1} E[(sqrt(h) Z + drift h)^{#l}] / |w|!."""
    from sigpath.tensor import all_words

    moments = _gaussian_moments(drift * h, h, level)
    words = all_words(d + 1, level)
    row = np.empty(len(words))
    for i, w in enumerate(words):
        coef = h ** w.count(0) / math.factorial(len(w))
        for letter in range(1, d + 1):
            coef *= moments[w.count(letter)]
        row[i] = coef
    return row


def expected_terminal_signature(d, T, depth, level):
    """E[S_{0,T}] of the time-extended depth-`depth` dyadic interpolation of
    d-dimensional Brownian motion, a level-major row over R^(d + 1).

    The 2**depth segments are i.i.d. with increment (h, sqrt(h) Z), so by
    Chen's identity the expectation is the 2**depth-th Chen power of
    E[exp(increment)] (`expected_segment_exp`), taken by repeated squaring."""
    from sigpath.tensor import mul

    out = expected_segment_exp(d, T / 2**depth, level)
    for _ in range(depth):
        out = mul(out, out, d + 1)
    return out


def expected_signature_stream(d, T, depth, level, drift=0.0):
    """E[S_{0,t_k}] at every breakpoint t_k = k T / 2**depth, k = 0..2**depth,
    of the same interpolation, with the Brownian coordinates shifted by
    drift * t: rows (2**depth + 1, D), row k the k-th Chen power of the
    segment expectation."""
    from sigpath.tensor import mul

    segment = expected_segment_exp(d, T / 2**depth, level, drift)
    rows = [np.eye(1, segment.size)[0]]  # the unit tensor
    for _ in range(2**depth):
        rows.append(mul(rows[-1], segment, d + 1))
    return np.array(rows)


def gram_from_expected(expected, dim, level):
    """E[S^u S^v] over the words u, v of length <= level, level-major, from
    the expected signature `expected` (..., D) at level 2 * level over R^dim:
    the shuffle identity S^u S^v = S^(u sh v) makes each entry a sum of
    expected coordinates. Leading axes of `expected` carry through."""
    from sigpath.tensor import all_words, shuffle, word_index

    words = all_words(dim, level)
    gram = np.empty(expected.shape[:-1] + (len(words), len(words)))
    for i, u in enumerate(words):
        for j, v in enumerate(words[: i + 1]):
            product = shuffle(u, v)
            idx = [word_index(w, dim) for w in product]
            moment = expected[..., idx] @ np.array(list(product.values()), dtype=float)
            gram[..., i, j] = gram[..., j, i] = moment
    return gram


def population_gram(d, T, depth, level):
    """E[S^u S^v] over the words u, v of length <= level of the terminal
    signature above, level-major."""
    expected = expected_terminal_signature(d, T, depth, 2 * level)
    return gram_from_expected(expected, d + 1, level)


def gbm_population_forms(a, b, y0, T, depth, level):
    """The population moments, at each breakpoint t_k of the depth-`depth`
    grid on [0, T], of the sde target y_t = y0 exp(a t + b W_t) against the
    stopped features S_t (d = 1): (gram, cross, square) of shapes
    (K, D, D), (K, D) and (K,) with K = 2**depth + 1, holding E[S_t S_t'],
    E[y_t S_t] and E[y_t^2].  By the Cameron-Martin shift,
    E[exp(b W_t) F(W)] = exp(b^2 t / 2) E[F(W + b s)], so E[y_t S_t] is
    y0 exp(a t + b^2 t / 2) times the expected stream with segment
    increments (h, sqrt(h) Z + b h); E[y_t^2] = y0^2 exp(2 a t + 2 b^2 t)."""
    times = np.arange(2**depth + 1) * (T / 2**depth)
    gram = gram_from_expected(expected_signature_stream(1, T, depth, 2 * level), 2, level)
    shifted = expected_signature_stream(1, T, depth, level, drift=b)
    cross = (y0 * np.exp(a * times + b * b * times / 2))[:, None] * shifted
    square = y0 * y0 * np.exp(2 * a * times + 2 * b * b * times)
    return gram, cross, square


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
