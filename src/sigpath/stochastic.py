"""Brownian paths on nested dyadic partitions, ODE/SDE target generation,
and the seeded train/test split.

Randomness is counter-based: every Gaussian variate is addressed by the key
(seed, sample_index, refinement_level, position, coordinate), hashed through
SplitMix64.  The variate is produced by the Marsaglia polar method from pairs
of 64-bit uniforms drawn from the key's private counter stream, so samples
are bit-reproducible regardless of batching or evaluation order, and the
restriction of a depth-n lattice to a coarser dyadic grid is bit-identical
to the lattice generated directly at that depth.  Every uint64 product and
sum of the hashing is an array operation, which wraps modulo 2**64 without
numpy's overflow check on scalars.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "VECTOR_FIELDS",
    "sample_brownian_batch",
    "solve_ode_batch",
    "sde_exact_gbm",
    "train_mask",
]

# Bounds of the key layout (_event_words): positions of a depth-MAX_DEPTH
# lattice and coordinates below MAX_DIM each keep their own bits of the word.
MAX_DEPTH = 24
MAX_DIM = 2**8
# Key namespace of the train/test split: a level no lattice reaches.
_SPLIT_TAG = 255

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_ABSORB = np.uint64(0xC2B2AE3D27D4EB4F)

# Variates per block: sample_brownian_batch fills each refinement level in
# blocks of paths and positions holding at most this many, which bounds its
# temporaries to a few block-sized arrays whatever the batch size and depth.
_SAMPLE_BLOCK = 2**16


def _mix(z):
    """SplitMix64 output function (Steele, Lea, Flood 2014); mixes a uint64
    array the caller owns in place and returns it."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _sample_keys(seed, sample):
    """Base key of each sample index: the seed and the index, mixed twice."""
    base = _mix(np.array([seed], dtype=np.uint64) + _GAMMA)
    return _mix(base ^ (np.asarray(sample, dtype=np.uint64) * _ABSORB))


def _event_words(level, position, coordinate):
    """(level, position, coordinate) packed injectively into one word (level
    and coordinate below 2**8, position below 2**48), times _ABSORB."""
    packed = (
        (np.asarray(level, dtype=np.uint64) << np.uint64(56))
        | (np.asarray(position, dtype=np.uint64) << np.uint64(8))
        | np.asarray(coordinate, dtype=np.uint64)
    )
    return np.atleast_1d(packed) * _ABSORB


def _uniform(keys: np.ndarray, draw: int) -> np.ndarray:
    """draw-th U[0,1) variate of each key's counter stream."""
    offset = np.uint64((draw + 1) * int(_GAMMA) % 2**64)
    return (_mix(keys + offset) >> np.uint64(11)) * 2.0**-53


def _split_permutation(split_seed: int, n: int) -> np.ndarray:
    """Seeded shuffle of 0..n-1 from the counter-based generator, so the
    train/test split never depends on the numpy version: sample i sorts by
    the first uniform of its event (_SPLIT_TAG, 0, 0)."""
    words = _event_words(_SPLIT_TAG, 0, 0)
    u = _uniform(_mix(_sample_keys(split_seed, np.arange(n)) ^ words), 0)
    return np.argsort(u, kind="stable")


def train_mask(split_seed: int, n: int) -> np.ndarray:
    """Training samples of the seeded 80/20 split of 0..n-1: the first n // 5
    of the split permutation are held out for testing."""
    train = np.ones(n, dtype=bool)
    train[_split_permutation(split_seed, n)[: n // 5]] = False
    return train


def _polar(keys: np.ndarray, draw: int):
    """One Marsaglia polar round on the (draw, draw + 1) uniform pair of each
    key: the variates, and whether each pair was accepted (the variate of a
    rejected pair is meaningless)."""
    u = 2.0 * _uniform(keys, draw) - 1.0
    v = 2.0 * _uniform(keys, draw + 1) - 1.0
    s = u * u + v * v
    ok = (s > 0.0) & (s < 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return u * np.sqrt(-2.0 * np.log(s) / s), ok


def standard_normal(keys) -> np.ndarray:
    """One N(0,1) variate per key via the Marsaglia polar method.

    Rejected pairs advance the key's own counter, so each entry is a pure
    function of its key.
    """
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    flat_keys = keys.reshape(-1)
    out, ok = _polar(flat_keys, 0)
    pending = np.flatnonzero(~ok)
    for draw in range(1, 128):
        if pending.size == 0:
            break
        value, ok = _polar(flat_keys[pending], 2 * draw)
        out[pending[ok]] = value[ok]
        pending = pending[~ok]
    if pending.size:
        raise RuntimeError("polar sampler failed to accept after 128 rounds")
    return out.reshape(keys.shape)


def sample_brownian_batch(seed, sample_indices, d, T, n_max) -> np.ndarray:
    """Brownian lattices for several sample indices; shape (B, 2**n_max+1, d).

    Depth 0 draws the endpoint as N(0, T I); each refinement level fills the
    midpoints with the bridge law mid = (left+right)/2 + sqrt(h/4) Z, h the
    parent spacing.  Each level is filled in blocks of paths and positions
    holding at most _SAMPLE_BLOCK variates; every variate is a pure function
    of its key, so the blocking never changes the values.
    """
    if n_max > MAX_DEPTH:
        raise ValueError(f"n_max {n_max} exceeds {MAX_DEPTH}")
    if n_max < 0 or not 1 <= d <= MAX_DIM or T <= 0:
        raise ValueError(f"need n_max >= 0, 1 <= d <= {MAX_DIM}, T > 0")
    T = float(T)  # an int beyond int64 would reach np.sqrt as an object
    samples = np.asarray(sample_indices, dtype=np.int64)
    if (samples < 0).any() or int(seed) < 0:
        raise ValueError("seed and sample indices must be non-negative")
    n_pts = 2**n_max + 1
    coords = np.arange(d)
    w = np.zeros((samples.size, n_pts, d))
    base = _sample_keys(seed, samples[:, None, None])
    z_end = standard_normal(_mix(base[:, 0] ^ _event_words(0, 0, coords)))
    z_end *= np.sqrt(T)
    w[:, -1, :] = z_end
    # a block is `rows` paths by `cols` positions of one level
    cols = max(1, _SAMPLE_BLOCK // d)
    for level in range(1, n_max + 1):
        n_pos = 2 ** (level - 1)
        stride = 2 ** (n_max - level + 1)
        scale = np.sqrt(T / n_pos / 4.0)
        rows = max(1, _SAMPLE_BLOCK // (min(n_pos, cols) * d))
        for first in range(0, n_pos, cols):
            words = _event_words(
                level, np.arange(first, min(first + cols, n_pos))[:, None], coords
            )
            lo = first * stride
            hi = lo + words.shape[0] * stride
            for start in range(0, samples.size, rows):
                wb = w[start : start + rows]
                z = standard_normal(_mix(base[start : start + rows] ^ words))
                z *= scale
                # one coordinate at a time, so numpy's inner loop runs along
                # the positions rather than over the d coordinates of a point
                for c in range(d):
                    left = wb[:, lo:hi:stride, c]
                    mid = wb[:, lo + stride // 2 : hi : stride, c]
                    np.add(left, wb[:, lo + stride : hi + 1 : stride, c], out=mid)
                    mid *= 0.5
                    mid += z[..., c]
    return w


# -- vector fields and the segment ODE ----------------------------------------


# name -> (a, b) -> (drift, diffusion), functions of the state y of a scalar
# autonomous field driven by one Brownian coordinate: dY = drift dt +
# diffusion dW^pi.
VECTOR_FIELDS = {
    "zero-drift-identity": lambda a, b: (np.zeros_like, np.ones_like),
    "linear": lambda a, b: (lambda y: a * y, lambda y: b * y),
    "tanh-bounded": lambda a, b: (np.tanh, np.tanh),
}


def solve_ode_batch(times, raw_values, field, y0: float, substeps: int):
    """Classical RK4 along a piecewise linear driver, batched over paths.

    times : (K,) shared partition; raw_values : (..., K, 1) the driver; field
    : a (drift, diffusion) pair of VECTOR_FIELDS.  On each segment the driver
    has the constant slope v, giving dY = (drift(Y) + diffusion(Y) v) dt.

    Returns (Y, blown) where Y is (..., K) and `blown` flags the paths whose
    final state is not finite: the RK4 update keeps a non-finite state
    non-finite for any field, so these left the finite range at some step,
    and their rows of Y are non-finite from there on.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    drift, diffusion = field
    times = np.asarray(times, dtype=float)
    raw = np.asarray(raw_values, dtype=float)[..., 0]
    y = np.full(raw.shape[:-1], float(y0))
    out = np.empty(raw.shape)
    out[..., 0] = y

    def rhs(state):  # reads the current segment's slope
        return drift(state) + diffusion(state) * slope

    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        slope = (raw[..., k + 1] - raw[..., k]) / dt
        h = dt / substeps
        for _ in range(substeps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[..., k + 1] = y
    return out, ~np.isfinite(y)


def sde_exact_gbm(times, values, a: float, b: float, y0: float) -> np.ndarray:
    """Exact Stratonovich geometric Brownian motion y0 exp(a t + b W_t) at
    the breakpoints `times` (K,) of Brownian values (..., K, 1); returns
    (..., K)."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != 1:
        raise ValueError("geometric Brownian target is scalar (d = 1)")
    return y0 * np.exp(a * np.asarray(times, dtype=float) + b * values[..., 0])
