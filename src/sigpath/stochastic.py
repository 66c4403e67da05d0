"""Brownian paths on nested dyadic partitions, ODE/SDE target generation,
and the fine-grid reference evaluation of signature functionals.

Randomness is counter-based: every Gaussian variate is addressed by the key
(seed, sample_index, refinement_level, position, coordinate), hashed through
SplitMix64.  The variate is produced by the Marsaglia polar method from pairs
of 64-bit uniforms drawn from the key's private counter stream, so samples
are bit-reproducible regardless of batching or evaluation order, and the
restriction of a depth-n lattice to a coarser dyadic grid is bit-identical
to the lattice generated directly at that depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .paths import (
    PiecewiseLinearPath,
    dyadic_times,
    nearest_breakpoints,
    time_extend_values,
)
from .signature import LinearFunctional

__all__ = [
    "BrownianLattice",
    "VectorField",
    "OdeBlowupError",
    "sample_brownian",
    "sample_brownian_batch",
    "interpolate",
    "make_vector_field",
    "solve_ode_pl",
    "solve_ode_batch",
    "sde_exact_gbm",
    "stratonovich_reference",
]

MAX_DEPTH = 24

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_ABSORB = np.uint64(0xC2B2AE3D27D4EB4F)

# Variates per block: sample_brownian_batch fills each refinement level in
# blocks of paths (at least one) holding at most this many, which bounds its
# temporaries to a few block-sized arrays whatever the batch size.
_SAMPLE_BLOCK = 2**16


def _mix(z):
    """SplitMix64 output function (Steele, Lea, Flood 2014); mixes a uint64
    array the caller owns in place and returns it (a numpy scalar, being
    immutable, comes back as a new value).  uint64 arithmetic wraps by
    design."""
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


def _sample_keys(seed, sample):
    """Base key of each sample index: the seed and the index, mixed twice."""
    with np.errstate(over="ignore"):
        base = _mix(np.uint64(seed) + _GAMMA)
        return _mix(base ^ (np.asarray(sample, dtype=np.uint64) * _ABSORB))


def _event_words(level, position, coordinate):
    """(level, position, coordinate) packed injectively into one word (level
    and coordinate below 2**8, position below 2**48), times _ABSORB."""
    packed = (
        (np.asarray(level, dtype=np.uint64) << np.uint64(56))
        | (np.asarray(position, dtype=np.uint64) << np.uint64(8))
        | np.asarray(coordinate, dtype=np.uint64)
    )
    with np.errstate(over="ignore"):
        return packed * _ABSORB


def _derive_keys(seed, sample, level, position, coordinate) -> np.ndarray:
    """One 64-bit key per (seed, sample, level, position, coordinate);
    the integer arguments broadcast.  A final mixing round separates every
    event of a sample's lattice."""
    return _mix(_sample_keys(seed, sample) ^ _event_words(level, position, coordinate))


def _uniform(keys: np.ndarray, draw: int) -> np.ndarray:
    """draw-th U[0,1) variate of each key's counter stream."""
    with np.errstate(over="ignore"):
        bits = _mix(keys + np.uint64(draw + 1) * _GAMMA)
    return (bits >> np.uint64(11)) * 2.0**-53


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


@dataclass(frozen=True)
class BrownianLattice:
    """Brownian values on the finest dyadic grid of one sample path."""

    seed: int
    sample_index: int
    d: int
    T: float
    n_max: int
    values: np.ndarray  # (2**n_max + 1, d)

    @property
    def times(self) -> np.ndarray:
        return dyadic_times(self.T, self.n_max)

    def restrict(self, depth: int) -> np.ndarray:
        if depth > self.n_max:
            raise ValueError(f"depth {depth} exceeds n_max {self.n_max}")
        stride = 2 ** (self.n_max - depth)
        return self.values[::stride]


def sample_brownian_batch(seed, sample_indices, d, T, n_max) -> np.ndarray:
    """Brownian lattices for several sample indices; shape (B, 2**n_max+1, d).

    Depth 0 draws the endpoint as N(0, T I); each refinement level fills the
    midpoints with the bridge law mid = (left+right)/2 + sqrt(h/4) Z, h the
    parent spacing.  Each level is filled in blocks of paths holding at most
    _SAMPLE_BLOCK variates; every variate is a pure function of its key, so
    the blocking never changes the values.
    """
    if n_max > MAX_DEPTH:
        raise ValueError(f"n_max {n_max} exceeds {MAX_DEPTH}")
    if n_max < 0 or d < 1 or T <= 0:
        raise ValueError("need n_max >= 0, d >= 1, T > 0")
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
    for level in range(1, n_max + 1):
        n_pos = 2 ** (level - 1)
        stride = 2 ** (n_max - level + 1)
        words = _event_words(level, np.arange(n_pos)[:, None], coords)
        scale = np.sqrt(T / n_pos / 4.0)
        rows = max(1, _SAMPLE_BLOCK // words.size)
        for start in range(0, samples.size, rows):
            wb = w[start : start + rows]
            z = standard_normal(_mix(base[start : start + rows] ^ words))
            z *= scale
            # one coordinate at a time, so numpy's inner loop runs along the
            # positions rather than over the d coordinates of one point
            for c in range(d):
                left = wb[:, : n_pts - 1 : stride, c]
                mid = wb[:, stride // 2 :: stride, c]
                np.add(left, wb[:, stride::stride, c], out=mid)
                mid *= 0.5
                mid += z[..., c]
    return w


def sample_brownian(seed, sample_index, d, T, n_max) -> BrownianLattice:
    values = sample_brownian_batch(seed, [sample_index], d, T, n_max)[0]
    return BrownianLattice(int(seed), int(sample_index), d, float(T), n_max, values)


def interpolate(lattice: BrownianLattice, depth: int) -> PiecewiseLinearPath:
    """Piecewise linear interpolation along the depth-n dyadic partition."""
    return PiecewiseLinearPath(dyadic_times(lattice.T, depth), lattice.restrict(depth))


# -- vector fields and the segment ODE ----------------------------------------


class OdeBlowupError(RuntimeError):
    """Non-finite state during ODE integration."""


@dataclass(frozen=True)
class VectorField:
    """Drift (t, y) -> (..., m) and diffusion (t, y) -> (..., m, d), plus the
    constant C of the linear growth bound |mu| + |sigma| <= C (1 + |y|)."""

    name: str
    m: int
    d: int
    drift: Callable
    diffusion: Callable
    growth_const: float


def make_vector_field(name: str, d: int = 1, a: float = 0.0, b: float = 1.0) -> VectorField:
    """Named built-in fields; `a` and `b` parameterize the linear field."""
    if name == "zero-drift-identity":
        eye = np.eye(d)

        def drift(t, y):
            return np.zeros_like(y)

        def diffusion(t, y):
            return np.broadcast_to(eye, y.shape[:-1] + (d, d))

        return VectorField(name, d, d, drift, diffusion, 1.0)
    if name == "linear":
        if d != 1:
            raise ValueError("linear field is scalar (d = 1)")

        def drift(t, y):
            return a * y

        def diffusion(t, y):
            return (b * y)[..., None]

        return VectorField(name, 1, 1, drift, diffusion, abs(a) + abs(b))
    if name == "tanh-bounded":
        if d != 1:
            raise ValueError("tanh-bounded field is scalar (d = 1)")

        def drift(t, y):
            return np.tanh(y)

        def diffusion(t, y):
            return np.tanh(y)[..., None]

        return VectorField(name, 1, 1, drift, diffusion, 2.0)
    raise ValueError(f"unknown vector field {name!r}")


def solve_ode_batch(times, raw_values, vf: VectorField, y0, substeps: int):
    """Classical RK4 along a piecewise linear driver, batched over paths.

    times : (K,) shared partition; raw_values : (..., K, d) spatial
    coordinates of the driver.  On each segment the driver contributes the
    constant slope v, giving dY = (mu(t, Y) + sigma(t, Y) v) dt.

    Returns (Y, blown) where Y is (..., K, m) and `blown` flags paths that
    left the finite range (their trailing values are frozen at the last
    finite state).
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    times = np.asarray(times, dtype=float)
    raw_values = np.asarray(raw_values, dtype=float)
    batch = raw_values.shape[:-2]
    n_pts = times.size
    y = np.broadcast_to(np.asarray(y0, dtype=float), batch + (vf.m,)).copy()
    out = np.empty(batch + (n_pts, vf.m))
    out[..., 0, :] = y
    blown = np.zeros(batch, dtype=bool)

    def rhs(t, state, slope):
        sig = vf.diffusion(t, state)
        return vf.drift(t, state) + np.einsum("...md,...d->...m", sig, slope)

    for k in range(n_pts - 1):
        dt = times[k + 1] - times[k]
        slope = (raw_values[..., k + 1, :] - raw_values[..., k, :]) / dt
        h = dt / substeps
        for j in range(substeps):
            t = times[k] + j * h
            k1 = rhs(t, y, slope)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1, slope)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2, slope)
            k4 = rhs(t + h, y + h * k3, slope)
            y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            bad = ~np.isfinite(y_new).all(axis=-1)
            y = np.where(bad[..., None], y, y_new)
            blown |= bad
        out[..., k + 1, :] = y
    return out, blown


def solve_ode_pl(
    driver: PiecewiseLinearPath, vf: VectorField, y0, substeps: int = 4
) -> np.ndarray:
    """Solve dY = mu dt + sigma dX along one time-extended driver; returns Y
    at every driver breakpoint, shape (K, m)."""
    if driver.dim != vf.d + 1:
        raise ValueError(
            f"driver has {driver.dim - 1} spatial coordinates, field wants {vf.d}"
        )
    raw = driver.values[:, 1:]
    y, blown = solve_ode_batch(driver.times, raw, vf, y0, substeps)
    if blown:
        finite = np.isfinite(y).all(axis=-1)
        first_bad = int(np.argmin(finite)) if not finite.all() else driver.n_segments
        raise OdeBlowupError(f"non-finite state near segment {first_bad}")
    return y


def sde_exact_gbm(times, values, a: float, b: float, y0: float) -> np.ndarray:
    """Exact Stratonovich geometric Brownian motion y0 exp(a t + b W_t) at
    the breakpoints `times` (K,) of Brownian values (..., K, 1); returns
    (..., K)."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != 1:
        raise ValueError("geometric Brownian target is scalar (d = 1)")
    return y0 * np.exp(a * np.asarray(times, dtype=float) + b * values[..., 0])


def stratonovich_reference(
    times, values, functional: LinearFunctional, eval_times
) -> np.ndarray:
    """Evaluate a linear functional on the signature stream of the
    time-extended interpolation of (..., K, d) values on `times` (K,), at
    the breakpoints nearest eval_times; returns (...,) + eval_times.shape.

    On a fine lattice this is the proxy for the corresponding functional of
    the underlying Brownian signature.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    eval_times = np.asarray(eval_times, dtype=float)
    if (eval_times < times[0]).any() or (eval_times > times[-1]).any():
        raise ValueError(f"eval times outside [{times[0]}, {times[-1]}]")
    if functional.dim != values.shape[-1] + 1:
        raise ValueError("functional must act on the time-extended alphabet")
    idx = nearest_breakpoints(times, eval_times).ravel()
    unique_idx, inverse = np.unique(idx, return_inverse=True)
    out = functional.apply_stream(
        time_extend_values(times, values), eval_idx=unique_idx
    )
    return out[..., inverse].reshape(out.shape[:-1] + eval_times.shape)
