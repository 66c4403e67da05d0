"""Exact truncated signatures of piecewise linear paths.

Each segment contributes the tensor exponential of its increment; the path
signature is the ordered product of the segment exponentials (Chen), which
equals the iterated Riemann-Stieltjes integrals of the interpolated path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .paths import PiecewiseLinearPath
from .tensor import all_words, check_word, mul, norm, row_level, total_entries, unit, word_index

__all__ = [
    "LinearFunctional",
    "segment_signature",
    "signature",
    "signature_stream",
    "stream_table",
    "word_streams",
    "reverse_check",
    "levy_area_functional",
]


def segment_signature(increment, level: int) -> np.ndarray:
    """Signature of a single line segment with the given increment: that of
    the one-segment path from 0 to `increment` on [0, 1]."""
    increment = np.atleast_1d(np.asarray(increment, dtype=float))
    segment = PiecewiseLinearPath([0.0, 1.0], [np.zeros_like(increment), increment])
    return signature(segment, level)


def signature(path: PiecewiseLinearPath, level: int) -> np.ndarray:
    """Signature of the whole path on [0, T], truncated at `level`: the
    last row of its stream table, (D,) with D = total_entries(path.dim,
    level)."""
    words = _own_words(path.dim, level)
    row = word_streams(path.times, path.values, words, [path.n_segments])[0]
    return _finite(row, level)


@lru_cache(maxsize=16)
def _own_words(dim: int, level: int) -> tuple:
    """all_words(dim, level) relabelled l -> l + 1: a path's own coordinates
    as word_streams letters, without the time letter 0."""
    return tuple(tuple(l + 1 for l in w) for w in all_words(dim, level))


def _finite(rows: np.ndarray, level: int) -> np.ndarray:
    """`rows` of signature coordinates; a non-finite one is an overflow."""
    if not np.isfinite(rows).all():
        raise FloatingPointError(f"signature overflows at level {level}")
    return rows


def _check_eval_idx(eval_idx, n_pts: int) -> np.ndarray:
    if eval_idx is None:
        return np.arange(n_pts)
    eval_idx = np.asarray(eval_idx, dtype=int)
    if eval_idx.size and (
        (np.diff(eval_idx) <= 0).any()
        or eval_idx[0] < 0
        or eval_idx[-1] >= n_pts
    ):
        raise ValueError("eval_idx must be increasing breakpoint indices")
    return eval_idx


def stream_table(times: np.ndarray, values: np.ndarray, level: int, eval_idx=None) -> np.ndarray:
    """Signature stream of the time-extended path(s) through `values`
    (..., K, d) on `times` (K,), at the breakpoints eval_idx (default: all):
    (..., len(eval_idx), D) with the D = total_entries(d + 1, level)
    coefficients flattened level-major, i.e. word_streams over every word
    of length <= level; only the requested rows are stored.
    """
    words = all_words(np.shape(values)[-1] + 1, level)
    return word_streams(times, values, words, eval_idx)


# Paths per block and segments per chunk in word_streams: the per-word
# temporaries are (block, chunk) arrays, so the two bound them independently
# of the batch and of the path length.  A plan with many live intermediates
# takes shorter chunks, so that they hold at most _STREAM_FLOATS floats.
_WORD_BLOCK = 32
_SEGMENT_CHUNK = 4096
_STREAM_FLOATS = 2**22


def word_streams(times: np.ndarray, values: np.ndarray, words, eval_idx=None) -> np.ndarray:
    """Stream coordinates of selected words of the time-extended path.

    times : (K,) partition shared by the batch.
    values : (..., K, d) absolute breakpoint values, arbitrary batch prefix.
    words : words over the alphabet 0..d, in any order and of any length;
        letter 0 is time, letter l >= 1 is value column l - 1.
    eval_idx : increasing breakpoint indices (default: all K breakpoints).

    Returns (..., len(eval_idx), len(words)).  Only the prefixes of the
    requested words are streamed, each by one prefix sum over the segments:
    S^w_{k+1} = S^w_k + T_k with
    T_k = ((E^w + S^{w[:1]} E^{w[1:]}) + S^{w[:2]} E^{w[2:]}) + ...
    and E^u = ((x_{u1}/1) x_{u2}/2) ... the segment-exponential coordinates,
    summed in the order of the Chen product (tensor.mul), so every
    coordinate has the bits of the dense per-breakpoint Chen loop on the
    time-extended values.

    Paths go in blocks and segments in chunks (_WORD_BLOCK, _SEGMENT_CHUNK).
    Each stream starts a chunk from its last value in the chunk before, and
    its prefix sum is sequential, so the bits depend on neither the blocking
    nor the chunking.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    n_pts, d = values.shape[-2], values.shape[-1]
    if times.shape != (n_pts,):
        raise ValueError(f"times must have shape ({n_pts},), got {times.shape}")
    batch = values.shape[:-2]
    eval_idx = _check_eval_idx(eval_idx, n_pts)
    words = tuple(map(tuple, words))
    steps, columns, live = _word_plan(words, d + 1)
    chunk = min(_SEGMENT_CHUNK, max(1, _STREAM_FLOATS // (_WORD_BLOCK * live)))
    flat = values.reshape((-1, n_pts, d))
    # zeros: a kept first breakpoint is the unit tensor, 0 off the empty word
    out = np.zeros((flat.shape[0], eval_idx.size, len(words)))
    out[..., columns.get((), [])] = 1.0
    n_seg = n_pts - 1
    for start in range(0, flat.shape[0], _WORD_BLOCK):
        block = slice(start, start + _WORD_BLOCK)
        carry = {}
        for s0 in range(0, n_seg, chunk):
            s1 = min(s0 + chunk, n_seg)
            # kept breakpoints s0 < k <= s1 sit at column k - s0 of a chunk stream
            rows = slice(*np.searchsorted(eval_idx, [s0 + 1, s1 + 1]))
            _chunk_word_streams(
                times[s0 : s1 + 1], flat[block, s0 : s1 + 1], steps, columns,
                eval_idx[rows] - s0, out[block, rows], carry,
            )
    return out.reshape(batch + out.shape[1:])


@lru_cache(maxsize=16)
def _word_plan(words, m):
    """How word_streams computes a tuple of words over 0..m-1: the output
    columns of each word; the intermediates E^u (infixes u) and S^v
    (prefixes v) in build order, each with the intermediates whose last
    read it is (dropped once it is built) and whether a later one reads it;
    and the peak count of (block, chunk) arrays alive at once (the cached
    intermediates, the one being built and its running sum)."""
    words = [tuple(int(l) for l in w) for w in words]
    for w in words:
        check_word(w, m)
    prefixes = {w[:n] for w in words for n in range(1, len(w) + 1)}
    infixes = {v[k:] for v in prefixes for k in range(len(v))}
    built = [(u, "E") for u in infixes] + [(v, "S") for v in prefixes]
    built.sort(key=lambda key: (len(key[0]), key))
    steps, later = [], set()
    for word, kind in reversed(built):
        if kind == "E":
            reads = [(word[:-1], "E")] if len(word) > 1 else []
        else:
            reads = [(word[k:], "E") for k in range(len(word))]
            reads += [(word[:k], "S") for k in range(1, len(word))]
        drops = [r for r in reads if r not in later]
        steps.append((word, kind, drops, (word, kind) in later))
        later.update(reads)
    steps.reverse()
    cached, live = 0, 1  # a plan of no steps still chunks its segments
    for _, _, drops, keep in steps:
        live = max(live, cached + 2)
        cached += keep - len(drops)
    columns = {}
    for i, w in enumerate(words):
        columns.setdefault(w, []).append(i)
    return steps, columns, live


def _chunk_word_streams(times, values, steps, columns, local, out, carry):
    """One chunk of one block of word_streams: streams every planned word
    over the segments between `times`, from the values in `carry`, which it
    replaces by each stream's last value, writing the breakpoints `local` of
    each requested word into its columns of `out`.  Its arrays die on
    return, so they never overlap the next chunk's."""
    n_paths, n_pts = values.shape[0], values.shape[1]
    # letter 0 steps by the time gaps, one row broadcast over the block
    dx = [np.diff(times)]
    dx += [np.diff(values[..., c], axis=1) for c in range(values.shape[2])]
    cache = {}
    for word, kind, drops, keep in steps:
        n = len(word)
        if kind == "E" and n == 1:
            arr = dx[word[0]]
        elif kind == "E":
            arr = cache[word[:-1], "E"] * (dx[word[-1]] / n)
        else:
            step = cache[word, "E"]
            for k in range(1, n):
                step = step + cache[word[:k], "S"] * cache[word[k:], "E"]
            arr = np.empty((n_paths, n_pts))
            arr[:, 0] = carry.get(word, 0.0)
            arr[:, 1:] = step
            # sequential: arr[k+1] = arr[k] + step[k]
            np.add.accumulate(arr, axis=1, out=arr)
            carry[word] = arr[:, -1].copy()
            for i in columns.get(word, ()):
                out[:, :, i] = arr[:, local]
            arr = arr[:, :-1]  # S^v is read at the segment starts
        for key in drops:
            del cache[key]
        if keep:
            cache[word, kind] = arr


def signature_stream(path: PiecewiseLinearPath, level: int) -> np.ndarray:
    """Signatures on [0, t_k] for every breakpoint t_k of the path: the
    (K, D) word_streams table, one row per breakpoint."""
    table = word_streams(path.times, path.values, _own_words(path.dim, level))
    return _finite(table, level)


@dataclass(frozen=True)
class LinearFunctional:
    """Sparse word -> coefficient map; acts on signature rows by the dot
    product against the addressed coordinates."""

    dim: int
    level: int
    coeffs: dict

    def __post_init__(self):
        clean = {}
        for word, value in self.coeffs.items():
            word = tuple(int(l) for l in word)
            check_word(word, self.dim)
            if len(word) > self.level:
                raise ValueError(
                    f"word {word} longer than level {self.level}"
                )
            clean[word] = float(value)
        object.__setattr__(self, "coeffs", clean)

    def apply(self, g) -> float:
        """<self, g> for a row g over R^dim of level at least self.level."""
        level = row_level(g, self.dim)
        if level < self.level:
            raise ValueError(f"tensor level {level} below functional level {self.level}")
        return sum(c * g[word_index(w, self.dim)] for w, c in self.coeffs.items())

    def coefficient_vector(self) -> np.ndarray:
        """Dense coefficients over all words of length <= level, level-major."""
        vec = np.zeros(total_entries(self.dim, self.level))
        for word, value in self.coeffs.items():
            vec[word_index(word, self.dim)] = value
        return vec

    def apply_stream(self, times: np.ndarray, values: np.ndarray, eval_idx=None) -> np.ndarray:
        """The functional along the signature stream of the time-extended
        piecewise linear path(s) through `values` (..., K, dim - 1) on
        `times` (K,), letter 0 being time, at the breakpoints eval_idx
        (default: all); returns a C-contiguous (..., len(eval_idx)).

        Only the functional's words are streamed (word_streams), in blocks
        of paths; the terms are summed in level-major word order.
        """
        values = np.asarray(values, dtype=float)
        if values.shape[-1] + 1 != self.dim:
            raise ValueError(f"dim mismatch: time + {values.shape[-1]} vs {self.dim}")
        words = sorted(self.coeffs, key=lambda w: (len(w), w))
        streams = word_streams(times, values, words, eval_idx)
        out = np.zeros(streams.shape[:-1])
        for i, word in enumerate(words):
            out += self.coeffs[word] * streams[..., i]
        return out

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "level": self.level,
            "coeffs": {
                ",".join(str(l) for l in w): c
                for w, c in sorted(self.coeffs.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LinearFunctional":
        coeffs = {}
        for key, value in payload["coeffs"].items():
            word = tuple(int(l) for l in key.split(",")) if key else ()
            coeffs[word] = float(value)
        return cls(int(payload["dim"]), int(payload["level"]), coeffs)


def levy_area_functional() -> LinearFunctional:
    """0.5*(<e_(1,2)> - <e_(2,1)>): the Levy area of a time-extended 2-D path."""
    return LinearFunctional(3, 2, {(1, 2): 0.5, (2, 1): -0.5})


def reverse_check(path: PiecewiseLinearPath, level: int) -> float:
    """Norm of sig(path) (x) sig(reversed path) minus the unit tensor.  The
    path's signature never reads its times, so the reversal retraces the
    values on the same partition."""
    back = PiecewiseLinearPath(path.times, path.values[::-1])
    product = mul(signature(path, level), signature(back, level), path.dim)
    return norm(product - unit(path.dim, level), path.dim)
