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
from .tensor import (
    GroupLikeTensor,
    TruncatedTensor,
    add,
    mul,
    norm,
    scale,
    total_entries,
    unit,
)
from .words import all_words, check_word, word_to_offset

__all__ = [
    "SignatureStream",
    "LinearFunctional",
    "segment_signature",
    "signature",
    "signature_stream",
    "stream_table",
    "word_streams",
    "reverse_check",
    "levy_area_functional",
]


def segment_exp_blocks(increment: np.ndarray, level: int):
    """Blocks of exp of a level-1 increment: level n is incr^(x n) / n!.

    `increment` may carry a batch prefix: shape (..., m).
    """
    increment = np.asarray(increment, dtype=float)
    m = increment.shape[-1]
    batch = increment.shape[:-1]
    blocks = [np.ones(batch + (1,))]
    for n in range(1, level + 1):
        nxt = np.einsum("...i,...j->...ij", blocks[-1], increment / n)
        blocks.append(nxt.reshape(batch + (m**n,)))
    return blocks


def segment_signature(increment, level: int) -> GroupLikeTensor:
    """Signature of a single line segment with the given increment."""
    if level < 0:
        raise ValueError("level must be >= 0")
    increment = np.atleast_1d(np.asarray(increment, dtype=float))
    return TruncatedTensor(increment.size, level, segment_exp_blocks(increment, level))


def signature(path: PiecewiseLinearPath, level: int) -> GroupLikeTensor:
    """Signature of the whole path on [0, T], truncated at `level`: the
    last row of its stream table."""
    row = stream_table(path.values, level, eval_idx=[path.n_segments])[0]
    return _tensor_from_row(row, path.dim, level)


def _tensor_from_row(row: np.ndarray, dim: int, level: int) -> TruncatedTensor:
    """The tensor whose level-major flattened coefficients are `row`."""
    splits = np.cumsum([dim**n for n in range(level)])
    return TruncatedTensor(dim, level, np.split(row, splits))


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


def stream_table(values: np.ndarray, level: int, eval_idx=None) -> np.ndarray:
    """Signature stream of the piecewise linear path through `values`.

    values : (..., K, m) absolute breakpoint values, arbitrary batch prefix.
    eval_idx : increasing breakpoint indices at which rows are kept
        (default: all K breakpoints).

    Returns (..., len(eval_idx), D) with the D = total_entries(m, level)
    coefficients flattened level-major: word_streams over every word of
    length <= level; only the requested rows are stored.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    values = np.asarray(values, dtype=float)
    return word_streams(values, all_words(values.shape[-1], level), eval_idx)


# Paths per block and segments per chunk in word_streams: the per-word
# temporaries are (block, chunk) arrays, so the two bound them independently
# of the batch and of the path length.
_WORD_BLOCK = 32
_SEGMENT_CHUNK = 4096


def word_streams(values: np.ndarray, words, eval_idx=None) -> np.ndarray:
    """Stream coordinates of selected words.

    values : (..., K, m) absolute breakpoint values, arbitrary batch prefix.
    words : words over the alphabet 0..m-1, in any order and of any length.
    eval_idx : increasing breakpoint indices (default: all K breakpoints).

    Returns (..., len(eval_idx), len(words)).  Only the prefixes of the
    requested words are streamed, each by one prefix sum over the segments:
    S^w_{k+1} = S^w_k + T_k with
    T_k = ((E^w + S^{w[:1]} E^{w[1:]}) + S^{w[:2]} E^{w[2:]}) + ...
    and E^u = ((x_{u1}/1) x_{u2}/2) ... the segment-exponential coordinates,
    summed in the order of the Chen product (tensor.mul_blocks) and
    segment_exp_blocks, so every coordinate has the bits of the dense
    per-breakpoint Chen loop.
    """
    values = np.asarray(values, dtype=float)
    n_pts, m = values.shape[-2], values.shape[-1]
    batch = values.shape[:-2]
    eval_idx = _check_eval_idx(eval_idx, n_pts)
    words = tuple(map(tuple, words))
    plan = _word_plan(words, m)
    flat = values.reshape((-1, n_pts, m))
    # zeros: a kept first breakpoint is the unit tensor, 0 off the empty word
    out = np.zeros((flat.shape[0], eval_idx.size, len(words)))
    for start in range(0, flat.shape[0], _WORD_BLOCK):
        stop = start + _WORD_BLOCK
        _block_word_streams(flat[start:stop], plan, eval_idx, out[start:stop])
    return out.reshape(batch + out.shape[1:])


@lru_cache(maxsize=16)
def _word_plan(words, m):
    """How word_streams computes a tuple of words over 0..m-1: the output
    columns of each word, and the intermediates E^u (infixes u) and S^v
    (prefixes v) in build order, each with the intermediates whose last
    read it is (dropped once it is built) and whether a later one reads it."""
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
    columns = {}
    for i, w in enumerate(words):
        columns.setdefault(w, []).append(i)
    return steps[::-1], columns


def _block_word_streams(values, plan, eval_idx, out):
    """word_streams of one (b, K, m) block of paths, written into `out`, in
    chunks of _SEGMENT_CHUNK segments: each stream starts a chunk from its
    last value in the chunk before, and its prefix sum is sequential, so the
    bits do not depend on the chunking."""
    steps, columns = plan
    n_paths, n_seg = values.shape[0], values.shape[1] - 1
    out[..., columns.get((), [])] = 1.0
    carry = {}
    for s0 in range(0, n_seg, _SEGMENT_CHUNK):
        s1 = min(s0 + _SEGMENT_CHUNK, n_seg)
        # kept breakpoints s0 < k <= s1 sit at column k - s0 of a chunk stream
        rows = slice(*np.searchsorted(eval_idx, [s0 + 1, s1 + 1]))
        local = eval_idx[rows] - s0
        dx = np.moveaxis(np.diff(values[:, s0 : s1 + 1], axis=1), -1, 0).copy()
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
                arr = np.empty((n_paths, s1 - s0 + 1))
                arr[:, 0] = carry.get(word, 0.0)
                arr[:, 1:] = step
                # sequential: arr[k+1] = arr[k] + step[k]
                np.add.accumulate(arr, axis=1, out=arr)
                if s1 < n_seg:
                    carry[word] = arr[:, -1].copy()
                for i in columns.get(word, ()):
                    out[:, rows, i] = arr[:, local]
                arr = arr[:, :-1]  # S^v is read at the segment starts
            for key in drops:
                del cache[key]
            if keep:
                cache[word, kind] = arr


@dataclass(frozen=True, eq=False)
class SignatureStream:
    """Signatures on [0, t_k] for every breakpoint t_k of one path: a view
    on its (K, D) stream table; stream[k] is the tensor at t_k."""

    times: np.ndarray
    dim: int
    level: int
    table: np.ndarray

    def __len__(self):
        return self.table.shape[0]

    def __getitem__(self, k) -> GroupLikeTensor:
        return _tensor_from_row(self.table[k], self.dim, self.level)


def signature_stream(path: PiecewiseLinearPath, level: int) -> SignatureStream:
    table = stream_table(path.values, level)
    return SignatureStream(path.times.copy(), path.dim, level, table)


@dataclass(frozen=True)
class LinearFunctional:
    """Sparse word -> coefficient map; acts on group-like tensors by the
    dot product against the addressed signature coordinates."""

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

    def apply(self, g: GroupLikeTensor) -> float:
        if g.dim != self.dim:
            raise ValueError(f"dim mismatch: {g.dim} vs {self.dim}")
        if g.level < self.level:
            raise ValueError(
                f"tensor level {g.level} below functional level {self.level}"
            )
        return sum(c * g.coefficient(w) for w, c in self.coeffs.items())

    def coefficient_vector(self) -> np.ndarray:
        """Dense coefficients over all words of length <= level, level-major."""
        vec = np.zeros(total_entries(self.dim, self.level))
        for word, value in self.coeffs.items():
            n, off = word_to_offset(word, self.dim)
            vec[total_entries(self.dim, n - 1) + off] = value
        return vec

    def apply_stream(self, values: np.ndarray, eval_idx=None) -> np.ndarray:
        """The functional along the signature stream of the piecewise
        linear path(s) through `values` (..., K, dim), at the breakpoints
        eval_idx (default: all); returns a C-contiguous (..., len(eval_idx)).

        Only the functional's words are streamed (word_streams), in blocks
        of paths; the terms are summed in level-major word order.
        """
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != self.dim:
            raise ValueError(f"dim mismatch: {values.shape[-1]} vs {self.dim}")
        words = sorted(self.coeffs, key=lambda w: (len(w), w))
        streams = word_streams(values, words, eval_idx)
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


def levy_area_functional(dim: int = 3, first: int = 1, second: int = 2) -> LinearFunctional:
    """Antisymmetric level-2 combination 0.5*(<e_(i,j)> - <e_(j,i)>)."""
    return LinearFunctional(
        dim, 2, {(first, second): 0.5, (second, first): -0.5}
    )


def reverse_check(path: PiecewiseLinearPath, level: int) -> float:
    """Norm of sig(path) (x) sig(reversed path) minus the unit tensor."""
    fwd = signature(path, level)
    bwd = signature(path.reversed(), level)
    residual = add(mul(fwd, bwd), scale(-1.0, unit(path.dim, level)))
    return norm(residual)
