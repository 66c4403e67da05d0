"""Dense arithmetic in the truncated tensor algebra over R^m.

A truncated tensor of order N is stored as one contiguous coefficient block
per level; block n holds the m**n level-n coefficients in lexicographic word
order (first letter most significant).  Level 0 is the scalar part.

The block-level kernels at the bottom operate on plain lists of ndarrays and
accept an arbitrary common batch prefix in front of the coefficient axis;
they serve the scalar `TruncatedTensor` API (batched signature streams are
computed word by word in `signature.word_streams`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .words import word_to_offset

__all__ = [
    "TruncatedTensor",
    "GroupLikeTensor",
    "total_entries",
    "zeros",
    "unit",
    "basis_element",
    "add",
    "scale",
    "mul",
    "exp",
    "log",
    "norm",
    "level_norm",
]


def total_entries(dim: int, level: int) -> int:
    """Number of stored coefficients, sum of dim**n over n = 0..level."""
    if dim == 1:
        return level + 1
    return (dim ** (level + 1) - 1) // (dim - 1)


# -- block kernels -----------------------------------------------------------


def zero_blocks(dim, level, batch=()):
    return [np.zeros(batch + (dim**n,)) for n in range(level + 1)]


def unit_blocks(dim, level, batch=()):
    blocks = zero_blocks(dim, level, batch)
    blocks[0][..., 0] = 1.0
    return blocks


def mul_blocks(a, b, dim):
    """Truncated product: level n of the result is sum_k a[k] (x) b[n-k]."""
    level = len(a) - 1
    out = []
    for n in range(level + 1):
        acc = None
        for k in range(n + 1):
            term = np.einsum("...i,...j->...ij", a[k], b[n - k])
            term = term.reshape(term.shape[:-2] + (dim**n,))
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def exp_blocks(a, dim):
    """Tensor exponential of a block list with zero scalar part.

    Uses the nesting 1 + a (1 + a/2 (1 + a/3 (...))), which terminates at
    the truncation order because `a` has no level-0 component.
    """
    level = len(a) - 1
    result = unit_blocks(dim, level, batch=a[0].shape[:-1])
    for k in range(level, 0, -1):
        result = mul_blocks([blk / k for blk in a], result, dim)
        result[0] = result[0] + 1.0
    return result


def log_blocks(g, dim):
    """Tensor logarithm of a block list with unit scalar part."""
    level = len(g) - 1
    x = [np.array(blk, copy=True) for blk in g]
    x[0] = x[0] - 1.0
    out = [np.array(blk, copy=True) for blk in x]
    power = x
    for k in range(2, level + 1):
        power = mul_blocks(power, x, dim)
        coeff = (-1.0) ** (k + 1) / k
        out = [o + coeff * p for o, p in zip(out, power)]
    return out


def flatten_blocks(blocks):
    return np.concatenate(blocks, axis=-1)


# -- scalar API ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TruncatedTensor:
    """Element of the order-`level` truncated tensor algebra over R^dim."""

    dim: int
    level: int
    coeffs: list

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.level < 0:
            raise ValueError("level must be >= 0")
        blocks = [np.asarray(b, dtype=float).reshape(-1) for b in self.coeffs]
        if len(blocks) != self.level + 1:
            raise ValueError(
                f"expected {self.level + 1} blocks, got {len(blocks)}"
            )
        for n, blk in enumerate(blocks):
            if blk.shape != (self.dim**n,):
                raise ValueError(
                    f"level-{n} block has {blk.size} entries, "
                    f"expected {self.dim ** n}"
                )
            if not np.isfinite(blk).all():
                raise ValueError(f"non-finite coefficient at level {n}")
        object.__setattr__(self, "coeffs", blocks)

    def coefficient(self, word) -> float:
        """Coefficient addressed by a word (tuple of letters < dim)."""
        n = len(word)
        if n > self.level:
            raise ValueError(f"word length {n} exceeds level {self.level}")
        return float(self.coeffs[n][word_to_offset(word, self.dim)[1]])

    def flat(self) -> np.ndarray:
        """All coefficients concatenated level-major."""
        return flatten_blocks(self.coeffs)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(-1.0, other))

    def __neg__(self):
        return scale(-1.0, self)

    def __mul__(self, lam):
        return scale(lam, self)

    __rmul__ = __mul__


# Group-like elements (unit scalar part, shuffle relation) are represented by
# the same storage; the distinction is semantic and checked in tests.
GroupLikeTensor = TruncatedTensor


def zeros(dim: int, level: int) -> TruncatedTensor:
    return TruncatedTensor(dim, level, zero_blocks(dim, level))


def unit(dim: int, level: int) -> TruncatedTensor:
    return TruncatedTensor(dim, level, unit_blocks(dim, level))


def basis_element(word, dim: int, level: int) -> TruncatedTensor:
    """Tensor with coefficient 1 on `word` and 0 elsewhere."""
    n = len(word)
    if n > level:
        raise ValueError(f"word length {n} exceeds level {level}")
    blocks = zero_blocks(dim, level)
    blocks[n][word_to_offset(word, dim)[1]] = 1.0
    return TruncatedTensor(dim, level, blocks)


def _check_compatible(a: TruncatedTensor, b: TruncatedTensor):
    if a.dim != b.dim or a.level != b.level:
        raise ValueError(
            f"incompatible tensors: dim/level ({a.dim},{a.level}) vs "
            f"({b.dim},{b.level})"
        )


def add(a: TruncatedTensor, b: TruncatedTensor) -> TruncatedTensor:
    _check_compatible(a, b)
    return TruncatedTensor(a.dim, a.level, [x + y for x, y in zip(a.coeffs, b.coeffs)])


def scale(lam: float, a: TruncatedTensor) -> TruncatedTensor:
    return TruncatedTensor(a.dim, a.level, [lam * blk for blk in a.coeffs])


def mul(a: TruncatedTensor, b: TruncatedTensor) -> TruncatedTensor:
    """Truncated tensor product (Chen / Cauchy convolution of levels)."""
    _check_compatible(a, b)
    return TruncatedTensor(a.dim, a.level, mul_blocks(a.coeffs, b.coeffs, a.dim))


def exp(a: TruncatedTensor) -> TruncatedTensor:
    """Tensor exponential; requires zero level-0 coefficient."""
    if a.coeffs[0][0] != 0.0:
        raise ValueError("exp requires a zero level-0 coefficient")
    return TruncatedTensor(a.dim, a.level, exp_blocks(a.coeffs, a.dim))


def log(g: TruncatedTensor) -> TruncatedTensor:
    """Tensor logarithm; requires unit level-0 coefficient."""
    if g.coeffs[0][0] != 1.0:
        raise ValueError("log requires a unit level-0 coefficient")
    return TruncatedTensor(g.dim, g.level, log_blocks(g.coeffs, g.dim))


def level_norm(a: TruncatedTensor, n: int) -> float:
    """Euclidean norm of the level-n coefficient block."""
    if not 0 <= n <= a.level:
        raise ValueError(f"level {n} outside 0..{a.level}")
    return float(np.linalg.norm(a.coeffs[n]))


def norm(a: TruncatedTensor) -> float:
    """Largest level norm over levels 0..N."""
    return max(level_norm(a, n) for n in range(a.level + 1))
