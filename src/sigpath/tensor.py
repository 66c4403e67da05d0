"""Dense arithmetic in the truncated tensor algebra over R^m.

A truncated tensor of order N is stored as one contiguous coefficient block
per level; block n holds the m**n level-n coefficients in lexicographic word
order (first letter most significant).  Level 0 is the scalar part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .words import word_to_offset

__all__ = [
    "TruncatedTensor",
    "total_entries",
    "zeros",
    "unit",
    "basis_element",
    "mul",
    "exp",
    "log",
    "norm",
]


def total_entries(dim: int, level: int) -> int:
    """Number of stored coefficients, sum of dim**n over n = 0..level."""
    if dim == 1:
        return level + 1
    return (dim ** (level + 1) - 1) // (dim - 1)


# Most signature coordinates a run or `sigpath sig` may ask for: a fit's
# D x D gram then stays within 128 MiB.
MAX_WORDS = 2**12


def exceeds_max_words(dim: int, level: int) -> bool:
    """Whether total_entries(dim, level) > MAX_WORDS, without raising dim to
    a huge level."""
    return level >= MAX_WORDS or total_entries(dim, level) > MAX_WORDS


def mul_blocks(a, b, dim):
    """Truncated product: level n of the result is sum_k a[k] (x) b[n-k]."""
    level = len(a) - 1
    out = []
    for n in range(level + 1):
        acc = None
        for k in range(n + 1):
            term = np.outer(a[k], b[n - k]).reshape(dim**n)
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


# -- scalar API ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TruncatedTensor:
    """Element of the order-`level` truncated tensor algebra over R^dim;
    signatures, its group-like elements, are stored the same way."""

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
        return np.concatenate(self.coeffs)

    def __add__(self, other):
        _check_compatible(self, other)
        return TruncatedTensor(
            self.dim, self.level, [x + y for x, y in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        return self + -1.0 * other

    def __mul__(self, lam):
        return TruncatedTensor(self.dim, self.level, [lam * blk for blk in self.coeffs])

    __rmul__ = __mul__


def zeros(dim: int, level: int) -> TruncatedTensor:
    return TruncatedTensor(dim, level, [np.zeros(dim**n) for n in range(level + 1)])


def unit(dim: int, level: int) -> TruncatedTensor:
    return basis_element((), dim, level)


def basis_element(word, dim: int, level: int) -> TruncatedTensor:
    """Tensor with coefficient 1 on `word` and 0 elsewhere."""
    n = len(word)
    if n > level:
        raise ValueError(f"word length {n} exceeds level {level}")
    blocks = zeros(dim, level).coeffs
    blocks[n][word_to_offset(word, dim)[1]] = 1.0
    return TruncatedTensor(dim, level, blocks)


def _check_compatible(a: TruncatedTensor, b: TruncatedTensor):
    if a.dim != b.dim or a.level != b.level:
        raise ValueError(
            f"incompatible tensors: dim/level ({a.dim},{a.level}) vs "
            f"({b.dim},{b.level})"
        )


def mul(a: TruncatedTensor, b: TruncatedTensor) -> TruncatedTensor:
    """Truncated tensor product (Chen / Cauchy convolution of levels)."""
    _check_compatible(a, b)
    return TruncatedTensor(a.dim, a.level, mul_blocks(a.coeffs, b.coeffs, a.dim))


def exp(a: TruncatedTensor) -> TruncatedTensor:
    """Tensor exponential; requires zero level-0 coefficient.

    Uses the nesting 1 + a (1 + a/2 (1 + a/3 (...))), which terminates at
    the truncation order because `a` has no level-0 component.
    """
    if a.coeffs[0][0] != 0.0:
        raise ValueError("exp requires a zero level-0 coefficient")
    result = unit(a.dim, a.level).coeffs
    for k in range(a.level, 0, -1):
        result = mul_blocks([blk / k for blk in a.coeffs], result, a.dim)
        result[0] = result[0] + 1.0
    return TruncatedTensor(a.dim, a.level, result)


def log(g: TruncatedTensor) -> TruncatedTensor:
    """Tensor logarithm; requires unit level-0 coefficient."""
    if g.coeffs[0][0] != 1.0:
        raise ValueError("log requires a unit level-0 coefficient")
    x = [blk.copy() for blk in g.coeffs]
    x[0] -= 1.0
    out = power = x
    for k in range(2, g.level + 1):
        power = mul_blocks(power, x, g.dim)
        coeff = (-1.0) ** (k + 1) / k
        out = [o + coeff * p for o, p in zip(out, power)]
    return TruncatedTensor(g.dim, g.level, out)


def norm(a: TruncatedTensor) -> float:
    """Largest Euclidean norm of a level block over levels 0..N."""
    return max(float(np.linalg.norm(blk)) for blk in a.coeffs)
