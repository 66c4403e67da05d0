"""Words and dense arithmetic in the truncated tensor algebra over R^dim.

Words are tuples of letters 0..dim-1.  A truncated tensor of order N is one
level-major row of total_entries(dim, N) coefficients: level 0, the scalar
part, first, then each level n's dim**n coefficients in lexicographic word
order (first letter most significant), so all_words(dim, N) lists a row's
words and word_index gives a word's position.  Sums, differences and scalar
multiples are numpy's; the functions below take `dim` alongside the rows.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

__all__ = [
    "check_word",
    "word_index",
    "all_words",
    "shuffle",
    "total_entries",
    "row_level",
    "level_blocks",
    "unit",
    "basis_element",
    "mul",
    "exp",
    "log",
    "norm",
    "apply_shuffle_check",
]


def check_word(word, dim: int):
    for letter in word:
        if not 0 <= letter < dim:
            raise ValueError(f"letter {letter} invalid for dim {dim}")


def word_index(word, dim: int) -> int:
    """Position of a word in a level-major row over R^dim: the word read as a
    bijective base-dim numeral (digits letter + 1), which is the count of
    shorter words plus its lexicographic rank among words of its length."""
    check_word(word, dim)
    index = 0
    for letter in word:
        index = index * dim + letter + 1
    return index


def all_words(dim: int, max_len: int):
    """All words of length <= max_len, level-major and lexicographic within
    each level: the word of row position k is all_words(...)[k]."""
    if max_len < 0:
        raise ValueError("level must be >= 0")
    out = []
    for n in range(max_len + 1):
        out.extend(itertools.product(range(dim), repeat=n))
    return out


@lru_cache(maxsize=None)
def _shuffle(i, j):
    if not i:
        return ((j, 1),)
    if not j:
        return ((i, 1),)
    acc = {}
    for word, mult in _shuffle(i[:-1], j):
        key = word + (i[-1],)
        acc[key] = acc.get(key, 0) + mult
    for word, mult in _shuffle(i, j[:-1]):
        key = word + (j[-1],)
        acc[key] = acc.get(key, 0) + mult
    return tuple(sorted(acc.items()))


def shuffle(i, j) -> dict:
    """Shuffle product of two words as a word -> multiplicity map.

    Recursion on the last letters with base case I sh () = () sh I = I; the
    multiplicities sum to binomial(|I|+|J|, |I|).
    """
    return dict(_shuffle(tuple(i), tuple(j)))


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


def row_level(row, dim: int) -> int:
    """Truncation level N of a row over R^dim, whose shape must be
    (total_entries(dim, N),)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    size, level = np.size(row), 0
    while total_entries(dim, level) < size:
        level += 1
    if np.ndim(row) != 1 or total_entries(dim, level) != size:
        raise ValueError(
            f"a row of shape {np.shape(row)} is no truncated tensor over R^{dim}"
        )
    return level


def level_blocks(row, dim: int) -> list:
    """The level blocks of a row over R^dim, level 0 first, as views."""
    row = np.asarray(row, dtype=float)
    return np.split(row, np.cumsum([dim**n for n in range(row_level(row, dim))]))


def unit(dim: int, level: int) -> np.ndarray:
    return basis_element((), dim, level)


def basis_element(word, dim: int, level: int) -> np.ndarray:
    """Row with coefficient 1 on `word` and 0 elsewhere."""
    n = len(word)
    if n > level:
        raise ValueError(f"word length {n} exceeds level {level}")
    row = np.zeros(total_entries(dim, level))
    row[word_index(word, dim)] = 1.0
    return row


def mul(a, b, dim: int) -> np.ndarray:
    """Truncated tensor product of two rows of one level (Chen / Cauchy
    convolution of levels): level n is sum_k a[k] (x) b[n-k]."""
    a, b = level_blocks(a, dim), level_blocks(b, dim)
    if len(a) != len(b):
        raise ValueError(f"rows of levels {len(a) - 1} and {len(b) - 1} do not multiply")
    out = []
    for n in range(len(a)):
        acc = None
        for k in range(n + 1):
            term = np.outer(a[k], b[n - k]).reshape(dim**n)
            acc = term if acc is None else acc + term
        out.append(acc)
    return np.concatenate(out)


def exp(a, dim: int) -> np.ndarray:
    """Tensor exponential; requires zero level-0 coefficient.

    Uses the nesting 1 + a (1 + a/2 (1 + a/3 (...))), which terminates at
    the truncation order because `a` has no level-0 component.
    """
    a = np.asarray(a, dtype=float)
    level = row_level(a, dim)
    if a[0] != 0.0:
        raise ValueError("exp requires a zero level-0 coefficient")
    result = unit(dim, level)
    for k in range(level, 0, -1):
        result = mul(a / k, result, dim)
        result[0] += 1.0
    return result


def log(g, dim: int) -> np.ndarray:
    """Tensor logarithm; requires unit level-0 coefficient."""
    x = np.array(g, dtype=float)
    level = row_level(x, dim)
    if x[0] != 1.0:
        raise ValueError("log requires a unit level-0 coefficient")
    x[0] -= 1.0
    out = power = x
    for k in range(2, level + 1):
        power = mul(power, x, dim)
        out = out + (-1.0) ** (k + 1) / k * power
    return out


def norm(a, dim: int) -> float:
    """Largest Euclidean norm of a level block over levels 0..N."""
    return max(float(np.linalg.norm(blk)) for blk in level_blocks(a, dim))


def apply_shuffle_check(g, dim: int, i, j):
    """Both sides of the shuffle relation <e_I,g><e_J,g> = <e_I sh e_J, g>
    for a row g over R^dim.

    Returns (lhs, rhs); for group-like g the two agree.
    """
    i, j = tuple(i), tuple(j)
    level = row_level(g, dim)
    if len(i) + len(j) > level:
        raise ValueError(f"|I|+|J| = {len(i) + len(j)} exceeds tensor level {level}")
    lhs = g[word_index(i, dim)] * g[word_index(j, dim)]
    rhs = sum(mult * g[word_index(word, dim)] for word, mult in shuffle(i, j).items())
    return lhs, rhs
