"""Multi-index words over the alphabet {0, ..., dim-1} and the shuffle product.

Words are plain tuples of integers.  For time-extended paths the alphabet has
dim = d + 1 letters and letter 0 addresses the time coordinate.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

__all__ = [
    "Word",
    "check_word",
    "word_to_offset",
    "offset_to_word",
    "all_words",
    "shuffle",
    "apply_shuffle_check",
]

Word = tuple


def check_word(word, dim: int):
    for letter in word:
        if not 0 <= letter < dim:
            raise ValueError(f"letter {letter} invalid for dim {dim}")


def word_to_offset(word, dim: int):
    """(level, offset) of a word; the offset is its base-dim integer value."""
    check_word(word, dim)
    offset = 0
    for letter in word:
        offset = offset * dim + letter
    return len(word), offset


def offset_to_word(level: int, offset: int, dim: int):
    """Inverse of word_to_offset."""
    if not 0 <= offset < dim**level:
        raise ValueError(f"offset {offset} invalid for level {level}, dim {dim}")
    letters = []
    for _ in range(level):
        letters.append(offset % dim)
        offset //= dim
    return tuple(reversed(letters))


def all_words(dim: int, max_len: int):
    """All words of length <= max_len, level-major and lexicographic within
    each level; matches the block layout of TruncatedTensor."""
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


def apply_shuffle_check(g, i, j):
    """Both sides of the shuffle relation <e_I,g><e_J,g> = <e_I sh e_J, g>.

    Returns (lhs, rhs); for group-like g the two agree.
    """
    i, j = tuple(i), tuple(j)
    if len(i) + len(j) > g.level:
        raise ValueError(
            f"|I|+|J| = {len(i) + len(j)} exceeds tensor level {g.level}"
        )
    lhs = g.coefficient(i) * g.coefficient(j)
    rhs = sum(mult * g.coefficient(word) for word, mult in shuffle(i, j).items())
    return lhs, rhs
