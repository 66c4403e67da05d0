"""Multi-index words over the alphabet {0, ..., dim-1} and the shuffle product.

Words are plain tuples of integers.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

__all__ = [
    "check_word",
    "word_index",
    "all_words",
    "shuffle",
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
