"""Word-cylinder targets and their occurrence automata.

The automaton is the classic failure-function construction: state s means the
longest suffix of the consumed history that is a prefix of the word has length
s, with s = len(word) a full match. Transitions out of the full-match state
restart through the failure link, so overlapping occurrences are counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ValidationError, _int_tuple


@dataclass(frozen=True)
class PatternTarget:
    """A word cylinder A = [w_0, ..., w_{l-1}]."""

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        w = _int_tuple(self.word, "word symbols", 0)
        if not w:
            raise ValidationError("target word must be nonempty")
        object.__setattr__(self, "word", w)

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def minimal_period(self) -> int:
        """The least p >= 1 with word[i+p] == word[i] for all i < l-p: l minus
        the longest proper border. It equals l for a word without a border."""
        return len(self.word) - _border_lengths(self.word)[-1]


def _border_lengths(word: Sequence[int]) -> list[int]:
    """borders[i] = length of the longest proper border of word[:i+1]."""
    l = len(word)
    borders = [0] * l
    k = 0
    for i in range(1, l):
        while k and word[i] != word[k]:
            k = borders[k - 1]
        if word[i] == word[k]:
            k += 1
        borders[i] = k
    return borders


def build_automaton(target: PatternTarget, alphabet_size: int) -> np.ndarray:
    """The occurrence automaton of a word target over symbols 0..S-1, as a
    read-only (l + 1, S) table.

    ``table[s, c]`` is the next state after reading symbol c in state s, for
    s in 0..l; state l is the full match.
    """
    w = target.word
    l = len(w)
    if alphabet_size < 2:
        raise ValidationError(f"alphabet size must be >= 2, got {alphabet_size}")
    if any(c >= alphabet_size for c in w):
        raise ValidationError(f"word symbols must lie in [0, {alphabet_size}), got {w}")
    fail = [0] + _border_lengths(w)  # fail[s] for state s in 0..l
    table = np.zeros((l + 1, alphabet_size), dtype=np.int64)
    for c in range(alphabet_size):
        table[0, c] = 1 if c == w[0] else 0
    for s in range(1, l + 1):
        for c in range(alphabet_size):
            if s < l and c == w[s]:
                table[s, c] = s + 1
            else:
                table[s, c] = table[fail[s], c]
    table.setflags(write=False)
    return table
