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

from ..errors import ValidationError


@dataclass(frozen=True)
class PatternTarget:
    """A word cylinder A = [w_0, ..., w_{l-1}], optionally marked p-periodic.

    When ``period_hint`` = p is set the word must satisfy word[i+p] == word[i]
    for all i <= l-p-1, so that A intersected with its p-shifted copy is the
    (l+p)-cylinder obtained by extending the word periodically. p = l is
    always admissible (the constraint set is empty) and corresponds to plain
    self-concatenation.
    """

    word: tuple[int, ...]
    period_hint: int | None = None

    def __post_init__(self) -> None:
        w = tuple(int(c) for c in self.word)
        if not w:
            raise ValidationError("target word must be nonempty")
        if any(c < 0 for c in w):
            raise ValidationError(f"word symbols must be nonnegative, got {w}")
        object.__setattr__(self, "word", w)
        p = self.period_hint
        if p is not None:
            p = int(p)
            if not (1 <= p <= len(w)):
                raise ValidationError(f"period_hint must lie in [1, len(word)], got {p}")
            bad = [i for i in range(len(w) - p) if w[i + p] != w[i]]
            if bad:
                raise ValidationError(
                    f"word is not {p}-periodic as a prefix (first mismatch at index {bad[0]})"
                )
            object.__setattr__(self, "period_hint", p)

    @property
    def length(self) -> int:
        return len(self.word)

    def periodic_extension(self) -> tuple[int, ...]:
        """The (l+p)-word whose cylinder is A intersected with T^-p A."""
        if self.period_hint is None:
            raise ValidationError("target has no period_hint")
        p = self.period_hint
        return self.word + self.word[len(self.word) - p :]


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


@dataclass(frozen=True)
class PrefixAutomaton:
    """Deterministic occurrence automaton for a word over symbols 0..S-1.

    ``table[s, c]`` is the next state after reading symbol c in state s, for
    s in 0..l; state l is the full match.
    """

    word: tuple[int, ...]
    alphabet_size: int
    table: np.ndarray

    @property
    def word_length(self) -> int:
        return len(self.word)

    def first_match(self, symbols: Sequence[int], state: int = 0) -> tuple[int | None, int]:
        """1-based index of the first full match in ``symbols``, and the state there.

        Reading starts in ``state`` and stops at the first full match; without
        one the index is None and the state is the one after the last symbol.
        """
        l = self.word_length
        for i, c in enumerate(symbols, start=1):
            state = int(self.table[state, int(c)])
            if state == l:
                return i, state
        return None, state


def build_automaton(target: PatternTarget, alphabet_size: int) -> PrefixAutomaton:
    """Build the occurrence automaton of a word target."""
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
    return PrefixAutomaton(word=w, alphabet_size=alphabet_size, table=table)
