"""Finite-alphabet stationary Markov symbol sources.

A source is a row-stochastic transition matrix together with its stationary
vector. Construction validates stochasticity, invariance, full support of the
stationary vector, irreducibility, and aperiodicity; mixing (irreducible +
aperiodic) is required by every law computed downstream.

Stochasticity is held to a few ulps per row (``_ROW_TOL``): the exact laws'
closed-form tails assume rows that sum to 1, and a series steps the rows as
given, so a row defect eta moves its mass at time k by about k eta relative.
Fair-coin rows that leak 9e-13 moved the masses of 0^19 1 by 1.9e-6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ValidationError, _int_tuple

_ROW_TOL = 4.5e-16  # a float row sum may miss 1 by a few ulps, 1.1e-16 below and 2.2e-16 above
_STAT_TOL = 1e-12


def _solve_stationary(transitions: np.ndarray) -> np.ndarray:
    """Stationary vector of a row-stochastic matrix, by a dense linear solve."""
    s = transitions.shape[0]
    a = transitions.T - np.eye(s)
    a[-1, :] = 1.0
    b = np.zeros(s)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    return pi


def _check_mixing(transitions: np.ndarray) -> None:
    """Reject reducible or periodic chains by boolean powers of the transition pattern.

    A nonnegative S x S matrix A is irreducible iff (I + A)^(S-1) > 0, and an
    irreducible A is primitive (aperiodic) iff A^((S-1)^2 + 1) > 0 (Wielandt;
    Horn & Johnson, Matrix Analysis, Cor. 8.5.9). A positive power stays
    positive, so squaring past each bound decides both.
    """
    s = transitions.shape[0]
    adj = transitions > 0.0
    reach = adj | np.eye(s, dtype=bool)
    for power, bound, fault in ((reach, s - 1, "reducible"), (adj, (s - 1) ** 2 + 1, "periodic")):
        exponent = 1
        while exponent < bound:
            power = power @ power  # bool @ bool is an or of ands: the pattern of the product
            exponent *= 2
        if not power.all():
            raise ValidationError(f"transition matrix is {fault}")


@dataclass(frozen=True)
class MarkovSource:
    """Stationary ergodic Markov law on symbols 0..S-1.

    ``stationary_residual`` is the invariance residual max |pi P - pi| of the
    given stationary vector, measured at construction and held to
    ``_STAT_TOL``; it is surfaced rather than silently absorbed.
    """

    transitions: np.ndarray
    stationary: np.ndarray
    stationary_residual: float = field(init=False)

    def __post_init__(self) -> None:
        p = np.array(self.transitions, dtype=float)
        pi = np.array(self.stationary, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 2:
            raise ValidationError(f"transitions must be SxS with S >= 2, got shape {p.shape}")
        if pi.shape != (p.shape[0],):
            raise ValidationError("stationary vector length must match the alphabet size")
        if not np.isfinite(p).all():
            raise ValidationError("transitions must be finite")
        if np.any(p < 0.0):
            raise ValidationError("transition probabilities must be nonnegative")
        rows = p.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > _ROW_TOL:
            raise ValidationError(f"rows must sum to 1 within {_ROW_TOL}")
        # ahead of the stationary vector, which a solve for a reducible chain
        # may leave with zero or non-finite entries: the chain is the fault
        _check_mixing(p)
        if not np.isfinite(pi).all():
            raise ValidationError("stationary vector must be finite")
        if abs(pi.sum() - 1.0) > _STAT_TOL:
            raise ValidationError("stationary vector must sum to 1")
        if np.any(pi <= 0.0):
            raise ValidationError("stationary vector must be strictly positive (ergodicity)")
        residual = float(np.max(np.abs(pi @ p - pi)))
        if residual > _STAT_TOL:
            raise ValidationError("stationary vector is not invariant under the transitions")
        p.setflags(write=False)
        pi.setflags(write=False)
        object.__setattr__(self, "transitions", p)
        object.__setattr__(self, "stationary", pi)
        object.__setattr__(self, "stationary_residual", residual)

    @property
    def alphabet_size(self) -> int:
        return int(self.transitions.shape[0])

    @classmethod
    def from_transitions(cls, transitions: Sequence[Sequence[float]]) -> "MarkovSource":
        """Build a source from a transition matrix, solving for the stationary vector."""
        p = np.array(transitions, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValidationError(f"transitions must be square, got shape {p.shape}")
        if not np.isfinite(p).all():  # a NaN would pass the mixing check and the solve
            raise ValidationError("transitions must be finite")
        try:
            pi = _solve_stationary(p)
        except np.linalg.LinAlgError as exc:
            _check_mixing(p)  # a reducible chain is the likely cause: name it
            raise ValidationError(f"stationary solve failed: {exc}") from exc
        return cls(transitions=p, stationary=pi)

    @classmethod
    def iid(cls, probs: Sequence[float]) -> "MarkovSource":
        """Independent symbols with the given marginal law."""
        q = np.array(probs, dtype=float)
        if q.ndim != 1 or q.size < 2:
            raise ValidationError("iid law needs at least two symbols")
        if np.any(q <= 0.0) or abs(q.sum() - 1.0) > _ROW_TOL:
            raise ValidationError("iid probabilities must be positive and sum to 1")
        p = np.tile(q, (q.size, 1))
        return cls(transitions=p, stationary=q.copy())

    def word_measure(self, word: Sequence[int]) -> float:
        """Exact cylinder measure of a finite word."""
        w = _int_tuple(word, "word symbols", 0, self.alphabet_size)
        if not w:
            raise ValidationError("word must be nonempty")
        value = float(self.stationary[w[0]])
        for a, b in zip(w, w[1:]):
            value *= float(self.transitions[a, b])
        return value
