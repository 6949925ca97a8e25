"""Ratio reports against the exponential limit laws, and the pruned-target
counterexample showing that a vanishing perturbation of a target can zero out
a single return-time mass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import BudgetExceededError, ValidationError
from ..theory import consecutive_asymptote
from .automaton import PatternTarget, build_automaton
from .exact import (
    _BUDGET_STATES,
    block_set_return_pmf,
    hitting_pmf,
    return_pmf,
    theta_exact,
)
from .source import MarkovSource

CONVERGENCE_HEADER = ("l", "k", "t", "exact", "predicted", "ratio")


@dataclass(frozen=True)
class ConvergenceRow:
    """One (target rank, time) cell of an LLT ratio report."""

    l: int
    k: int
    t: float
    exact: float
    predicted: float
    ratio: float

    def as_tuple(self) -> tuple:
        return (self.l, self.k, self.t, self.exact, self.predicted, self.ratio)


def k_grid(mu_a: float, delta: float, points_per_decade: int = 32) -> np.ndarray:
    """Geometric grid of integer times covering the window delta <= mu_a*k <= 1/delta."""
    if not (0.0 < delta <= 1.0):
        raise ValidationError(f"delta must lie in (0, 1], got {delta}")
    lo = delta / mu_a
    hi = 1.0 / (delta * mu_a)
    decades = math.log10(hi / lo) if hi > lo else 0.0
    count = max(2, int(math.ceil(points_per_decade * decades)) + 1)
    ks = np.unique(np.round(np.geomspace(lo, hi, count)).astype(np.int64))
    ks = ks[(ks >= 1) & (mu_a * ks >= delta) & (mu_a * ks <= 1.0 / delta)]
    if ks.size == 0:
        raise ValidationError("time window contains no integers; delta too tight")
    return ks


def llt_convergence_table(
    source: MarkovSource,
    targets: Sequence[PatternTarget],
    delta: float,
    kind: str = "return",
    theta: float | None = None,
    points_per_decade: int = 32,
) -> list[ConvergenceRow]:
    """Exact masses against the exponential LLT prediction over a k grid.

    For each target A of the family, the grid covers the normalized-time
    window [delta, 1/delta]; the prediction is `consecutive_asymptote` at the
    single gap k: theta^2*e^(-theta*t)*mu(A) for the return law and
    theta*e^(-theta*t)*mu(A) for the stationary hitting law, with
    t = mu(A)*k. theta defaults to the exact escaping proportion of
    a periodic target, and to 1 for targets without a period hint.
    """
    if kind not in ("return", "hitting"):
        raise ValidationError(f"kind must be 'return' or 'hitting', got {kind!r}")
    rows: list[ConvergenceRow] = []
    for target in targets:
        mu_a = source.word_measure(target.word)
        if mu_a >= 1.0:
            raise ValidationError("target cylinder has full measure; not a rare event")
        th = theta
        if th is None:
            th = theta_exact(source, target) if target.period_hint is not None else 1.0
        ks = k_grid(mu_a, delta, points_per_decade)
        k_max = int(ks.max())
        pmf = (
            return_pmf(source, target, k_max)
            if kind == "return"
            else hitting_pmf(source, target, "stationary", k_max)
        )
        for k in ks:
            t = mu_a * float(k)
            predicted = consecutive_asymptote(th, mu_a, [k], hitting_start=kind == "hitting")
            exact = pmf.mass_at(int(k))
            rows.append(
                ConvergenceRow(
                    l=target.length,
                    k=int(k),
                    t=t,
                    exact=exact,
                    predicted=predicted,
                    ratio=exact / predicted,
                )
            )
    return rows


@dataclass(frozen=True)
class PrunedTargetReport:
    """Exact demonstration that pruning {phi_A = k} from A kills that return mass.

    With B = A minus the rank-(k+l) cylinders where the next visit to A comes
    after exactly k steps, the return time of B never equals k: on the part of
    B whose next A-visit stays in B the return times agree and differ from k,
    and on the rest they exceed k by at least 1.
    """

    k_prune: int
    mu_a: float
    mu_b: float
    ratio: float  # mu(B) / mu(A)
    pruned_mass: float  # mu_A(phi_A = k_prune), from the word-target return law
    b_return_at_k_prune: float  # mu_B(phi_B = k_prune), structurally zero
    n_cylinders_kept: int
    n_cylinders_pruned: int


def counterexample_pruned_target(
    source: MarkovSource,
    target: PatternTarget,
    k_prune: int,
    k_max: int | None = None,
    budget_ops: int = 10**8,
) -> PrunedTargetReport:
    """Build B = A n {phi_A != k_prune} exactly and compute its return law.

    B is enumerated as a union of rank-(k_prune + l) cylinders and its return
    law computed on the block chain of that rank; the word-target return law
    provides the independent value of the pruned mass.
    """
    if k_prune < 1:
        raise ValidationError(f"k_prune must be >= 1, got {k_prune}")
    word = target.word
    l = len(word)
    s_count = source.alphabet_size
    rank = l + k_prune
    if s_count**rank > _BUDGET_STATES:
        raise BudgetExceededError(
            f"counterexample needs {s_count}**{rank} block states; too large"
        )
    automaton = build_automaton(target, s_count)
    kept: list[tuple[int, ...]] = []
    pruned = 0
    for suffix in itertools.product(range(s_count), repeat=k_prune):
        first, _ = automaton.first_match(suffix, l)
        if first == k_prune:
            pruned += 1
        else:
            kept.append(word + suffix)
    if not kept:
        raise ValidationError("pruning removed the whole target")
    if k_max is None:
        k_max = max(4 * k_prune, 64)
    b_pmf, mu_b = block_set_return_pmf(source, kept, k_max, budget_ops=budget_ops)
    mu_a = source.word_measure(word)
    ret = return_pmf(source, target, k_prune)
    return PrunedTargetReport(
        k_prune=k_prune,
        mu_a=mu_a,
        mu_b=mu_b,
        ratio=mu_b / mu_a,
        pruned_mass=ret.mass_at(k_prune),
        b_return_at_k_prune=b_pmf.mass_at(k_prune),
        n_cylinders_kept=len(kept),
        n_cylinders_pruned=pruned,
    )
