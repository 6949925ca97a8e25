"""Ratio reports against the exponential limit laws, and the pruned-target
counterexample showing that a vanishing perturbation of a target can zero out
a single return-time mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import ProbabilityUnderflowError, ValidationError, _int_tuple
from ..theory import consecutive_asymptote
from .automaton import PatternTarget, build_automaton
from .exact import (
    _UNDERFLOW,
    _block_states,
    block_set_return_pmf,
    masses_at,
    return_pmf,
    theta_exact,
)
from .source import MarkovSource

_POINTS_PER_DECADE = 32  # k-grid density of the LLT ratio tables


class ConvergenceRow(NamedTuple):
    """One (target rank, time) cell of an LLT ratio report, in table column order."""

    l: int
    k: int
    t: float
    exact: float
    predicted: float
    ratio: float


CONVERGENCE_HEADER = ConvergenceRow._fields


def k_grid(mu_a: float, delta: float) -> np.ndarray:
    """Geometric grid of integer times, 32 per decade, over delta <= mu_a*k <= 1/delta."""
    if not (0.0 < mu_a < 1.0):
        raise ValidationError(f"mu(A) must lie in (0, 1), got {mu_a}")
    if not (0.0 < delta <= 1.0):
        raise ValidationError(f"delta must lie in (0, 1], got {delta}")
    lo = delta / mu_a
    hi = 1.0 / (delta * mu_a)
    if not hi < 2.0**63:
        raise ValidationError(
            f"time window ends at {hi:.3e}, past the int64 time limit 2^63 - 1 (mu(A) = {mu_a:.3e})"
        )
    decades = math.log10(hi / lo) if hi > lo else 0.0
    count = max(2, int(math.ceil(_POINTS_PER_DECADE * decades)) + 1)
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
) -> list[ConvergenceRow]:
    """Exact masses against the exponential LLT prediction over a k grid.

    For each target A of the family, the grid covers the normalized-time
    window [delta, 1/delta]; the prediction is `consecutive_asymptote` at the
    single gap k: theta^2*e^(-theta*t)*mu(A) for the return law and
    theta*e^(-theta*t)*mu(A) for the stationary hitting law, with
    t = mu(A)*k, and 0 < mu(A) < 1. theta is `theta_exact`: the escaping
    proportion at the word's minimal period, which is 1 for a word without a
    border (a word with several periods below l has no single finite-l theta).

    The exact masses come from one `masses_at` call per target, which builds
    no law to 1/(delta mu), so a table runs at any l whose window ends within
    the int64 times (`k_grid`). Its closed form is within about (1 + t) 1e-13
    relative of the law of exactly stochastic rows; its series is within k
    times the source's row defect of it (`hitting_pmf`). A prediction or a
    closed-form mass below 1e-300 raises `ProbabilityUnderflowError`.
    """
    if kind not in ("return", "hitting"):
        raise ValidationError(f"kind must be 'return' or 'hitting', got {kind!r}")
    initial = "in_target" if kind == "return" else "stationary"
    rows: list[ConvergenceRow] = []
    for target in targets:
        mu_a = source.word_measure(target.word)
        if not 0.0 < mu_a < 1.0:
            raise ValidationError(f"target {target.word} has measure {mu_a}, not in (0, 1)")
        th = theta_exact(source, target)
        ks = k_grid(mu_a, delta)
        masses = masses_at(source, target, initial, ks)
        for k, exact in zip(ks.tolist(), masses.tolist()):
            t = mu_a * float(k)
            predicted = consecutive_asymptote(th, mu_a, [k], hitting_start=kind == "hitting")
            if predicted < _UNDERFLOW:
                raise ProbabilityUnderflowError(f"{target.word}: prediction at k={k} underflows")
            rows.append(
                ConvergenceRow(
                    l=target.length,
                    k=k,
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

    The fields are, in order and by name, the rows of the CLI's exact
    ``counterexample.csv``: a new field is a new row there.
    """

    mu_a: float
    mu_b: float
    ratio_b_over_a: float  # mu(B) / mu(A)
    expected_ratio: float  # 1 - pruned_mass, what the ratio must equal
    pruned_mass: float  # mu_A(phi_A = k_prune), from the word-target return law
    b_return_at_k_prune: float  # mu_B(phi_B = k_prune), structurally zero
    cylinders_kept: int
    cylinders_pruned: int


def counterexample_pruned_target(
    source: MarkovSource,
    target: PatternTarget,
    k_prune: int,
) -> PrunedTargetReport:
    """Build B = A n {phi_A != k_prune} exactly and compute its return law.

    B is enumerated as a union of rank-(k_prune + l) cylinders and its return
    law computed on the block chain of that rank, to the one horizon it is
    read at, k_prune; the word-target return law provides the independent
    value of the pruned mass.
    """
    (k_prune,) = _int_tuple((k_prune,), "k_prune", 1)
    word = target.word
    l = len(word)
    s_count = source.alphabet_size
    rank = l + k_prune
    _block_states(s_count, rank)  # before the walk allocates S^k_prune continuations
    table = build_automaton(target, s_count)

    def digit(codes: np.ndarray, t: int) -> np.ndarray:
        return codes // s_count ** (k_prune - 1 - t) % s_count

    # walk every continuation from the full match at once, in lexicographic
    # order: continuation i spells i in base S, read one digit per step
    codes = np.arange(s_count**k_prune)
    state = np.full(codes.size, l)
    early = np.zeros(codes.size, dtype=bool)  # a full match before step k_prune
    for t in range(k_prune):
        if t:
            early |= state == l
        state = table[state, digit(codes, t)]
    codes = codes[early | (state != l)]  # the first full match is not at k_prune
    if not codes.size:
        raise ValidationError("pruning removed the whole target")
    words = np.empty((codes.size, rank), dtype=np.int64)
    words[:, :l] = word
    for t in range(k_prune):
        words[:, l + t] = digit(codes, t)
    b_pmf, mu_b = block_set_return_pmf(source, words, k_prune)
    mu_a = source.word_measure(word)
    pruned_mass = return_pmf(source, target, k_prune).mass_at(k_prune)
    return PrunedTargetReport(
        mu_a=mu_a,
        mu_b=mu_b,
        ratio_b_over_a=mu_b / mu_a,
        expected_ratio=1.0 - pruned_mass,
        pruned_mass=pruned_mass,
        b_return_at_k_prune=b_pmf.mass_at(k_prune),
        cylinders_kept=codes.size,
        cylinders_pruned=s_count**k_prune - codes.size,
    )
