"""Exact hitting- and return-time laws of word cylinders in Markov shifts.

Two independent backends are maintained deliberately:

* the product chain on (automaton state, last symbol) pairs, whose state count
  grows like alphabet + word length (the scalable path);
* the block chain on all length-r symbol tuples (the S^r reference path),
  which also handles targets that are unions of equal-rank cylinders.

Both reduce every law to substochastic iteration: evolve a distribution with
the kernel restricted to survival (no entry into the target), and collect the
mass entering the target at each step. Chain step m corresponds to occurrence
start m - l + 1, so a hitting time of k is the mass absorbed at step k + l - 1
while a return time of k (started from a full match) is absorbed at step k.

Substochastic iteration is blocked: one kernel, `_absorption_series`, emits
_BLOCK absorbed masses per product with the impulse-response block
[q, Qq, ..., Q^(B-1)q] and then advances the distribution by Q^B (Kemeny and
Snell, *Finite Markov Chains*, 1960, for the algebra of substochastic kernels).
Return-time expectations need no horizon: `return_excess` solves (I - Q) w = 1
by GTH elimination (Grassmann, Taksar and Heyman, *Oper. Res.* 1985), which
keeps full relative precision however rare the target.

Mass totals use `math.fsum`, which is exactly rounded; for rare targets the
interesting k run into the millions and naive accumulation would lose digits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import (
    BudgetExceededError,
    NumericalDriftError,
    ProbabilityUnderflowError,
    ValidationError,
)
from .automaton import PatternTarget, PrefixAutomaton, build_automaton
from .source import MarkovSource

_MASS_DRIFT_TOL = 1e-9
_UNDERFLOW = 1e-300
_BLOCK = 512  # chain steps per block of `_absorption_series`
_BUDGET_STATES = 2**22  # largest block chain, in states


def _absorption_series(
    sub: np.ndarray, into: np.ndarray, v: np.ndarray, steps: int
) -> np.ndarray:
    """Masses absorbed at chain steps 1..steps: ``hits[..., m-1] = v Q^(m-1) q``.

    ``sub`` is the survival kernel Q and ``into`` the absorption vector q.
    ``v`` is one initial vector or a stack of them (one per row). The block
    C = [q, Qq, ..., Q^(B-1)q] and Q^B are built by doubling, so a short
    horizon costs O(log B) small matmuls; then every B masses are one ``v @ C``
    followed by ``v = v @ Q^B``.
    """
    b_size = min(_BLOCK, steps)
    if b_size < 1:
        return np.zeros(v.shape[:-1] + (0,))
    block = into[:, None]
    power = sub  # Q^b, where b is the current column count of block
    while block.shape[1] < b_size:
        block = np.hstack((block, power @ block[:, : b_size - block.shape[1]]))
        if block.shape[1] < steps:
            power = power @ power
    hits = np.empty(v.shape[:-1] + (steps,))
    for start in range(0, steps, b_size):
        stop = min(start + b_size, steps)
        hits[..., start:stop] = (v @ block)[..., : stop - start]
        if stop < steps:
            v = v @ power
    return hits


@dataclass(frozen=True)
class ExactPMF:
    """Law of a hitting or return time, truncated at a finite horizon.

    ``masses[i]`` is the probability of the value ``support_start + i`` and
    ``tail`` the mass beyond the horizon, so that masses plus tail recover the
    total mass of the initial distribution (1 for the laws computed here).
    """

    support_start: int
    masses: np.ndarray
    tail: float

    def __post_init__(self) -> None:
        m = np.asarray(self.masses, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    def mass_at(self, k: int) -> float:
        i = k - self.support_start
        if i < 0 or i >= self.masses.size:
            raise ValidationError(f"k={k} outside computed range")
        return float(self.masses[i])

    def total(self) -> float:
        return math.fsum(itertools.chain(self.masses, (self.tail,)))

    def expectation(self) -> float:
        """Mean of the truncated law; meaningful when tail is negligible."""
        values = np.arange(self.support_start, self.support_start + self.masses.size)
        return math.fsum(values * self.masses)

    def survival(self, k: int) -> float:
        """P(value >= k), using the tail for the truncated part."""
        first = max(k - self.support_start, 0)
        return math.fsum(itertools.chain(self.masses[first:], (self.tail,)))


class ProductChain:
    """Markov chain on (automaton state, last symbol) pairs.

    Only reachable pairs are materialized: (0, c) for every symbol c plus
    (s, word[s-1]) for s = 1..l, so the state count is alphabet + length.
    The full-match pair is unique because the word fixes its last symbol.
    """

    def __init__(self, source: MarkovSource, automaton: PrefixAutomaton) -> None:
        if automaton.alphabet_size != source.alphabet_size:
            raise ValidationError("alphabet sizes of source and automaton disagree")
        word = automaton.word
        s_count = source.alphabet_size
        l = len(word)
        pairs = [(0, c) for c in range(s_count)]
        pairs += [(s, word[s - 1]) for s in range(1, l + 1)]
        index = {pc: i for i, pc in enumerate(pairs)}
        n = len(pairs)
        kernel = np.zeros((n, n))
        table = automaton.table
        p = source.transitions
        for (st, c), i in index.items():
            for c2 in range(s_count):
                kernel[i, index[(int(table[st, c2]), c2)]] += p[c, c2]
        match_idx = index[(l, word[l - 1])]
        sub = kernel.copy()
        sub[:, match_idx] = 0.0
        self.source = source
        self.automaton = automaton
        self.pairs = pairs
        self.index = index
        self.kernel = kernel
        self.survive = sub
        self.into_match = kernel[:, match_idx].copy()
        self.match_index = match_idx

    @property
    def n_states(self) -> int:
        return len(self.pairs)

    def stationary_vector(self) -> np.ndarray:
        v = np.zeros(self.n_states)
        for c in range(self.source.alphabet_size):
            v[self.index[(0, c)]] = self.source.stationary[c]
        return v

    def entry_vector(self) -> np.ndarray:
        v = np.zeros(self.n_states)
        v[self.match_index] = 1.0
        return v


def _escape_initial(
    chain: ProductChain, target: PatternTarget
) -> tuple[np.ndarray, dict[int, float], float]:
    """Initial data for conditioning on the escaping part of the target.

    Enumerates the continuation block of length p after a full match,
    excluding the single periodic continuation. Returns the surviving
    (unnormalized) state vector, the masses of matches occurring inside the
    block keyed by their return time, and the conditioning mass (which equals
    the exact escaping proportion of the target).
    """
    p = target.period_hint
    if p is None:
        raise ValidationError("conditioning on the escaping part requires a period_hint")
    word = target.word
    s_count = chain.source.alphabet_size
    if s_count**p > 2**20:
        raise BudgetExceededError(f"escaping conditioning enumerates {s_count}**{p} blocks")
    periodic_tail = target.periodic_extension()[len(word) :]
    trans = chain.source.transitions
    survivors = np.zeros(chain.n_states)
    early: dict[int, float] = {}
    weights: list[float] = []
    # full enumeration (no early pruning) so the excluded periodic block is
    # identified exactly even when it shares a prefix with early matches
    for block in itertools.product(range(s_count), repeat=p):
        if block == periodic_tail:
            continue
        weight = math.prod(trans[a, c] for a, c in zip((word[-1],) + block, block))
        if weight == 0.0:
            continue
        weights.append(weight)
        first, state = chain.automaton.first_match(block, len(word))
        if first is not None:
            early[first] = early.get(first, 0.0) + weight
        else:
            survivors[chain.index[(state, block[-1])]] += weight
    return survivors, early, math.fsum(weights)


def hitting_pmf(
    source: MarkovSource,
    target: PatternTarget,
    initial: str,
    k_max: int,
) -> ExactPMF:
    """Exact law of the first entrance time into a word cylinder.

    ``initial`` selects the starting law: "stationary" for the invariant
    measure, "in_target" for conditioning on the cylinder (the return law),
    or "escaping" for conditioning on the non-returning part of a periodic
    target.
    """
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    # a vector start would reach the name comparisons below as an array
    if not isinstance(initial, str) or initial not in ("stationary", "in_target", "escaping"):
        raise ValidationError(f"unknown initial distribution {initial!r}")
    chain = ProductChain(source, build_automaton(target, source.alphabet_size))
    l = target.length
    scale = 1.0
    early_total = 0.0
    if initial in ("in_target", "escaping") and source.word_measure(target.word) == 0.0:
        raise ValidationError("cannot condition on a target of zero measure")
    if initial == "stationary":
        v = chain.stationary_vector()
        lead = l - 1  # occurrence starting at k completes at step k + l - 1
    elif initial == "in_target":
        v = chain.entry_vector()
        lead = 0
    else:
        v, early, mass = _escape_initial(chain, target)
        scale = 1.0 / mass
        early_total = sum(early.values()) * scale  # beyond-k_max part feeds the tail
        masses = np.zeros(k_max)
        for k, m in early.items():
            if 1 <= k <= k_max:
                masses[k - 1] = m * scale
        lead = -(target.period_hint or 0)  # block steps already consumed

    # absorption at chain step m realizes the time k = m - lead
    total_in = float(v.sum()) * scale + early_total
    hits = _absorption_series(chain.survive, chain.into_match, v, k_max + lead)
    if lead >= 0:
        masses = hits[lead:]  # scale is 1 here
    else:
        masses[-lead:] = hits * scale  # after the escaping block's own matches
    tail = total_in - math.fsum(masses)
    if tail < -_MASS_DRIFT_TOL:
        raise NumericalDriftError(
            f"mass balance drifted past tolerance: tail={tail:.3e} after k_max={k_max}"
        )
    return ExactPMF(support_start=1, masses=masses, tail=max(tail, 0.0))


def return_pmf(source: MarkovSource, target: PatternTarget, k_max: int) -> ExactPMF:
    """Exact return-time law: hitting law started from the cylinder itself."""
    return hitting_pmf(source, target, "in_target", k_max)


def return_excess(
    source: MarkovSource, target: PatternTarget, ks: Iterable[int]
) -> np.ndarray:
    """E[(R - K)^+] = sum_{j >= K} P(R > j) of the return time R, for each K in ``ks``.

    K = 0 gives E[R], which Kac's formula sets to 1/mu(A). Each value is
    e Q^K w, with e the full-match state and w = (I - Q)^(-1) 1. GTH
    elimination forms each pivot 1 - Q_kk as the absorption plus the row mass
    right of the diagonal, never by a subtraction, so w keeps full relative
    precision although cond(I - Q) grows like 1/mu(A).
    """
    ks = [int(k) for k in ks]
    if any(k < 0 for k in ks):
        raise ValidationError(f"ks must be >= 0, got {ks}")
    if source.word_measure(target.word) == 0.0:
        raise ValidationError("cannot condition on a target of zero measure")
    chain = ProductChain(source, build_automaton(target, source.alphabet_size))
    n = chain.n_states
    # eliminate on [Q | q | 1]: the Schur updates carry the absorption column
    # q and the right-hand side along with the rows of Q
    a = np.column_stack((chain.survive, chain.into_match, np.ones(n)))
    for k in range(n):
        a[k, k + 1 :] /= a[k, k + 1 : n + 1].sum()
        a[k + 1 :, k + 1 :] += np.outer(a[k + 1 :, k], a[k, k + 1 :])
    w = a[:, n + 1]
    for k in range(n - 2, -1, -1):
        w[k] += a[k, k + 1 : n] @ w[k + 1 :]
    return np.array([np.linalg.matrix_power(chain.survive, k)[chain.match_index] @ w for k in ks])


def theta_exact(source: MarkovSource, target: PatternTarget) -> float:
    """Escaping proportion of a periodic target: 1 - mu(A n T^-p A)/mu(A)."""
    if target.period_hint is None:
        raise ValidationError("theta_exact requires a target with a period_hint")
    mu_a = source.word_measure(target.word)
    if mu_a == 0.0:
        raise ValidationError("target cylinder has zero measure under this source")
    return 1.0 - source.word_measure(target.periodic_extension()) / mu_a


def consecutive_joint_pmf(
    source: MarkovSource,
    target: PatternTarget,
    gaps: Sequence[int],
    from_entry: bool = False,
) -> float:
    """Exact probability that the first d inter-visit gaps equal ``gaps``.

    The first gap is a hitting time from the stationary law (or a return time
    when ``from_entry``); each later gap is a return time chained from the
    full-match state, which the word makes unique, so renormalizing onto the
    post-hit distribution is exact.
    """
    gaps = [int(k) for k in gaps]
    if not gaps:
        raise ValidationError("gap list must be nonempty")
    if any(k < 1 for k in gaps):
        raise ValidationError(f"gaps must be >= 1, got {gaps}")
    chain = ProductChain(source, build_automaton(target, source.alphabet_size))
    sub, into = chain.survive, chain.into_match
    ret = _absorption_series(sub, into, chain.entry_vector(), max(gaps))
    legs = [ret[k - 1] for k in gaps]
    if not from_entry:
        v = chain.stationary_vector()
        legs[0] = _absorption_series(sub, into, v, gaps[0] + target.length - 1)[-1]
    prob = 1.0
    for j, leg in enumerate(legs):
        if leg == 0.0:
            return 0.0  # a structurally impossible gap, not an underflow
        prob *= float(leg)
        if prob < _UNDERFLOW:
            raise ProbabilityUnderflowError(
                f"joint probability underflowed below {_UNDERFLOW} at gap {j + 1}"
            )
    return prob


def _require_horizon(law: ExactPMF, horizon: int, name: str) -> None:
    if law.support_start != 1 or law.masses.size < horizon:
        raise ValidationError(
            f"the {name} law must cover 1..{horizon}, it covers "
            f"{law.support_start}..{law.support_start + law.masses.size - 1}"
        )


def verify_inducing_identity(
    hit: ExactPMF, ret: ExactPMF, mu_a: float, k_range: Iterable[int]
) -> float:
    """Max |mu(phi_A = k) - mu(A n {phi_A >= k})| over the given k.

    ``hit`` is the stationary hitting law and ``ret`` the return law of a
    target A of measure ``mu_a``, each to at least max(k_range). The left
    side is read from ``hit``, the right side is mu_a times the survival
    function of ``ret``.
    """
    ks = sorted(set(int(k) for k in k_range))
    if not ks or ks[0] < 1:
        raise ValidationError("k_range must contain integers >= 1")
    _require_horizon(hit, ks[-1], "hitting")
    _require_horizon(ret, ks[-1], "return")
    # surv[k] = tail + masses[k:], accumulated backwards from the tail
    surv = np.cumsum(np.concatenate(([ret.tail], ret.masses[::-1])))[::-1]
    idx = np.array(ks) - 1
    return float(np.max(np.abs(hit.masses[idx] - mu_a * surv[idx])))


def _matched_split(chain: ProductChain, l: int, j_max: int) -> np.ndarray:
    """Stationary mass with some occurrence start in 1..j, for j = 1..j_max.

    Row j-1 is that mass spread over the chain states after the j + l - 1
    steps that complete an occurrence starting at j. It evolves a
    matched/unmatched split with the full kernel.
    """
    kernel = chain.kernel
    match = chain.match_index
    u = chain.stationary_vector()  # no occurrence start in 1..j yet
    f = np.zeros_like(u)  # some occurrence start in 1..j
    rows = np.empty((j_max, u.size))
    for step in range(1, j_max + l):
        u = u @ kernel
        f = f @ kernel
        moved = u[match]
        if moved:
            u[match] = 0.0
            f[match] += moved
        if step >= l:
            rows[step - l] = f
    return rows


def verify_shift_identity_grid(
    source: MarkovSource, target: PatternTarget, ret: ExactPMF, j_max: int, m_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the j-shift occurrence identity on 1 <= j <= j_max, 1 <= m <= m_max.

    Returns (lhs, rhs) as (j_max, m_max) arrays with cell [j-1, m-1] for (j, m).
    Left: mu({phi_A <= j} n {phi_A o T^j = m}), from a product-chain
    matched/unmatched split through the first j occurrence starts, extended
    incrementally in j, then one blocked substochastic sweep over m for all j.
    Right: mu(A n {m <= phi_A < m + j}) from ``ret``, the target's return
    law to at least j_max + m_max - 1.
    """
    if j_max < 1 or m_max < 1:
        raise ValidationError("j_max and m_max must be >= 1")
    horizon = m_max + j_max - 1
    _require_horizon(ret, horizon, "return")
    chain = ProductChain(source, build_automaton(target, source.alphabet_size))
    mu_a = source.word_measure(target.word)
    splits = _matched_split(chain, target.length, j_max)
    lhs = _absorption_series(chain.survive, chain.into_match, splits, m_max)
    # rhs(j, m) = mu(A) * sum of return masses over m..m+j-1, via prefix sums
    prefix = np.concatenate(([0.0], np.cumsum(ret.masses[:horizon])))
    j = np.arange(1, j_max + 1)[:, None]
    m = np.arange(1, m_max + 1)[None, :]
    rhs = mu_a * (prefix[m + j - 1] - prefix[m - 1])
    return lhs, rhs


# ---------------------------------------------------------------------------
# Block-chain reference backend
# ---------------------------------------------------------------------------


class BlockChain:
    """Chain on all length-r symbol tuples; the S^r reference backend.

    Tuples are encoded base-S with the most recent symbol in the lowest
    digit: index = sum_t block[t] * S^(r-1-t), so a shift-and-append is
    (index mod S^(r-1)) * S + c. Writing index = t * S^(r-1) + m, block
    (t, m) moves to (m, c): the S predecessors of output (m, c) are the S rows
    of ``v.reshape(S, S^(r-1))`` at column m, one per dropped symbol t. Their
    weights are the transitions out of each predecessor's own last symbol,
    ``index mod S`` (which is t, not m mod S, at rank 1). Targets are
    arbitrary sets of equal-rank tuples, which covers unions of cylinders.
    """

    def __init__(self, source: MarkovSource, rank: int) -> None:
        if rank < 1:
            raise ValidationError(f"rank must be >= 1, got {rank}")
        s = source.alphabet_size
        n = s**rank
        if n > _BUDGET_STATES:
            raise BudgetExceededError(
                f"block chain needs {n} states for rank {rank}, budget is {_BUDGET_STATES}"
            )
        self.source = source
        self.rank = rank
        self.n_states = n
        self._mod = s ** (rank - 1)
        last = np.arange(n, dtype=np.int64) % s
        # weight[c, t, m]: transition into c from block t * S^(r-1) + m
        self._weight = source.transitions[last].T.reshape(s, s, self._mod)

    def encode(self, block: Sequence[int]) -> int:
        if len(block) != self.rank:
            raise ValidationError(f"block must have length {self.rank}")
        idx = 0
        for c in block:
            idx = idx * self.source.alphabet_size + int(c)
        return idx

    def stationary_blocks(self) -> np.ndarray:
        """Stationary law of length-r blocks."""
        s = self.source.alphabet_size
        v = np.array(self.source.stationary, dtype=float)
        for _ in range(self.rank - 1):
            last = np.arange(v.size, dtype=np.int64) % s
            v = (v[:, None] * self.source.transitions[last]).reshape(-1)
        return v

    def step(self, v: np.ndarray) -> np.ndarray:
        """One full-kernel step of a distribution over blocks."""
        s = self.source.alphabet_size
        out = np.empty_like(v)
        columns = out.reshape(self._mod, s)
        rows = v.reshape(s, self._mod)
        # an axis-0 sum adds the rows in order, t ascending, so each output is
        # the same left-to-right sum as a scatter over ascending block indices
        for c in range(s):
            columns[:, c] = (rows * self._weight[c]).sum(axis=0)
        return out


def _block_pmf(
    source: MarkovSource,
    words: Sequence[Sequence[int]],
    k_max: int,
    from_inside: bool,
    budget_ops: int = 10**9,
) -> tuple[ExactPMF, float]:
    """Hitting or return law of a union of equal-rank cylinders.

    Returns (pmf, target measure). ``from_inside`` starts from the stationary
    law conditioned on the target (return law); otherwise from the stationary
    law with the first rank-1 steps run unrestricted, because matches there
    would correspond to occurrence starts <= 0.
    """
    if not words:
        raise ValidationError("word set must be nonempty")
    rank = len(words[0])
    if any(len(w) != rank for w in words):
        raise ValidationError("all words in a block target must have equal length")
    chain = BlockChain(source, rank)
    ops = (k_max + rank) * chain.n_states * source.alphabet_size
    if ops > budget_ops:
        raise BudgetExceededError(
            f"block computation needs ~{ops:.2e} ops, budget is {budget_ops:.2e}"
        )
    # sorted distinct block indices: the target entries in ascending order
    target = np.unique([chain.encode(w) for w in words])
    v = chain.stationary_blocks()
    mu_target = float(v[target].sum())
    if mu_target <= 0.0:
        raise ValidationError("target set has zero stationary measure")
    if from_inside:
        inside = np.zeros_like(v)
        inside[target] = v[target] / mu_target
        v = inside
        phantom = 0
    else:
        phantom = rank - 1
    masses = np.zeros(k_max)
    total_in = float(v.sum())
    for _ in range(phantom):
        v = chain.step(v)
    for k in range(1, k_max + 1):
        v = chain.step(v)
        masses[k - 1] = float(v[target].sum())
        v[target] = 0.0
    tail = total_in - math.fsum(masses)
    if tail < -_MASS_DRIFT_TOL:
        raise NumericalDriftError(f"block mass balance drifted: tail={tail:.3e}")
    return ExactPMF(support_start=1, masses=masses, tail=max(tail, 0.0)), mu_target


def block_hitting_pmf(source: MarkovSource, target: PatternTarget, k_max: int) -> ExactPMF:
    """Stationary hitting law via the S^l block chain (reference backend)."""
    pmf, _ = _block_pmf(source, [target.word], k_max, from_inside=False)
    return pmf


def block_return_pmf(source: MarkovSource, target: PatternTarget, k_max: int) -> ExactPMF:
    """Return law via the S^l block chain (reference backend)."""
    pmf, _ = _block_pmf(source, [target.word], k_max, from_inside=True)
    return pmf


def block_set_return_pmf(
    source: MarkovSource,
    words: Sequence[Sequence[int]],
    k_max: int,
    budget_ops: int = 10**9,
) -> tuple[ExactPMF, float]:
    """Return law and measure of a union of equal-rank cylinders."""
    return _block_pmf(source, words, k_max, from_inside=True, budget_ops=budget_ops)
