"""Exact hitting- and return-time laws of word cylinders in Markov shifts.

Two independent backends are maintained deliberately:

* the product chain on (automaton state, last symbol) pairs, whose state count
  is alphabet + word length (the scalable path): the S states (0, c) come
  first, then (s, word[s-1]) for s = 1..l, so the full match is the last
  state, and one table walk of the occurrence automaton lays out the kernel;
* the block chain on length-r symbol tuples (the S^r reference path), which
  also handles targets that are unions of equal-rank cylinders. It
  enumerates blocks and never builds an automaton, so it shares nothing with
  the product chain. Its laws hold the (r-1)-block marginal, not the S^r
  vector: outside the target a rank-r block's mass is that marginal times
  one transition, so a rank-r target block is a transition between
  (r-1)-blocks.

Both reduce every law to substochastic iteration: evolve a distribution with
the kernel restricted to survival (no entry into the target), and collect the
mass entering the target at each step. Chain step m corresponds to occurrence
start m - l + 1, so a hitting time of k is the mass absorbed at step k + l - 1
while a return time of k (started from a full match) is absorbed at step k.

Substochastic iteration is blocked: one kernel, `_absorption_series`, emits
_BLOCK absorbed masses per product with the impulse-response block
[q, Qq, ..., Q^(B-1)q] and then advances the distribution by Q^B (Kemeny and
Snell, *Finite Markov Chains*, 1960, for the algebra of substochastic kernels).
Every product-chain series is one call of it: the hitting and return laws,
the shift identity's matched/unmatched split (itself a substochastic chain on
twice the states) and the return excess. The block chain keeps its own step
loop, the independent cross-check. It encodes a block with its oldest symbol
in the lowest base-S digit and its newest in the highest, so a step at rank
>= 2 adds the dropped symbol's S strided columns into a contiguous marginal,
as no weight depends on that symbol, and then writes the appended symbol's S
contiguous rows with one broadcast multiply by the transitions out of the kept
newest symbol. A rank-r law makes that step at rank r - 1, reads the absorbed
mass off the target transitions, and recomputes the few marginal entries
those transitions feed from their kept predecessors.
Return-time expectations need no horizon: `return_excess` solves (I - Q) w = 1
by GTH elimination (Grassmann, Taksar and Heyman, *Oper. Res.* 1985), which
keeps full relative precision however rare the target.

Point masses need no horizon either, past a crossover K0: once u = v Q^(K0-1)
points along the left Perron vector of Q (its quasi-stationary direction,
Darroch and Seneta, *J. Appl. Probab.* 1965), v Q^(m-1) q = (u.q) lambda^(m-K0)
for every m >= K0. Each row of [Q | q] sums to 1, so 1 - lambda = (u.q)/(u.1),
a ratio of nonnegative sums with no subtraction, and lambda^(m-K0) is
exp((m - K0) log1p(-(1 - lambda))). `masses_at` reads a law at given times,
by the series before K0 and by this closed form from K0 on. It derives K0
from the inputs: K0 starts at 4l + 64 and doubles until u agrees, entry by
entry to `_SETTLED_TOL` relative, with both u Q and u Q^(K0-1), the one-step
check ruling out a periodic Q and the long one a slowly turning u. A mass at
normalized time t is then within about (1 + t) `_SETTLED_TOL` of the law of
the kernel with rows that sum to exactly 1; against 50-digit references on
the fair coin it read within 3e-16 up to l = 32. Where u has not settled by
the step the series would need, the series serves; past the series' own
budget both refuse.

Mass totals are exactly rounded, by one `math.fsum` (Shewchuk, *Discrete
Comput. Geom.* 1997) in `_exact_sum`: a tail is the start mass less a sum of
thousands of masses, and naive accumulation would lose its digits.
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
    _flag,
    _int_tuple,
)
from .automaton import PatternTarget, build_automaton
from .source import MarkovSource

_MASS_DRIFT_TOL = 1e-9
_UNDERFLOW = 1e-300
_BLOCK = 512  # chain steps per block of `_absorption_series`
_BUDGET_STATES = 2**22  # largest block chain, in states
_BUDGET_OPS = 10**9  # largest law, in state updates (state-symbol updates for the block chain)
_SETTLED_TOL = 1e-13  # entrywise agreement of a settled quasi-stationary direction


def _require_budget(updates: int) -> None:
    if updates > _BUDGET_OPS:
        raise BudgetExceededError(
            f"exact law needs ~{updates:.2e} state updates, budget is {_BUDGET_OPS:.2e}"
        )


def _absorption_series(
    sub: np.ndarray, into: np.ndarray, v: np.ndarray, steps: int
) -> np.ndarray:
    """Masses absorbed at chain steps 1..steps: ``hits[..., m-1] = v Q^(m-1) q``.

    ``sub`` is the survival kernel Q and ``into`` the absorption vector q.
    ``v`` is one initial vector or a stack of them (one per row). The block
    C = [q, Qq, ..., Q^(B-1)q] and Q^B are built by doubling, so a short
    horizon costs O(log B) small matmuls; then every B masses are one ``v @ C``
    followed by ``v = v @ Q^B``. Past ``_BUDGET_OPS`` state updates it refuses.
    """
    _require_budget(v.size * steps)
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


def _exact_sum(values: np.ndarray, *terms: float) -> float:
    """The sum of the 1-D array ``values`` and ``terms``, exactly rounded: one
    `math.fsum`, read through a memoryview so that no list is built. A NaN or
    infinite value or term, or a sum past the float range, raises
    `NumericalDriftError`."""
    try:
        total = math.fsum(itertools.chain(memoryview(values), terms))
    except (OverflowError, ValueError) as exc:  # past the float range, or inf - inf
        raise NumericalDriftError(f"cannot sum exactly: {exc}") from exc
    if not math.isfinite(total):
        raise NumericalDriftError(f"cannot sum a non-finite value: {total}")
    return total


def _closing_tail(total_in: float, masses: np.ndarray) -> float:
    """The tail of a truncated law: ``total_in`` minus the one exactly rounded
    `math.fsum` of ``masses`` (`_exact_sum`), clamped at 0. Below
    -``_MASS_DRIFT_TOL`` it is drift, not rounding, and raises, as does a
    non-finite ``total_in``, mass or tail."""
    tail = total_in - _exact_sum(masses)
    if not -_MASS_DRIFT_TOL <= tail < math.inf:
        raise NumericalDriftError(f"mass balance drifted past tolerance: tail={tail:.3e}")
    return max(tail, 0.0)


@dataclass(frozen=True)
class ExactPMF:
    """Law of a hitting or return time, truncated at a finite horizon.

    ``masses[i]`` is the probability of the value ``support_start + i`` and
    ``tail`` the mass beyond the horizon, so that masses plus tail recover the
    total mass of the initial distribution (1 for the laws computed here,
    which all start at 1, so ``masses[i]`` is P(value = i + 1)).
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
        return _exact_sum(self.masses, self.tail)

    def expectation(self) -> float:
        """Mean of the truncated law; meaningful when tail is negligible."""
        values = np.arange(self.support_start, self.support_start + self.masses.size)
        return _exact_sum(values * self.masses)

    def survival(self, k: int) -> float:
        """P(value >= k), using the tail for the truncated part."""
        first = max(k - self.support_start, 0)
        return _exact_sum(self.masses[first:], self.tail)


class ProductChain:
    """Markov chain on (automaton state, last symbol) pairs.

    It builds the occurrence automaton of ``target`` over the source's
    alphabet S. Only the S + l reachable pairs are states, in a fixed layout:
    state c < S is (0, c), state S + s - 1 is (s, word[s-1]) for s = 1..l,
    and the last state, index -1, is the full match, unique because the word
    fixes its last symbol. Reading c moves a pair to automaton state
    nxt = table[state, c], that is to pair (0, c) when nxt = 0 and to
    (nxt, word[nxt-1]) otherwise. So row i of the kernel holds the transitions
    out of its last symbol, each in its own column, and one
    ``np.put_along_axis`` writes every row.
    """

    def __init__(self, source: MarkovSource, target: PatternTarget) -> None:
        s_count = source.alphabet_size
        table = build_automaton(target, s_count)
        # automaton state and last symbol of each chain state, in layout order
        states = np.maximum(np.arange(1 - s_count, target.length + 1), 0)
        last = np.concatenate((np.arange(s_count), target.word))
        nxt = table[states]
        n = states.size
        kernel = np.zeros((n, n))
        dest = np.where(nxt == 0, np.arange(s_count), s_count - 1 + nxt)
        np.put_along_axis(kernel, dest, source.transitions[last], axis=1)
        sub = kernel.copy()
        sub[:, -1] = 0.0
        self.source = source
        self.n_states = n
        self.kernel = kernel
        self.survive = sub
        self.into_match = kernel[:, -1].copy()

    def stationary_vector(self) -> np.ndarray:
        v = np.zeros(self.n_states)
        v[: self.source.alphabet_size] = self.source.stationary
        return v

    def entry_vector(self) -> np.ndarray:
        v = np.zeros(self.n_states)
        v[-1] = 1.0
        return v


def _start(
    source: MarkovSource, target: PatternTarget, initial: str
) -> tuple[ProductChain, np.ndarray, int]:
    """The product chain, the start vector named by ``initial`` and its lead:
    absorption at chain step m realizes the time k = m - lead."""
    # a vector start would reach the name comparisons below as an array
    if not isinstance(initial, str) or initial not in ("stationary", "in_target"):
        raise ValidationError(f"unknown initial distribution {initial!r}")
    chain = ProductChain(source, target)
    if initial == "stationary":
        # an occurrence starting at k completes at step k + l - 1
        return chain, chain.stationary_vector(), target.length - 1
    if source.word_measure(target.word) == 0.0:
        raise ValidationError("cannot condition on a target of zero measure")
    return chain, chain.entry_vector(), 0


def hitting_pmf(
    source: MarkovSource,
    target: PatternTarget,
    initial: str,
    k_max: int,
) -> ExactPMF:
    """Exact law of the first entrance time into a word cylinder.

    ``initial`` selects the starting law: "stationary" for the invariant
    measure, or "in_target" for conditioning on the cylinder (the return law).

    The series steps the source's rows as given. A row that sums to 1 - eta
    leaks eta of the surviving mass per step, so the mass at time k lies
    within about k eta relative of the law of exactly stochastic rows;
    `MarkovSource` holds eta to a few ulps.
    """
    (k_max,) = _int_tuple((k_max,), "k_max", 1)
    chain, v, lead = _start(source, target, initial)
    masses = _absorption_series(chain.survive, chain.into_match, v, k_max + lead)[lead:]
    return ExactPMF(support_start=1, masses=masses, tail=_closing_tail(float(v.sum()), masses))


def _parallel(u: np.ndarray, w: np.ndarray) -> bool:
    """Whether nonnegative w is a positive multiple of u, entry by entry to
    `_SETTLED_TOL` relative, compared without a division."""
    su, sw = u.sum(), w.sum()
    return bool(sw > 0.0 and np.all(np.abs(u * sw - w * su) <= _SETTLED_TOL * u * sw))


def _settled_direction(
    sub: np.ndarray, into: np.ndarray, v: np.ndarray, k0: int, horizon: int
) -> tuple[int, float, float] | None:
    """(K0, u.q, 1 - lambda) for u = v Q^(K0-1) with a settled direction, or
    None if it has not settled by chain step ``horizon``.

    K0 starts at ``k0`` and goes to 2 K0 - 1 until u Q and u Q^(K0-1) are both
    `_parallel` to u. Powers of Q are formed by squaring, which is safe for a
    direction: it carries no k-fold growth of a rounded eigenvalue. A K0 within
    the horizon whose series would exceed `_BUDGET_OPS` state updates is
    refused, as the series to the horizon would be.
    """
    power = np.linalg.matrix_power(sub, k0 - 1)
    u = v @ power
    while k0 <= horizon:
        _require_budget(v.size * k0)
        later = u @ power
        if _parallel(u, later) and _parallel(u, u @ sub):
            at = float(u @ into)
            return k0, at, at / float(u.sum())
        u, power, k0 = later, power @ power, 2 * k0 - 1
    return None


def masses_at(
    source: MarkovSource, target: PatternTarget, initial: str, ks: np.ndarray | Sequence[int]
) -> np.ndarray:
    """The masses of `hitting_pmf`'s law at the increasing integer times ``ks`` >= 1.

    Times before the crossover are read from `hitting_pmf`'s series, run to
    the last of them; times from it on are (u.q) lambda^(k - crossover) in
    closed form (see the module docstring), so a read at any rarity builds no
    law past the crossover. The crossover's chain step K0 starts at 4l + 64
    and doubles until u = v Q^(K0-1) has settled; where ``ks`` end before
    4l + 64, or u has not settled by their last time, the series serves every
    time. A direction
    still unsettled where a series would exceed its state budget raises
    `BudgetExceededError`, as the series to the last time would. A mass below
    1e-300 raises `ProbabilityUnderflowError` in closed form, and in the
    series from its first positive mass below 1e-300 on; a zero before is
    structural.
    """
    ks = np.asarray(ks)
    if not (ks.dtype.kind == "i" and ks.ndim == 1 and ks.size and ks[0] >= 1
            and np.all(ks[1:] > ks[:-1])):
        raise ValidationError(
            f"ks must be a nonempty increasing array of signed integer times >= 1, got {ks!r}"
        )
    ks = ks.astype(np.int64, copy=False)
    chain, v, lead = _start(source, target, initial)
    k0, horizon = 4 * target.length + 64, int(ks[-1]) + lead
    settled = None
    if k0 <= horizon:  # a read that ends before the first K0 forms no matrix power
        settled = _settled_direction(chain.survive, chain.into_match, v, k0, horizon)
    head = ks.size if settled is None else int(np.searchsorted(ks, settled[0] - lead))
    masses = np.empty(ks.size)
    if head:
        steps = int(ks[head - 1]) + lead
        law = _absorption_series(chain.survive, chain.into_match, v, steps)[lead:]
        _closing_tail(float(v.sum()), law)  # the mass-balance drift check of `hitting_pmf`
        masses[:head] = law[ks[:head] - 1]
        low = np.flatnonzero((law > 0.0) & (law < _UNDERFLOW))  # from low[0] + 1 on, underflow
        if low.size and np.any(masses[:head][ks[:head] > low[0]] < _UNDERFLOW):
            raise ProbabilityUnderflowError(f"the masses underflow from k={low[0] + 1} on")
    if head < ks.size:
        k0, at, escape = settled
        masses[head:] = at * np.exp((ks[head:] - (k0 - lead)) * math.log1p(-escape))
        if at > 0.0 and masses[-1] < _UNDERFLOW:  # the closed form decreases in k
            raise ProbabilityUnderflowError(f"the mass at k={ks[-1]} underflows below {_UNDERFLOW}")
    return masses


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
    ks = _int_tuple(ks, "ks", 0)
    chain, entry, _ = _start(source, target, "in_target")
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
    # with w in place of q, the series term at step K + 1 is e Q^K w
    steps = max(ks, default=-1) + 1
    return _absorption_series(chain.survive, w, entry, steps)[list(ks)]


def theta_exact(source: MarkovSource, target: PatternTarget) -> float:
    """Escaping proportion 1 - mu(A n T^-p A)/mu(A) at the word's minimal period p.

    It is 1 for a word with no border (p = l). A word with several periods
    below l, such as 0000001000000, has no single finite-l theta: this value,
    P_A(R >= l) and the escape rate differ by about l mu(A), and agree only in
    the limit along a family. The minimal period is used.
    """
    mu_a = source.word_measure(target.word)
    if mu_a == 0.0:
        raise ValidationError(f"target {target.word} has zero measure under this source")
    l, p = target.length, target.minimal_period
    # A n T^-p A is the cylinder of the word extended by its last p symbols
    return 1.0 if p == l else 1.0 - source.word_measure(target.word + target.word[l - p :]) / mu_a


def consecutive_joint_pmf(
    source: MarkovSource,
    target: PatternTarget,
    gaps: Sequence[int],
    from_entry: bool = False,
) -> float:
    """Exact probability that the first d inter-visit gaps equal ``gaps``.

    A full match fixes the chain's state, so the gaps are independent and the
    law is a product of `masses_at` reads, from the stationary law (from the
    target, of positive measure, when ``from_entry``) then of return times. A
    leg past the crossover is (u.q) lambda^(k - K0), within 1e-13 relative of
    the series; before it, it is the series' mass bit for bit.
    """
    gaps = _int_tuple(gaps, "gaps", 1, 2**63)
    if not gaps:
        raise ValidationError("gap list must be nonempty")
    start = "in_target" if _flag(from_entry, "from_entry") else "stationary"
    legs = masses_at(source, target, start, gaps[:1])
    if legs[0] != 0.0 and len(gaps) > 1:
        later, where = np.unique(gaps[1:], return_inverse=True)
        legs = [legs[0], *masses_at(source, target, "in_target", later)[where]]
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


def verify_inducing_identity(hit: ExactPMF, ret: ExactPMF, mu_a: float) -> float:
    """Max |mu(phi_A = k) - mu(A n {phi_A >= k})| over every k that ``hit`` covers.

    ``hit`` is the stationary hitting law and ``ret`` the return law of a
    target A of measure ``mu_a``, both from k = 1 and ``ret`` at least as
    long as ``hit``. The left side is read from ``hit``, the right side is
    mu_a times the survival function of ``ret``.
    """
    horizon = max(hit.masses.size, 1)  # a law of no masses checks nothing: refused
    _require_horizon(hit, horizon, "hitting")
    _require_horizon(ret, horizon, "return")
    # surv[k] = tail + masses[k:], accumulated backwards from the tail
    surv = np.cumsum(np.concatenate(([ret.tail], ret.masses[::-1])))[::-1]
    return float(np.max(np.abs(hit.masses - mu_a * surv[:horizon])))


def require_shift_split_budget(source: MarkovSource, target: PatternTarget, j_max: int) -> None:
    """Refuse a shift split past the series kernel's budget before any law is computed.

    The split of `verify_shift_identity_grid` is one series of j_max + l
    steps from the n rows of a 2n-state chain, n = alphabet + l: 2n^2 (j_max
    + l) state updates, checked as `_absorption_series` checks them.
    """
    n = source.alphabet_size + target.length
    _require_budget(2 * n * n * (j_max + target.length))


def verify_shift_identity_grid(
    source: MarkovSource, target: PatternTarget, ret: ExactPMF, j_max: int, m_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the j-shift occurrence identity on 1 <= j <= j_max, 1 <= m <= m_max.

    Returns (lhs, rhs) as (j_max, m_max) arrays with cell [j-1, m-1] for (j, m).
    Left: mu({phi_A <= j} n {phi_A o T^j = m}). Split the stationary mass
    into u, with no occurrence start yet, and f, with one: u steps by the
    survival kernel Q and hands its absorption q to f's full-match state e,
    and f steps by the full kernel K. That is one substochastic chain on 2n
    states, stacked = [[Q, q e^T], [0, K]] from [stationary, 0], and f after
    the j + l - 1 steps that complete an occurrence starting at j is one
    series of its transpose. One sweep over m then runs every f on to the
    next occurrence. Every entry is nonnegative, so nothing cancels.
    Right: mu(A n {m <= phi_A < m + j}) from ``ret``, the target's return
    law to at least j_max + m_max - 1.
    """
    j_max, m_max = _int_tuple((j_max, m_max), "j_max and m_max", 1)
    horizon = m_max + j_max - 1
    _require_horizon(ret, horizon, "return")
    chain, stationary, _ = _start(source, target, "stationary")
    mu_a = source.word_measure(target.word)
    n, l = chain.n_states, target.length
    stacked = np.block([[chain.survive, np.outer(chain.into_match, chain.entry_vector())],
                        [np.zeros((n, n)), chain.kernel]])
    start = np.concatenate((stationary, np.zeros(n)))
    # f_i after s steps is e_(n+i) (stacked^T)^s start: s = j + l - 1 is term j + l
    series = _absorption_series(stacked.T, start, np.eye(2 * n)[n:], j_max + l)
    lhs = _absorption_series(chain.survive, chain.into_match, series[:, l:].T, m_max)
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

    Tuples are encoded base-S with the oldest symbol in the lowest digit and
    the newest in the highest: index = sum_t block[t] * S^t. Writing
    index = t + S * m, block (t, m) moves to (m, c), index m + S^(r-1) * c,
    with the transition out of its newest symbol, ``index // S^(r-1)``. At
    rank >= 2 that symbol is m // S^(r-2), whatever the dropped symbol t, so
    a step adds the S strided columns ``v[t::S]`` in t's order into a
    contiguous marginal (`_drop_oldest`) and appends c to it with one
    contiguous broadcast multiply (`_append_symbol`). At rank 1 the newest
    symbol is t, and the step sums the products v[t] P[t, c] over t, as a
    scatter does, bit for bit.

    Summing before multiplying rounds differently from a scatter's sum of
    products. Against the scatter in extended precision, every entry after
    k steps lies within 2 S k 2^-53 relative, and the zero entries are the
    same. Transitions of 1/2 (the fair coin) scale exactly, so there the step
    is the scatter's bit for bit at every rank. Targets are arbitrary sets of
    equal-rank tuples, which covers unions of cylinders.

    The laws of rank-r targets (`_block_pmf`) never hold the S^r vector: they
    step the rank-(r-1) chain on its marginal and read each target block as
    a transition of it. They keep the S^r loop's bits on the fair coin at
    every rank and for every source at rank <= 2. Elsewhere the mass
    absorbed at chain step j lies within 2 S j 2^-53 relative of the S^r
    scatter loop run in extended precision, and its zeros are exact; j is k
    for a return time k and k + r - 1 for a hitting time k.
    """

    def __init__(self, source: MarkovSource, rank: int) -> None:
        (rank,) = _int_tuple((rank,), "rank", 1)
        self.source = source
        self.rank = rank
        self.n_states = _block_states(source.alphabet_size, rank)

    def stationary_blocks(self) -> np.ndarray:
        """Stationary law of length-r blocks."""
        v = np.array(self.source.stationary, dtype=float)
        for _ in range(self.rank - 1):
            v = _append_symbol(self.source, v)
        return v

    def step(self, v: np.ndarray) -> np.ndarray:
        """One full-kernel step of a distribution over blocks."""
        if self.rank == 1:
            return np.add.reduce(v[:, None] * self.source.transitions, axis=0)
        return _append_symbol(self.source, _drop_oldest(v, self.source.alphabet_size))


def _block_states(s: int, rank: int) -> int:
    """S^rank, the states of the rank-``rank`` block chain, within the budget."""
    n = s**rank
    if n > _BUDGET_STATES:
        raise BudgetExceededError(
            f"block chain needs {n} states for rank {rank}, budget is {_BUDGET_STATES}"
        )
    return n


def _append_symbol(source: MarkovSource, v: np.ndarray) -> np.ndarray:
    """The law of (r+1)-blocks that extends ``v``, a law of r-blocks, by one
    transition out of each block's newest symbol, its highest digit. The new
    symbol c becomes the new highest digit, so each c is one contiguous row."""
    s = source.alphabet_size
    out = np.empty(v.size * s)
    np.multiply(v.reshape(1, s, -1), source.transitions.T[:, :, None], out=out.reshape(s, s, -1))
    return out


def _drop_oldest(v: np.ndarray, s: int) -> np.ndarray:
    """The law of the newest r-1 symbols of ``v``, a law of r-blocks: the S
    strided columns of the oldest symbol t, its lowest digit, added in t's
    order."""
    marginal = v[::s] + v[1::s]
    for t in range(2, s):
        marginal += v[t::s]
    return marginal


def _word_rows(words, s: int) -> np.ndarray:
    """The words of a block target as an (n, rank) int64 array of symbols in [0, s).

    ``words`` is a sequence of equal-length words or a 2-D array with one
    word per row; an array of another dimension is refused as words of
    unequal length. A nonempty integer array is range-checked with one min
    and one max. Anything else (lists, other dtypes, an array that fails
    that check) goes symbol by symbol as a list, so bools and fractions are
    refused alike and a refusal names the first offending word, not the
    whole set.
    """
    if isinstance(words, np.ndarray):
        if words.ndim != 2:
            raise ValidationError("all words in a block target must have equal length")
        if words.size and words.dtype.kind in "iu" and words.min() >= 0 and words.max() < s:
            return words.astype(np.int64, copy=False)
        words = words.tolist()
    if not words:
        raise ValidationError("word set must be nonempty")
    rank = len(words[0])
    if any(len(w) != rank for w in words):
        raise ValidationError("all words in a block target must have equal length")
    try:
        symbols = _int_tuple(itertools.chain.from_iterable(words), "word symbols", 0, s)
    except ValidationError:
        for w in words:
            _int_tuple(w, "word symbols", 0, s)
        raise
    return np.array(symbols, dtype=np.int64).reshape(len(words), rank)


def _transition_absorption(
    lower: BlockChain, target: np.ndarray, marginal: np.ndarray, phantom: int, k_max: int
) -> np.ndarray:
    """Masses a rank-r target absorbs at steps 1..k_max, carried on the marginal.

    ``lower`` is the rank-(r-1) chain and ``marginal`` the marginal of the
    first rank-r step, after which ``phantom`` steps run unrestricted. A
    target block b is the transition b mod S^(r-1) -> b // S of ``lower``'s
    blocks, appending the symbol b // S^(r-1) and absorbing
    marginal[b mod S^(r-1)] P[newest symbol of b mod S^(r-1), b // S^(r-1)].
    After each step the entries m' of the next marginal that a target block
    feeds are recomputed from their kept predecessors (t + S m') mod S^(r-1),
    one per dropped symbol t, summed in t's order as the rank-r step sums
    them.
    """
    s = lower.source.alphabet_size
    p = lower.source.transitions
    n = lower.n_states
    newest = n // s  # the place of a lower block's newest symbol
    src = target % n
    into = p[src // newest, target // n]
    fed = np.unique(target // s)
    blocks = fed * s + np.arange(s, dtype=np.int64)[:, None]
    pred = blocks % n
    weight = p[pred // newest, fed // newest]
    kept = np.where(np.isin(blocks, target), 0.0, 1.0)
    if lower.rank == 1:  # the predecessor t is the symbol the transition leaves
        coef, post = kept * weight, 1.0
    else:  # every predecessor of m' leaves the second newest symbol of m'
        coef, post = kept, weight[0]
    for _ in range(phantom):
        marginal = lower.step(marginal)
    masses = np.empty(k_max)
    for k in range(k_max):
        masses[k] = (marginal[src] * into).sum()
        if k + 1 == k_max:
            break
        nxt = lower.step(marginal)
        terms = marginal[pred] * coef
        for row in terms[1:]:  # in t's order; a reduce sums one column of 9+ pairwise
            terms[0] += row
        nxt[fed] = terms[0] * post
        marginal = nxt
    return masses


def _block_pmf(
    source: MarkovSource,
    words: Sequence[Sequence[int]] | np.ndarray,
    k_max: int,
    from_inside: bool,
) -> tuple[ExactPMF, float]:
    """Hitting or return law of a union of equal-rank cylinders.

    Returns (pmf, target measure). ``words`` is a sequence of equal-length
    words or a 2-D integer array with one word per row (`_word_rows`).
    ``from_inside`` starts from the
    stationary law conditioned on the target (return law); otherwise from
    the stationary law with the first rank-1 steps run unrestricted, because
    matches there would correspond to occurrence starts <= 0.

    The measures and the start come from the rank-r stationary blocks, at
    rank r >= 2 one symbol appended to the rank-(r-1) chain's. At rank 1 the
    S states step and the target is zeroed after each step. At rank r >= 2,
    after every step v[(m, c)] = marginal[m] P[newest symbol of m, c]
    outside the target, so the S^r vector is freed once its marginal is
    formed and `_transition_absorption` carries the S^(r-1) marginal. No
    entry is formed by a subtraction, so a structurally impossible time has
    mass exactly 0. The fair coin's laws at every rank, and every law at
    rank <= 2, are the S^r loop's bit for bit. Elsewhere the mass absorbed
    at chain step j (j = k for a return time k, k + r - 1 for a hitting
    time) lies within 2 S j 2^-53 relative of the S^r scatter loop run in
    extended precision, with the same zeros.
    """
    (k_max,) = _int_tuple((k_max,), "k_max", 1)
    s = source.alphabet_size
    rows = _word_rows(words, s)
    rank = rows.shape[1]
    _int_tuple((rank,), "rank", 1)  # words of length 0, refused as `BlockChain` refuses rank 0
    _require_budget((k_max + rank) * _block_states(s, rank) * s)
    # the distinct blocks in the words' lexicographic order, which every sum
    # over them keeps, encoded as `BlockChain` encodes blocks
    places = s ** np.arange(rank, dtype=np.int64)
    _, first = np.unique(rows @ places[::-1], return_index=True)
    target = rows[first] @ places
    # rank 1 steps its own S states; rank r >= 2 steps the (r-1)-block marginal
    chain = BlockChain(source, max(rank - 1, 1))
    v = chain.stationary_blocks()
    if rank >= 2:
        v = _append_symbol(source, v)
    mu_target = float(v[target].sum())
    if mu_target <= 0.0:
        raise ValidationError("target set has zero stationary measure")
    if from_inside:
        inside = v[target] / mu_target
        v = np.zeros_like(v)
        v[target] = inside
        phantom = 0
    else:
        phantom = rank - 1
    # summed in the lexicographic order of the blocks, oldest symbol first
    total_in = float(v.reshape((s,) * rank).transpose().ravel().sum())
    if rank == 1:
        masses = np.empty(k_max)
        for k in range(k_max):
            v = chain.step(v)
            masses[k] = v[target].sum()
            v[target] = 0.0
    else:
        marginal = _drop_oldest(v, s)
        del v
        masses = _transition_absorption(chain, target, marginal, phantom, k_max)
    return ExactPMF(support_start=1, masses=masses, tail=_closing_tail(total_in, masses)), mu_target


def block_hitting_pmf(source: MarkovSource, target: PatternTarget, k_max: int) -> ExactPMF:
    """Stationary hitting law via the S^l block chain (reference backend)."""
    pmf, _ = _block_pmf(source, [target.word], k_max, from_inside=False)
    return pmf


def block_return_pmf(source: MarkovSource, target: PatternTarget, k_max: int) -> ExactPMF:
    """Return law via the S^l block chain (reference backend)."""
    pmf, _ = _block_pmf(source, [target.word], k_max, from_inside=True)
    return pmf


def block_set_return_pmf(
    source: MarkovSource, words: Sequence[Sequence[int]] | np.ndarray, k_max: int
) -> tuple[ExactPMF, float]:
    """Return law and measure of a union of equal-rank cylinders, given as
    equal-length words or as a 2-D integer array with one word per row."""
    return _block_pmf(source, words, k_max, from_inside=True)
