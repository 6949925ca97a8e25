"""Independent brute-force oracles used by the test suite.

The brute_* functions recompute laws by exhaustive enumeration over all
symbol strings, weighted by the Markov measure, touching none of the
package's chain machinery. Memory is S^(k+l) x (k+l) integers, so keep word
lengths <= 6 and horizons <= 12.

`stepwise_hitting_masses` is the other kind of reference: the product-chain
oracle's original one-matvec-per-step iteration, kept so that the blocked
kernel can be held to it at any horizon. `scatter_block_step` likewise keeps
the block chain's original scatter step, so that the shift-structured step can
be held to it bit for bit. `allocating_replica_chunk`, with the allocating
branch kernels of `GAUSS_ALLOCATING` and `DOUBLING_ALLOCATING`, keeps the
replica estimator's original boolean-mask register kernel for the same use.

`gauss_branch_prob` and `gauss_branch_cum` are the Gauss map's backward branch
law in closed form, which the sampler tests check the sampler against.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from hittimes.branch_systems import DIGIT_CAP, DOUBLING, GAUSS, make_rng
from hittimes.errors import SamplingError, ValidationError
from hittimes.estimators import OVERFLOW_MARK, _prime_mask
from hittimes.markov_pattern import build_automaton
from hittimes.markov_pattern.exact import ProductChain, _escape_initial


def _enumerate_digits(s: int, m: int) -> np.ndarray:
    """All s^m strings as an (m, s^m) digit matrix."""
    n = s**m
    idx = np.arange(n, dtype=np.int64)
    digits = np.empty((m, n), dtype=np.int64)
    for t in range(m - 1, -1, -1):
        digits[t] = idx % s
        idx //= s
    return digits


def _string_weights(p: np.ndarray, pi: np.ndarray, digits: np.ndarray) -> np.ndarray:
    w = pi[digits[0]].astype(float).copy()
    for t in range(digits.shape[0] - 1):
        w *= p[digits[t], digits[t + 1]]
    return w


def _first_occurrence(digits: np.ndarray, word, start_lo: int, start_hi: int) -> np.ndarray:
    """First occurrence start of the word in [start_lo, start_hi], 0 if none."""
    n = digits.shape[1]
    first = np.zeros(n, dtype=np.int64)
    for n0 in range(start_hi, start_lo - 1, -1):
        match = np.ones(n, dtype=bool)
        for i, c in enumerate(word):
            match &= digits[n0 + i] == c
        first[match] = n0
    return first


def brute_hitting_masses(p: np.ndarray, pi: np.ndarray, word, k_max: int) -> np.ndarray:
    """P(phi_A = k), k = 1..k_max, under the stationary law, by enumeration."""
    l = len(word)
    digits = _enumerate_digits(p.shape[0], k_max + l)
    w = _string_weights(p, pi, digits)
    first = _first_occurrence(digits, word, 1, k_max)
    return np.array([w[first == k].sum() for k in range(1, k_max + 1)])


def brute_return_masses(p: np.ndarray, pi: np.ndarray, word, k_max: int) -> np.ndarray:
    """mu_A(phi_A = k), k = 1..k_max, by enumerating continuations of the word."""
    l = len(word)
    s = p.shape[0]
    digits = _enumerate_digits(s, k_max)
    w = np.ones(digits.shape[1])
    w *= p[word[-1], digits[0]]
    for t in range(k_max - 1):
        w *= p[digits[t], digits[t + 1]]
    full = np.concatenate([np.tile(np.array(word)[:, None], (1, digits.shape[1])), digits])
    first = _first_occurrence(full, word, 1, k_max)
    return np.array([w[first == k].sum() for k in range(1, k_max + 1)])


def brute_shift_identity_lhs(
    p: np.ndarray, pi: np.ndarray, word, j: int, m: int
) -> float:
    """mu({phi_A <= j} n {phi_A o T^j = m}) by enumeration."""
    l = len(word)
    total_len = j + m + l
    digits = _enumerate_digits(p.shape[0], total_len)
    w = _string_weights(p, pi, digits)
    first_early = _first_occurrence(digits, word, 1, j)
    first_late = _first_occurrence(digits, word, j + 1, j + m)
    event = (first_early > 0) & (first_late == j + m)
    return float(w[event].sum())


def brute_consecutive_joint(
    p: np.ndarray, pi: np.ndarray, word, gaps, from_entry: bool
) -> float:
    """P(first d inter-visit gaps = gaps) by enumeration."""
    l = len(word)
    horizon = sum(gaps)
    if from_entry:
        s = p.shape[0]
        digits = _enumerate_digits(s, horizon)
        w = np.ones(digits.shape[1])
        w *= p[word[-1], digits[0]]
        for t in range(horizon - 1):
            w *= p[digits[t], digits[t + 1]]
        full = np.concatenate(
            [np.tile(np.array(word)[:, None], (1, digits.shape[1])), digits]
        )
    else:
        full = _enumerate_digits(p.shape[0], horizon + l)
        w = _string_weights(p, pi, full)
    # occurrences must appear exactly at the cumulative gap starts and nowhere
    # else among starts 1..sum(gaps)
    want = set(int(x) for x in np.cumsum(gaps))
    ok = np.ones(full.shape[1], dtype=bool)
    for n0 in range(1, horizon + 1):
        match = np.ones(full.shape[1], dtype=bool)
        for i, c in enumerate(word):
            match &= full[n0 + i] == c
        ok &= match if n0 in want else ~match
    return float(w[ok].sum())


class _NeumaierSum:
    """Neumaier running sum: value() is exact to one final rounding."""

    def __init__(self) -> None:
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t

    def value(self) -> float:
        return self._s + self._c


def stepwise_hitting_masses(source, target, initial, k_max: int) -> tuple[np.ndarray, float]:
    """(masses, tail) of `hitting_pmf` by one substochastic matvec per chain step.

    ``initial`` takes the same values as in `hitting_pmf`; inputs are assumed
    valid. The tail is not clipped at 0.
    """
    chain = ProductChain(source, build_automaton(target, source.alphabet_size))
    l = target.length
    masses = np.zeros(k_max)
    scale = 1.0
    early_total = 0.0
    # absorption at chain step m realizes the time k = m - lead
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
        for k, m in early.items():
            if 1 <= k <= k_max:
                masses[k - 1] = m * scale
        lead = -(target.period_hint or 0)  # block steps already consumed

    total_in = float(v.sum()) * scale + early_total
    absorbed = _NeumaierSum()
    for x in masses:
        if x:
            absorbed.add(float(x))
    sub = chain.survive
    into = chain.into_match
    for m in range(1, k_max + lead + 1):
        hit = float(v @ into) * scale
        k = m - lead
        if k >= 1:
            masses[k - 1] += hit
            absorbed.add(hit)
        v = v @ sub
    return masses, total_in - absorbed.value()


def scatter_block_step(chain, v: np.ndarray) -> np.ndarray:
    """One full-kernel `BlockChain` step by an unbuffered scatter per symbol."""
    s = chain.source.alphabet_size
    last = np.arange(chain.n_states, dtype=np.int64) % s
    shift = (np.arange(chain.n_states, dtype=np.int64) % s ** (chain.rank - 1)) * s
    out = np.zeros_like(v)
    for c in range(s):
        np.add.at(out, shift + c, v * chain.source.transitions[last, c])
    return out


def gauss_branch_prob(k: int, y: float) -> float:
    """Backward branch probability p_k(y) = (1+y) / ((k+y)(k+y+1))."""
    if k < 1:
        raise ValidationError(f"digit must be >= 1, got {k}")
    return (1.0 + y) / ((k + y) * (k + y + 1.0))


def gauss_branch_cum(k_top: int, y: float) -> float:
    """Telescoped cumulative sum_{k<=K} p_k(y) = 1 - (1+y)/(K+1+y)."""
    if k_top < 1:
        raise ValidationError(f"digit must be >= 1, got {k_top}")
    return 1.0 - (1.0 + y) / (k_top + 1.0 + y)


def _gauss_branch_array(y: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    raw = np.ceil((1.0 + y) / (1.0 - u) - 1.0 - y)
    k = np.maximum(raw, 1.0)
    if np.any(k > DIGIT_CAP):
        raise SamplingError("digit above cap 2**62; refusing to wrap")
    k = k.astype(np.int64)
    return k, 1.0 / (k + y)


def _doubling_branch_array(y: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    bit = (u >= 0.5).astype(np.int64)
    return bit, (y + bit) / 2.0


# branch_array(y, u) -> (int64 digits, new preimages), allocating both
GAUSS_ALLOCATING = dataclasses.replace(GAUSS, branch_array=_gauss_branch_array)
DOUBLING_ALLOCATING = dataclasses.replace(DOUBLING, branch_array=_doubling_branch_array)


def allocating_replica_chunk(
    system,
    target,
    table: np.ndarray | None,
    n: int,
    d: int,
    max_steps: int,
    seed: int,
    substream: int,
    mark_cap: int,
) -> tuple[dict[tuple[int, ...], int], int]:
    """`estimators._replica_chunk` as it was before the in-place step: fresh
    arrays every step and one boolean-mask update per register. ``system``
    must carry an allocating ``branch_array``."""
    rng = make_rng(seed, substream)
    y = system.stationary_array(rng.random(n))
    reg_pos = np.zeros((d, n), dtype=np.int64)
    reg_val = np.zeros((d, n), dtype=np.int64)
    if table is not None:
        alpha = table.shape[1] - 1
        full = table.shape[0] - 1
        state = np.zeros(n, dtype=np.int64)
    for step in range(1, max_steps + 1):
        u = rng.random(n)
        k, y = system.branch_array(y, u)
        if table is None:
            hit = k >= target.threshold
            if target.prime_variant and hit.any():
                sub = np.zeros_like(hit)
                sub[hit] = _prime_mask(k[hit])
                hit = sub
        else:
            state = table[state, np.minimum(k, alpha)]
            hit = state == full
        if hit.any():
            for r in range(d - 1, 0, -1):
                reg_pos[r][hit] = reg_pos[r - 1][hit]
                reg_val[r][hit] = reg_val[r - 1][hit]
            reg_pos[0][hit] = step
            reg_val[0][hit] = k[hit]
    complete = reg_pos[d - 1] > 0
    n_complete = int(np.count_nonzero(complete))
    censored = n - n_complete
    if n_complete == 0:
        return {}, censored
    taus = np.empty((d, n_complete), dtype=np.int64)
    taus[0] = max_steps - reg_pos[0][complete] + 1
    for j in range(1, d):
        taus[j] = reg_pos[j - 1][complete] - reg_pos[j][complete]
    columns = []
    for j in range(d):
        columns.append(taus[j])
        if table is None:
            marks = reg_val[j][complete].copy()
            marks[marks > mark_cap] = OVERFLOW_MARK
            columns.append(marks)
    keys = np.stack(columns, axis=1)
    uniq, cnt = np.unique(keys, axis=0, return_counts=True)
    return {tuple(int(x) for x in row): int(c) for row, c in zip(uniq, cnt)}, censored
