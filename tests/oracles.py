"""Independent brute-force oracles used by the test suite.

The brute_* functions recompute laws by exhaustive enumeration over all
symbol strings, weighted by the Markov measure, touching none of the
package's chain machinery. Memory is S^(k+l) x (k+l) integers, so keep word
lengths <= 6 and horizons <= 12.

`stepwise_hitting_masses` is the other kind of reference: the product-chain
oracle's original one-matvec-per-step iteration, kept so that the blocked
kernel can be held to it at any horizon. `stepwise_shift_lhs` keeps the shift
identity's original matched/unmatched step loop and `matrix_power_excess` the
return excess's original matrix power per K, for the same use.
`scatter_block_step` likewise keeps the block chain's original scatter step,
so that the factored step can be held to it: run in long double, it is the
reference of the step's stated rounding bound, and in double it is the step
bit for bit on the fair coin and at rank 1. `full_vector_block_pmf` keeps
the block laws' original loop over the whole S^r vector, in the original
encoding with the newest symbol lowest, which the laws on the S^(r-1)
marginal are held to, through that step in either precision; it reads the
chain through `digit_reversal`.
`generation_order_replica_chunk` replays the replica chunk's draws and
reads each replica's materialized digits with `scan_hits`, so that the chunk
can be held to it exactly. `backward_register_replica_chunk` keeps the chunk
as it was before replicas stopped at their d-th hit, the old-order sample
that the two-sample tests compare the chunk's law with. `dict_chunk_tail`
and `dict_first_passage` keep the count table as it was before it stayed two
arrays: each chunk's rows summed into a dict of key tuples, and the chunks'
dicts added key by key, so that the array sum and merge can be held to them;
`pmf_dict` reads an `EmpiricalPMF` back as such a dict.
`scalar_stream` keeps `generate_stream`'s original loop, one scalar backward
step per digit (`scalar_steps`, which looks the step up by system name), so
that the lane-parallel stream can be held to it bit for bit; `rotation_step`
is the step of a test system that does not contract.
`dict_product_kernel` keeps `ProductChain`'s original kernel, built pair by
pair through a (state, symbol) dict, and `scalar_first_match` the original
one-symbol-at-a-time walk of the occurrence automaton, so that the chain's
one-scatter kernel and the counterexample's table walk can be held to them.

`series_consecutive_joint_pmf` keeps `consecutive_joint_pmf`'s original
body, its own product chain and two series to the largest gap, so that the
product of `masses_at` reads can be held to it.

`mpmath_absorbed` is the closed-form tails' reference: the absorbed masses
v Q^(m-1) q of the same float kernel, by binary powers of Q in 50-digit
arithmetic, so that a mass at any step m costs log2 m products.

`gauss_branch_prob` and `gauss_branch_cum` are the Gauss map's backward branch
law in closed form, which the sampler tests check the sampler against.

`chi_square_gof` is the goodness-of-fit test the statistical tests score
counts with. It lives here, not in the package, because it needs
`scipy.stats` and the package imports no SciPy.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy import stats

from hittimes.branch_systems import (
    DigitStream,
    doubling_branch_sample,
    gauss_branch_sample,
    make_rng,
)
from hittimes.errors import ProbabilityUnderflowError, ValidationError, _int_tuple
from hittimes.estimators import (
    DEFAULT_MARK_CAP_EXCESS,
    OVERFLOW_MARK,
    _prime_mask,
    _replica_rows,
    scan_hits,
)
from hittimes.markov_pattern import PatternTarget, build_automaton
from hittimes.markov_pattern.exact import (
    _UNDERFLOW,
    BlockChain,
    ExactPMF,
    ProductChain,
    _absorption_series,
    _closing_tail,
)


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


def series_consecutive_joint_pmf(source, target, gaps, from_entry: bool = False) -> float:
    """`consecutive_joint_pmf` as it was: the first gap's mass from the
    stationary law (or a return mass when ``from_entry``), each later gap's
    return mass, all from series of the product chain to the largest gap."""
    gaps = _int_tuple(gaps, "gaps", 1)
    if not gaps:
        raise ValidationError("gap list must be nonempty")
    if from_entry and source.word_measure(target.word) == 0.0:
        raise ValidationError("cannot condition on a target of zero measure")
    chain = ProductChain(source, target)
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


def stepwise_hitting_masses(source, target, initial, k_max: int) -> tuple[np.ndarray, float]:
    """(masses, tail) of `hitting_pmf` by one substochastic matvec per chain step.

    ``initial`` takes the same values as in `hitting_pmf`; inputs are assumed
    valid. The tail is not clipped at 0.
    """
    chain = ProductChain(source, target)
    # absorption at chain step m realizes the time k = m - lead
    if initial == "stationary":
        v = chain.stationary_vector()
        lead = target.length - 1  # occurrence starting at k completes at step k + l - 1
    else:
        v = chain.entry_vector()
        lead = 0
    total_in = float(v.sum())
    masses = np.zeros(k_max)
    absorbed = _NeumaierSum()
    sub = chain.survive
    into = chain.into_match
    for m in range(1, k_max + lead + 1):
        hit = float(v @ into)
        k = m - lead
        if k >= 1:
            masses[k - 1] += hit
            absorbed.add(hit)
        v = v @ sub
    return masses, total_in - absorbed.value()


def stepwise_shift_lhs(source, target, j_max: int, m_max: int) -> np.ndarray:
    """Left side of `verify_shift_identity_grid` by one matvec per chain step.

    u holds the stationary mass with no occurrence start in 1..j yet and f the
    mass with one; both step by the full kernel, and the mass u puts on the
    full match moves to f. Row j-1 is f after the j + l - 1 steps that
    complete an occurrence starting at j, and each row then takes one
    survival step per m. The loop runs in ``np.longdouble``: in float64 its
    own rounding drifts by 2.3e-14 relative over the 700 rows of 0^20 under
    (0.3, 0.7), more than the tolerance it is a reference for.
    """
    chain = ProductChain(source, target)
    kernel, survive, into = (
        a.astype(np.longdouble) for a in (chain.kernel, chain.survive, chain.into_match)
    )
    l = target.length
    u = chain.stationary_vector().astype(np.longdouble)
    f = np.zeros_like(u)
    rows = np.empty((j_max, u.size), dtype=np.longdouble)
    for step in range(1, j_max + l):
        u = u @ kernel
        f = f @ kernel
        f[-1] += u[-1]
        u[-1] = 0.0
        if step >= l:
            rows[step - l] = f
    lhs = np.empty((j_max, m_max), dtype=np.longdouble)
    for m in range(m_max):
        lhs[:, m] = rows @ into
        rows = rows @ survive
    return lhs


def matrix_power_excess(source, target, ks) -> np.ndarray:
    """`return_excess` as e Q^K w with one matrix power per K.

    w solves (D - Q) w = 1 in exact rationals (every float is one), where D
    holds the row masses of [Q | q], so each row counts as exactly stochastic,
    as the GTH pivots do. Solving with I in place of D would move E[R] of
    0^20 under (0.3, 0.7) by 2.3e-6 relative: the rows sum to 1 only to
    rounding, and cond(I - Q) is about 1/mu(A).
    """
    chain = ProductChain(source, target)
    n = chain.n_states
    q = [[Fraction(x) for x in row] for row in chain.survive.tolist()]
    a = [[-x for x in row] + [Fraction(1)] for row in q]
    for i, into in enumerate(chain.into_match.tolist()):
        a[i][i] = Fraction(into) + sum(q[i]) - q[i][i]
    for k in range(n):  # Gaussian elimination; an M-matrix needs no pivoting
        for i in range(k + 1, n):
            ratio = a[i][k] / a[k][k]
            for c in range(k, n + 1):
                a[i][c] -= ratio * a[k][c]
    w = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        w[k] = (a[k][n] - sum(a[k][c] * w[c] for c in range(k + 1, n))) / a[k][k]
    w = np.array([float(x) for x in w])
    return np.array([np.linalg.matrix_power(chain.survive, k)[-1] @ w for k in ks])


def dict_product_kernel(source, target) -> np.ndarray:
    """`ProductChain`'s kernel as it was built before the one scatter: the
    reachable (automaton state, last symbol) pairs listed as (0, c) for every
    symbol c, then (s, word[s-1]) for s = 1..l, and every (pair, symbol) move
    added onto zeros through a pair -> index dict."""
    s_count = source.alphabet_size
    table = build_automaton(target, s_count)
    word = target.word
    pairs = [(0, c) for c in range(s_count)]
    pairs += [(s, word[s - 1]) for s in range(1, len(word) + 1)]
    index = {pc: i for i, pc in enumerate(pairs)}
    kernel = np.zeros((len(pairs), len(pairs)))
    for (st, c), i in index.items():
        for c2 in range(s_count):
            kernel[i, index[(int(table[st, c2]), c2)]] += source.transitions[c, c2]
    return kernel


def scalar_first_match(table: np.ndarray, symbols, state: int = 0) -> tuple[int | None, int]:
    """1-based index of the first full match in ``symbols`` and the state
    there, reading one symbol at a time through the automaton ``table`` from
    ``state``; without a match, None and the state after the last symbol."""
    full = table.shape[0] - 1
    for i, c in enumerate(symbols, start=1):
        state = int(table[state, int(c)])
        if state == full:
            return i, state
    return None, state


def scatter_block_step(chain, v: np.ndarray) -> np.ndarray:
    """One full-kernel `BlockChain` step by an unbuffered scatter per symbol.

    Blocks are encoded oldest symbol lowest: block i moves to
    i // S + c S^(r-1) with the transition out of its newest symbol
    i // S^(r-1).
    """
    s = chain.source.alphabet_size
    idx = np.arange(chain.n_states, dtype=np.int64)
    last = idx // s ** (chain.rank - 1)
    shift = idx // s
    out = np.zeros_like(v)
    for c in range(s):
        np.add.at(out, shift + c * s ** (chain.rank - 1), v * chain.source.transitions[last, c])
    return out


def digit_reversal(s: int, rank: int) -> np.ndarray:
    """The permutation that reverses the rank base-s digits of 0..s^rank - 1;
    it is its own inverse."""
    return s ** np.arange(rank, dtype=np.int64) @ _enumerate_digits(s, rank)


def full_vector_block_pmf(source, words, k_max: int, from_inside: bool) -> tuple[ExactPMF, float]:
    """(law, target measure) of `_block_pmf` by the full S^r loop it replaced:
    step the rank-r `BlockChain` and zero the target after each step.

    ``words`` is a list of equal-length words; inputs are assumed valid. The
    loop keeps its vector in its own encoding, newest symbol lowest, and its
    targets in their sorted codes there; it reads the chain's stationary
    blocks and steps through `digit_reversal`. The loop calls
    ``BlockChain.step``, so a test that swaps that method for the scatter in
    long double makes this the scatter loop of the stated bound.
    """
    s = source.alphabet_size
    rank = len(words[0])
    chain = BlockChain(source, rank)
    reverse = digit_reversal(s, rank)
    places = s ** np.arange(rank - 1, -1, -1, dtype=np.int64)
    target = np.unique(np.array(words, dtype=np.int64).reshape(-1, rank) @ places)
    v = chain.stationary_blocks()[reverse]
    mu_target = float(v[target].sum())
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
        v = chain.step(v[reverse])[reverse]
    for k in range(1, k_max + 1):
        v = chain.step(v[reverse])[reverse]
        masses[k - 1] = float(v[target].sum())
        v[target] = 0.0
    return ExactPMF(support_start=1, masses=masses, tail=_closing_tail(total_in, masses)), mu_target


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


def backward_register_replica_chunk(
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
    """The replica chunk as it was before replicas stopped at their
    d-th hit: every replica runs all ``max_steps`` backward steps, and
    registers of its last d backward hits, which are the first d forward hits
    in reverse order, make the key. For word targets ``table`` is the
    occurrence automaton of the *reversed* word. It draws n uniforms every
    step, so it samples the same law as the chunk from other bytes."""
    rng = make_rng(seed, substream)
    y = system.stationary_array(rng.random(n))
    u = np.empty(n)
    k = np.empty(n)
    mask = np.empty(n, dtype=bool)
    # (position, mark) of the last d hits; word cells carry no mark
    reg = np.zeros((d, 2 if table is None else 1, n))
    if table is not None:
        # states are kept premultiplied by the row length, so that
        # state + symbol indexes the flattened table
        alpha = table.shape[1] - 1
        flat = (table * (alpha + 1)).ravel()
        full = flat.size - (alpha + 1)
        state = np.zeros(n, dtype=np.int64)
        idx = np.empty(n, dtype=np.int64)
    for step in range(1, max_steps + 1):
        system.branch_array(y, rng.random(out=u), k)
        if table is None:
            hits = np.flatnonzero(np.greater_equal(k, target.threshold, out=mask))
            if target.prime_variant:
                hits = hits[_prime_mask(k[hits])]
        else:
            np.copyto(idx, np.minimum(k, alpha, out=k), casting="unsafe")
            idx += state
            np.take(flat, idx, out=state)
            hits = np.flatnonzero(np.equal(state, full, out=mask))
        reg[1:, :, hits] = reg[:-1, :, hits]
        reg[0, 0, hits] = step
        if table is None:
            reg[0, 1, hits] = k[hits]
    done = reg[:, :, reg[d - 1, 0] > 0].astype(np.int64)
    censored = n - done.shape[2]
    # forward gaps: the first from the chain's end, then between backward hits
    done[:, 0] = -np.diff(done[:, 0], axis=0, prepend=max_steps + 1)
    if table is None:
        marks = done[:, 1]
        marks[marks > mark_cap] = OVERFLOW_MARK
    # distinct keys with their counts, in lexicographic order; sorting the
    # columns with lexsort is several times faster than np.unique(axis=0)
    keys = done.transpose(2, 0, 1).reshape(-1, d * done.shape[1])
    keys = keys[np.lexsort(keys.T[::-1])]
    first = np.ones(len(keys), dtype=bool)
    np.any(keys[1:] != keys[:-1], axis=1, out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(keys))
    return dict(zip(map(tuple, keys[starts].tolist()), counts.tolist())), censored



def generation_order_replica_chunk(
    system, target, n: int, d: int, max_steps: int, seed: int, substream: int, mark_cap: int
) -> tuple[dict[tuple[int, ...], int], int, int]:
    """`estimators._replica_rows`, summed by key, the slow way, to the byte:
    the same draws, each replica's digits materialized in generation order
    and read with `scan_hits`.

    Step s draws one uniform per replica with fewer than d occurrences, in
    replica order. A replica stops at the step where its d-th occurrence
    ends: its new digit qualifies, or its last l digits spell the word. Then
    `scan_hits` over its digits gives the occurrence starts and marks of its
    key, and must find exactly d of them. Keys come in lexicographic order;
    the last entry counts the replica-steps run.
    """
    rng = make_rng(seed, substream)
    y = system.stationary_array(rng.random(n))
    digits = np.zeros((n, max_steps), dtype=np.int64)
    n_steps = np.zeros(n, dtype=np.int64)
    n_hits = np.zeros(n, dtype=np.int64)
    l = len(target.word or (0,))
    live = np.arange(n)
    for s in range(max_steps):
        if not live.size:
            break
        y_live, k = y[live], np.empty(live.size)
        system.branch_array(y_live, rng.random(live.size), k)
        y[live] = y_live
        digits[live, s] = k
        n_steps[live] += 1
        if target.word is None:
            ended = scan_hits(digits[live, s], target)[0] - 1
        elif s + 1 < l:
            ended = np.empty(0, dtype=np.int64)
        else:
            ended = np.flatnonzero((digits[live, s + 1 - l : s + 1] == target.word).all(axis=1))
        n_hits[live[ended]] += 1
        live = live[n_hits[live] < d]
    counts: dict[tuple[int, ...], int] = {}
    censored = 0
    for r in range(n):
        pos, vals = scan_hits(digits[r, : n_steps[r]], target)
        if n_hits[r] < d:
            assert pos.size < d
            censored += 1
            continue
        assert pos.size == d
        key = []
        for j in range(d):
            key.append(int(pos[j] - (pos[j - 1] if j else 0)))
            if target.word is None:
                key.append(int(vals[j]) if vals[j] <= mark_cap else OVERFLOW_MARK)
        counts[tuple(key)] = counts.get(tuple(key), 0) + 1
    return dict(sorted(counts.items())), censored, int(n_steps.sum())


def dict_chunk_tail(rows: np.ndarray) -> dict[tuple[int, ...], int]:
    """A replica chunk's key rows summed into a dict, the chunk's tail as it
    was before count tables stayed arrays: the rows sorted with lexsort, then
    one entry per distinct key, in lexicographic order."""
    keys = rows[np.lexsort(rows.T[::-1])]
    first = np.ones(len(keys), dtype=bool)
    np.any(keys[1:] != keys[:-1], axis=1, out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(keys))
    return dict(zip(map(tuple, keys[starts].tolist()), counts.tolist()))


def dict_first_passage(
    system, target, n_replicas: int, d: int, max_steps: int, seed: int, chunk_size: int
) -> tuple[dict[tuple[int, ...], int], int, int]:
    """`estimate_first_passage`'s counts, sorted by key, censored count and
    replica-steps as they were merged before count tables stayed arrays: the
    chunks run one after another, and their `dict_chunk_tail` dicts are added
    key by key."""
    table = None
    if target.word is not None:
        alpha = max(2, max(target.word) + 1)
        table = build_automaton(PatternTarget(word=target.word), alpha + 1)
    mark_cap = (target.threshold or 0) + DEFAULT_MARK_CAP_EXCESS
    counts: dict[tuple[int, ...], int] = {}
    censored = steps_run = 0
    for i, start in enumerate(range(0, n_replicas, chunk_size)):
        n = min(chunk_size, n_replicas - start)
        rows, cens, steps = _replica_rows(system, target, table, n, d, max_steps, seed, i, mark_cap)
        censored += cens
        steps_run += steps
        for key, c in dict_chunk_tail(rows).items():
            counts[key] = counts.get(key, 0) + c
    return dict(sorted(counts.items())), censored, steps_run


def pmf_dict(pmf) -> dict[tuple[int, ...], int]:
    """An `EmpiricalPMF`'s table as a dict of key tuples, in key order."""
    return dict(zip(map(tuple, pmf.keys.tolist()), pmf.counts.tolist()))


def rotation_step(y: float, u: float) -> tuple[int, float]:
    """The Gauss digit rule with the rotation y <- frac(y + u) as the step:
    a test system whose orbits never coalesce."""
    k = max(1, math.ceil((1.0 + y) / (1.0 - u) - 1.0 - y))
    y += u
    return k, y - math.floor(y)


SCALAR_STEP = {"gauss": gauss_branch_sample, "doubling": doubling_branch_sample, "rotation": rotation_step}


def scalar_steps(system, y: float, u: np.ndarray) -> tuple[np.ndarray, float]:
    """One scalar backward step of ``system`` per uniform of u from y: the
    digits in generation order and the end point."""
    sample = SCALAR_STEP[system.name]
    digits = []
    for uj in u.tolist():
        k, y = sample(y, uj)
        digits.append(k)
    return np.array(digits, dtype=np.int64), y


def scalar_stream(system, seed: int, n: int, substream: int = 0, start=None) -> DigitStream:
    """`generate_stream` as it was before the lanes: n scalar backward steps
    from a stationary start, uniforms drawn in blocks of 2**16, digits
    returned in reverse generation order. The start is ``start`` of the first
    uniform, or ``system.stationary_array`` of it, as the library draws it,
    when ``start`` is None."""
    rng = make_rng(seed, substream)
    if start is None:
        y = float(system.stationary_array(rng.random(1))[0])
    else:
        y = start(float(rng.random()))
    blocks = []
    for pos in range(0, n, 2**16):
        digits, y = scalar_steps(system, y, rng.random(min(2**16, n - pos)))
        blocks.append(digits)
    return DigitStream(digits=np.concatenate(blocks)[::-1].copy(), anchor_point=y)


def chi_square_gof(
    observed: np.ndarray,
    probs: np.ndarray,
    n_total: int | None = None,
) -> tuple[float, int, float]:
    """Chi-square goodness of fit with deterministic small-cell merging.

    ``n_total`` is the full sample size; observations not covered by the
    listed cells land in a remainder cell with the complementary probability.
    When omitted, the listed cells are taken to be exhaustive. Cells whose
    expected count falls below 10 are pooled into the remainder.
    Returns (statistic, degrees of freedom, p-value).
    """
    obs = np.asarray(observed, dtype=float)
    p = np.asarray(probs, dtype=float)
    if obs.shape != p.shape:
        raise ValidationError("observed and probs must have equal length")
    if np.any(p < 0.0) or p.sum() > 1.0 + 1e-9:
        raise ValidationError("probs must be nonnegative with sum <= 1")
    n = float(n_total) if n_total is not None else obs.sum()
    if n < obs.sum() - 1e-9:
        raise ValidationError("n_total smaller than the listed observations")
    rest_p = max(0.0, 1.0 - p.sum())
    keep = p * n >= 10.0
    stat = float(((obs[keep] - n * p[keep]) ** 2 / (n * p[keep])).sum())
    pooled_p = p[~keep].sum() + rest_p
    pooled_obs = n - obs[keep].sum()
    if pooled_p > 0.0:
        expected = n * pooled_p
        stat += float((pooled_obs - expected) ** 2 / expected)
        df = int(keep.sum())  # kept cells + pooled cell - 1
    else:
        df = int(keep.sum()) - 1
    pvalue = float(stats.chi2.sf(stat, df))
    return stat, df, pvalue


def chi_square_two_sample(a: np.ndarray, b: np.ndarray) -> tuple[float, int, float]:
    """Chi-square test that two count vectors over the same cells share one law.

    Cells where the two samples hold fewer than 20 counts together are pooled
    into one remainder cell. Returns (statistic, degrees of freedom, p-value).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValidationError("the two samples must have equal length")
    keep = a + b >= 20.0
    table = np.stack((a[keep], b[keep]))
    rest = np.array([[a[~keep].sum()], [b[~keep].sum()]])
    if rest.sum() > 0.0:
        table = np.hstack((table, rest))
    stat, pvalue, df, _ = stats.chi2_contingency(table, correction=False)
    return float(stat), int(df), float(pvalue)


def mpmath_absorbed(sub: np.ndarray, into: np.ndarray, runs, dps: int = 50) -> list[list]:
    """v Q^(m-1) q as mpmath numbers at ``dps`` digits, for each (v, steps) of
    ``runs`` and each chain step m of its steps, by binary powers of Q."""
    with mpmath.workdps(dps):
        def to_mp(a):
            return [mpmath.mpf(float(x)) for x in a]

        def times(row, cols):  # row vector times a matrix held as its columns
            return [mpmath.fdot(row, col) for col in cols]

        cols = [to_mp(sub[:, j]) for j in range(sub.shape[1])]
        top = max(max(steps) for _, steps in runs).bit_length()
        powers = [cols]  # the columns of Q^(2^j)
        for _ in range(top - 1):
            rows = list(zip(*powers[-1]))
            powers.append([list(c) for c in zip(*[times(r, powers[-1]) for r in rows])])
        q = to_mp(into)
        out = []
        for v, steps in runs:
            masses = []
            for m in steps:
                w = to_mp(v)
                for j in range(top):
                    if (m - 1) >> j & 1:
                        w = times(w, powers[j])
                masses.append(mpmath.fdot(w, q))
            out.append(masses)
        return out
