"""Monte-Carlo estimation of hitting/return/spatiotemporal laws from digit streams.

Two estimator modes, matching the two conditioning measures of the limit laws:

* replica mode: independent stationary starts, one (possibly censored)
  first-passage observation per replica; samples laws under the invariant
  measure.
* ergodic mode: consecutive inter-hit gaps along one long stationary orbit;
  samples the return law by the ergodic theorem for the induced map. Gaps are
  dependent, so error bars come from batch means, not binomial counts.

Replica generation is vectorized over chunks of fixed size; each chunk owns a
Philox substream keyed by its index, and merging is integer-count addition,
so results are independent of worker scheduling. Because streams are built
backward (see `branch_systems`), a replica's first forward hit is the last
qualifying step of its backward chain; registers of the last d backward hits
therefore capture the first d forward gaps and marks without materializing
the stream. Word hits come from the occurrence automaton of the reversed word
(`markov_pattern.build_automaton`), one table lookup per replica-step, so the
word length is unlimited.

A chunk's step allocates no n-element array: `BranchSystem.branch_array(y, u,
k)` overwrites ``y`` with the preimages and ``k`` with the digits (float64,
integer-valued) and may use ``u`` as scratch; the uniforms are drawn into one
buffer, and every register takes the step's hit indices, computed once.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import stats

from .branch_systems import BranchSystem, DigitStream, make_rng
from .errors import InsufficientDataError, ValidationError
from .markov_pattern.automaton import PatternTarget, build_automaton
from .primes import is_prime

OVERFLOW_MARK = -1  # mark bucket for digit values above the cap
DEFAULT_CHUNK = 2**16
DEFAULT_MARK_CAP_EXCESS = 10**4
DEFAULT_CENSOR_BOUND = 1e-4
DEFAULT_MIN_HITS = 10**4
DEFAULT_BATCH_COUNT = 64


# ---------------------------------------------------------------------------
# Targets and scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetScan:
    """Event scanned for in a digit stream.

    Either a digit threshold {a >= l} (optionally restricted to prime digits)
    or a word over a finite digit alphabet.
    """

    threshold: int | None = None
    prime_variant: bool = False
    word: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if (self.threshold is None) == (self.word is None):
            raise ValidationError("specify exactly one of threshold or word")
        if self.threshold is not None and self.threshold < 2:
            raise ValidationError(f"threshold must be >= 2, got {self.threshold}")
        if self.word is not None:
            w = tuple(int(c) for c in self.word)
            if not w or any(c < 0 for c in w):
                raise ValidationError(f"word must be nonempty with nonnegative symbols, got {w}")
            object.__setattr__(self, "word", w)
            if self.prime_variant:
                raise ValidationError("prime_variant applies to threshold targets only")

    @classmethod
    def digit_threshold(cls, threshold: int, prime_variant: bool = False) -> "TargetScan":
        return cls(threshold=threshold, prime_variant=prime_variant)

    @classmethod
    def word_pattern(cls, word: Sequence[int]) -> "TargetScan":
        return cls(word=tuple(int(c) for c in word))


def _prime_mask(values: np.ndarray) -> np.ndarray:
    """Vectorized primality through the distinct values actually present."""
    uniq = np.unique(values)
    flags = np.array([is_prime(int(v)) for v in uniq], dtype=bool)
    return flags[np.searchsorted(uniq, values)]


def _digits_of(stream: DigitStream | np.ndarray | Sequence[int]) -> np.ndarray:
    if isinstance(stream, DigitStream):
        return stream.digits
    return np.asarray(stream, dtype=np.int64)


def scan_hits(
    stream: DigitStream | np.ndarray | Sequence[int], target: TargetScan
) -> tuple[np.ndarray, np.ndarray]:
    """1-based positions where the target occurs, with the digit values there.

    For word targets the positions are occurrence starts (overlaps counted)
    and the value reported is the digit at the start.
    """
    digits = _digits_of(stream)
    if target.threshold is not None:
        mask = digits >= target.threshold
        if target.prime_variant and mask.any():
            sub = np.zeros_like(mask)
            sub[mask] = _prime_mask(digits[mask])
            mask = sub
        pos = np.nonzero(mask)[0]
        return pos + 1, digits[pos]
    w = np.asarray(target.word, dtype=np.int64)
    lw = w.size
    if digits.size < lw:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    occ = digits[: digits.size - lw + 1] == w[0]
    for i in range(1, lw):
        occ &= digits[i : digits.size - lw + 1 + i] == w[i]
    pos = np.nonzero(occ)[0]
    return pos + 1, digits[pos]


# ---------------------------------------------------------------------------
# Empirical PMFs
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalPMF:
    """Sparse integer-keyed count table of an estimated law.

    ``kind`` is "replica" (independent stationary starts; denominators are
    replica counts) or "ergodic" (gaps along one orbit; denominators are gap
    counts and error bars need batch means). ``censored`` counts replicas
    that never completed the requested observation.
    """

    counts: dict[tuple[int, ...], int]
    n_total: int
    kind: str
    censored: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("replica", "ergodic"):
            raise ValidationError(f"kind must be 'replica' or 'ergodic', got {self.kind!r}")
        if any(c < 0 for c in self.counts.values()) or self.censored < 0:
            raise ValidationError("counts must be nonnegative")


# ---------------------------------------------------------------------------
# Replica-mode first-passage estimation
# ---------------------------------------------------------------------------


def _replica_chunk(
    system: BranchSystem,
    target: TargetScan,
    table: np.ndarray | None,
    n: int,
    d: int,
    max_steps: int,
    seed: int,
    substream: int,
    mark_cap: int,
) -> tuple[dict[tuple[int, ...], int], int]:
    """Counts of (tau, psi) tuples for one chunk of replicas.

    The backward chain runs max_steps steps; registers hold the positions and
    values of the last d qualifying backward steps, which are the first d
    forward hits in reverse order. For word targets ``table`` is the
    occurrence automaton of the reversed word over alpha + 1 symbols: digits
    >= alpha read as the extra symbol alpha, which no word symbol equals.
    """
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


def estimate_first_passage(
    system: BranchSystem,
    target: TargetScan,
    n_replicas: int,
    d: int,
    max_steps: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK,
    mark_cap: int | None = None,
    workers: int = 1,
) -> EmpiricalPMF:
    """Joint empirical law of the first d inter-hit gaps (and marks).

    Each replica is an independent stationary start; cells are keyed
    (tau_1, psi_1, ..., tau_d, psi_d) for threshold targets and
    (tau_1, ..., tau_d) for word targets. Replicas without d hits inside
    max_steps land in the censoring count; a censoring fraction above
    ``DEFAULT_CENSOR_BOUND`` is flagged in ``meta`` (not fatal). Chunk
    boundaries are fixed by ``chunk_size`` alone, so results do not depend on
    ``workers``.
    """
    if n_replicas < 1 or d < 1 or max_steps < 1 or chunk_size < 1:
        raise ValidationError("n_replicas, d, max_steps and chunk_size must all be >= 1")
    if target.word is not None and max_steps < len(target.word):
        raise ValidationError("max_steps shorter than the target word")
    table = None
    if target.word is not None:
        # the backward stream carries the word reversed
        alpha = max(2, max(target.word) + 1)
        table = build_automaton(PatternTarget(word=target.word[::-1]), alpha + 1).table
    if mark_cap is None:
        mark_cap = (target.threshold or 0) + DEFAULT_MARK_CAP_EXCESS
    sizes = [chunk_size] * (n_replicas // chunk_size)
    if n_replicas % chunk_size:
        sizes.append(n_replicas % chunk_size)

    def run(i: int) -> tuple[dict[tuple[int, ...], int], int]:
        return _replica_chunk(
            system, target, table, sizes[i], d, max_steps, seed, i, mark_cap
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(len(sizes))))
    else:
        results = [run(i) for i in range(len(sizes))]
    counts: dict[tuple[int, ...], int] = {}
    censored = 0
    for part, cens in results:
        censored += cens
        for key, c in part.items():
            counts[key] = counts.get(key, 0) + c
    frac = censored / n_replicas
    meta = {
        "system": system.name,
        "seed": int(seed),
        "d": d,
        "max_steps": max_steps,
        "chunk_size": chunk_size,
        "mark_cap": mark_cap,
        "censored_fraction": frac,
        "censoring_flag": frac > DEFAULT_CENSOR_BOUND,
    }
    return EmpiricalPMF(counts=counts, n_total=n_replicas, kind="replica", censored=censored, meta=meta)


# ---------------------------------------------------------------------------
# Ergodic-mode return-law estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErgodicReturnEstimate:
    """Return-law histogram from one orbit, with batch-means error bars."""

    pmf: EmpiricalPMF
    gaps: np.ndarray
    mean_gap: float
    mean_gap_se: float
    n_hits: int


def batch_means_se(values: np.ndarray, batch_count: int = DEFAULT_BATCH_COUNT) -> float:
    """Standard error of the mean of a dependent sequence via batch means."""
    x = np.asarray(values, dtype=float)
    if x.size < 2 * batch_count:
        raise InsufficientDataError(
            f"need at least {2 * batch_count} observations for {batch_count} batches"
        )
    usable = (x.size // batch_count) * batch_count
    means = x[:usable].reshape(batch_count, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batch_count))


def estimate_return_law_ergodic(
    stream: DigitStream | np.ndarray,
    target: TargetScan,
    min_hits: int = DEFAULT_MIN_HITS,
) -> ErgodicReturnEstimate:
    """Histogram of consecutive-hit gaps along one stationary orbit.

    The first hit position is a hitting time, not a return time, so gaps are
    differences between successive hits only. The mean gap estimates the
    reciprocal target measure (Kac); its standard error comes from
    `DEFAULT_BATCH_COUNT` batch means.
    """
    positions, _ = scan_hits(stream, target)
    if positions.size < min_hits:
        raise InsufficientDataError(
            f"only {positions.size} hits; at least {min_hits} required"
        )
    gaps = np.diff(positions)
    uniq, cnt = np.unique(gaps, return_counts=True)
    counts = {(int(g),): int(c) for g, c in zip(uniq, cnt)}
    return ErgodicReturnEstimate(
        pmf=EmpiricalPMF(counts=counts, n_total=int(gaps.size), kind="ergodic"),
        gaps=gaps,
        mean_gap=float(gaps.mean()),
        mean_gap_se=batch_means_se(gaps),
        n_hits=int(positions.size),
    )


def ergodic_cell_se(gaps: np.ndarray, cell_test: Callable[[np.ndarray], np.ndarray]) -> float:
    """Batch-means standard error of a cell frequency along dependent gaps."""
    return batch_means_se(cell_test(np.asarray(gaps)).astype(float))


# ---------------------------------------------------------------------------
# Ratio reports and statistics helpers
# ---------------------------------------------------------------------------

REPORT_HEADER_SUFFIX = ("count", "N", "estimate", "prediction", "ratio", "ci_low", "ci_high")


@dataclass(frozen=True)
class ReportRow:
    """One cell of a ratio report against a closed-form prediction."""

    cell: tuple[int, ...]
    count: int
    n: int
    estimate: float
    prediction: float
    ratio: float
    ci_low: float
    ci_high: float

    def as_tuple(self) -> tuple:
        return self.cell + (
            self.count, self.n, self.estimate, self.prediction, self.ratio, self.ci_low, self.ci_high
        )


def wilson_interval(count: int, n: int) -> tuple[float, float]:
    """99% Wilson score interval for a binomial proportion."""
    if n < 1 or not (0 <= count <= n):
        raise ValidationError("need 0 <= count <= n with n >= 1")
    z = float(stats.norm.ppf(0.995))
    phat = count / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def llt_report(
    pmf: EmpiricalPMF,
    predictor: Callable[[tuple[int, ...]], float],
    cells: Sequence[tuple[int, ...]],
) -> tuple[list[ReportRow], float]:
    """Per-cell ratio rows against a prediction, plus the summary deviation.

    The summary is max |ratio - 1| over all the cells; no CI-width bound
    drops a cell from it. Each row carries the 99% Wilson interval of its
    count, which treats observations as independent. That is right for
    replica counts and wrong for ergodic gap counts, which are dependent
    (batch-means bands from `ergodic_cell_se` are the sound error bars there).
    """
    if not cells:
        raise ValidationError("cell selection must be nonempty")
    rows: list[ReportRow] = []
    for cell in cells:
        cell = tuple(int(x) for x in cell)
        pred = float(predictor(cell))
        if pred <= 0.0:
            raise ValidationError(f"prediction must be positive, got {pred} at {cell}")
        count = pmf.counts.get(cell, 0)
        est = count / pmf.n_total
        lo, hi = wilson_interval(count, pmf.n_total)
        rows.append(
            ReportRow(cell=cell, count=count, n=pmf.n_total, estimate=est,
                      prediction=pred, ratio=est / pred, ci_low=lo, ci_high=hi)
        )
    return rows, max(abs(r.ratio - 1.0) for r in rows)


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


# ---------------------------------------------------------------------------
# Pruned-target demonstration (Monte-Carlo side)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrunedReturnDemo:
    """Monte-Carlo realization of pruning the k-gap visits out of a target.

    ``b_returns_at_k_prune`` is structurally zero: a pruned visit either
    returns directly to another pruned visit (gap != k_prune by construction)
    or first passes through skipped visits, each adding exactly k_prune, so
    the total exceeds k_prune.
    """

    k_prune: int
    n_hits: int
    n_b_visits: int
    b_fraction: float  # empirical mu(B)/mu(A) from the scan stream
    independent_fraction: float  # 1 - mu_A(phi = k_prune) from a second stream
    b_fraction_se: float
    independent_fraction_se: float
    b_returns_at_k_prune: int

    def discrepancy_z(self) -> float:
        se = math.hypot(self.b_fraction_se, self.independent_fraction_se)
        return (self.b_fraction - self.independent_fraction) / se if se > 0 else 0.0


def demo_pruned_return(
    scan_gaps: np.ndarray,
    reference_gaps: np.ndarray,
    k_prune: int,
) -> PrunedReturnDemo:
    """Realize B = A n {phi_A != k_prune} by lookahead on materialized gaps.

    ``scan_gaps`` drives the pruning construction; ``reference_gaps`` (from an
    independent stream) provides the comparison value 1 - mu_A(phi = k_prune),
    so agreement is a genuine statistical consistency check rather than an
    arithmetic identity. Error bars are batch means over `DEFAULT_BATCH_COUNT`
    batches, fewer when a stream holds under twice that many gaps.
    """
    if k_prune < 1:
        raise ValidationError(f"k_prune must be >= 1, got {k_prune}")
    gaps = np.asarray(scan_gaps, dtype=np.int64)
    ref = np.asarray(reference_gaps, dtype=np.int64)
    if gaps.size < 2 or ref.size < 2:
        raise InsufficientDataError("need at least two gaps in each stream")
    keep = gaps != k_prune
    b_idx = np.nonzero(keep)[0]
    # hit positions relative to the first hit; a B-visit's return is the
    # position difference to the next kept visit
    positions = np.concatenate(([0], np.cumsum(gaps)))
    b_returns = np.diff(positions[b_idx])
    batch_count = max(2, min(DEFAULT_BATCH_COUNT, gaps.size // 2, ref.size // 2))
    return PrunedReturnDemo(
        k_prune=k_prune,
        n_hits=int(gaps.size + 1),
        n_b_visits=int(b_idx.size),
        b_fraction=float(keep.mean()),
        independent_fraction=float((ref != k_prune).mean()),
        b_fraction_se=batch_means_se(keep.astype(float), batch_count),
        independent_fraction_se=batch_means_se((ref != k_prune).astype(float), batch_count),
        b_returns_at_k_prune=int(np.count_nonzero(b_returns == k_prune)),
    )
