"""Monte-Carlo estimation of hitting/return/spatiotemporal laws from digit streams.

Two estimator modes, matching the two conditioning measures of the limit laws:

* replica mode: independent stationary starts, one (possibly censored)
  first-passage observation per replica; samples laws under the invariant
  measure.
* ergodic mode: consecutive inter-hit gaps along one long stationary orbit;
  samples the return law by the ergodic theorem for the induced map. Gaps are
  dependent, so error bars come from batch means, not binomial counts.

Replica generation is vectorized over chunks of fixed size; each chunk owns a
Philox substream keyed by its index. A count table is two int64 arrays, its
distinct keys in lexicographic order and their counts; chunks merge by
concatenation and one `sum_by_row`, so results are independent of worker
scheduling. A replica's backward chain emits digits in generation order, the
reverse of the forward digits of its end point (see `branch_systems`). Both
systems are time-reversible: doubling digits are i.i.d., and a Gauss
cylinder has mu[a_1..a_n] = mu[a_n..a_1], because the density
1/((1+xy)^2 ln 2) of the natural extension is symmetric
(Nakada, Ito and Tanaka 1977; Iosifescu and Kraaikamp, *Metrical Theory of
Continued Fractions*, 2002). So the digits in generation order have the law
of the forward digits, and the first d hits read in that order have the law
of the first d forward hits. A replica therefore stops at its d-th hit, and
``max_steps`` only censors. Step s draws one uniform per replica with fewer
than d hits, in replica order, from the chunk's reader of its substream
(`branch_systems._Uniforms`), which may draw them while step s - 1 runs.
Word hits come from the word's occurrence automaton, the table that
`markov_pattern.build_automaton` returns, one lookup per replica-step, so the
word length is unlimited; a hit marks an occurrence's end, l - 1 steps after
its start.

`BranchSystem.branch_array(y, u, k)` steps the live replicas in place: it
overwrites ``y`` with the preimages and ``k`` with the digits (float64,
integer-valued) and may use ``u`` as scratch. Each step's uniforms are a
fresh read, its digits go into a chunk-sized buffer cut to the live count,
and the live arrays are compacted on every step where a replica finishes.
At d = 1 a replica's first hit is also its last, so the chunk keeps nothing
per replica: each step with hits writes the key rows of the replicas that
finish there, so rows come out in finishing order, and compacts the live
arrays with one integer gather. At d >= 2 each live entry carries its
replica index, and a hit counter and a register of hit steps and marks are
kept by replica index. Either way a chunk's rows are summed by key, so
their order never reaches a count table.

The library imports no SciPy: its one distribution value, the 99% normal
quantile of `wilson_interval`, is a constant, and importing `scipy.stats`
would cost every run about a second and 60 MiB of start-up.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .branch_systems import BranchSystem, DigitStream, _digit_array, _Uniforms
from .errors import InsufficientDataError, ValidationError, _flag, _int_tuple
from .markov_pattern.automaton import PatternTarget, build_automaton
from .primes import is_prime, primes_up_to

OVERFLOW_MARK = -1  # mark bucket for digit values above the cap
DEFAULT_CHUNK = 2**16
DEFAULT_MARK_CAP_EXCESS = 10**4
DEFAULT_CENSOR_BOUND = 1e-4
DEFAULT_MIN_HITS = 10**4
DEFAULT_BATCH_COUNT = 64
_WILSON_Z = 2.5758293035489004  # scipy.stats.norm.ppf(0.995), bit for bit


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
        object.__setattr__(self, "prime_variant", _flag(self.prime_variant, "prime_variant"))
        if self.threshold is not None:
            object.__setattr__(self, "threshold", _int_tuple((self.threshold,), "threshold", 2)[0])
        if self.word is not None:
            w = _int_tuple(self.word, "word symbols", 0)
            if not w:
                raise ValidationError("word must be nonempty")
            object.__setattr__(self, "word", w)
            if self.prime_variant:
                raise ValidationError("prime_variant applies to threshold targets only")


@functools.cache
def _prime_table() -> np.ndarray:
    """is-prime flags of 0..2^16 - 1, sieved on first use."""
    table = np.zeros(2**16, dtype=bool)
    table[primes_up_to(2**16 - 1)] = True
    table.flags.writeable = False  # shared by every caller
    return table


def _prime_mask(values: np.ndarray) -> np.ndarray:
    """Vectorized primality of nonnegative integer values (int64, or
    integer-valued float64): a sieve table below 2^16, `is_prime` once per
    distinct value above."""
    table = _prime_table()
    small = values < table.size
    out = np.empty(values.shape, dtype=bool)
    out[small] = table[values[small].astype(np.int64)]
    big, inverse = np.unique(values[~small], return_inverse=True)
    out[~small] = np.array([is_prime(int(v)) for v in big], dtype=bool)[inverse]
    return out


def scan_hits(
    stream: DigitStream | np.ndarray | Sequence[int], target: TargetScan
) -> tuple[np.ndarray, np.ndarray]:
    """1-based positions where the target occurs, with the digit values there.

    For word targets the positions are occurrence starts (overlaps counted)
    and the value reported is the digit at the start.
    """
    digits = stream.digits if isinstance(stream, DigitStream) else _digit_array(stream, "digits")
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


def sum_by_row(
    keys: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the 2-D int64 ``keys``, in lexicographic order,
    with the sum of ``weights`` over each (1 per row when None)."""
    # Rows are sorted by one int64 code, mixed-radix over the columns:
    # code = code * span + (column - min), with 0 <= code < bound, so code
    # order is row order. Where bound * span would reach 2^63, the code so
    # far is replaced by its rank among the distinct codes, and then, if the
    # product still reaches it, the column by its rank among its values.
    # Ranks keep order and are below n, so the code stays below n^2.
    n = len(keys)
    code = np.zeros(n, dtype=np.int64)
    bound = 1
    for col in keys.T if n else ():
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if bound * span >= 2**63:
            uniq, code = np.unique(code, return_inverse=True)
            bound = len(uniq)
        if bound * span >= 2**63:
            uniq, col = np.unique(col, return_inverse=True)
            span, lo = len(uniq), 0
        code *= span
        code += col
        code -= lo
        bound *= span
    order = np.argsort(code)
    code = code[order]
    first = np.ones(n, dtype=bool)
    np.not_equal(code[1:], code[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    if weights is None:
        return keys[order[starts]], np.diff(starts, append=n)
    return keys[order[starts]], np.add.reduceat(weights[order], starts)


@dataclass
class EmpiricalPMF:
    """Sparse integer-keyed count table of an estimated law.

    ``keys`` (m, width) holds the distinct cells in strictly increasing
    lexicographic order and ``counts`` (m,) their counts, both int64.
    ``n_total`` is the denominator of every cell frequency: the replica count
    of a replica estimate (censored replicas included), or the gap count of
    an ergodic one, whose error bars need batch means. ``censored`` counts
    replicas that never completed the requested observation.
    """

    keys: np.ndarray
    counts: np.ndarray
    n_total: int
    censored: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        keys, counts = self.keys, self.counts
        if (keys.dtype != np.int64 or counts.dtype != np.int64 or keys.ndim != 2
                or keys.shape[1] < 1 or counts.shape != keys.shape[:1]):
            raise ValidationError(
                f"need int64 keys (m, width >= 1) and counts (m,); got {keys.dtype} "
                f"{keys.shape} and {counts.dtype} {counts.shape}"
            )
        if (counts < 0).any() or self.censored < 0:
            raise ValidationError("counts must be nonnegative")
        # each row must exceed the one before it at their first differing entry
        ne = keys[1:] != keys[:-1]
        col = ne.argmax(axis=1)
        row = np.arange(len(col))
        if not (ne[row, col] & (keys[1:][row, col] > keys[:-1][row, col])).all():
            raise ValidationError("keys must be distinct and in lexicographic order")
        total = sum(counts.tolist()) + self.censored  # Python ints: no wraparound
        if total > self.n_total:
            raise ValidationError(
                f"counts and censored add up to {total}, more than n_total {self.n_total}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmpiricalPMF):
            return NotImplemented
        return (
            np.array_equal(self.keys, other.keys)
            and np.array_equal(self.counts, other.counts)
            and (self.n_total, self.censored, self.meta)
            == (other.n_total, other.censored, other.meta)
        )

    def count(self, cell: Sequence[int]) -> int:
        """The count of ``cell``, 0 if absent; one binary search per key column."""
        if len(cell) != self.keys.shape[1]:
            raise ValidationError(
                f"cell {tuple(cell)} does not have the table's {self.keys.shape[1]} entries"
            )
        lo, hi = 0, len(self.counts)
        for j, v in enumerate(cell):
            column = self.keys[lo:hi, j]
            lo, hi = lo + np.searchsorted(column, v), lo + np.searchsorted(column, v, "right")
        return int(self.counts[lo]) if lo < hi else 0


# ---------------------------------------------------------------------------
# Replica-mode first-passage estimation
# ---------------------------------------------------------------------------


def _replica_rows(
    system: BranchSystem,
    target: TargetScan,
    table: np.ndarray | None,
    n: int,
    d: int,
    max_steps: int,
    seed: int,
    substream: int,
    mark_cap: int,
) -> tuple[np.ndarray, int, int]:
    """The (tau, psi) key of every completed replica of one chunk, one int64
    row each, the censored count and the number of replica-steps run. Rows
    come in finishing order at d = 1 and in replica order at d >= 2.

    Hits are read in generation order, which has the forward law (module
    docstring), so a replica stops at its d-th hit; ``max_steps`` only
    censors. Step s reads one uniform per replica with fewer than d hits, in
    replica order, from a reader told the most it can still be asked for.
    At d = 1 each step with hits writes its finishing replicas' rows into
    ``done`` and compacts ``y`` and, for words, ``state`` with one gather of
    the entries that missed. At d >= 2 the live arrays ``y``, ``ids`` and,
    for words, ``state`` are compacted on every step where a replica
    finishes; the hit counter ``count`` and the register ``reg`` are indexed
    by replica, so they are never compacted. For word targets ``table`` is
    the occurrence automaton of the word itself over alpha + 1 symbols:
    digits >= alpha read as the extra symbol alpha, which no word symbol
    equals. A hit then marks an occurrence's end, so tau_1 is the hit step
    minus (l - 1).
    """
    k = np.empty(n)
    width = 2 if table is None else 1  # word hits carry no mark
    if d == 1:
        # the rows of the replicas finished so far, in finishing order
        done = np.empty((1, width, n), dtype=np.int64)
        n_done = 0
    else:
        ids = np.arange(n)  # replica index of each live entry
        count = np.zeros(n, dtype=np.int64)  # hits so far, by replica index
        # step and mark of every replica's hits, by replica index
        reg = np.zeros((d, width, n), dtype=np.int64)
    if table is not None:
        # states are kept premultiplied by the row length, so that
        # state + symbol indexes the flattened table
        alpha = table.shape[1] - 1
        flat = (table * (alpha + 1)).ravel()
        full = flat.size - (alpha + 1)
        state = np.zeros(n, dtype=np.int64)
    steps_run = 0
    with _Uniforms(seed, substream, n * (max_steps + 1)) as uniforms:
        y = system.stationary_array(uniforms.take(n))
        for step in range(1, max_steps + 1):
            live = y.size
            steps_run += live
            kk = k[:live]
            system.branch_array(y, uniforms.take(live, live * (max_steps - step)), kk)
            if table is None:
                hit = kk >= target.threshold
                if target.prime_variant:
                    maybe = np.flatnonzero(hit)
                    hit[maybe[~_prime_mask(kk[maybe])]] = False
            else:
                idx = np.minimum(kk, alpha).astype(np.int64)
                idx += state
                state = flat[idx]
                hit = state == full
            hits = np.flatnonzero(hit)
            if not hits.size:
                continue
            if d == 1:  # a replica's first hit is its last: write its row now
                end = n_done + hits.size
                done[0, 0, n_done:end] = step
                if table is None:
                    done[0, 1, n_done:end] = kk[hits]
                n_done = end
                if hits.size == live:
                    break
                keep = np.flatnonzero(~hit)
                y = y[keep]
                if table is not None:
                    state = state[keep]
                continue
            who = ids[hits]
            nth = count[who]
            reg[nth, 0, who] = step
            if table is None:
                reg[nth, 1, who] = kk[hits]
            nth += 1
            count[who] = nth
            finished = hits[nth == d]
            if finished.size == live:
                break
            if finished.size:
                keep = np.ones(live, dtype=bool)
                keep[finished] = False
                y, ids = y[keep], ids[keep]
                if table is not None:
                    state = state[keep]
    done = done[:, :, :n_done] if d == 1 else reg[:, :, reg[d - 1, 0] > 0]
    censored = n - done.shape[2]
    # forward gaps: the first from the start of the occurrence, then between hits
    lead = 0 if table is None else len(target.word) - 1
    done[:, 0] = np.diff(done[:, 0], axis=0, prepend=lead)
    if table is None:
        marks = done[:, 1]
        marks[marks > mark_cap] = OVERFLOW_MARK
    return done.transpose(2, 0, 1).reshape(-1, d * done.shape[1]), censored, steps_run


def estimate_first_passage(
    system: BranchSystem,
    target: TargetScan,
    n_replicas: int,
    d: int,
    max_steps: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK,
    workers: int = 1,
) -> EmpiricalPMF:
    """Joint empirical law of the first d inter-hit gaps (and marks).

    Each replica is an independent stationary start; cells are keyed
    (tau_1, psi_1, ..., tau_d, psi_d) for threshold targets and
    (tau_1, ..., tau_d) for word targets. A mark above the threshold plus
    ``DEFAULT_MARK_CAP_EXCESS`` is recorded as ``OVERFLOW_MARK``. At d = 1 a
    chunk keeps no per-replica record and writes each replica's key as it
    finishes; at d >= 2 it registers every hit by replica index. Keys are
    summed per chunk, so the table does not depend on the rows' order. Replicas
    without d hits inside max_steps land in the censoring count; a censoring
    fraction above ``DEFAULT_CENSOR_BOUND`` is flagged in ``meta`` (not
    fatal). A replica stops at its d-th hit, so ``max_steps`` is only the
    censoring cap, and ``meta["replica_steps"]`` counts the replica-steps
    that ran. Chunk boundaries are fixed by ``chunk_size`` alone, so results
    do not depend on ``workers``, the number of threads that run chunks. A
    chunk may draw its uniforms ahead on one more thread of its own, which
    ``workers`` does not count (`branch_systems._Uniforms`).
    """
    n_replicas, d, max_steps, chunk_size, workers = _int_tuple(
        (n_replicas, d, max_steps, chunk_size, workers),
        "n_replicas, d, max_steps, chunk_size and workers", 1,
    )
    if target.word is not None and max_steps < len(target.word):
        raise ValidationError("max_steps shorter than the target word")
    table = None
    if target.word is not None:
        alpha = max(2, max(target.word) + 1)
        table = build_automaton(PatternTarget(word=target.word), alpha + 1)
    mark_cap = (target.threshold or 0) + DEFAULT_MARK_CAP_EXCESS
    sizes = [chunk_size] * (n_replicas // chunk_size)
    if n_replicas % chunk_size:
        sizes.append(n_replicas % chunk_size)

    def run(i: int) -> tuple[np.ndarray, np.ndarray, int, int]:
        rows, censored, steps = _replica_rows(
            system, target, table, sizes[i], d, max_steps, seed, i, mark_cap
        )
        return (*sum_by_row(rows), censored, steps)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(len(sizes))))
    else:
        results = [run(i) for i in range(len(sizes))]
    keys, counts, censored, steps_run = results[0]
    if len(results) > 1:
        parts = list(zip(*results))
        keys, counts = sum_by_row(np.concatenate(parts[0]), np.concatenate(parts[1]))
        censored, steps_run = sum(parts[2]), sum(parts[3])
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
        "replica_steps": steps_run,
    }
    return EmpiricalPMF(keys, counts, n_replicas, censored, meta)


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
    (batch_count,) = _int_tuple((batch_count,), "batch_count", 2)
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
    (min_hits,) = _int_tuple((min_hits,), "min_hits", 1)
    positions, _ = scan_hits(stream, target)
    if positions.size < min_hits:
        raise InsufficientDataError(
            f"only {positions.size} hits; at least {min_hits} required"
        )
    gaps = np.diff(positions)
    mean_gap_se = batch_means_se(gaps)  # refuses too few gaps before any mean
    uniq, counts = np.unique(gaps, return_counts=True)
    return ErgodicReturnEstimate(
        pmf=EmpiricalPMF(uniq[:, None], counts, int(gaps.size)),
        gaps=gaps,
        mean_gap=float(gaps.mean()),
        mean_gap_se=mean_gap_se,
        n_hits=int(positions.size),
    )


def ergodic_cell_se(gaps: np.ndarray, cell_test: Callable[[np.ndarray], np.ndarray]) -> float:
    """Batch-means standard error of a cell frequency along dependent gaps."""
    return batch_means_se(cell_test(np.asarray(gaps)).astype(float))


# ---------------------------------------------------------------------------
# Ratio reports and statistics helpers
# ---------------------------------------------------------------------------

class ReportRow(NamedTuple):
    """One cell of a ratio report against a closed-form prediction. The fields
    after ``cell`` are, in order and by name, the columns of the CLI's
    ``estimate.csv`` after its keys: a new field is a new column there."""

    cell: tuple[int, ...]
    count: int
    N: int
    estimate: float
    prediction: float
    ratio: float
    ci_low: float
    ci_high: float


REPORT_HEADER_SUFFIX = ReportRow._fields[1:]


def wilson_interval(count: int, n: int) -> tuple[float, float]:
    """99% Wilson score interval for a binomial proportion."""
    (n,) = _int_tuple((n,), "n", 1)
    (count,) = _int_tuple((count,), f"count of n = {n}", 0, n + 1)
    z = _WILSON_Z
    phat = count / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def llt_report(
    pmf: EmpiricalPMF, predicted: Sequence[tuple[Sequence[int], float]]
) -> tuple[list[ReportRow], float]:
    """Per-cell ratio rows of (cell, positive prediction) pairs, plus the summary deviation.

    Cells are keys of ``pmf``: int64 values down to OVERFLOW_MARK, of the
    table's width, looked up in its sorted arrays. The summary is
    max |ratio - 1| over all the cells; no CI-width bound drops a cell from it.
    Each row carries the 99% Wilson interval of its count, which treats
    observations as independent. That is right for replica counts and wrong
    for ergodic gap counts, which are dependent (batch-means bands from
    `ergodic_cell_se` are the sound error bars there).
    """
    if not predicted:
        raise ValidationError("cell selection must be nonempty")
    rows: list[ReportRow] = []
    for cell, pred in predicted:
        cell = _int_tuple(cell, "cell entries", OVERFLOW_MARK, 2**63)
        pred = float(pred)
        if not pred > 0.0:
            raise ValidationError(f"prediction must be positive, got {pred} at {cell}")
        count = pmf.count(cell)
        est = count / pmf.n_total
        lo, hi = wilson_interval(count, pmf.n_total)
        rows.append(
            ReportRow(cell=cell, count=count, N=pmf.n_total, estimate=est,
                      prediction=pred, ratio=est / pred, ci_low=lo, ci_high=hi)
        )
    return rows, max(abs(r.ratio - 1.0) for r in rows)


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
    The fields are, in order and by name, the rows of the CLI's Monte-Carlo
    ``counterexample.csv``: a new field is a new row there.
    """

    n_hits: int
    n_b_visits: int
    b_fraction: float  # empirical mu(B)/mu(A) from the scan stream
    independent_fraction: float  # 1 - mu_A(phi = k_prune) from a second stream
    b_fraction_se: float
    independent_fraction_se: float
    b_returns_at_k_prune: int
    discrepancy_z: float  # (b_fraction - independent_fraction) over their joint se, 0 if it is 0


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
    (k_prune,) = _int_tuple((k_prune,), "k_prune", 1)
    gaps = _digit_array(scan_gaps, "gaps")
    ref = _digit_array(reference_gaps, "gaps")
    if gaps.size < 2 or ref.size < 2:
        raise InsufficientDataError("need at least two gaps in each stream")
    keep = gaps != k_prune
    b_idx = np.nonzero(keep)[0]
    # hit positions relative to the first hit; a B-visit's return is the
    # position difference to the next kept visit
    positions = np.concatenate(([0], np.cumsum(gaps)))
    b_returns = np.diff(positions[b_idx])
    batch_count = max(2, min(DEFAULT_BATCH_COUNT, gaps.size // 2, ref.size // 2))
    kept = (keep, ref != k_prune)
    b_fraction, independent = (float(x.mean()) for x in kept)
    b_se, independent_se = (batch_means_se(x.astype(float), batch_count) for x in kept)
    se = math.hypot(b_se, independent_se)
    return PrunedReturnDemo(
        n_hits=int(gaps.size + 1),
        n_b_visits=int(b_idx.size),
        b_fraction=b_fraction,
        independent_fraction=independent,
        b_fraction_se=b_se,
        independent_fraction_se=independent_se,
        b_returns_at_k_prune=int(np.count_nonzero(b_returns == k_prune)),
        discrepancy_z=(b_fraction - independent) / se if se > 0 else 0.0,
    )
