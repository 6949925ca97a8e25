"""Estimator tests: the doubling-map word oracle and a slow materialized-stream
reference validate the vectorized replica machinery deterministically;
statistical checks run against exact laws with fixed seeds."""

import dataclasses
import math

import numpy as np
import pytest

from hittimes.branch_systems import DOUBLING, GAUSS, generate_stream, make_rng
from hittimes.errors import InsufficientDataError, ValidationError
from hittimes.estimators import (
    EmpiricalPMF,
    OVERFLOW_MARK,
    TargetScan,
    _replica_chunk,
    batch_means_se,
    chi_square_gof,
    demo_pruned_return,
    ergodic_cell_se,
    estimate_first_passage,
    estimate_return_law_ergodic,
    llt_report,
    scan_hits,
    wilson_interval,
)
from hittimes.markov_pattern import (
    MarkovSource,
    PatternTarget,
    build_automaton,
    hitting_pmf,
    return_pmf,
)
from hittimes.theory import threshold_cell_measure
from oracles import DOUBLING_ALLOCATING, GAUSS_ALLOCATING, allocating_replica_chunk

FAIR = MarkovSource.iid([0.5, 0.5])
# every digit is 1, so a word of ones occurs at every start of the stream
ONES = dataclasses.replace(DOUBLING, name="ones", branch_array=lambda y, u, k: k.fill(1.0))


class TestScanHits:
    def test_threshold_example(self):
        pos, val = scan_hits(np.array([3, 7, 2, 9, 5]), TargetScan.digit_threshold(7))
        assert pos.tolist() == [2, 4]
        assert val.tolist() == [7, 9]

    def test_no_hits(self):
        pos, val = scan_hits(np.array([1, 2, 3]), TargetScan.digit_threshold(7))
        assert pos.size == 0 and val.size == 0

    def test_prime_variant(self):
        pos, val = scan_hits(
            np.array([8, 9, 11]), TargetScan.digit_threshold(8, prime_variant=True)
        )
        assert pos.tolist() == [3]
        assert val.tolist() == [11]

    def test_word_scan_with_overlap(self):
        pos, _ = scan_hits(np.array([1, 1, 1, 0, 1, 1]), TargetScan.word_pattern((1, 1)))
        assert pos.tolist() == [1, 2, 5]

    def test_word_scan_on_stream(self):
        stream = generate_stream(DOUBLING, seed=2, n=64)
        pos, _ = scan_hits(stream, TargetScan.word_pattern((1, 1)))
        d = stream.digits
        want = [i + 1 for i in range(63) if d[i] == 1 and d[i + 1] == 1]
        assert pos.tolist() == want

    def test_target_validation(self):
        with pytest.raises(ValidationError):
            TargetScan()
        with pytest.raises(ValidationError):
            TargetScan.digit_threshold(1)
        with pytest.raises(ValidationError):
            TargetScan(word=(1, 0), prime_variant=True)


def _replica_reference(system, target, n, d, max_steps, seed, substream, mark_cap):
    """Slow reference: same uniform consumption as the chunk kernel, but
    materializes each backward stream and scans the reversed (forward) digits."""
    rng = make_rng(seed, substream)
    y = system.stationary_array(rng.random(n))
    k = np.empty(n)
    digits = np.empty((n, max_steps), dtype=np.int64)
    for step in range(max_steps):
        u = rng.random(n)
        system.branch_array(y, u.copy(), k)
        digits[:, step] = k
    counts: dict[tuple, int] = {}
    censored = 0
    for r in range(n):
        fwd = digits[r, ::-1]
        if target.word is not None:
            pos, _ = scan_hits(fwd, target)
            vals = None
        else:
            pos, vals = scan_hits(fwd, target)
        if pos.size < d:
            censored += 1
            continue
        key = []
        prev = 0
        for j in range(d):
            key.append(int(pos[j]) - prev)
            prev = int(pos[j])
            if vals is not None:
                v = int(vals[j])
                key.append(v if v <= mark_cap else OVERFLOW_MARK)
        key = tuple(key)
        counts[key] = counts.get(key, 0) + 1
    return counts, censored


class TestReplicaEstimator:
    @pytest.mark.parametrize(
        "system,target,d",
        [
            (DOUBLING, TargetScan.word_pattern((1, 1)), 1),
            (DOUBLING, TargetScan.word_pattern((1, 0, 1)), 2),
            (GAUSS, TargetScan.digit_threshold(4), 1),
            (GAUSS, TargetScan.digit_threshold(3), 2),
            (GAUSS, TargetScan.digit_threshold(5, prime_variant=True), 1),
            # word target over an unbounded digit stream: out-of-alphabet
            # digits must not alias into automaton matches
            (GAUSS, TargetScan.word_pattern((1, 2)), 1),
            (GAUSS, TargetScan.word_pattern((2, 1, 1)), 2),
            # no word-length limit: long words are censored at any feasible
            # size on the real systems, and hit every replica of ONES
            (DOUBLING, TargetScan.word_pattern((1,) * 40), 1),
            (DOUBLING, TargetScan.word_pattern((1, 0) * 25), 1),
            (GAUSS, TargetScan.word_pattern((9,) * 18), 1),
            (ONES, TargetScan.word_pattern((1,) * 40), 2),
        ],
    )
    def test_register_scan_matches_materialized_reference(self, system, target, d):
        n, seed = 4000, 17
        max_steps = max(48, len(target.word or ()))
        got = estimate_first_passage(
            system, target, n, d, max_steps, seed, chunk_size=1024, mark_cap=50
        )
        want_counts: dict[tuple, int] = {}
        want_censored = 0
        sizes = [1024, 1024, 1024, 928]
        for i, sz in enumerate(sizes):
            c, cens = _replica_reference(system, target, sz, d, max_steps, seed, i, 50)
            want_censored += cens
            for k, v in c.items():
                want_counts[k] = want_counts.get(k, 0) + v
        assert got.censored == want_censored
        assert got.counts == want_counts

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "system,target,mark_cap",
        [
            (GAUSS, TargetScan.digit_threshold(50), 10**4),  # sparse hits
            (GAUSS, TargetScan.digit_threshold(3), 10**4),  # dense hits
            (GAUSS, TargetScan.digit_threshold(3), 6),  # marks above 6 overflow
            (GAUSS, TargetScan.digit_threshold(5, prime_variant=True), 10**4),
            (GAUSS, TargetScan.word_pattern((2, 1, 1)), 10**4),
            (DOUBLING, TargetScan.word_pattern((1, 1)), 10**4),
            (DOUBLING, TargetScan.word_pattern((1, 0, 1)), 10**4),
        ],
    )
    def test_chunk_matches_allocating_kernel_exactly(self, system, target, mark_cap, d):
        allocating = {"gauss": GAUSS_ALLOCATING, "doubling": DOUBLING_ALLOCATING}[system.name]
        table = None
        if target.word is not None:  # as estimate_first_passage builds it
            alpha = max(2, max(target.word) + 1)
            table = build_automaton(PatternTarget(word=target.word[::-1]), alpha + 1).table
        args = (target, table, 3000, d, 300, 19, 2, mark_cap)
        counts, censored = _replica_chunk(system, *args)
        want_counts, want_censored = allocating_replica_chunk(allocating, *args)
        assert censored == want_censored
        assert counts == want_counts
        assert list(counts) == list(want_counts)  # the same key order too
        assert counts and censored < 3000
        if mark_cap == 6:
            assert any(OVERFLOW_MARK in key[1::2] for key in counts)

    def test_censoring_integer_identity(self):
        got = estimate_first_passage(
            DOUBLING, TargetScan.word_pattern((1, 1)), 5000, 1, 4, seed=3
        )
        assert sum(got.counts.values()) + got.censored == 5000
        assert got.censored > 0  # max_steps=4 forces real censoring
        assert got.meta["censoring_flag"]

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_chunk_size_below_one_rejected(self, chunk_size):
        # a negative size splits the replicas into no chunks; zero divides by zero
        with pytest.raises(ValidationError, match="chunk_size"):
            estimate_first_passage(
                DOUBLING, TargetScan.word_pattern((1, 1)), 10, 1, 64, seed=3, chunk_size=chunk_size
            )

    def test_workers_do_not_change_counts(self):
        for system, target, d, workers in (
            (DOUBLING, TargetScan.word_pattern((1, 1)), 1, 3),
            (GAUSS, TargetScan.digit_threshold(3), 2, 2),  # marks in the keys
        ):
            kw = dict(n_replicas=30_000, d=d, max_steps=64, seed=5, chunk_size=4096)
            a = estimate_first_passage(system, target, **kw)
            b = estimate_first_passage(system, target, workers=workers, **kw)
            assert a.counts == b.counts and a.censored == b.censored

    def test_seeded_determinism(self):
        kw = dict(n_replicas=20_000, d=1, max_steps=64, seed=6)
        a = estimate_first_passage(GAUSS, TargetScan.digit_threshold(10), **kw)
        b = estimate_first_passage(GAUSS, TargetScan.digit_threshold(10), **kw)
        assert a.counts == b.counts

    def test_matches_exact_oracle_doubling(self):
        n = 200_000
        got = estimate_first_passage(
            DOUBLING, TargetScan.word_pattern((1, 1)), n, 1, 256, seed=8
        )
        exact = hitting_pmf(FAIR, PatternTarget(word=(1, 1)), "stationary", 30)
        for k in range(1, 31):
            p = exact.mass_at(k)
            if n * p < 100:
                continue
            c = got.counts.get((k,), 0)
            assert abs(c - n * p) < 4 * math.sqrt(n * p * (1 - p)), k

    def test_unbiasedness_over_repeated_seeds(self):
        # cell frequencies sit inside exact 4-sigma bands in >= 99% of
        # (seed, cell) looks; at 4 sigma the expected violation rate is 6e-5
        n = 50_000
        exact = hitting_pmf(FAIR, PatternTarget(word=(1, 1)), "stationary", 10)
        looks = 0
        inside = 0
        for seed in range(30, 36):
            got = estimate_first_passage(
                DOUBLING, TargetScan.word_pattern((1, 1)), n, 1, 128, seed=seed
            )
            for k in range(1, 11):
                p = exact.mass_at(k)
                if n * p < 100:
                    continue
                looks += 1
                c = got.counts.get((k,), 0)
                if abs(c - n * p) <= 4 * math.sqrt(n * p * (1 - p)):
                    inside += 1
        assert looks >= 50
        assert inside / looks >= 0.99

    def test_mark_overflow_bucket(self):
        got = estimate_first_passage(
            GAUSS, TargetScan.digit_threshold(2), 5000, 1, 64, seed=9, mark_cap=5
        )
        overflow = sum(c for key, c in got.counts.items() if key[1] == OVERFLOW_MARK)
        assert overflow > 0
        assert all(key[1] <= 5 or key[1] == OVERFLOW_MARK for key in got.counts)

    def test_renewal_target_gaps_independent(self):
        # single-symbol word in an i.i.d. stream: (tau1, tau2) factorizes
        n = 150_000
        got = estimate_first_passage(
            DOUBLING, TargetScan.word_pattern((1,)), n, 2, 128, seed=21
        )
        cells, probs = [], []
        for k1 in range(1, 7):
            for k2 in range(1, 7):
                cells.append((k1, k2))
                probs.append(2.0**-k1 * 2.0**-k2)
        obs = np.array([got.counts.get(c, 0) for c in cells], dtype=float)
        stat, df, p = chi_square_gof(obs, np.array(probs), n_total=n)
        assert p > 0.01

    def test_mark_marginal_matches_cell_ratio(self):
        # P(psi = a | hit) -> mu(I_a) / mu({a >= l})
        from hittimes.theory import gauss_digit_cell_measure

        n = 200_000
        l = 50
        got = estimate_first_passage(
            GAUSS, TargetScan.digit_threshold(l), n, 1, 512, seed=22
        )
        n_hits = sum(got.counts.values())
        mu_l = threshold_cell_measure(l)
        marks = list(range(l, l + 31))
        obs = np.array(
            [sum(c for key, c in got.counts.items() if key[1] == a) for a in marks],
            dtype=float,
        )
        probs = np.array([gauss_digit_cell_measure(a) / mu_l for a in marks])
        stat, df, p = chi_square_gof(obs, probs, n_total=n_hits)
        assert p > 0.01


class TestErgodicEstimator:
    def test_mean_gap_kac_doubling_word0(self):
        stream = generate_stream(DOUBLING, seed=10, n=200_000)
        est = estimate_return_law_ergodic(stream, TargetScan.word_pattern((0,)),
                                          min_hits=1000)
        assert abs(est.mean_gap - 2.0) <= 2.576 * est.mean_gap_se
        assert est.mean_gap == pytest.approx(2.0, rel=0.02)

    def test_mean_gap_kac_gauss_threshold(self):
        stream = generate_stream(GAUSS, seed=11, n=400_000)
        est = estimate_return_law_ergodic(stream, TargetScan.digit_threshold(50),
                                          min_hits=1000)
        want = 1.0 / threshold_cell_measure(50)
        assert est.mean_gap == pytest.approx(want, rel=0.05)

    def test_insufficient_hits_error(self):
        stream = generate_stream(GAUSS, seed=12, n=2000)
        with pytest.raises(InsufficientDataError):
            estimate_return_law_ergodic(stream, TargetScan.digit_threshold(50))

    def test_gap_histogram_matches_exact_return_law(self):
        stream = generate_stream(DOUBLING, seed=13, n=400_000)
        est = estimate_return_law_ergodic(stream, TargetScan.word_pattern((1, 1)),
                                          min_hits=1000)
        exact = return_pmf(FAIR, PatternTarget(word=(1, 1)), 40)
        n = est.pmf.n_total
        for k in (1, 3, 4, 5, 8, 12):
            p = exact.mass_at(k)
            if n * p < 100:
                continue
            freq = est.pmf.counts.get((k,), 0) / n
            se = ergodic_cell_se(est.gaps, lambda g, kk=k: g == kk)
            assert abs(freq - p) < 4 * max(se, 1e-12), k

    def test_replica_and_ergodic_agree_on_return_law(self):
        # second replica gap tau^(2) has the return law for word targets
        n = 150_000
        rep = estimate_first_passage(
            DOUBLING, TargetScan.word_pattern((1, 1)), n, 2, 256, seed=14
        )
        stream = generate_stream(DOUBLING, seed=15, n=300_000)
        erg = estimate_return_law_ergodic(stream, TargetScan.word_pattern((1, 1)),
                                          min_hits=1000)
        for k in (1, 3, 4, 6):
            rep_count = sum(c for key, c in rep.counts.items() if key[1] == k)
            rep_freq = rep_count / n
            erg_freq = erg.pmf.counts.get((k,), 0) / erg.pmf.n_total
            se_rep = math.sqrt(max(rep_freq, 1e-9) / n)
            se_erg = ergodic_cell_se(erg.gaps, lambda g, kk=k: g == kk)
            assert abs(rep_freq - erg_freq) < 4 * math.hypot(se_rep, se_erg), k


class TestReportsAndStats:
    def test_llt_report_empirical_with_ci(self):
        pmf = EmpiricalPMF(counts={(1,): 5200, (2,): 2400}, n_total=10_000, kind="replica")
        rows, summary = llt_report(pmf, lambda c: 0.5 ** c[0], [(1,), (2,)])
        assert rows[0].ci_low < rows[0].estimate < rows[0].ci_high
        assert (rows[1].count, rows[1].n) == (2400, 10_000)
        assert summary == pytest.approx(0.04, abs=1e-12)
        with pytest.raises(ValidationError):
            llt_report(pmf, lambda c: 0.5 ** c[0], [])

    def test_wilson_interval(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert 0.0 <= lo < hi <= 1.0
        assert wilson_interval(0, 10)[0] == 0.0

    def test_chi_square_gof_uniform(self):
        rng = make_rng(16)
        draws = rng.integers(0, 8, size=8000)
        obs = np.bincount(draws, minlength=8).astype(float)
        stat, df, p = chi_square_gof(obs, np.full(8, 1.0 / 8.0))
        assert df == 7
        assert p > 0.01

    def test_chi_square_small_cell_merge(self):
        obs = np.array([500.0, 499.0, 1.0])
        probs = np.array([0.4999, 0.4999, 0.0002])
        stat, df, p = chi_square_gof(obs, probs)
        assert df == 2  # two kept cells + pooled remainder - 1

    def test_chi_square_partial_cell_listing(self):
        # cells cover only part of the sample; the remainder gets 1 - sum(p)
        rng = make_rng(20)
        draws = rng.integers(0, 10, size=20_000)
        obs = np.bincount(draws, minlength=10)[:4].astype(float)
        stat, df, p = chi_square_gof(obs, np.full(4, 0.1), n_total=20_000)
        assert df == 4
        assert p > 0.01
        with pytest.raises(ValidationError):
            chi_square_gof(obs, np.full(4, 0.1), n_total=100)

    def test_batch_means_se_iid_matches_naive(self):
        rng = make_rng(17)
        x = rng.random(64_000)
        se = batch_means_se(x)
        naive = x.std(ddof=1) / math.sqrt(x.size)
        assert se == pytest.approx(naive, rel=0.4)


class TestPrunedDemo:
    def test_structural_zero_and_consistency(self):
        s1 = generate_stream(DOUBLING, seed=18, n=400_000, substream=0)
        s2 = generate_stream(DOUBLING, seed=18, n=400_000, substream=1)
        target = TargetScan.word_pattern((1, 1))
        g1 = np.diff(scan_hits(s1, target)[0])
        g2 = np.diff(scan_hits(s2, target)[0])
        demo = demo_pruned_return(g1, g2, k_prune=3)
        assert demo.b_returns_at_k_prune == 0
        assert abs(demo.discrepancy_z()) < 4.0
        exact = return_pmf(FAIR, PatternTarget(word=(1, 1)), 3)
        assert demo.b_fraction == pytest.approx(1.0 - exact.mass_at(3), abs=0.01)

    def test_prune_beyond_max_gap_keeps_everything(self):
        g = np.array([2, 5, 3, 7, 4])
        demo = demo_pruned_return(g, g, k_prune=99)
        assert demo.b_fraction == 1.0
        assert demo.b_returns_at_k_prune == 0

    def test_gauss_threshold_prune(self):
        s1 = generate_stream(GAUSS, seed=19, n=300_000, substream=0)
        s2 = generate_stream(GAUSS, seed=19, n=300_000, substream=1)
        target = TargetScan.digit_threshold(20)
        g1 = np.diff(scan_hits(s1, target)[0])
        g2 = np.diff(scan_hits(s2, target)[0])
        demo = demo_pruned_return(g1, g2, k_prune=10)
        assert demo.b_returns_at_k_prune == 0
        assert abs(demo.discrepancy_z()) < 4.0
