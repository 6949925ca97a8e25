"""Estimator tests: the doubling-map word oracle and a slow materialized-stream
reference validate the vectorized replica machinery deterministically;
statistical checks run against exact laws with fixed seeds."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from hittimes.branch_systems import DOUBLING, GAUSS, generate_stream, make_rng
from hittimes import branch_systems, estimators
from hittimes.errors import InsufficientDataError, SamplingError, ValidationError
from hittimes.estimators import (
    DEFAULT_MARK_CAP_EXCESS,
    EmpiricalPMF,
    OVERFLOW_MARK,
    TargetScan,
    _WILSON_Z,
    _replica_rows,
    batch_means_se,
    demo_pruned_return,
    ergodic_cell_se,
    estimate_first_passage,
    estimate_return_law_ergodic,
    llt_report,
    scan_hits,
    sum_by_row,
    wilson_interval,
)
from hittimes.markov_pattern import (
    MarkovSource,
    PatternTarget,
    build_automaton,
    consecutive_joint_pmf,
    hitting_pmf,
    return_pmf,
)
from hittimes.primes import is_prime
from hittimes.theory import (
    cf_joint_asymptote,
    cf_rare_set_measure,
    consecutive_asymptote,
    threshold_cell_measure,
)
from oracles import (
    backward_register_replica_chunk,
    chi_square_gof,
    chi_square_two_sample,
    dict_chunk_tail,
    dict_first_passage,
    generation_order_replica_chunk,
    pmf_dict,
)

FAIR = MarkovSource.iid([0.5, 0.5])
# every digit is 1, so a word of ones occurs at every start of the stream
ONES = dataclasses.replace(DOUBLING, name="ones", branch_array=lambda y, u, k: k.fill(1.0))


def _pmf(table: dict, n_total: int) -> EmpiricalPMF:
    """The `EmpiricalPMF` of a nonempty {key tuple: count} table."""
    cells = sorted(table)
    return EmpiricalPMF(np.array(cells, dtype=np.int64),
                        np.array([table[c] for c in cells], dtype=np.int64), n_total)


class TestScanHits:
    def test_threshold_example(self):
        pos, val = scan_hits(np.array([3, 7, 2, 9, 5]), TargetScan(threshold=7))
        assert pos.tolist() == [2, 4]
        assert val.tolist() == [7, 9]

    def test_no_hits(self):
        pos, val = scan_hits(np.array([1, 2, 3]), TargetScan(threshold=7))
        assert pos.size == 0 and val.size == 0

    def test_prime_variant(self):
        pos, val = scan_hits(
            np.array([8, 9, 11]), TargetScan(threshold=8, prime_variant=True)
        )
        assert pos.tolist() == [3]
        assert val.tolist() == [11]

    @pytest.mark.parametrize("dtype", [np.int64, np.float64], ids=["int64", "float64"])
    def test_prime_mask_across_the_sieve_table_edge(self, dtype):
        # the table holds 0..2^16 - 1, and is_prime takes the rest; a float64
        # above 2^53 is even, an int64 there may be prime
        values = [65521, 65535, 65536, 65537, 65521, 2**53 + 2, 2, 1, 97, 65537]
        if dtype is np.int64:
            values += [2**61 - 1, 2**53 + 5]
        values = np.array(values, dtype=dtype)
        want = [is_prime(int(v)) for v in values]
        assert want[:4] == [True, False, False, True]
        assert estimators._prime_mask(values).tolist() == want
        assert estimators._prime_mask(values[:0]).tolist() == []

    def test_word_scan_with_overlap(self):
        pos, _ = scan_hits(np.array([1, 1, 1, 0, 1, 1]), TargetScan(word=(1, 1)))
        assert pos.tolist() == [1, 2, 5]

    def test_word_scan_on_stream(self):
        stream = generate_stream(DOUBLING, seed=2, n=64)
        pos, _ = scan_hits(stream, TargetScan(word=(1, 1)))
        d = stream.digits
        want = [i + 1 for i in range(63) if d[i] == 1 and d[i + 1] == 1]
        assert pos.tolist() == want

    @pytest.mark.parametrize(
        "digits",
        [[1.5, 3.7, 100.2], [[3, 7], [2, 9]], 7, [3, math.inf], [True, False], [3, True, 7],
         [3, np.True_, 7], ["3"], [2**63]],
        ids=["fractional", "2-D", "scalar", "inf", "bool", "bool-inside", "numpy-bool-inside",
             "str", "above-int64"],
    )
    def test_digits_are_refused_not_truncated(self, digits):
        # [1.5, 3.7, 100.2] used to scan as [1, 3, 100], and [3, True, 7] as [3, 1, 7]
        with pytest.raises(ValidationError, match="digits must be"):
            scan_hits(digits, TargetScan(threshold=3))

    def test_integral_digit_arrays_of_any_type_scan_alike(self):
        want = scan_hits(np.array([3, 7, 2, 9]), TargetScan(threshold=7))
        for digits in ([3, 7, 2, 9], [3.0, 7.0, 2.0, 9.0], np.array([3, 7, 2, 9], dtype=np.uint8)):
            got = scan_hits(digits, TargetScan(threshold=7))
            assert [a.tolist() for a in got] == [a.tolist() for a in want]

    def test_target_validation(self):
        with pytest.raises(ValidationError):
            TargetScan()
        with pytest.raises(ValidationError):
            TargetScan(threshold=1)
        with pytest.raises(ValidationError):
            TargetScan(word=(1, 0), prime_variant=True)


class TestReplicaEstimator:
    @pytest.mark.parametrize(
        "system,target,d",
        [
            (DOUBLING, TargetScan(word=(1, 1)), 1),
            (DOUBLING, TargetScan(word=(1, 0, 1)), 2),
            (GAUSS, TargetScan(threshold=4), 1),
            (GAUSS, TargetScan(threshold=3), 2),
            (GAUSS, TargetScan(threshold=5, prime_variant=True), 1),
            # word target over an unbounded digit stream: out-of-alphabet
            # digits must not alias into automaton matches
            (GAUSS, TargetScan(word=(1, 2)), 1),
            (GAUSS, TargetScan(word=(2, 1, 1)), 2),
            # no word-length limit: long words are censored at any feasible
            # size on the real systems, and hit every replica of ONES
            (DOUBLING, TargetScan(word=(1,) * 40), 1),
            (DOUBLING, TargetScan(word=(1, 0) * 25), 1),
            (GAUSS, TargetScan(word=(9,) * 18), 1),
            (ONES, TargetScan(word=(1,) * 40), 2),
        ],
    )
    def test_estimate_matches_materialized_reference(self, system, target, d):
        n, seed = 4000, 17
        max_steps = max(48, len(target.word or ()))
        got = estimate_first_passage(system, target, n, d, max_steps, seed, chunk_size=1024)
        mark_cap = (target.threshold or 0) + DEFAULT_MARK_CAP_EXCESS
        want_counts: dict[tuple, int] = {}
        want_censored = want_steps = 0
        sizes = [1024, 1024, 1024, 928]
        for i, sz in enumerate(sizes):
            c, cens, steps = generation_order_replica_chunk(
                system, target, sz, d, max_steps, seed, i, mark_cap
            )
            want_censored += cens
            want_steps += steps
            for k, v in c.items():
                want_counts[k] = want_counts.get(k, 0) + v
        assert got.censored == want_censored
        assert pmf_dict(got) == want_counts
        assert got.meta["replica_steps"] == want_steps

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "system,target,mark_cap",
        [
            (GAUSS, TargetScan(threshold=50), 10**4),  # sparse hits
            (GAUSS, TargetScan(threshold=3), 10**4),  # dense hits
            (GAUSS, TargetScan(threshold=3), 6),  # marks above 6 overflow
            (GAUSS, TargetScan(threshold=5, prime_variant=True), 10**4),
            (GAUSS, TargetScan(word=(2, 1, 1)), 10**4),
            (DOUBLING, TargetScan(word=(1, 1)), 10**4),
            (DOUBLING, TargetScan(word=(1, 0, 1)), 10**4),
        ],
    )
    def test_chunk_matches_generation_order_reference_exactly(self, system, target, mark_cap, d):
        table = None
        if target.word is not None:  # as estimate_first_passage builds it
            alpha = max(2, max(target.word) + 1)
            table = build_automaton(PatternTarget(word=target.word), alpha + 1)
        args = (3000, d, 300, 19, 2, mark_cap)
        rows, censored, steps = _replica_rows(system, target, table, *args)
        counts = pmf_dict(EmpiricalPMF(*sum_by_row(rows), 3000, censored))
        assert list(counts.items()) == list(dict_chunk_tail(rows).items())
        want_counts, want_censored, want_steps = generation_order_replica_chunk(
            system, target, *args
        )
        assert (censored, steps) == (want_censored, want_steps)
        assert counts == want_counts
        assert list(counts) == list(want_counts)  # the same key order too
        assert counts and censored < 3000
        if mark_cap == 6:
            assert any(OVERFLOW_MARK in key[1::2] for key in counts)

    @staticmethod
    def _chunk(system, target, n, d, max_steps, seed):
        """`_replica_rows` and the generation-order reference on one chunk."""
        table = None
        if target.word is not None:  # as estimate_first_passage builds it
            alpha = max(2, max(target.word) + 1)
            table = build_automaton(PatternTarget(word=target.word), alpha + 1)
        args = (n, d, max_steps, seed, 0, (target.threshold or 0) + DEFAULT_MARK_CAP_EXCESS)
        return (_replica_rows(system, target, table, *args),
                generation_order_replica_chunk(system, target, *args))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize(
        "system,target,width",
        [
            (GAUSS, TargetScan(threshold=10**6), 2),
            (GAUSS, TargetScan(threshold=10**6, prime_variant=True), 2),
            (DOUBLING, TargetScan(word=(1,) * 30), 1),
        ],
    )
    def test_chunk_where_every_replica_is_censored(self, system, target, width, d):
        n, max_steps = 64, 30
        (rows, censored, steps), want = self._chunk(system, target, n, d, max_steps, 23)
        assert rows.shape == (0, d * width) and rows.dtype == np.int64
        assert (censored, steps) == (n, n * max_steps)
        assert want == ({}, n, n * max_steps)
        keys, counts = sum_by_row(rows)
        assert keys.shape == (0, d * width) and counts.size == 0

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize(
        "system,target",
        [
            (GAUSS, TargetScan(threshold=2)),
            (GAUSS, TargetScan(threshold=2, prime_variant=True)),
            (DOUBLING, TargetScan(word=(1, 1))),
        ],
    )
    def test_one_replica_chunk_stops_when_it_finishes(self, system, target, d):
        max_steps = 200
        (rows, censored, steps), want = self._chunk(system, target, 1, d, max_steps, 29)
        assert censored == 0 and steps < max_steps  # it left the loop early
        assert len(rows) == 1
        assert pmf_dict(EmpiricalPMF(*sum_by_row(rows), 1, censored)) == want[0]
        assert (censored, steps) == want[1:]

    @pytest.mark.parametrize(
        "system,target",
        [(GAUSS, TargetScan(threshold=5)), (DOUBLING, TargetScan(word=(1, 0, 1)))],
    )
    def test_rows_at_d1_come_in_finishing_order(self, system, target):
        (rows, censored, _), _ = self._chunk(system, target, 2000, 1, 64, 31)
        assert len(rows) == 2000 - censored > 1000
        assert (np.diff(rows[:, 0]) >= 0).all()  # tau_1 is the finishing step, less a constant

    @pytest.mark.parametrize(
        "system,target,d,max_steps,fields",
        [
            (GAUSS, TargetScan(threshold=50), 1, 512, (0, 1)),
            (DOUBLING, TargetScan(word=(1, 1)), 1, 256, (0,)),
            (GAUSS, TargetScan(threshold=5), 2, 128, (0, 1, 2, 3)),
            (DOUBLING, TargetScan(word=(1, 0, 1)), 2, 256, (0, 1)),
        ],
        ids=["gauss", "doubling", "gauss-d2", "doubling-d2"],
    )
    def test_same_law_as_backward_registers(self, system, target, d, max_steps, fields):
        # each key field's marginal, with censoring as one more cell, against
        # the chunk as it ran every replica to max_steps; both seeds were
        # fixed before either sample was drawn
        n, chunk, seed = 2**17, 2**15, 191
        new = estimate_first_passage(system, target, n, d, max_steps, seed, chunk_size=chunk)
        table = None
        if target.word is not None:
            alpha = max(2, max(target.word) + 1)
            table = build_automaton(PatternTarget(word=target.word[::-1]), alpha + 1)
        mark_cap = (target.threshold or 0) + DEFAULT_MARK_CAP_EXCESS
        old: dict[tuple, int] = {}
        old_censored = 0
        for i in range(n // chunk):
            part, cens = backward_register_replica_chunk(
                system, target, table, chunk, d, max_steps, seed + 1, i, mark_cap
            )
            old_censored += cens
            for key, c in part.items():
                old[key] = old.get(key, 0) + c

        def marginal(counts, censored, field):
            out = {None: censored}
            for key, c in counts.items():
                out[key[field]] = out.get(key[field], 0) + c
            return out

        for field in fields:
            a = marginal(pmf_dict(new), new.censored, field)
            b = marginal(old, old_censored, field)
            cells = sorted(set(a) | set(b), key=lambda v: (v is None, v))
            stat, df, p = chi_square_two_sample(
                [a.get(v, 0) for v in cells], [b.get(v, 0) for v in cells]
            )
            assert df >= 3, field
            assert p > 1e-3, (field, stat, df)

    def test_replica_steps_count_the_steps_run(self):
        # every replica-step runs the branch kernel once per live replica
        ran = []

        def counting(y, u, k):
            ran.append(y.size)
            GAUSS.branch_array(y, u, k)

        system = dataclasses.replace(GAUSS, branch_array=counting)
        for target, d in ((TargetScan(threshold=3), 2), (TargetScan(word=(2, 1, 1)), 1)):
            ran.clear()
            got = estimate_first_passage(system, target, 5000, d, 16, seed=4, chunk_size=2048)
            assert got.meta["replica_steps"] == sum(ran)
            assert 0 < got.censored and sum(ran) < 5000 * 16

    def test_word_pairs_match_exact_joint_law(self):
        # the first gap is shifted by l - 1 from the occurrence's end and the
        # second is a return gap; both against the exact joint law at 5 sigma
        n = 200_000
        got = estimate_first_passage(
            DOUBLING, TargetScan(word=(1, 0, 1)), n, 2, 256, seed=24
        )
        target = PatternTarget(word=(1, 0, 1))
        for k1 in range(1, 9):
            for k2 in range(1, 9):
                p = consecutive_joint_pmf(FAIR, target, [k1, k2])
                c = got.count((k1, k2))
                assert abs(c - n * p) <= 5 * math.sqrt(n * p * (1 - p)), (k1, k2)

    def test_censoring_integer_identity(self):
        got = estimate_first_passage(
            DOUBLING, TargetScan(word=(1, 1)), 5000, 1, 4, seed=3
        )
        assert got.counts.sum() + got.censored == 5000
        assert got.censored > 0  # max_steps=4 forces real censoring
        assert got.meta["censoring_flag"]

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_chunk_size_below_one_rejected(self, chunk_size):
        # a negative size splits the replicas into no chunks; zero divides by zero
        with pytest.raises(ValidationError, match="chunk_size"):
            estimate_first_passage(
                DOUBLING, TargetScan(word=(1, 1)), 10, 1, 64, seed=3, chunk_size=chunk_size
            )

    def test_workers_do_not_change_counts(self, sampler_path):
        for system, target, d, workers in (
            (DOUBLING, TargetScan(word=(1, 1)), 1, 3),
            (GAUSS, TargetScan(threshold=3), 2, 2),  # marks in the keys
        ):
            kw = dict(n_replicas=30_000, d=d, max_steps=64, seed=5, chunk_size=4096)
            a = estimate_first_passage(system, target, **kw)
            b = estimate_first_passage(system, target, workers=workers, **kw)
            assert a == b

    def test_seeded_determinism(self):
        kw = dict(n_replicas=20_000, d=1, max_steps=64, seed=6)
        a = estimate_first_passage(GAUSS, TargetScan(threshold=10), **kw)
        b = estimate_first_passage(GAUSS, TargetScan(threshold=10), **kw)
        assert a == b

    def test_matches_exact_oracle_doubling(self):
        n = 200_000
        got = estimate_first_passage(
            DOUBLING, TargetScan(word=(1, 1)), n, 1, 256, seed=8
        )
        exact = hitting_pmf(FAIR, PatternTarget(word=(1, 1)), "stationary", 30)
        for k in range(1, 31):
            p = exact.mass_at(k)
            if n * p < 100:
                continue
            c = got.count((k,))
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
                DOUBLING, TargetScan(word=(1, 1)), n, 1, 128, seed=seed
            )
            for k in range(1, 11):
                p = exact.mass_at(k)
                if n * p < 100:
                    continue
                looks += 1
                c = got.count((k,))
                if abs(c - n * p) <= 4 * math.sqrt(n * p * (1 - p)):
                    inside += 1
        assert looks >= 50
        assert inside / looks >= 0.99

    def test_mark_overflow_bucket(self):
        # P(a > 2 + 10^4 | a >= 2) is about 3.5e-4 under the Gauss measure
        got = estimate_first_passage(
            GAUSS, TargetScan(threshold=2), 100_000, 1, 64, seed=9
        )
        cap = 2 + DEFAULT_MARK_CAP_EXCESS
        assert got.meta["mark_cap"] == cap
        marks = got.keys[:, 1]
        assert got.counts[marks == OVERFLOW_MARK].sum() > 0
        assert ((marks <= cap) | (marks == OVERFLOW_MARK)).all()

    def test_renewal_target_gaps_independent(self):
        # single-symbol word in an i.i.d. stream: (tau1, tau2) factorizes
        n = 150_000
        got = estimate_first_passage(
            DOUBLING, TargetScan(word=(1,)), n, 2, 128, seed=21
        )
        cells, probs = [], []
        for k1 in range(1, 7):
            for k2 in range(1, 7):
                cells.append((k1, k2))
                probs.append(2.0**-k1 * 2.0**-k2)
        obs = np.array([got.count(c) for c in cells], dtype=float)
        stat, df, p = chi_square_gof(obs, np.array(probs), n_total=n)
        assert p > 0.01

    def test_mark_marginal_matches_cell_ratio(self):
        # P(psi = a | hit) -> mu(I_a) / mu({a >= l})
        from hittimes.theory import gauss_digit_cell_measure

        n = 200_000
        l = 50
        got = estimate_first_passage(
            GAUSS, TargetScan(threshold=l), n, 1, 512, seed=22
        )
        n_hits = got.counts.sum()
        mu_l = threshold_cell_measure(l)
        marks = list(range(l, l + 31))
        obs = np.array(
            [got.counts[got.keys[:, 1] == a].sum() for a in marks],
            dtype=float,
        )
        probs = np.array([gauss_digit_cell_measure(a) / mu_l for a in marks])
        stat, df, p = chi_square_gof(obs, probs, n_total=n_hits)
        assert p > 0.01


def _refusing_on_call(system, k):
    """``system`` with a ``branch_array`` that raises on its k-th call, and the error."""
    calls = []
    error = SamplingError(f"refused on call {k}")

    def branch_array(y, u, out):
        calls.append(k)
        if len(calls) == k:
            raise error
        system.branch_array(y, u, out)

    return dataclasses.replace(system, branch_array=branch_array), error


class TestReadAheadLifecycle:
    """A sampler that raises while its next uniforms are being drawn ahead
    passes the error on unchanged, leaves no thread behind, and does not
    disturb a later call with the same seed."""

    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_replica_chunk_error(self, sampler_path, k):
        target = TargetScan(threshold=5)
        kw = dict(n_replicas=2**14, d=1, max_steps=64, seed=9)
        want = estimate_first_passage(GAUSS, target, **kw)
        before = threading.enumerate()
        system, error = _refusing_on_call(GAUSS, k)
        with pytest.raises(SamplingError) as raised:
            estimate_first_passage(system, target, **kw)
        assert raised.value is error
        assert threading.enumerate() == before
        assert estimate_first_passage(GAUSS, target, **kw) == want

    def test_chunk_threads_past_the_cpus_each_read_their_own_substream(self, monkeypatch):
        # four chunk threads, each with its helper, switching as often as the
        # interpreter allows: a draw taken out of turn would move the counts
        monkeypatch.setattr(branch_systems, "_spare_cpu", lambda: True)
        target = TargetScan(word=(1, 1))
        kw = dict(n_replicas=4 * 2**13, d=1, max_steps=64, seed=12, chunk_size=2**13)
        want = estimate_first_passage(DOUBLING, target, **kw)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = estimate_first_passage(DOUBLING, target, workers=4, **kw)
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    @pytest.mark.parametrize("k", [1, 100, 200])  # a full Gauss chunk makes 96 kernel calls
    def test_stream_error(self, sampler_path, k):
        want = generate_stream(GAUSS, 10, 3 * 2**16)
        before = threading.enumerate()
        system, error = _refusing_on_call(GAUSS, k)
        with pytest.raises(SamplingError) as raised:
            generate_stream(system, 10, 3 * 2**16)
        assert raised.value is error
        assert threading.enumerate() == before
        got = generate_stream(GAUSS, 10, 3 * 2**16)
        assert np.array_equal(got.digits, want.digits) and got.anchor_point == want.anchor_point


class TestErgodicEstimator:
    def test_mean_gap_kac_doubling_word0(self):
        stream = generate_stream(DOUBLING, seed=10, n=200_000)
        est = estimate_return_law_ergodic(stream, TargetScan(word=(0,)),
                                          min_hits=1000)
        assert abs(est.mean_gap - 2.0) <= 2.576 * est.mean_gap_se
        assert est.mean_gap == pytest.approx(2.0, rel=0.02)

    def test_mean_gap_kac_gauss_threshold(self):
        stream = generate_stream(GAUSS, seed=11, n=400_000)
        est = estimate_return_law_ergodic(stream, TargetScan(threshold=50),
                                          min_hits=1000)
        want = 1.0 / threshold_cell_measure(50)
        assert est.mean_gap == pytest.approx(want, rel=0.05)

    def test_insufficient_hits_error(self):
        stream = generate_stream(GAUSS, seed=12, n=2000)
        with pytest.raises(InsufficientDataError):
            estimate_return_law_ergodic(stream, TargetScan(threshold=50))

    def test_one_hit_raises_before_any_mean(self):
        # one hit leaves no gap; the empty mean would warn, and under the
        # suite's RuntimeWarning filter the caller would get that instead
        digits = np.ones(1000, dtype=np.int64)
        digits[500] = 60
        with pytest.raises(InsufficientDataError):
            estimate_return_law_ergodic(digits, TargetScan(threshold=50), min_hits=1)

    def test_gap_histogram_matches_exact_return_law(self):
        stream = generate_stream(DOUBLING, seed=13, n=400_000)
        est = estimate_return_law_ergodic(stream, TargetScan(word=(1, 1)),
                                          min_hits=1000)
        exact = return_pmf(FAIR, PatternTarget(word=(1, 1)), 40)
        n = est.pmf.n_total
        for k in (1, 3, 4, 5, 8, 12):
            p = exact.mass_at(k)
            if n * p < 100:
                continue
            freq = est.pmf.count((k,)) / n
            se = ergodic_cell_se(est.gaps, lambda g, kk=k: g == kk)
            assert abs(freq - p) < 4 * max(se, 1e-12), k

    def test_replica_and_ergodic_agree_on_return_law(self):
        # second replica gap tau^(2) has the return law for word targets
        n = 150_000
        rep = estimate_first_passage(
            DOUBLING, TargetScan(word=(1, 1)), n, 2, 256, seed=14
        )
        stream = generate_stream(DOUBLING, seed=15, n=300_000)
        erg = estimate_return_law_ergodic(stream, TargetScan(word=(1, 1)),
                                          min_hits=1000)
        for k in (1, 3, 4, 6):
            rep_count = rep.counts[rep.keys[:, 1] == k].sum()
            rep_freq = rep_count / n
            erg_freq = erg.pmf.count((k,)) / erg.pmf.n_total
            se_rep = math.sqrt(max(rep_freq, 1e-9) / n)
            se_erg = ergodic_cell_se(erg.gaps, lambda g, kk=k: g == kk)
            assert abs(rep_freq - erg_freq) < 4 * math.hypot(se_rep, se_erg), k


class TestCountTable:
    @pytest.mark.parametrize("width", range(1, 7))
    @pytest.mark.parametrize(
        "pool",
        [
            # heavy duplication down to OVERFLOW_MARK
            np.arange(OVERFLOW_MARK, 4),
            # spans near 2^40: the code so far is ranked, no column is
            np.array([-(2**39), -7, 0, 2**39 - 1]),
            # spans of 2^64: every column is ranked as well
            np.array([-(2**63), -(2**62), OVERFLOW_MARK, 0, 2**62, 2**63 - 1]),
        ],
        ids=["small", "wide", "int64-extremes"],
    )
    def test_sum_by_row_matches_dict_tally(self, pool, width):
        rng = np.random.default_rng(width)
        rows = pool[rng.integers(0, len(pool), size=(3000, width))]
        weights = rng.integers(0, 2**40, size=len(rows))
        keys, counts = sum_by_row(rows)
        assert keys.dtype == counts.dtype == np.int64
        got = dict(zip(map(tuple, keys.tolist()), counts.tolist()))
        assert list(got.items()) == list(dict_chunk_tail(rows).items())
        want: dict[tuple, int] = {}
        for key, w in zip(map(tuple, rows.tolist()), weights.tolist()):
            want[key] = want.get(key, 0) + w
        keys, sums = sum_by_row(rows, weights)
        assert sums.dtype == np.int64
        assert list(zip(map(tuple, keys.tolist()), sums.tolist())) == sorted(want.items())

    @pytest.mark.parametrize("width", [1, 3])
    def test_sum_by_row_of_one_row_and_of_empty_tables(self, width):
        row = np.array([[2**63 - 1, -(2**63), OVERFLOW_MARK][:width]])
        keys, counts = sum_by_row(row)
        assert keys.tolist() == row.tolist() and counts.tolist() == [1]
        keys, sums = sum_by_row(row, np.array([7]))
        assert keys.tolist() == row.tolist() and sums.tolist() == [7]
        empty = row[:0]
        for keys, sums in (sum_by_row(empty), sum_by_row(empty, np.zeros(0, dtype=np.int64))):
            assert keys.shape == (0, width) and sums.shape == (0,)
            assert keys.dtype == sums.dtype == np.int64

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "system,target,d",
        [
            (GAUSS, TargetScan(threshold=20), 2),
            (DOUBLING, TargetScan(word=(1, 0, 1)), 2),
            (GAUSS, TargetScan(threshold=20), 1),
            (GAUSS, TargetScan(threshold=20), 3),
            (DOUBLING, TargetScan(word=(1, 0, 1)), 1),
            (DOUBLING, TargetScan(word=(1, 0, 1)), 3),
        ],
        ids=["gauss-a20", "doubling-101", "gauss-a20-d1", "gauss-a20-d3", "doubling-101-d1",
             "doubling-101-d3"],
    )
    def test_merge_matches_dict_merge(self, system, target, d, workers):
        # 13 chunks, the last one short; at d = 2 about 100 Gauss marks overflow
        n, max_steps, seed, chunk = 12 * 2048 + 700, 256, 31, 2048
        got = estimate_first_passage(
            system, target, n, d, max_steps, seed, chunk_size=chunk, workers=workers
        )
        want, censored, steps = dict_first_passage(system, target, n, d, max_steps, seed, chunk)
        assert list(pmf_dict(got).items()) == list(want.items())
        assert (got.censored, got.meta["replica_steps"]) == (censored, steps)
        if target.word is None:
            assert (got.keys[:, 1::2] == OVERFLOW_MARK).any()

    @pytest.mark.parametrize(
        "keys,counts,n_total,censored,match",
        [
            ([[1.0], [2.0]], [1, 1], 4, 0, "int64"),
            ([1, 2], [1, 1], 4, 0, "int64"),
            ([[1], [2]], [1, 1, 1], 4, 0, "int64"),
            (np.empty((0, 0), dtype=np.int64), [], 4, 0, "int64"),
            ([[1], [2]], [3, -1], 4, 0, "nonnegative"),
            ([[1], [2]], [1, 1], 4, -1, "nonnegative"),
            ([[1], [1]], [1, 1], 4, 0, "lexicographic"),
            ([[2], [1]], [1, 1], 4, 0, "lexicographic"),
            ([[1, 5], [1, 3]], [1, 1], 4, 0, "lexicographic"),
            ([[1], [2]], [3, 2], 4, 0, "n_total"),
            ([[1]], [3], 4, 2, "n_total"),
            ([[1], [2]], [2**62, 2**62], 4, 0, "n_total"),  # no int64 wraparound
        ],
        ids=["float-keys", "1-d-keys", "counts-length", "no-key-column", "negative-count",
             "negative-censored", "repeated-key", "descending-key", "descending-second-entry",
             "counts-above-n-total", "censored-above-n-total", "sum-beyond-int64"],
    )
    def test_table_invariants_refused(self, keys, counts, n_total, censored, match):
        with pytest.raises(ValidationError, match=match):
            EmpiricalPMF(np.asarray(keys), np.asarray(counts, dtype=np.int64), n_total, censored)

    def test_count_looks_cells_up(self):
        rng = np.random.default_rng(8)
        table: dict[tuple, int] = {}
        for key in map(tuple, rng.integers(OVERFLOW_MARK, 6, size=(400, 3)).tolist()):
            table[key] = table.get(key, 0) + 1
        pmf = _pmf(table, 400)
        assert pmf.keys[0].tolist() < pmf.keys[-1].tolist()
        for cell in map(tuple, rng.integers(OVERFLOW_MARK - 1, 8, size=(300, 3)).tolist()):
            assert pmf.count(cell) == table.get(cell, 0), cell
        with pytest.raises(ValidationError, match="3 entries"):
            pmf.count((1, 2))

    def test_report_refuses_a_cell_of_another_width(self):
        with pytest.raises(ValidationError, match="1 entries"):
            llt_report(_pmf({(1,): 3}, 4), [((1, 2), 0.5)])


class TestReportsAndStats:
    def test_llt_report_empirical_with_ci(self):
        pmf = _pmf({(1,): 5200, (2,): 2400}, 10_000)
        rows, summary = llt_report(pmf, [((1,), 0.5), ((2,), 0.25)])
        assert rows[0].ci_low < rows[0].estimate < rows[0].ci_high
        assert (rows[1].count, rows[1].N) == (2400, 10_000)
        assert summary == pytest.approx(0.04, abs=1e-12)
        with pytest.raises(ValidationError):
            llt_report(pmf, [])

    def test_llt_report_cells_are_integral_keys_down_to_the_overflow_mark(self):
        pmf = _pmf({(1, OVERFLOW_MARK): 3}, 4)
        (row,), _ = llt_report(pmf, [((1.0, OVERFLOW_MARK), 0.5)])
        assert (row.cell, row.count) == ((1, OVERFLOW_MARK), 3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: llt_report(_pmf({(1,): 3}, 4), [((1.5,), 0.5)]),
            lambda: llt_report(_pmf({(1,): 3}, 4), [((1, -2), 0.5)]),
            lambda: TargetScan(threshold=2.5),
            lambda: cf_joint_asymptote(threshold=50, gaps=(1,), marks=(53.5,), prime_variant=True),
            lambda: cf_joint_asymptote(threshold=50, gaps=(1.5,), marks=(53,)),
            lambda: cf_joint_asymptote(threshold=50.5, gaps=(1,), marks=(53,)),
        ],
        ids=["report-cell", "report-cell-below-overflow", "scan-threshold",
             "cf-prime-mark", "cf-gap", "cf-threshold"],
    )
    def test_fractions_refused_not_truncated(self, call):
        with pytest.raises(ValidationError, match="as integers"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda flag: TargetScan(threshold=5, prime_variant=flag),
            lambda flag: cf_joint_asymptote(5, (3,), (7,), flag),
            lambda flag: cf_rare_set_measure(5, flag),
            lambda flag: consecutive_asymptote(0.5, 0.25, [2], hitting_start=flag),
            lambda flag: consecutive_joint_pmf(FAIR, PatternTarget(word=(1, 1)), [2, 3], flag),
        ],
        ids=["scan-prime-variant", "cf-prime-variant", "cf-rare-set-measure",
             "hitting-start", "from-entry"],
    )
    def test_non_bool_flags_refused(self, call):
        # a truthy string would turn the flag on; numpy bools are bools
        for bad in ("no", "", 1, 0.0, None):
            with pytest.raises(ValidationError, match="must be a bool"):
                call(bad)
        assert call(np.True_) == call(True) != call(False) == call(np.False_)

    def test_wilson_interval(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert 0.0 <= lo < hi <= 1.0
        assert wilson_interval(0, 10)[0] == 0.0

    def test_wilson_z_is_scipys_quantile_bitwise(self):
        from scipy import stats

        assert _WILSON_Z.hex() == float(stats.norm.ppf(0.995)).hex()
        # the bounds the scipy-computed z gave, pinned as hex
        assert [x.hex() for x in wilson_interval(50, 100)] == [
            "0x1.80494d51b0e01p-2", "0x1.3fdb595727900p-1"
        ]
        assert [x.hex() for x in wilson_interval(0, 10)] == ["0x0.0p+0", "0x1.986d351a7b335p-2"]

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

    @pytest.mark.parametrize("batch_count", [0, 1])
    def test_batch_means_se_refuses_fewer_than_two_batches(self, batch_count):
        with pytest.raises(ValidationError):
            batch_means_se(np.arange(100.0), batch_count=batch_count)


class TestPrunedDemo:
    def test_structural_zero_and_consistency(self):
        s1 = generate_stream(DOUBLING, seed=18, n=400_000, substream=0)
        s2 = generate_stream(DOUBLING, seed=18, n=400_000, substream=1)
        target = TargetScan(word=(1, 1))
        g1 = np.diff(scan_hits(s1, target)[0])
        g2 = np.diff(scan_hits(s2, target)[0])
        demo = demo_pruned_return(g1, g2, k_prune=3)
        assert demo.b_returns_at_k_prune == 0
        assert abs(demo.discrepancy_z) < 4.0
        exact = return_pmf(FAIR, PatternTarget(word=(1, 1)), 3)
        assert demo.b_fraction == pytest.approx(1.0 - exact.mass_at(3), abs=0.01)

    def test_prune_beyond_max_gap_keeps_everything(self):
        g = np.array([2, 5, 3, 7, 4])
        demo = demo_pruned_return(g, g, k_prune=99)
        assert demo.b_fraction == 1.0
        assert demo.b_returns_at_k_prune == 0

    @pytest.mark.parametrize(
        "bad", [[1.5, 2.7, 3.2, 1.1], [[2, 5], [3, 7]], [True, False, True, True], [2, True, 3, 7]],
        ids=["fractional", "2-D", "bool", "bool-inside"],
    )
    def test_malformed_gaps_are_refused_not_truncated(self, bad):
        # [1.5, 2.7, 3.2, 1.1] used to be read as [1, 2, 3, 1], and [2, True, 3, 7]
        # as [2, 1, 3, 7]
        g = np.array([2, 5, 3, 7])
        for scan, ref in ((bad, g), (g, bad)):
            with pytest.raises(ValidationError, match="gaps must be"):
                demo_pruned_return(scan, ref, k_prune=3)

    def test_int64_gaps_are_read_in_place(self, monkeypatch):
        passed = []

        def spy(values, what):
            out = original(values, what)
            passed.append(out is values)
            return out

        original = estimators._digit_array
        monkeypatch.setattr(estimators, "_digit_array", spy)
        g = np.array([2, 5, 3, 7, 4], dtype=np.int64)
        demo_pruned_return(g, g[::-1], k_prune=3)
        assert passed == [True, True]

    def test_gauss_threshold_prune(self):
        s1 = generate_stream(GAUSS, seed=19, n=300_000, substream=0)
        s2 = generate_stream(GAUSS, seed=19, n=300_000, substream=1)
        target = TargetScan(threshold=20)
        g1 = np.diff(scan_hits(s1, target)[0])
        g2 = np.diff(scan_hits(s2, target)[0])
        demo = demo_pruned_return(g1, g2, k_prune=10)
        assert demo.b_returns_at_k_prune == 0
        assert abs(demo.discrepancy_z) < 4.0


_WORD11 = TargetScan(word=(1, 1))
_GAPS = np.array([2, 5, 3, 7, 4, 3, 2, 6])
_MC_SIZE_CALLS = {
    "n_replicas": lambda v: estimate_first_passage(DOUBLING, _WORD11, v, 1, 8, seed=3),
    "d": lambda v: estimate_first_passage(DOUBLING, _WORD11, 10, v, 8, seed=3),
    "max_steps": lambda v: estimate_first_passage(DOUBLING, _WORD11, 10, 1, v, seed=3),
    "chunk_size": lambda v: estimate_first_passage(DOUBLING, _WORD11, 10, 1, 8, 3, chunk_size=v),
    "workers": lambda v: estimate_first_passage(DOUBLING, _WORD11, 10, 1, 8, 3, workers=v),
    "batch_count": lambda v: batch_means_se(np.arange(100.0), v),
    "k_prune": lambda v: demo_pruned_return(_GAPS, _GAPS, v),
    "generate_stream": lambda v: generate_stream(DOUBLING, seed=3, n=v).digits.tolist(),
    "min_hits": lambda v: estimate_return_law_ergodic(np.tile([1, 1, 0], 200), _WORD11, v).n_hits,
}


@pytest.mark.parametrize("size", [0, -5, 2.5, True, "3"], ids=["zero", "negative", "fraction",
                                                              "bool", "str"])
@pytest.mark.parametrize("call", _MC_SIZE_CALLS.values(), ids=_MC_SIZE_CALLS.keys())
def test_monte_carlo_sizes_refused(call, size):
    # a bare TypeError at 2.5 or True, or for k_prune = 2.5 a demo in which
    # no gap equals k_prune, were the old answers
    with pytest.raises(ValidationError, match="as integers"):
        call(size)


@pytest.mark.parametrize("call", _MC_SIZE_CALLS.values(), ids=_MC_SIZE_CALLS.keys())
def test_integral_float_monte_carlo_sizes_accepted(call):
    assert call(4.0) == call(4)
