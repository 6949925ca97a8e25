"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run at pinned Philox seeds, so every run of this module
is deterministic. The heavy Monte-Carlo criteria (6, 7, 9) dominate the
runtime at around 2-6 minutes each; everything exact finishes in seconds.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import numpy as np
import pytest

from hittimes.branch_systems import DOUBLING, GAUSS, generate_stream
from hittimes.cli import run_config
from hittimes.estimators import (
    TargetScan,
    batch_means_se,
    demo_pruned_return,
    estimate_first_passage,
    estimate_return_law_ergodic,
    scan_hits,
)
from hittimes.markov_pattern import (
    MarkovSource,
    PatternTarget,
    block_hitting_pmf,
    block_return_pmf,
    consecutive_joint_pmf,
    counterexample_pruned_target,
    hitting_pmf,
    k_grid,
    return_pmf,
    theta_exact,
    verify_inducing_identity,
    verify_shift_identity_grid,
)
from hittimes.theory import (
    cf_joint_asymptote,
    cf_rare_set_measure,
    gauss_digit_cell_measure,
    prime_threshold_measure,
    threshold_cell_measure,
)

from oracles import brute_hitting_masses, brute_return_masses, chi_square_gof

FAIR = MarkovSource.iid([0.5, 0.5])
BIASED = MarkovSource.iid([0.3, 0.7])


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_exact_identity_suite():
    """Inducing, shift, Kac, and discrete hitting/return identities at 1e-10."""
    started = time.time()
    worst = 0.0
    for source in (FAIR, BIASED):
        for word in [(1,), (1, 1), (0, 1, 0), (0, 1, 1, 0)]:
            target = PatternTarget(word=word)
            mu = source.word_measure(word)
            hit = hitting_pmf(source, target, "stationary", 4096)
            ret = return_pmf(source, target, 4096)
            worst = max(worst, verify_inducing_identity(hit, ret, mu))
            lhs, rhs = verify_shift_identity_grid(source, target, ret, 64, 64)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            assert ret.tail < 1e-10
            worst = max(worst, abs(ret.expectation() - 1.0 / mu))
            surv = np.cumsum(ret.masses[::-1])[::-1] + ret.tail
            hit_cum = np.cumsum(hit.masses)
            for big_k in (1, 512, 1024, 2048):
                lhs = 1.0 - float(hit_cum[big_k - 1])
                rhs = mu * float(np.sum(surv[big_k:]))
                worst = max(worst, abs(lhs - rhs))
    elapsed = time.time() - started
    _report("1", worst < 1e-10, f"max residual {worst:.3e} in {elapsed:.1f}s (budget 10s)")


def test_criterion_02_brute_force_oracle_equivalence():
    """Automaton PMFs equal exhaustive enumeration and the block backend to 1e-12."""
    started = time.time()
    markov3 = MarkovSource.from_transitions(
        [[0.1, 0.5, 0.4], [0.3, 0.3, 0.4], [0.25, 0.5, 0.25]]
    )
    battery = [
        (FAIR, (1,)),
        (FAIR, (1, 1)),
        (FAIR, (0, 1, 0)),
        (FAIR, (0, 1, 1, 0)),
        (FAIR, (0, 0, 1, 1, 0)),
        (FAIR, (0, 1, 0, 0, 1, 0)),
        (BIASED, (0, 1)),
        (BIASED, (1, 1, 0, 1)),
        (markov3, (0, 1, 0)),
        (markov3, (2, 0, 2)),
    ]
    worst = 0.0
    for source, word in battery:
        k_max = 12 if source.alphabet_size == 2 else 8
        target = PatternTarget(word=word)
        hit = hitting_pmf(source, target, "stationary", k_max)
        ret = return_pmf(source, target, k_max)
        bh = brute_hitting_masses(source.transitions, source.stationary, word, k_max)
        br = brute_return_masses(source.transitions, source.stationary, word, k_max)
        worst = max(worst, float(np.max(np.abs(hit.masses - bh))))
        worst = max(worst, float(np.max(np.abs(ret.masses - br))))
        worst = max(worst, float(np.max(np.abs(
            hit.masses - block_hitting_pmf(source, target, k_max).masses))))
        worst = max(worst, float(np.max(np.abs(
            ret.masses - block_return_pmf(source, target, k_max).masses))))
    elapsed = time.time() - started
    _report("2", worst < 1e-12, f"max deviation {worst:.3e} in {elapsed:.1f}s (budget 60s)")


def _ratio_errors(kind: str, ls, make_target, theta=None) -> dict[int, float]:
    errors = {}
    for l in ls:
        target = make_target(l)
        mu = FAIR.word_measure(target.word)
        th = theta if theta is not None else theta_exact(FAIR, target)
        ks = k_grid(mu, 0.5)
        k_max = int(ks.max())
        pmf = (return_pmf(FAIR, target, k_max) if kind == "return"
               else hitting_pmf(FAIR, target, "stationary", k_max))
        factor = th * th if kind == "return" else th
        worst = 0.0
        for k in ks:
            t = mu * float(k)
            pred = factor * math.exp(-th * t) * mu
            worst = max(worst, abs(pmf.mass_at(int(k)) / pred - 1.0))
        errors[l] = worst
    return errors


def test_criterion_03_periodic_cylinder_return_llt():
    """Return-law ratios against the periodic-target exponential prediction."""
    started = time.time()
    target18 = PatternTarget(word=(0,) * 18)
    assert theta_exact(FAIR, target18) == pytest.approx(0.5, abs=1e-15)
    errors = _ratio_errors(
        "return", (6, 10, 14, 18), lambda l: PatternTarget(word=(0,) * l)
    )
    decreasing = all(errors[a] > errors[b] for a, b in ((6, 10), (10, 14), (14, 18)))
    ok = decreasing and errors[18] <= 0.10
    elapsed = time.time() - started
    _report(
        "3",
        ok,
        "max|ratio-1| by l: "
        + ", ".join(f"{l}: {errors[l]:.2e}" for l in (6, 10, 14, 18))
        + f"; strictly decreasing={decreasing}; {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_04_hitting_side_llt():
    """Hitting-law ratios for periodic targets, plus the non-periodic family."""
    started = time.time()
    errors = _ratio_errors(
        "hitting", (6, 10, 14, 18), lambda l: PatternTarget(word=(0,) * l)
    )
    decreasing = all(errors[a] > errors[b] for a, b in ((6, 10), (10, 14), (14, 18)))
    ok = decreasing and errors[18] <= 0.10
    # theta = 1 family: 0^{l-1}1, whose l = 2 member is the word "01"
    errors_np = _ratio_errors(
        "hitting", (2, 6, 10, 14, 18),
        lambda l: PatternTarget(word=(0,) * (l - 1) + (1,)), theta=1.0,
    )
    pairs = ((2, 6), (6, 10), (10, 14), (14, 18))
    decreasing_np = all(errors_np[a] > errors_np[b] for a, b in pairs)
    ok = ok and decreasing_np and errors_np[18] <= 0.10
    elapsed = time.time() - started
    _report(
        "4",
        ok,
        "periodic: " + ", ".join(f"{l}: {errors[l]:.2e}" for l in (6, 10, 14, 18))
        + " | non-periodic(01 family): "
        + ", ".join(f"{l}: {errors_np[l]:.2e}" for l in (2, 6, 10, 14, 18))
        + f"; {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_05_consecutive_gaps_llt():
    """d = 2 joint gap probabilities against both start-measure predictions."""
    started = time.time()

    def worst_pair_error(l: int) -> tuple[float, float]:
        target = PatternTarget(word=(0,) * l)
        mu = FAIR.word_measure(target.word)
        th = theta_exact(FAIR, target)
        worst_stat, worst_entry = 0.0, 0.0
        for t1 in (0.5, 1.0, 2.0):
            for t2 in (0.5, 1.0, 2.0):
                k1, k2 = int(round(t1 / mu)), int(round(t2 / mu))
                decay = math.exp(-th * mu * (k1 + k2)) * mu**2
                stat = consecutive_joint_pmf(FAIR, target, [k1, k2], from_entry=False)
                entry = consecutive_joint_pmf(FAIR, target, [k1, k2], from_entry=True)
                worst_stat = max(worst_stat, abs(stat / (th**3 * decay) - 1.0))
                worst_entry = max(worst_entry, abs(entry / (th**4 * decay) - 1.0))
        return worst_stat, worst_entry

    stat10, entry10 = worst_pair_error(10)
    stat6, entry6 = worst_pair_error(6)
    ok = (
        stat10 <= 0.15
        and entry10 <= 0.15
        and stat10 < stat6
        and entry10 < entry6
    )
    elapsed = time.time() - started
    _report(
        "5",
        ok,
        f"l=10 stationary {stat10:.3f}, entry {entry10:.3f}; "
        f"l=6 stationary {stat6:.3f}, entry {entry6:.3f}; {elapsed:.1f}s (budget 600s)",
    )


def test_criterion_06_cross_oracle_monte_carlo():
    """Doubling-map backward sampler against the exact word-11 hitting law."""
    started = time.time()
    n = 10**7
    pmf = estimate_first_passage(
        DOUBLING, TargetScan(word=(1, 1)), n, d=1, max_steps=256, seed=101
    )
    exact = hitting_pmf(FAIR, PatternTarget(word=(1, 1)), "stationary", 64)
    band_violations = []
    for k in range(1, 65):
        p = exact.mass_at(k)
        expected = n * p
        if expected < 100:
            continue
        c = pmf.count((k,))
        if abs(c - expected) > 4.0 * math.sqrt(expected * (1.0 - p)):
            band_violations.append(k)
    obs = np.array([pmf.count((k,)) for k in range(1, 31)], dtype=float)
    probs = np.array([exact.mass_at(k) for k in range(1, 31)])
    stat, df, pvalue = chi_square_gof(obs, probs, n_total=n)
    ok = not band_violations and pvalue > 0.01
    elapsed = time.time() - started
    _report(
        "6",
        ok,
        f"4-sigma violations {band_violations}; chi2({df}) = {stat:.1f}, "
        f"p = {pvalue:.3f}; N = {n}; {elapsed:.0f}s (budget 600s)",
    )


def _cf_cell_errors(l: int, gaps, marks, n: int, max_steps: int, seed: int):
    pmf = estimate_first_passage(
        GAUSS, TargetScan(threshold=l), n, d=1, max_steps=max_steps, seed=seed
    )
    rows = []
    for k in gaps:
        for a in marks:
            pred = cf_joint_asymptote(threshold=l, gaps=(k,), marks=(a,))
            if n * pred < 500:
                continue
            est = pmf.count((k, a)) / n
            rows.append(((k, a), est, pred, abs(est / pred - 1.0)))
    return rows, pmf


def test_criterion_07_cf_spatiotemporal_llt():
    """Joint (gap, mark) cells of large CF digits against the product formula."""
    started = time.time()
    reference = cf_joint_asymptote(threshold=50, gaps=(35,), marks=(60,))
    assert reference == pytest.approx(1.460e-4, rel=2e-3)
    rows50, _ = _cf_cell_errors(
        50, (17, 25, 35, 50, 69), (50, 60, 75, 100), n=10**7, max_steps=512, seed=102
    )
    assert len(rows50) >= 15  # ~20 candidate cells, all but a few eligible
    err50 = max(r[3] for r in rows50)
    if err50 <= 0.10:
        ok = True
        detail = f"primary l=50 max rel err {err50:.3f} over {len(rows50)} cells"
    else:
        # asymptotic-tolerance fallback: confirm the error shrinks at l = 100
        rows100, _ = _cf_cell_errors(
            100, (34, 50, 70, 100, 138), (100, 120, 150, 200),
            n=10**7, max_steps=1024, seed=103,
        )
        err100 = max(r[3] for r in rows100)
        ok = err100 < err50
        detail = (
            f"l=50 max rel err {err50:.3f} exceeded 0.10; trend fallback "
            f"l=100 err {err100:.3f} < l=50 err: {ok}"
        )
    elapsed = time.time() - started
    _report("7", ok, detail + f"; {elapsed:.0f}s (budget 1800s)")


def test_criterion_08_cf_marginals():
    """Digit-cell frequencies and the Kac mean gap of the threshold target."""
    started = time.time()
    stream = generate_stream(GAUSS, seed=104, n=10**6)
    digits = stream.digits
    obs = np.array([(digits == k).sum() for k in range(1, 21)], dtype=float)
    probs = np.array([gauss_digit_cell_measure(k) for k in range(1, 21)])
    stat, df, pvalue = chi_square_gof(obs, probs, n_total=digits.size)
    est = estimate_return_law_ergodic(stream, TargetScan(threshold=50))
    want = 1.0 / threshold_cell_measure(50)  # = 35.0028
    gap_ok = abs(est.mean_gap - want) / want <= 0.02
    ok = pvalue > 0.01 and gap_ok
    elapsed = time.time() - started
    _report(
        "8",
        ok,
        f"digit chi2({df}) p = {pvalue:.3f}; mean gap {est.mean_gap:.3f} vs {want:.3f} "
        f"({abs(est.mean_gap - want) / want:.2%}); {elapsed:.0f}s (budget 300s)",
    )


def _prime_rate_error(l: int, n_digits: int, seed: int):
    stream = generate_stream(GAUSS, seed=seed, n=n_digits)
    target = TargetScan(threshold=l, prime_variant=True)
    positions, _ = scan_hits(stream, target)
    rate = positions.size / n_digits
    asym = cf_rare_set_measure(l, prime_variant=True)
    return abs(rate / asym - 1.0), rate, asym, stream, positions


def test_criterion_09a_prime_digit_hit_rate():
    """Prime-variant hit rate against its closed-form asymptote (15%, trend fallback).

    The exact rate sum over primes >= 100 sits 17% below the asymptote and the
    prime gap 199 -> 211 pushes the l = 200 error to 21%, so both the primary
    tolerance and the trend fallback fail for genuine number-theoretic reasons;
    this criterion is expected red. See the gap-histogram half in 9b.
    """
    started = time.time()
    err100, rate100, asym100, _, _ = _prime_rate_error(100, 4 * 10**6, seed=105)
    if err100 <= 0.15:
        ok = True
        detail = f"hit rate {rate100:.4e} vs {asym100:.4e} (err {err100:.3f})"
    else:
        err200, rate200, asym200, _, _ = _prime_rate_error(200, 10**7, seed=106)
        ok = err200 < err100
        detail = (
            f"l=100 err {err100:.3f} > 0.15; fallback l=200 err {err200:.3f} "
            f"(rates {rate100:.3e}/{rate200:.3e} vs asymptotes "
            f"{asym100:.3e}/{asym200:.3e})"
        )
    elapsed = time.time() - started
    _report("9a", ok, detail + f"; {elapsed:.0f}s (budget 1800s shared with 9b)")


def test_criterion_09a_companion_prime_hit_rate_against_exact_measure():
    """9a's stream and rate against the near-exact measure (4 batch-means sigma).

    9a is red because its asymptote converges only like 1/ln l; this companion
    holds the sampler itself to `prime_threshold_measure`, with the error bar of
    the dependent 0/1 hit indicator taken from batch means.
    """
    started = time.time()
    _, rate, _, stream, positions = _prime_rate_error(100, 4 * 10**6, seed=105)
    hit = np.zeros(len(stream))
    hit[positions] = 1.0
    se = batch_means_se(hit)
    exact = prime_threshold_measure(100)
    z = abs(rate - exact) / se
    elapsed = time.time() - started
    _report(
        "9a-exact",
        z <= 4.0,
        f"{positions.size} hits, rate {rate:.4e} vs exact {exact:.4e}, "
        f"sigma {se / exact:.2%} relative, z = {z:.2f}; {elapsed:.1f}s",
    )


def test_criterion_09b_prime_digit_gap_histogram():
    """Normalized prime-hit gap histogram against e^{-t} in windowed buckets."""
    started = time.time()
    stream = generate_stream(GAUSS, seed=105, n=4 * 10**6)
    target = TargetScan(threshold=100, prime_variant=True)
    positions, _ = scan_hits(stream, target)
    gaps = np.diff(positions)
    rate = positions.size / len(stream)  # empirical mu(A'), the normalizer
    t_values = gaps * rate
    edges = np.linspace(0.5, 2.0, 7)
    worst = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        frac = float(np.mean((t_values >= lo) & (t_values < hi)))
        want = math.exp(-lo) - math.exp(-hi)  # theta = 1 exponential window
        worst = max(worst, abs(frac / want - 1.0))
    ok = worst <= 0.15
    elapsed = time.time() - started
    _report(
        "9b",
        ok,
        f"max windowed rel err {worst:.3f} over t in [0.5, 2] "
        f"({gaps.size} gaps); {elapsed:.0f}s",
    )


def test_criterion_10_pruned_target_counterexample():
    """Pruning the k-gap visits zeroes that return mass: exact and Monte-Carlo."""
    started = time.time()
    report = counterexample_pruned_target(FAIR, PatternTarget(word=(1, 1)), 3)
    exact_ok = (
        report.b_return_at_k_prune == 0.0
        and abs(report.ratio_b_over_a - (1.0 - report.pruned_mass)) < 1e-10
    )
    s1 = generate_stream(GAUSS, seed=107, n=2 * 10**6, substream=0)
    s2 = generate_stream(GAUSS, seed=107, n=2 * 10**6, substream=1)
    target = TargetScan(threshold=50)
    g1 = np.diff(scan_hits(s1, target)[0])
    g2 = np.diff(scan_hits(s2, target)[0])
    demo = demo_pruned_return(g1, g2, k_prune=35)
    mc_ok = demo.b_returns_at_k_prune == 0 and abs(demo.discrepancy_z) <= 4.0
    ok = exact_ok and mc_ok
    elapsed = time.time() - started
    _report(
        "10",
        ok,
        f"exact: B-return mass {report.b_return_at_k_prune}, ratio discrepancy "
        f"{abs(report.ratio_b_over_a - (1.0 - report.pruned_mass)):.2e}; MC: B-returns at "
        f"k_prune {demo.b_returns_at_k_prune}, z = {demo.discrepancy_z:.2f}; "
        f"{elapsed:.0f}s",
    )


def test_criterion_11_determinism(tmp_path):
    """Rerunning a config produces byte-identical CSV artifacts."""
    started = time.time()
    cfg = {
        "kind": "simulate-cf",
        "mode": "replica",
        "target": {"threshold": 50},
        "n_replicas": 200_000,
        "d": 1,
        "max_steps": 512,
        "seed": 1,
        "cells": [[17, 50], [35, 60]],
        "prediction": {"family": "cf-joint", "threshold": 50},
        "out": str(tmp_path / "runs"),
    }
    dir1, _ = run_config(json.loads(json.dumps(cfg)))
    first = {p.name: p.read_bytes() for p in dir1.iterdir() if p.suffix == ".csv"}
    manifest1 = (dir1 / "manifest.json").read_bytes()
    dir2, _ = run_config(json.loads(json.dumps(cfg)))
    same = dir1 == dir2
    for name, blob in first.items():
        same = same and (dir2 / name).read_bytes() == blob
    same = same and (dir2 / "manifest.json").read_bytes() == manifest1
    elapsed = time.time() - started
    _report(
        "11",
        same and len(first) >= 2,
        f"{len(first)} CSV artifacts byte-identical across reruns in {dir1.name}; "
        f"{elapsed:.0f}s",
    )
