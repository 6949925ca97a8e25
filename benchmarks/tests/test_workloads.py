"""Workloads: output digests are reproducible, references and checks are sound."""

import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

from hittimes import markov_pattern as mp

import run
import workloads
from conftest import BENCH, ROOT


def _passes(name: str, seed: int, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    from tracing import Tracer

    return run.run_passes(workload.ops(seed), 0.0, trace, Tracer() if trace else None)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_digests_repeat_across_runs_and_under_tracing(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    first = _passes(name, 7, trace=False)
    traced = _passes(name, 7, trace=True)  # warm-up, untraced and traced passes
    assert not first["errors"] and not traced["errors"]
    assert len(traced["walls"]["traced"]) == 1 and traced["pass_run_ids"]
    for op, digests in traced["runs"].items():
        assert first["runs"][op] == [first["first_digest"][op]] * 2, op
        assert digests == [first["first_digest"][op]] * 3, op
    workload = workloads.WORKLOADS[name]
    attempted, failed, messages = run.check_outputs(workload, traced, workload.references())
    assert (attempted, failed, messages) == (3 * len(traced["runs"]), 0, [])


def test_monte_carlo_digests_follow_the_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    a = _passes("mc-ergodic", 7, trace=False)["first_digest"]
    b = _passes("mc-ergodic", 8, trace=False)["first_digest"]
    assert all(a[op] != b[op] for op in a)


def test_failing_operations_are_counted_and_do_not_abort_the_run():
    def bad_collect(result):
        raise KeyError("manifest.json")

    ops = [
        workloads.Op("raises", lambda: 1 / 0, lambda r: r),
        workloads.Op("bad-output", lambda: None, bad_collect),
        workloads.Op("wrong", lambda: (), lambda r: r),
        workloads.Op("fine", lambda: (), lambda r: r),
    ]
    log = run.run_passes(ops, 0.0, False, None)  # warm-up and one timed pass
    assert log["runs"]["raises"] == [None, None] and log["runs"]["bad-output"] == [None, None]
    checks = {"raises": None, "bad-output": None, "wrong": lambda out, refs: ["off"], "fine": lambda out, refs: []}
    workload = types.SimpleNamespace(checks=checks)
    attempted, failed, messages = run.check_outputs(workload, log, {})
    assert (attempted, failed) == (8, 6)
    assert any("ZeroDivisionError" in m for m in messages) and "wrong: off" in messages


@pytest.mark.parametrize("l", [1, 2, 3, 5])
def test_zero_run_laws_match_the_product_chain(l):
    fair = mp.MarkovSource.iid([0.5, 0.5])
    target = mp.PatternTarget(word=(0,) * l)
    hitting, ret = workloads.zero_run_laws(l, 300)
    np.testing.assert_allclose(hitting, mp.hitting_pmf(fair, target, "stationary", 300).masses, rtol=1e-12, atol=0)
    np.testing.assert_allclose(ret, mp.return_pmf(fair, target, 300).masses, rtol=1e-12, atol=0)


def test_kac_horizons_are_where_the_return_tail_drops_below_1e_12():
    for word, horizon in workloads.KAC_HORIZONS.items():
        ret = mp.return_pmf(workloads.MARKOV3, mp.PatternTarget(word=word), horizon)
        tail_before = ret.tail + float(ret.masses[-1])  # P(return > horizon - 1)
        assert ret.tail <= 1e-12 < tail_before, word


def test_gauss_first_passage_two_matches_cylinder_enumeration():
    # P(tau = 2) = P(a_1 < L, a_2 >= L): a finite sum over a_1 = i < L of the
    # Gauss measure of the cylinder [1/(i + 1/L), 1/i)
    L = 5
    ln2 = np.log(2.0)
    i = np.arange(1, L, dtype=float)
    direct = float(np.sum(np.log((1 + 1 / i) / (1 + 1 / (i + 1.0 / L))))) / ln2
    assert workloads.gauss_first_passage_two(L) == pytest.approx(direct, rel=1e-9)


def test_checks_reject_wrong_outputs():
    fair = mp.MarkovSource.iid([0.5, 0.5])
    target = mp.PatternTarget(word=workloads.BLOCK_WORD)
    k = 64
    pmf = mp.hitting_pmf(fair, target, "stationary", k)
    old = workloads.BLOCK_K
    workloads.BLOCK_K = k
    try:
        assert workloads._check_block("hitting", (pmf, pmf), {}) == []
        bent = mp.ExactPMF(1, pmf.masses * (1 + 1e-7), pmf.tail)
        assert workloads._check_block("hitting", (bent, pmf), {})
    finally:
        workloads.BLOCK_K = old
    rows = "quantity,value\nmu_a,0.1\nmu_b,0.05\nratio_b_over_a,0.5\nexpected_ratio,0.5\n" \
           "pruned_mass,0.5\nb_return_at_k_prune,1e-300\ncylinders_kept,2000\ncylinders_pruned,187\n"
    failures = workloads._check_counterexample({"counterexample.csv": rows.encode()}, {})
    assert len(failures) == 1 and "not exactly 0" in failures[0]
    assert workloads._band("x", 1000, 10_000, 0.1) == []
    assert workloads._band("x", 1200, 10_000, 0.1)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "oracle-rare", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
