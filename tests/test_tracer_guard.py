"""The benchmark's span tracer still fits the package.

`benchmarks/tracing.py` wraps library functions, `ExactPMF` methods and the
branch systems' kernels by name, and reads `PatternTarget.word` in its
`build_automaton` spans. A library change that deletes or renames one of
these breaks traced benchmark runs (``--trace 1``). These tests import the
tracer read-only from the benchmark directory and install it on the current
package. One makes a traced exact call and checks that uninstalling puts
every patched name back. Another traces the exact counterexample, whose
block law must stay one `block_pmf` span with its S^r state-step count. The
third builds an `ExactPMF` positionally, as the benchmark's checks do, and
makes a traced Gauss stream, whose start and steps go through the wrapped
`stationary_array` and `branch_array` kernels. The last traces a replica run
whose uniforms are drawn ahead on a helper thread: the tracer's span stack is
shared across threads, so that thread must run no traced function.
"""

import collections
import sys
from pathlib import Path

import numpy as np
import pytest

import hittimes.cli
from hittimes import branch_systems, estimators
from hittimes import markov_pattern as mp
from hittimes.markov_pattern import ExactPMF

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


def _snapshot() -> dict:
    modules = {name: dict(vars(m)) for name, m in sys.modules.items()
               if m is not None and (name == "hittimes" or name.startswith("hittimes."))}
    return {"modules": modules, "ExactPMF": dict(ExactPMF.__dict__)}


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_install_wraps_and_uninstall_restores_every_name(tracing):
    before = _snapshot()
    gauss = branch_systems.GAUSS
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hittimes.cli.return_pmf is not before["modules"]["hittimes.cli"]["return_pmf"]
        assert mp.reports.return_pmf is mp.exact.return_pmf
        assert branch_systems.GAUSS is not gauss and branch_systems.GAUSS.name == "gauss"
        assert ExactPMF.__dict__["total"] is not before["ExactPMF"]["total"]
        sample = before["modules"]["hittimes.branch_systems"]["gauss_branch_sample"]
        assert branch_systems.gauss_branch_sample is sample
        pmf = mp.return_pmf(mp.MarkovSource.iid([0.5, 0.5]), mp.PatternTarget(word=(0, 0, 1)), 50)
        pmf.total()
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names == [
        "markov_pattern.return_pmf",
        "markov_pattern.hitting_pmf",
        "markov_pattern.build_automaton",
        "markov_pattern.exactpmf_sum",
    ]
    assert tracer.spans[2].key == ((0, 0, 1), 2)
    assert tracer.spans[1].work == {"masses": 50}
    after = _snapshot()
    assert _same(before["ExactPMF"], after["ExactPMF"])
    for name, attrs in before["modules"].items():
        assert _same(attrs, after["modules"][name]), name


def test_counterexample_traces_one_block_law(tracing):
    # the S^r block law is one span, whatever state the kernel carries, so
    # its state_steps stay S^(l + k_prune) * k_prune across kernel changes
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mp.counterexample_pruned_target(
            mp.MarkovSource.iid([0.5, 0.5]), mp.PatternTarget(word=(1, 1)), 3)
    finally:
        tracer.uninstall()
    block = [s.work for s in tracer.spans if s.name == "markov_pattern.block_pmf"]
    assert block == [{"masses": 3, "state_steps": 2**5 * 3}]


def test_positional_pmf_and_stream_kernels_traced(tracing):
    want = branch_systems.generate_stream(branch_systems.GAUSS, 7, 1000)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pmf = ExactPMF(1, np.array([0.5, 0.25]), 0.25)
        assert pmf.total() == 1.0
        got = branch_systems.generate_stream(branch_systems.GAUSS, 7, 1000)
    finally:
        tracer.uninstall()
    assert np.array_equal(got.digits, want.digits) and got.anchor_point == want.anchor_point
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span.name, []).append(span.work)
    assert spans["markov_pattern.exactpmf_sum"] == [{"terms": 2}]
    assert spans["branch_systems.generate_stream"] == [{"digits": 1000}]
    assert spans["branch_systems.stationary_array"] == [{"elements": 1}]
    # every digit is one element of a step; the lanes' warm-up steps are more
    assert sum(w["elements"] for w in spans["branch_systems.branch_array"]) >= 1000


def test_replica_run_reading_ahead_keeps_spans_nested(tracing, monkeypatch):
    monkeypatch.setattr(branch_systems, "_spare_cpu", lambda: True)
    helpers = []
    draw = branch_systems._draw_orders
    monkeypatch.setattr(branch_systems, "_draw_orders", lambda *a: helpers.append(a) or draw(*a))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pmf = estimators.estimate_first_passage(
            branch_systems.GAUSS, estimators.TargetScan(threshold=5), 2**14, 1, 512, seed=3)
    finally:
        tracer.uninstall()
    assert len(helpers) == 1  # the chunk's uniforms were drawn ahead
    spans = tracer.spans
    # one chunk: one generator, one start draw and one reduction, all on the calling thread
    names = collections.Counter(s.name for s in spans if s.name != "branch_systems.branch_array")
    assert names == {"estimators.estimate_first_passage": 1, "branch_systems.make_rng": 1,
                     "branch_systems.stationary_array": 1, "estimators.sum_by_row": 1}
    for span in spans:
        outer = spans[span.parent] if span.parent >= 0 else None
        assert outer is None or outer.start <= span.start <= span.end <= outer.end, span.name
    steps = [s.work["elements"] for s in spans if s.name == "branch_systems.branch_array"]
    # one kernel call per step run: the run ends at the step of the last hit
    assert pmf.censored == 0 and len(steps) == pmf.keys[:, 0].max()
    assert sum(steps) == pmf.meta["replica_steps"]
