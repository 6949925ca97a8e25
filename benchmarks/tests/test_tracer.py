"""Tracer: self-time arithmetic, restoration of every wrapped name, report."""

import json
import subprocess
import sys

import pytest

import hittimes.cli
from hittimes import markov_pattern as mp
from hittimes.markov_pattern import ExactPMF

import report
import workloads
from conftest import BENCH, ROOT
from tracing import LAYERS, Span, Tracer, aggregate, self_times

FAIR = mp.MarkovSource.iid([0.5, 0.5])

# every per-layer metric the benchmark promises, by name
PROMISED = [
    "markov_pattern.hitting_pmf.calls", "markov_pattern.hitting_pmf.self_s",
    "markov_pattern.hitting_pmf.masses", "markov_pattern.hitting_pmf.ns_per_mass",
    "markov_pattern.pmf_useful_frac",
    "markov_pattern.exactpmf_sum.self_s", "markov_pattern.exactpmf_sum.terms",
    "markov_pattern.block_pmf.calls", "markov_pattern.block_pmf.self_s",
    "markov_pattern.block_pmf.state_steps", "markov_pattern.block_pmf.ns_per_state_step",
    "markov_pattern.counterexample_pruned_target.self_s",
    "markov_pattern.verify_shift_identity_grid.self_s",
    "markov_pattern.verify_inducing_identity.self_s",
    "markov_pattern.llt_convergence_table.self_s",
    "markov_pattern.build_automaton.calls", "markov_pattern.build_automaton.distinct_targets",
    "branch_systems.branch_array.calls", "branch_systems.branch_array.self_s",
    "branch_systems.branch_array.elements", "branch_systems.branch_array.ns_per_element",
    "branch_systems.stationary_array.self_s",
    "branch_systems.generate_stream.calls", "branch_systems.generate_stream.self_s",
    "branch_systems.generate_stream.digits", "branch_systems.generate_stream.ns_per_digit",
    "estimators.estimate_first_passage.self_s",
    "estimators.estimate_first_passage.ns_per_replica_step",
    "estimators.replica_complete_frac",
    "estimators.scan_hits.self_s", "estimators.scan_hits.digits_scanned",
    "estimators.scan_hits.ns_per_digit",
    "estimators.estimate_return_law_ergodic.self_s", "estimators.batch_means_se.self_s",
    "estimators.demo_pruned_return.self_s", "estimators.llt_report.self_s",
    "theory.self_s",
    "cli.validate_config.self_s", "cli.run_config.self_s",
    "tables.write_csv.self_s", "tables.write_json.self_s", "tables.bytes_written",
    *[f"{layer}.errors" for layer in LAYERS],
    "trace.overhead_s",
]


def _snapshot() -> dict:
    modules = {name: dict(vars(m)) for name, m in sys.modules.items()
               if m is not None and (name == "hittimes" or name.startswith("hittimes."))}
    return {"modules": modules, "ExactPMF": dict(ExactPMF.__dict__)}


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_nested_return_pmf_self_times():
    target = mp.PatternTarget(word=(0, 0, 1))
    with Tracer() as tracer:
        mp.return_pmf(FAIR, target, 500)
    names = [s.name for s in tracer.spans]
    assert names == [
        "markov_pattern.return_pmf",
        "markov_pattern.hitting_pmf",
        "markov_pattern.build_automaton",
    ]
    ret, hit, build = tracer.spans
    assert (ret.parent, hit.parent, build.parent) == (-1, 0, 1)
    assert ret.start <= hit.start <= build.start <= build.end <= hit.end <= ret.end
    selfs = self_times(tracer.spans)
    assert selfs[0] == (ret.end - ret.start) - (hit.end - hit.start)
    assert selfs[1] == (hit.end - hit.start) - (build.end - build.start)
    assert selfs[2] == build.end - build.start
    stats = aggregate(tracer.spans, {0})
    assert stats["markov_pattern.hitting_pmf"]["masses"] == 500
    assert stats["markov_pattern"]["self_s"] == pytest.approx(ret.end - ret.start, rel=1e-12)


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        Span("p", "cli", 0.0, 10.0, -1, 1),
        Span("a", "cli", 1.0, 3.0, 0, 1),
        Span("b", "cli", 2.0, 5.0, 0, 1),
        Span("c", "cli", 9.0, 12.0, 0, 1),
    ]
    assert self_times(spans)[0] == 10.0 - (4.0 + 1.0)


def test_escaped_errors_count_once_per_layer():
    spans = [
        Span("cli.run_config", "cli", 0.0, 4.0, -1, 1, error=True),
        Span("markov_pattern.return_pmf", "markov_pattern", 1.0, 3.0, 0, 1, error=True),
        Span("markov_pattern.hitting_pmf", "markov_pattern", 1.5, 2.5, 1, 1, error=True),
    ]
    stats = aggregate(spans, {1})
    assert stats["cli"]["errors"] == 1
    assert stats["markov_pattern"]["errors"] == 1


def test_every_wrapped_name_is_restored():
    from hittimes import branch_systems

    before = _snapshot()
    gauss = branch_systems.GAUSS
    tracer = Tracer()
    tracer.install()
    try:
        assert hittimes.cli.return_pmf is not before["modules"]["hittimes.cli"]["return_pmf"]
        assert mp.exact.hitting_pmf is not before["modules"]["hittimes.markov_pattern.exact"]["hitting_pmf"]
        assert mp.reports.hitting_pmf is mp.exact.hitting_pmf
        assert hittimes.cli.write_csv is hittimes.tables.write_csv
        assert branch_systems.GAUSS is not gauss and branch_systems.GAUSS.name == "gauss"
        assert ExactPMF.__dict__["total"] is not before["ExactPMF"]["total"]
        assert branch_systems.gauss_branch_sample is before["modules"]["hittimes.branch_systems"]["gauss_branch_sample"]
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert _same(before["ExactPMF"], after["ExactPMF"])
    for name, attrs in before["modules"].items():
        assert _same(attrs, after["modules"][name]), name


def test_per_layer_list_matches_benchmark_json_and_promise():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == report.PER_LAYER
    assert set(PROMISED) <= set(declared)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    import run

    assert e2e == run.END_TO_END_UNITS


def test_traced_run_prints_every_per_layer_metric_with_unit():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "oracle-rare", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    n_ops = len(workloads.WORKLOADS["oracle-rare"].ops(1))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3 * n_ops  # 3 passes
    assert {k: v["unit"] for k, v in result["metrics"].items()} == report.PER_LAYER
    printed = {line.split(" ")[0]: line.split(" ")[-1] for line in lines[:-2]}
    for name, unit in report.PER_LAYER.items():
        assert printed.get(name) == unit, name
    assert any(line.startswith("prediction: markov_pattern") and line.endswith("holds") for line in lines)
