"""Per-layer metrics of a traced run, and the dominant-layer prediction check.

Each metric is computed per traced pass from the spans of that pass and
reported as the median over traced passes. Rates are self time per unit of
work (``ns_per_*``); a rate whose work count is 0 on a workload is reported
as 0. `PER_LAYER` is the list `BENCHMARK.json` declares.
"""

from __future__ import annotations

import statistics

from tracing import LAYERS, aggregate

MP, BS, EST = "markov_pattern", "branch_systems", "estimators"

PER_LAYER: dict[str, str] = {
    f"{MP}.hitting_pmf.calls": "count",
    f"{MP}.hitting_pmf.self_s": "s",
    f"{MP}.hitting_pmf.masses": "count",
    f"{MP}.hitting_pmf.ns_per_mass": "ns",
    f"{MP}.pmf_useful_frac": "1",
    f"{MP}.exactpmf_sum.self_s": "s",
    f"{MP}.exactpmf_sum.terms": "count",
    f"{MP}.block_pmf.calls": "count",
    f"{MP}.block_pmf.self_s": "s",
    f"{MP}.block_pmf.state_steps": "count",
    f"{MP}.block_pmf.ns_per_state_step": "ns",
    f"{MP}.counterexample_pruned_target.self_s": "s",
    f"{MP}.verify_shift_identity_grid.self_s": "s",
    f"{MP}.verify_inducing_identity.self_s": "s",
    f"{MP}.llt_convergence_table.self_s": "s",
    f"{MP}.build_automaton.calls": "count",
    f"{MP}.build_automaton.distinct_targets": "count",
    f"{BS}.branch_array.calls": "count",
    f"{BS}.branch_array.self_s": "s",
    f"{BS}.branch_array.elements": "count",
    f"{BS}.branch_array.ns_per_element": "ns",
    f"{BS}.stationary_array.self_s": "s",
    f"{BS}.generate_stream.calls": "count",
    f"{BS}.generate_stream.self_s": "s",
    f"{BS}.generate_stream.digits": "count",
    f"{BS}.generate_stream.ns_per_digit": "ns",
    f"{EST}.estimate_first_passage.self_s": "s",
    f"{EST}.estimate_first_passage.ns_per_replica_step": "ns",
    f"{EST}.replica_complete_frac": "1",
    f"{EST}.scan_hits.self_s": "s",
    f"{EST}.scan_hits.digits_scanned": "count",
    f"{EST}.scan_hits.ns_per_digit": "ns",
    f"{EST}.estimate_return_law_ergodic.self_s": "s",
    f"{EST}.batch_means_se.self_s": "s",
    f"{EST}.demo_pruned_return.self_s": "s",
    f"{EST}.llt_report.self_s": "s",
    "cli.validate_config.self_s": "s",
    "cli.run_config.self_s": "s",
    "tables.write_csv.self_s": "s",
    "tables.write_json.self_s": "s",
    "tables.bytes_written": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.self_share": "1" for layer in LAYERS},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# (span name, work count) pairs behind each ns_per_* rate
_RATES = {
    f"{MP}.hitting_pmf.ns_per_mass": (f"{MP}.hitting_pmf", "masses"),
    f"{MP}.block_pmf.ns_per_state_step": (f"{MP}.block_pmf", "state_steps"),
    f"{BS}.branch_array.ns_per_element": (f"{BS}.branch_array", "elements"),
    f"{BS}.generate_stream.ns_per_digit": (f"{BS}.generate_stream", "digits"),
    f"{EST}.estimate_first_passage.ns_per_replica_step": (f"{EST}.estimate_first_passage", "replica_steps"),
    f"{EST}.scan_hits.ns_per_digit": (f"{EST}.scan_hits", "digits_scanned"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list, run_ids: set[int], delivered_masses: int) -> dict[str, float]:
    """Every per-layer metric except the overhead, from one traced pass."""
    stats = aggregate(spans, run_ids)

    def get(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    # "<span or layer name>.<counter>" reads the counter directly ...
    out = {metric: get(*metric.rsplit(".", 1)) for metric in PER_LAYER}
    # ... and the rest are derived
    for metric, (name, count) in _RATES.items():
        out[metric] = 1e9 * _ratio(get(name, "self_s"), get(name, count))
    computed = get(f"{MP}.hitting_pmf", "masses") + get(f"{MP}.block_pmf", "masses")
    out[f"{MP}.pmf_useful_frac"] = _ratio(delivered_masses, computed)
    out[f"{MP}.build_automaton.distinct_targets"] = len(
        {s.key for s in spans if s.run_id in run_ids and s.name == f"{MP}.build_automaton"}
    )
    out[f"{EST}.replica_complete_frac"] = _ratio(
        get(f"{EST}.estimate_first_passage", "replicas_complete"),
        get(f"{EST}.estimate_first_passage", "replicas"),
    )
    out["tables.bytes_written"] = get("tables.write_csv", "bytes_written") + get(
        "tables.write_json", "bytes_written"
    )
    total_self = sum(get(layer, "self_s") for layer in LAYERS)
    for layer in LAYERS:
        out[f"{layer}.self_share"] = _ratio(get(layer, "self_s"), total_self)
    out["trace.spans"] = sum(1 for s in spans if s.run_id in run_ids)
    return out


def per_layer(workload, spans: list, pass_run_ids: list[list[int]], overhead_s: float, work: int):
    """(metrics, units, layer self-time shares): medians over traced passes.
    ``overhead_s`` is the traced minus the untraced pass time, both at the
    reference host speed."""
    delivered = work if workload.work_metric == "pmf_masses_per_s" else 0
    passes = [pass_metrics(spans, set(ids), delivered) for ids in pass_run_ids]
    metrics = {m: statistics.median(p[m] for p in passes) for m in PER_LAYER if m != "trace.overhead_s"}
    metrics["trace.overhead_s"] = overhead_s
    metrics = {m: metrics[m] for m in PER_LAYER}
    shares = {layer: metrics[f"{layer}.self_share"] for layer in LAYERS}
    return metrics, dict(PER_LAYER), shares


def prediction_lines(workload, shares: dict[str, float]) -> list[str]:
    """State whether the layers named for the workload hold most of the self time."""
    held = sum(shares[layer] for layer in workload.dominant)
    ranked = ", ".join(f"{layer} {share:.3f}" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]))
    verdict = "holds" if held > 0.5 else "does NOT hold"
    return [
        f"self-time share by layer: {ranked}",
        f"prediction: {' + '.join(workload.dominant)} hold most of the self time "
        f"({held:.3f}) -- {verdict}",
    ]
