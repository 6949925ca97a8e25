"""Experiment runner: config parsing, seed management, orchestration, artifacts.

One subcommand per experiment kind, a JSON config file with flag overrides,
and one output directory per run named by the hash of the effective config.
Artifacts (CSV tables and manifest.json) are deterministic functions of the
config; wall-clock timing goes to run_log.txt, which is excluded from the
byte-identity contract.

Exit codes: 0 success, 2 configuration error, 1 runtime failure. Every
failure, an unexpected exception included, also emits a machine-readable
error record on stderr (and error.json in the run directory when it is
known); the record of an exception that is not a HitTimesError carries its
traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
import traceback
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__, branch_systems, estimators, theory
from .errors import ConfigError, HitTimesError, ValidationError
from .markov_pattern import (
    CONVERGENCE_HEADER,
    MarkovSource,
    PatternTarget,
    counterexample_pruned_target,
    hitting_pmf,
    llt_convergence_table,
    require_shift_split_budget,
    return_excess,
    return_pmf,
    verify_inducing_identity,
    verify_shift_identity_grid,
)
from .tables import config_hash, write_csv, write_json

_SOURCE_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "type": {"const": "iid"},
                "probs": {"type": "array", "items": {"type": "number"}, "minItems": 2},
            },
            "required": ["type", "probs"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "markov"},
                "transitions": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                    "minItems": 2,
                },
            },
            "required": ["type", "transitions"],
            "additionalProperties": False,
        },
    ]
}

_WORD_SCHEMA = {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1}

_WORD_TARGET_SCHEMA = {
    "type": "object",
    "properties": {
        "word": _WORD_SCHEMA,
        "period_hint": {"type": "integer", "minimum": 1},
    },
    "required": ["word"],
    "additionalProperties": False,
}

_SCAN_TARGET_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "threshold": {"type": "integer", "minimum": 2},
                "prime": {"type": "boolean"},
            },
            "required": ["threshold"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"word": _WORD_SCHEMA},
            "required": ["word"],
            "additionalProperties": False,
        },
    ]
}

_PREDICTION_SCHEMA = {
    "type": "object",
    "properties": {
        "family": {
            "enum": ["cf-joint", "exponential-hitting", "exponential-return"]
        },
        "theta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "mu": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "threshold": {"type": "integer", "minimum": 2},
        "prime": {"type": "boolean"},
    },
    "required": ["family"],
    "additionalProperties": False,
    # the fields each family's predictor reads
    "allOf": [
        {
            "if": {
                "properties": {"family": {"enum": ["exponential-hitting", "exponential-return"]}},
                "required": ["family"],
            },
            "then": {"required": ["mu"]},
        },
        {
            "if": {"properties": {"family": {"const": "cf-joint"}}, "required": ["family"]},
            "then": {"required": ["threshold"]},
        },
    ],
}

_CELLS_SCHEMA = {
    "type": "array",
    "items": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
    "minItems": 1,
}

_COMMON_PROPS = {
    "kind": {"type": "string"},  # validate_config refuses a kind not in CONFIG_SCHEMAS
    "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
    "out": {"type": "string"},
    "format": {"enum": ["csv", "json", "both"]},
    "workers": {"type": "integer", "minimum": 1},
}


def _kind_schema(extra: dict, required: list[str]) -> dict:
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "properties": {**_COMMON_PROPS, **extra},
        "required": ["kind"] + required,
        "additionalProperties": False,
    }


CONFIG_SCHEMAS = {
    "exact-markov": _kind_schema(
        {
            "source": _SOURCE_SCHEMA,
            "targets": {"type": "array", "items": _WORD_TARGET_SCHEMA, "minItems": 1},
            "delta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            "sides": {
                "type": "array",
                "items": {"enum": ["return", "hitting"]},
                "minItems": 1,
            },
        },
        ["source", "targets", "delta"],
    ),
    "verify-identities": _kind_schema(
        {
            "source": _SOURCE_SCHEMA,
            "words": {"type": "array", "items": _WORD_SCHEMA, "minItems": 1},
            "k_max": {"type": "integer", "minimum": 2},
            "j_max": {"type": "integer", "minimum": 1},
            "m_max": {"type": "integer", "minimum": 1},
        },
        ["source", "words"],
    ),
    "simulate-cf": _kind_schema(
        {
            "mode": {"enum": ["replica", "ergodic"]},
            "target": _SCAN_TARGET_SCHEMA,
            "n_replicas": {"type": "integer", "minimum": 1},
            "d": {"type": "integer", "minimum": 1},
            "max_steps": {"type": "integer", "minimum": 1},
            "n_digits": {"type": "integer", "minimum": 1},
            "min_hits": {"type": "integer", "minimum": 1},
            "cells": _CELLS_SCHEMA,
            "prediction": _PREDICTION_SCHEMA,
            "export_stream": {"enum": ["binary", "text"]},
        },
        ["mode", "target"],
    ),
    "counterexample": _kind_schema(
        {
            "flavor": {"enum": ["exact-markov", "monte-carlo"]},
            "source": _SOURCE_SCHEMA,
            "word": _WORD_SCHEMA,
            "k_prune": {"type": "integer", "minimum": 1},
            "k_max": {"type": "integer", "minimum": 1},
            "system": {"enum": ["gauss", "doubling"]},
            "target": _SCAN_TARGET_SCHEMA,
            "n_digits": {"type": "integer", "minimum": 1},
        },
        ["flavor", "k_prune"],
    ),
    "report": _kind_schema(
        {
            "input_dir": {"type": "string"},
            "prediction": _PREDICTION_SCHEMA,
            "cells": _CELLS_SCHEMA,
        },
        ["input_dir", "prediction", "cells"],
    ),
}
# an estimate report needs both; either alone would be dropped without a word
CONFIG_SCHEMAS["simulate-cf"]["dependentRequired"] = {
    "cells": ["prediction"], "prediction": ["cells"]
}


def _required_by(key: str, cases: dict[str, list[str]]) -> list[dict]:
    """If/then blocks: the keys that each value of ``key`` requires."""
    return [{"if": {"properties": {key: {"const": v}}, "required": [key]}, "then": {"required": r}}
            for v, r in cases.items()]


CONFIG_SCHEMAS["simulate-cf"]["allOf"] = _required_by(
    "mode", {"replica": ["n_replicas", "d", "max_steps"], "ergodic": ["n_digits"]}
)
CONFIG_SCHEMAS["counterexample"]["allOf"] = _required_by(
    "flavor", {"exact-markov": ["source", "word"], "monte-carlo": ["system", "target", "n_digits"]}
)
CONFIG_SCHEMAS["simulate-doubling"] = CONFIG_SCHEMAS["simulate-cf"]

_DEFAULTS = {"seed": 1, "out": "runs", "format": "csv", "workers": 1}


# Draft 2020-12 with JSON's integers only: the draft counts 64.0 as an integer,
# but the runners index and hash with a config's integers. One extend costs
# about 1 ms, so the class is built once, not per kind.
_ConfigValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)
    ),
)


@functools.cache
def _validator(kind: str) -> jsonschema.protocols.Validator:
    """Validator for one kind's schema. The schemas are constants, so the
    tests check them against their metaschema, not every process."""
    return _ConfigValidator(CONFIG_SCHEMAS[kind])


def _nonfinite_field(value, path: tuple = ()) -> tuple | None:
    """The path of the first NaN or infinite number in a JSON value, or None."""
    if isinstance(value, float) and not math.isfinite(value):
        return path
    if isinstance(value, list):
        value = dict(enumerate(value))
    for key, item in value.items() if isinstance(value, dict) else ():
        found = _nonfinite_field(item, path + (key,))
        if found is not None:
            return found
    return None


def validate_config(config: dict) -> dict:
    """Schema-validate a config and fill common defaults."""
    if not isinstance(config, dict) or "kind" not in config:
        raise ConfigError("config must be a JSON object with a 'kind' field")
    kind = config["kind"]
    # an unhashable kind would raise TypeError from the dict lookup
    if not isinstance(kind, str) or kind not in CONFIG_SCHEMAS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    # JSON's NaN and Infinity pass every numeric bound, and no config can be hashed with them
    field = _nonfinite_field(config)
    if field is not None:
        raise ConfigError(f"config field {'/'.join(map(str, field))}: numbers must be finite")
    # the error jsonschema.validate would raise, without re-checking the schema
    exc = jsonschema.exceptions.best_match(_validator(kind).iter_errors(config))
    if exc is not None:
        field = "/".join(str(p) for p in exc.absolute_path) or "(root)"
        raise ConfigError(f"config field {field}: {exc.message}") from exc
    effective = {**_DEFAULTS, **config}
    return effective


def _build_source(spec: dict) -> MarkovSource:
    if spec["type"] == "iid":
        return MarkovSource.iid(spec["probs"])
    return MarkovSource.from_transitions(spec["transitions"])


def _build_word_target(spec: dict) -> PatternTarget:
    """The word's target; theta uses its minimal period, which a hint may only assert."""
    target = PatternTarget(word=tuple(spec["word"]))
    hint, p = spec.get("period_hint"), target.minimal_period
    if hint is not None and (hint != p or p == target.length):
        raise ConfigError(f"config field targets/period_hint: {hint} is not the minimal period "
                          f"{p} of word {list(target.word)}, or that period is not below l")
    return target


def _build_scan_target(spec: dict, system: branch_systems.BranchSystem) -> estimators.TargetScan:
    """The scanned event; one of measure zero, which no orbit ever hits, is refused."""
    lo, hi = system.digit_range
    if "word" in spec:
        if not all(lo <= a <= hi for a in spec["word"]):
            raise ConfigError(
                f"config field target/word: {system.name} digits lie in [{lo}, {hi}], "
                "so the word has measure zero"
            )
        return estimators.TargetScan(word=spec["word"])
    if spec["threshold"] > hi:
        raise ConfigError(
            f"config field target/threshold: {system.name} digits never reach "
            f"{spec['threshold']}, so the target has measure zero"
        )
    return estimators.TargetScan(threshold=spec["threshold"], prime_variant=spec.get("prime", False))


def _predicted_cells(cfg: dict, names: tuple[str, ...]) -> list[tuple[tuple[int, ...], float]]:
    """The config's cells, each of the counts key's width, paired with its positive prediction."""
    spec = cfg["prediction"]
    family = spec["family"]
    if family != "cf-joint" and any(name.startswith("a") for name in names):
        raise ConfigError(f"{family} predicts cells of gaps only; cells keyed {names} carry marks")
    predicted = []
    for cell in map(tuple, cfg["cells"]):
        if len(cell) != len(names):
            raise ConfigError(f"cell {list(cell)} does not have the {len(names)} entries {names}")
        try:
            if family == "cf-joint":
                pred = theory.cf_joint_asymptote(
                    spec["threshold"], cell[0::2], cell[1::2], spec.get("prime", False)
                )
            else:
                pred = theory.consecutive_asymptote(
                    spec.get("theta", 1.0), spec["mu"], cell, family == "exponential-hitting"
                )
        except ValidationError as exc:
            raise ConfigError(f"cell {list(cell)}: {exc}") from exc
        if not pred > 0.0:
            raise ConfigError(f"cell {list(cell)}: prediction {pred} is not positive")
        predicted.append((cell, pred))
    return predicted


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _run_exact_markov(cfg: dict, run_dir: Path) -> dict:
    source = _build_source(cfg["source"])
    targets = [_build_word_target(t) for t in cfg["targets"]]
    results = {}
    for side in cfg.get("sides", ["return", "hitting"]):
        rows = llt_convergence_table(source, targets, delta=cfg["delta"], kind=side)
        _emit_table(run_dir, side, CONVERGENCE_HEADER, rows, cfg)
        worst_by_l: dict[int, float] = {}
        for r in rows:
            worst_by_l[r.l] = max(worst_by_l.get(r.l, 0.0), abs(r.ratio - 1.0))
        results[side] = {"max_abs_ratio_minus_1_by_l": {str(l): v for l, v in sorted(worst_by_l.items())}}
    return results


def _run_verify_identities(cfg: dict, run_dir: Path) -> dict:
    source = _build_source(cfg["source"])
    k_max = cfg.get("k_max", 4096)
    j_max = cfg.get("j_max", 64)
    m_max = cfg.get("m_max", 64)
    targets = [PatternTarget(word=tuple(word)) for word in cfg["words"]]
    for target in targets:  # the split's cost is known before any law is computed
        require_shift_split_budget(source, target, j_max)
    rows = []
    worst = 0.0
    for word, target in zip(cfg["words"], targets):
        label = "".join(str(c) for c in word)
        mu = source.word_measure(target.word)
        # one stationary and one return law per word, each at the largest horizon read
        hit = hitting_pmf(source, target, "stationary", k_max)
        ret = return_pmf(source, target, max(k_max, j_max + m_max - 1))
        inducing = verify_inducing_identity(hit, ret, mu)
        lhs, rhs = verify_shift_identity_grid(source, target, ret, j_max, m_max)
        shift = float(np.max(np.abs(lhs - rhs)))
        # Kac (K = 0) and mu(phi_A > K) = mu(A) E_A[(phi_A - K)^+] at four K
        big_ks = np.maximum(1, [1, k_max // 8, k_max // 4, k_max // 2])
        excess = return_excess(source, target, [0, *big_ks])
        kac = abs(excess[0] - 1.0 / mu)
        hit_cum = np.cumsum(hit.masses)
        relation = np.max(np.abs(1.0 - hit_cum[big_ks - 1] - mu * excess[1:]))
        for check, value in (
            ("inducing_identity", inducing),
            ("shift_identity", shift),
            ("kac_expectation", kac),
            ("discrete_integral_relation", relation),
        ):
            rows.append((label, check, value))
            worst = max(worst, value)
    _emit_table(run_dir, "identities", ("word", "check", "residual"), rows, cfg)
    return {"max_residual": worst, "k_max": k_max, "j_max": j_max, "m_max": m_max}


def _run_simulate(cfg: dict, run_dir: Path) -> dict:
    system = branch_systems.GAUSS if cfg["kind"] == "simulate-cf" else branch_systems.DOUBLING
    target = _build_scan_target(cfg["target"], system)
    seed = cfg["seed"]
    results: dict = {"system": system.name, "mode": cfg["mode"]}
    replica = cfg["mode"] == "replica"
    key_names = _cell_names(target, cfg["d"]) if replica else ("k",)
    predicted = _predicted_cells(cfg, key_names) if "cells" in cfg else None
    if replica:
        pmf = estimators.estimate_first_passage(
            system,
            target,
            n_replicas=cfg["n_replicas"],
            d=cfg["d"],
            max_steps=cfg["max_steps"],
            seed=seed,
            workers=cfg["workers"],
        )
        results["n_total"] = pmf.n_total
        results["censored"] = pmf.censored
        results["censoring"] = pmf.meta
    else:
        stream = branch_systems.generate_stream(system, seed, cfg["n_digits"])
        if "export_stream" in cfg:
            if cfg["export_stream"] == "binary":
                stream.export_binary(run_dir / "stream.bin")
            else:
                stream.export_text(run_dir / "stream.txt")
        est = estimators.estimate_return_law_ergodic(
            stream, target, min_hits=cfg.get("min_hits", estimators.DEFAULT_MIN_HITS)
        )
        pmf = est.pmf
        results["n_total"] = pmf.n_total
        results["n_hits"] = est.n_hits
        results["mean_gap"] = est.mean_gap
        results["mean_gap_se"] = est.mean_gap_se
    count_rows = np.column_stack((pmf.keys, pmf.counts))
    _emit_table(run_dir, "counts", key_names + ("count",), count_rows, cfg)
    if predicted is not None:
        summary = _emit_estimate(run_dir, pmf, key_names, predicted, cfg)
        results["summary_max_abs_ratio_minus_1"] = summary
    return results


def _cell_names(target: estimators.TargetScan, d: int) -> tuple[str, ...]:
    names: list[str] = []
    for j in range(1, d + 1):
        names.append(f"k{j}")
        if target.word is None:
            names.append(f"a{j}")
    return tuple(names)


def _run_counterexample(cfg: dict, run_dir: Path) -> dict:
    if cfg["flavor"] == "exact-markov":
        source = _build_source(cfg["source"])
        target = PatternTarget(word=tuple(cfg["word"]))
        k_prune = cfg["k_prune"]
        # B's law is read at k_prune only, so k_max is a bound to check, not a horizon
        if cfg.get("k_max", k_prune) < k_prune:
            raise ValidationError(f"k_max = {cfg['k_max']} must reach k_prune = {k_prune}")
        report = counterexample_pruned_target(source, target, k_prune)
        _emit_table(run_dir, "counterexample", ("quantity", "value"), _quantities(report), cfg)
        return {
            "b_return_at_k_prune": report.b_return_at_k_prune,
            "ratio_discrepancy": abs(report.ratio_b_over_a - report.expected_ratio),
        }
    system = branch_systems.system_by_name(cfg["system"])
    target = _build_scan_target(cfg["target"], system)
    s1 = branch_systems.generate_stream(system, cfg["seed"], cfg["n_digits"], substream=0)
    s2 = branch_systems.generate_stream(system, cfg["seed"], cfg["n_digits"], substream=1)
    g1 = np.diff(estimators.scan_hits(s1, target)[0])
    g2 = np.diff(estimators.scan_hits(s2, target)[0])
    demo = estimators.demo_pruned_return(g1, g2, cfg["k_prune"])
    _emit_table(run_dir, "counterexample", ("quantity", "value"), _quantities(demo), cfg)
    return {
        "b_returns_at_k_prune": demo.b_returns_at_k_prune,
        "discrepancy_z": demo.discrepancy_z,
    }


def _quantities(report) -> list[tuple[str, object]]:
    """(name, value) rows of a result dataclass, one per field, in field order."""
    return [(f.name, getattr(report, f.name)) for f in dataclasses.fields(report)]


def _run_report(cfg: dict, run_dir: Path) -> dict:
    input_dir = Path(cfg["input_dir"])
    counts_path = input_dir / "counts.csv"
    manifest_path = input_dir / "manifest.json"
    if not counts_path.exists() or not manifest_path.exists():
        raise ConfigError(f"input_dir {input_dir} lacks counts.csv/manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
        n_total = manifest["results"]["n_total"]
        if type(n_total) is not int or n_total < 1:  # a JSON true is an int to isinstance
            raise ValueError(f"results.n_total is {n_total!r}")
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(
            f"{manifest_path} is not a simulation manifest with a positive integer "
            f"results.n_total ({type(exc).__name__}: {exc})"
        ) from exc
    lines = counts_path.read_text().strip().split("\n")
    header = lines[0].split(",")
    try:
        if len(header) < 2:
            raise ValueError(f"header {lines[0]!r} has no key column")
        rows = []
        for line in lines[1:]:
            parts = [int(x) for x in line.split(",")]
            if len(parts) != len(header):
                raise ValueError(f"row {line!r} has {len(parts)} fields, header {len(header)}")
            rows.append(parts)
        table = np.array(rows, dtype=np.int64).reshape(-1, len(header))
        keys, counts = estimators.sum_by_row(table[:, :-1], table[:, -1])
        if len(keys) < len(table):
            raise ValueError(f"{len(table) - len(keys)} cells repeat an earlier row")
        pmf = estimators.EmpiricalPMF(keys, counts, n_total)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{counts_path} is not an integer counts table ({exc})") from exc
    key_names = tuple(header[:-1])
    summary = _emit_estimate(run_dir, pmf, key_names, _predicted_cells(cfg, key_names), cfg)
    return {"summary_max_abs_ratio_minus_1": summary, "n_total": n_total}


_RUNNERS = {
    "exact-markov": _run_exact_markov,
    "verify-identities": _run_verify_identities,
    "simulate-cf": _run_simulate,
    "simulate-doubling": _run_simulate,
    "counterexample": _run_counterexample,
    "report": _run_report,
}

_SUBCOMMAND_KINDS = {
    "exact": ["exact-markov"],
    "simulate": ["simulate-cf", "simulate-doubling"],
    "verify": ["verify-identities"],
    "counterexample": ["counterexample"],
    "report": ["report"],
}


def _emit_table(
    run_dir: Path, name: str, header: tuple[str, ...], rows: list | np.ndarray, cfg: dict
) -> None:
    fmt = cfg["format"]
    if fmt in ("csv", "both"):
        write_csv(run_dir / f"{name}.csv", header, rows)
    if fmt in ("json", "both"):
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        records = [dict(zip(header, row)) for row in rows]
        write_json(run_dir / f"{name}.json", records)


def _emit_estimate(
    run_dir: Path, pmf: estimators.EmpiricalPMF, names: tuple[str, ...], predicted: list, cfg: dict
) -> float:
    """Write the estimate table of the predicted cells; returns its summary deviation."""
    rows, summary = estimators.llt_report(pmf, predicted)
    header = names + estimators.REPORT_HEADER_SUFFIX
    _emit_table(run_dir, "estimate", header, [r.cell + r[1:] for r in rows], cfg)
    return summary


def run_config(config: dict) -> tuple[Path, dict]:
    """Validate and execute a config; returns (run directory, manifest dict)."""
    return _run_validated(validate_config(config))


def _run_validated(cfg: dict) -> tuple[Path, dict]:
    """Execute a config that `validate_config` returned; as `run_config`."""
    digest = config_hash(cfg)
    run_dir = Path(cfg["out"]) / digest
    run_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    results = _RUNNERS[cfg["kind"]](cfg, run_dir)
    manifest = {
        "config": cfg,
        "config_hash": digest,
        "seed": cfg["seed"],
        "package_version": __version__,
        "results": results,
        "artifacts": sorted(
            p.name for p in run_dir.iterdir() if p.suffix in (".csv", ".json")
            and p.name not in ("manifest.json", "error.json")
        ),
    }
    write_json(run_dir / "manifest.json", manifest)
    elapsed = time.time() - started
    (run_dir / "run_log.txt").write_text(
        f"kind={cfg['kind']} hash={digest} elapsed_seconds={elapsed:.3f}\n"
    )
    return run_dir, manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hittimes",
        description="Exact and Monte-Carlo experiments on hitting/return-time laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_KINDS:
        p = sub.add_parser(name, help=f"run a {'/'.join(_SUBCOMMAND_KINDS[name])} config")
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--workers", type=int, default=None, help="override worker count")
        p.add_argument("--out", default=None, help="override output root directory")
        p.add_argument("--format", choices=["csv", "json", "both"], default=None)
    args = parser.parse_args(argv)

    def fail(code: int, record: dict, run_dir: Path | None = None) -> int:
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        if run_dir is not None:
            write_json(run_dir / "error.json", record)
        return code

    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return fail(2, {"error": "ConfigError", "message": f"cannot read config: {exc}"})
    for key in ("seed", "workers", "out", "format"):
        value = getattr(args, key)
        if value is not None and isinstance(raw, dict):  # validation rejects a non-object
            raw[key] = value
    try:
        cfg = validate_config(raw)
        if cfg["kind"] not in _SUBCOMMAND_KINDS[args.command]:
            raise ConfigError(
                f"subcommand {args.command!r} cannot run kind {cfg['kind']!r}"
            )
    except ConfigError as exc:
        return fail(2, {"error": "ConfigError", "message": str(exc)})
    try:
        run_dir, manifest = _run_validated(cfg)
    except Exception as exc:  # every failure leaves one JSON record
        record = {"error": type(exc).__name__, "message": str(exc)}
        if not isinstance(exc, HitTimesError):  # a defect: keep where it was raised
            record["traceback"] = traceback.format_exc()
        run_dir = Path(cfg["out"]) / config_hash(cfg)
        return fail(2 if isinstance(exc, ConfigError) else 1, record,
                    run_dir if run_dir.is_dir() else None)
    sys.stdout.write(f"{run_dir}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
