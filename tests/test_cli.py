"""CLI behaviour: schema rejection, artifact layout, idempotence, subcommands."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import hittimes.markov_pattern.exact
from hittimes import cli, errors
from hittimes.branch_systems import DOUBLING, generate_stream
from hittimes.cli import CONFIG_SCHEMAS, main, run_config, validate_config
from hittimes.errors import ConfigError
from hittimes.estimators import PrunedReturnDemo, ReportRow
from hittimes.markov_pattern.reports import PrunedTargetReport
from hittimes.tables import config_hash, write_csv
from hittimes.theory import cf_joint_asymptote, consecutive_asymptote


def _write_config(tmp_path: Path, cfg: dict) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


VERIFY_CFG = {
    "kind": "verify-identities",
    "source": {"type": "iid", "probs": [0.5, 0.5]},
    "words": [[1], [1, 1]],
    "k_max": 64,
    "j_max": 8,
    "m_max": 8,
    "seed": 1,
}

CE_CFG = {
    "kind": "counterexample",
    "flavor": "exact-markov",
    "source": {"type": "iid", "probs": [0.5, 0.5]},
    "word": [0, 1],
    "k_prune": 3,
}

EXACT_CFG = {
    "kind": "exact-markov",
    "source": {"type": "iid", "probs": [0.5, 0.5]},
    "targets": [{"word": [0, 0], "period_hint": 1}],
    "delta": 0.5,
}

SIM_CF_CFG = {
    "kind": "simulate-cf",
    "mode": "replica",
    "target": {"threshold": 50},
    "n_replicas": 1000,
    "d": 1,
    "max_steps": 64,
}

SIM_CFG = {
    "kind": "simulate-doubling",
    "mode": "replica",
    "target": {"word": [1, 1]},
    "n_replicas": 20_000,
    "d": 1,
    "max_steps": 64,
    "seed": 1,
    "cells": [[1], [2], [3]],
    "prediction": {"family": "exponential-hitting", "theta": 1.0, "mu": 0.25},
}


NON_FINITE_CFGS = [
    (dict(EXACT_CFG, source={"type": "iid", "probs": [float("nan"), 0.5]}), "source/probs/0"),
    (dict(EXACT_CFG, delta=float("inf")), "delta"),
    (dict(SIM_CFG, prediction={"family": "exponential-hitting", "mu": -float("inf")}),
     "prediction/mu"),
]


def _integer_fields(schema: dict, path: tuple = ()):
    """Paths of a schema's integer-typed fields, with "*" for an array item."""
    if schema.get("type") == "integer":
        yield path
    for key, sub in schema.get("properties", {}).items():
        yield from _integer_fields(sub, path + (key,))
    if "items" in schema:
        yield from _integer_fields(schema["items"], path + ("*",))
    for sub in schema.get("oneOf", []):
        yield from _integer_fields(sub, path)


_ALL_INTS = {"seed": 1, "workers": 1}
_SIM_ALL_INTS = dict(
    SIM_CF_CFG, **_ALL_INTS, n_digits=1000, min_hits=10, cells=[[2, 60]],
    prediction={"family": "cf-joint", "threshold": 50},
)
_CE_ALL_INTS = dict(CE_CFG, **_ALL_INTS, k_max=64, system="gauss", target={"threshold": 10},
                    n_digits=1000)
# configs that each kind accepts, which together hold every integer-typed field
INTEGER_FIELD_CFGS = {
    "exact-markov": [dict(EXACT_CFG, **_ALL_INTS)],
    "verify-identities": [dict(VERIFY_CFG, **_ALL_INTS)],
    "simulate-cf": [_SIM_ALL_INTS, dict(_SIM_ALL_INTS, target={"word": [1, 1]})],
    "simulate-doubling": [dict(_SIM_ALL_INTS, kind="simulate-doubling"),
                          dict(_SIM_ALL_INTS, kind="simulate-doubling", target={"word": [1, 1]})],
    "counterexample": [_CE_ALL_INTS, dict(_CE_ALL_INTS, target={"word": [1, 1]})],
    "report": [dict(_ALL_INTS, kind="report", input_dir="runs", cells=[[2, 60]],
                    prediction={"family": "cf-joint", "threshold": 50})],
}


def _resolve(cfg: dict, template: tuple) -> tuple | None:
    """The path of a field template in a config, with item 0 for "*", or None if it has none."""
    node, path = cfg, []
    for key in template:
        key = 0 if key == "*" else key
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return None
        path.append(key)
    return tuple(path)


def _integral_float_cases():
    """(kind, config, path) for each integer field of each kind; config None if none holds it."""
    for kind, schema in CONFIG_SCHEMAS.items():
        for template in sorted(set(_integer_fields(schema))):
            found = [(cfg, _resolve(cfg, template)) for cfg in INTEGER_FIELD_CFGS[kind]]
            yield next(((kind, c, p) for c, p in found if p is not None), (kind, None, template))


class TestValidation:
    @pytest.mark.parametrize("cfg,field", NON_FINITE_CFGS)
    def test_non_finite_numbers_refused(self, tmp_path, cfg, field):
        # NaN passes every numeric bound of the schema, and config_hash cannot
        # hash a config holding one
        out = tmp_path / "r"
        for call in (validate_config, run_config):
            with pytest.raises(ConfigError, match=f"config field {field}: numbers must be finite"):
                call(dict(cfg, out=str(out)))
        assert not out.exists()

    def test_unknown_keys_rejected(self):
        cfg = dict(VERIFY_CFG, rogue=1)
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"kind": "nope"})

    def test_delta_zero_rejected_and_names_field(self):
        cfg = {
            "kind": "exact-markov",
            "source": {"type": "iid", "probs": [0.5, 0.5]},
            "targets": [{"word": [0, 0]}],
            "delta": 0,
        }
        with pytest.raises(ConfigError, match="delta"):
            validate_config(cfg)

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(VERIFY_CFG, rogue=1),
            dict(VERIFY_CFG, k_max=1),
            dict(VERIFY_CFG, words=[]),
            dict(VERIFY_CFG, source={"type": "iid"}),
            dict(SIM_CFG, mode="sideways"),
            {"kind": "exact-markov", "source": {"type": "iid", "probs": [0.5, 0.5]},
             "targets": [{"word": [0, -1]}], "delta": 0.5},
            dict(VERIFY_CFG, words=[[1], [0, -1]]),
            dict(CE_CFG, word=[-1, 0]),
            dict(EXACT_CFG, theta=0.5),
            dict(EXACT_CFG, points_per_decade=8),
            dict(SIM_CF_CFG, chunk_size=1024),
            dict(SIM_CF_CFG, mark_cap=100),
        ],
    )
    def test_messages_match_jsonschema_validate(self, cfg):
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(cfg, CONFIG_SCHEMAS[cfg["kind"]])
        field = "/".join(str(p) for p in want.value.absolute_path) or "(root)"
        for _ in range(2):  # the second call uses the cached validator
            with pytest.raises(ConfigError) as got:
                validate_config(cfg)
            assert str(got.value) == f"config field {field}: {want.value.message}"

    def test_every_schema_is_checked_as_draft_2020_12(self):
        # dependentRequired is a 2019-09 keyword that an older draft ignores silently;
        # the runner never checks its constant schemas, so this test does
        for kind, schema in CONFIG_SCHEMAS.items():
            validator = cli._validator(kind)
            assert type(validator).META_SCHEMA == jsonschema.Draft202012Validator.META_SCHEMA
            type(validator).check_schema(schema)

    def test_defaults_filled(self):
        cfg = validate_config(dict(VERIFY_CFG))
        assert cfg["out"] == "runs"
        assert cfg["format"] == "csv"
        assert cfg["workers"] == 1


class TestRunners:
    def test_verify_identities_run(self, tmp_path):
        cfg = dict(VERIFY_CFG, out=str(tmp_path / "runs"))
        run_dir, manifest = run_config(cfg)
        assert (run_dir / "identities.csv").exists()
        assert (run_dir / "manifest.json").exists()
        assert manifest["results"]["max_residual"] < 1e-10
        header = (run_dir / "identities.csv").read_text().splitlines()[0]
        assert header == "word,check,residual"

    def test_exact_markov_run(self, tmp_path):
        cfg = {
            "kind": "exact-markov",
            "source": {"type": "iid", "probs": [0.5, 0.5]},
            "targets": [{"word": [0] * 6, "period_hint": 1}],
            "delta": 0.5,
            "sides": ["return"],
            "out": str(tmp_path / "runs"),
        }
        run_dir, manifest = run_config(cfg)
        text = (run_dir / "return.csv").read_text().splitlines()
        assert text[0] == "l,k,t,exact,predicted,ratio"
        assert len(text) > 5
        assert "6" in manifest["results"]["return"]["max_abs_ratio_minus_1_by_l"]

    def test_simulate_run_with_report(self, tmp_path):
        cfg = dict(SIM_CFG, out=str(tmp_path / "runs"))
        run_dir, manifest = run_config(cfg)
        counts = (run_dir / "counts.csv").read_text().splitlines()
        assert counts[0] == "k1,count"
        est = (run_dir / "estimate.csv").read_text().splitlines()
        assert est[0] == "k1,count,N,estimate,prediction,ratio,ci_low,ci_high"
        assert manifest["results"]["censored"] + sum(
            int(line.rsplit(",", 1)[1]) for line in counts[1:]
        ) == cfg["n_replicas"]

    def test_simulate_ergodic_run(self, tmp_path):
        cfg = {
            "kind": "simulate-cf",
            "mode": "ergodic",
            "target": {"threshold": 10},
            "n_digits": 100_000,
            "min_hits": 1000,
            "seed": 2,
            "out": str(tmp_path / "runs"),
        }
        run_dir, manifest = run_config(cfg)
        assert (run_dir / "counts.csv").exists()
        assert manifest["results"]["mean_gap"] == pytest.approx(
            1.0 / (0.137503 / 1.0), rel=0.2
        )  # 1/mu({a>=10}), mu = log2(1+1/10) = 0.1375

    @pytest.mark.parametrize("fmt", ["binary", "text"])
    def test_export_stream_holds_the_scanned_digits(self, tmp_path, fmt):
        cfg = {
            "kind": "simulate-doubling",
            "mode": "ergodic",
            "target": {"word": [1, 1]},
            "n_digits": 5000,
            "min_hits": 100,
            "seed": 3,
            "export_stream": fmt,
            "out": str(tmp_path / "runs"),
        }
        run_dir, manifest = run_config(cfg)
        want = generate_stream(DOUBLING, 3, 5000).digits
        if fmt == "binary":
            got = np.fromfile(run_dir / "stream.bin", dtype="<i8")
        else:
            got = np.array([int(x) for x in (run_dir / "stream.txt").read_text().split()])
        np.testing.assert_array_equal(got, want)
        assert manifest["artifacts"] == ["counts.csv"]

    def test_idempotent_reruns_byte_identical(self, tmp_path):
        cfg = dict(SIM_CFG, out=str(tmp_path / "runs"))
        run_dir1, _ = run_config(cfg)
        blobs1 = {p.name: p.read_bytes() for p in run_dir1.iterdir() if p.suffix == ".csv"}
        manifest1 = (run_dir1 / "manifest.json").read_bytes()
        run_dir2, _ = run_config(cfg)
        assert run_dir1 == run_dir2
        for name, blob in blobs1.items():
            assert (run_dir2 / name).read_bytes() == blob
        assert (run_dir2 / "manifest.json").read_bytes() == manifest1

    def test_csv_values_are_bare_numbers(self, tmp_path):
        cfg = dict(VERIFY_CFG, out=str(tmp_path / "runs"))
        run_dir, _ = run_config(cfg)
        text = (run_dir / "identities.csv").read_text()
        assert "np.float" not in text and "(" not in text

    def test_json_format_emission(self, tmp_path):
        cfg = dict(VERIFY_CFG, out=str(tmp_path / "runs"), format="both")
        run_dir, _ = run_config(cfg)
        assert (run_dir / "identities.csv").exists()
        records = json.loads((run_dir / "identities.json").read_text())
        assert records[0].keys() == {"word", "check", "residual"}

    def test_counterexample_exact_run(self, tmp_path):
        cfg = {
            "kind": "counterexample",
            "flavor": "exact-markov",
            "source": {"type": "iid", "probs": [0.5, 0.5]},
            "word": [1, 1],
            "k_prune": 3,
            "out": str(tmp_path / "runs"),
        }
        run_dir, manifest = run_config(cfg)
        assert manifest["results"]["b_return_at_k_prune"] == 0.0
        assert manifest["results"]["ratio_discrepancy"] < 1e-10

    def test_counterexample_exact_makes_one_return_law(self, tmp_path, monkeypatch):
        calls = []
        original = hittimes.markov_pattern.exact.hitting_pmf

        def counted(source, target, initial, k_max):
            calls.append((initial, k_max))
            return original(source, target, initial, k_max)

        monkeypatch.setattr(hittimes.markov_pattern.exact, "hitting_pmf", counted)
        monkeypatch.setattr(cli, "hitting_pmf", counted)
        cfg = dict(CE_CFG, source={"type": "iid", "probs": [0.3, 0.7]}, word=[0, 1, 0],
                   k_prune=7, out=str(tmp_path / "runs"))
        run_dir, manifest = run_config(cfg)
        assert calls.count(("in_target", 7)) == 1
        rows = dict(line.split(",") for line in
                    (run_dir / "counterexample.csv").read_text().splitlines()[1:])
        assert float(rows["expected_ratio"]) == 1.0 - float(rows["pruned_mass"])
        assert manifest["results"]["ratio_discrepancy"] < 1e-12

    def test_counterexample_k_max_below_k_prune_exits_1(self, tmp_path, capsys):
        cfg = dict(CE_CFG, k_prune=7, k_max=3, out=str(tmp_path / "r"))
        path = _write_config(tmp_path, cfg)
        assert main(["counterexample", "--config", str(path)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValidationError"
        assert "k_max = 3 must reach k_prune = 7" in record["message"]
        assert not list((tmp_path / "r").rglob("*.csv"))

    def test_counterexample_k_max_is_a_bound_not_a_horizon(self, tmp_path):
        # B's law is read at k_prune only, so any k_max that reaches it gives the same bytes
        cfg = dict(CE_CFG, source={"type": "markov", "transitions": [
            [0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]}, word=[0, 1, 2], k_prune=7)
        runs = []
        for k_max in (None, 7, 512):
            extra = {} if k_max is None else {"k_max": k_max}
            run_dir, manifest = run_config(dict(cfg, **extra, out=str(tmp_path / str(k_max))))
            runs.append(((run_dir / "counterexample.csv").read_bytes(), manifest["results"],
                         manifest["artifacts"]))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][1]["b_return_at_k_prune"] == 0.0

    def test_counterexample_mc_run(self, tmp_path):
        cfg = {
            "kind": "counterexample",
            "flavor": "monte-carlo",
            "system": "doubling",
            "target": {"word": [1, 1]},
            "k_prune": 3,
            "n_digits": 100_000,
            "seed": 4,
            "out": str(tmp_path / "runs"),
        }
        run_dir, manifest = run_config(cfg)
        assert manifest["results"]["b_returns_at_k_prune"] == 0
        assert abs(manifest["results"]["discrepancy_z"]) < 4.0

    @pytest.mark.parametrize("cfg,report_type", [
        (CE_CFG, PrunedTargetReport),
        ({"kind": "counterexample", "flavor": "monte-carlo", "system": "doubling",
          "target": {"word": [1, 1]}, "k_prune": 3, "n_digits": 10_000}, PrunedReturnDemo),
    ], ids=["exact", "monte-carlo"])
    def test_counterexample_rows_are_the_report_fields(self, tmp_path, cfg, report_type):
        # a field added to the report reaches the table, in order and under its name
        run_dir, _ = run_config(dict(cfg, out=str(tmp_path / "runs")))
        lines = (run_dir / "counterexample.csv").read_text().splitlines()
        assert lines[0] == "quantity,value"
        assert [line.split(",")[0] for line in lines[1:]] == [
            f.name for f in dataclasses.fields(report_type)
        ]

    def test_estimate_columns_are_the_row_fields(self, tmp_path):
        run_dir, _ = run_config(dict(SIM_CFG, out=str(tmp_path / "runs")))
        header = (run_dir / "estimate.csv").read_text().splitlines()[0].split(",")
        suffix = ReportRow._fields[1:]
        assert tuple(header[-len(suffix):]) == suffix

    def test_verify_makes_one_law_of_each_kind_per_word(self, tmp_path, monkeypatch):
        calls = []
        original = hittimes.markov_pattern.exact.hitting_pmf

        def counted(source, target, initial, k_max):
            calls.append((target.word, initial, k_max))
            return original(source, target, initial, k_max)

        # return_pmf reaches hitting_pmf through the exact module
        monkeypatch.setattr(hittimes.markov_pattern.exact, "hitting_pmf", counted)
        monkeypatch.setattr(cli, "hitting_pmf", counted)
        cfg = dict(VERIFY_CFG, j_max=40, m_max=40, out=str(tmp_path / "runs"))
        run_config(cfg)
        assert calls == [
            (word, initial, k_max)
            for word in ((1,), (1, 1))
            for initial, k_max in (("stationary", 64), ("in_target", 79))
        ]

    def test_verify_refuses_an_over_budget_shift_split_before_any_law(
        self, tmp_path, capsys, monkeypatch
    ):
        # the golden 3-state source, word 012012: the split's 2 * 9^2 *
        # (10^7 + 6) state updates are past the 10^9 budget
        calls = []
        for name in ("hitting_pmf", "return_pmf", "verify_inducing_identity", "return_excess"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **kw: calls.append(name))
        cfg = {
            "kind": "verify-identities",
            "source": {
                "type": "markov",
                "transitions": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
            },
            "words": [[0, 1, 2, 0, 1, 2]],
            "j_max": 10**7,
            "out": str(tmp_path / "r"),
        }
        path = _write_config(tmp_path, cfg)
        assert main(["verify", "--config", str(path)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "BudgetExceededError"
        assert "1.62e+09 state updates" in record["message"]
        assert calls == []

    def test_report_over_previous_run(self, tmp_path):
        sim = dict(SIM_CFG, out=str(tmp_path / "runs"))
        sim_dir, _ = run_config(sim)
        rep = {
            "kind": "report",
            "input_dir": str(sim_dir),
            "prediction": {"family": "exponential-hitting", "theta": 1.0, "mu": 0.25},
            "cells": [[1], [2]],
            "out": str(tmp_path / "runs"),
        }
        run_dir, manifest = run_config(rep)
        assert (run_dir / "estimate.csv").exists()
        # exact P(phi=1) = 1/4 vs prediction e^{-1/4}/4: ratio-1 = e^{1/4}-1 = 0.284
        import math

        want = math.exp(0.25) - 1.0
        assert manifest["results"]["summary_max_abs_ratio_minus_1"] == pytest.approx(
            want, abs=0.05
        )


class TestWriteCsv:
    HEADER = ("k1", "a1", "count")

    def _both_paths(self, tmp_path, rows: np.ndarray) -> tuple[bytes, bytes]:
        write_csv(tmp_path / "array.csv", self.HEADER, rows)
        write_csv(tmp_path / "cells.csv", self.HEADER, rows.tolist())
        return (tmp_path / "array.csv").read_bytes(), (tmp_path / "cells.csv").read_bytes()

    def test_integer_array_writes_the_per_cell_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = rng.integers(-5, 2**40, size=(500, 3))
        rows[::7, 1] = -1  # the overflow mark
        rows[3] = [2**31, 2**32 + 1, 2**63 - 1]
        rows[4] = [-(2**63), -(2**31) - 1, 0]
        for table in (rows, rows[:0], (rows % 1000).astype(np.int32),
                      (rows % 200).astype(np.uint8), rows[::2, :]):
            array, cells = self._both_paths(tmp_path, table)
            assert array == cells
        assert array.startswith(b"k1,a1,count\n") and array.endswith(b"\n")

    def test_integer_array_of_another_width_refused(self, tmp_path):
        with pytest.raises(ValueError, match="row width 2"):
            write_csv(tmp_path / "x.csv", self.HEADER, np.zeros((3, 2), dtype=np.int64))


class TestJsonTable:
    """`_emit_table` writes a table's JSON through `write_json`, one record
    ``dict(zip(header, row))`` per row, for an integer array as for a list."""

    HEADER = ("k1", "a1", "count")  # not in sorted order

    def _emit(self, tmp_path, rows) -> bytes:
        cli._emit_table(tmp_path, "t", self.HEADER, rows, {"format": "json"})
        return (tmp_path / "t.json").read_bytes()

    def _records(self, rows: np.ndarray) -> bytes:
        records = [dict(zip(self.HEADER, row)) for row in rows.tolist()]
        return (json.dumps(records, indent=2, sort_keys=True) + "\n").encode("ascii")

    def test_empty_and_negative_tables(self, tmp_path):
        empty = np.zeros((0, 3), dtype=np.int64)
        assert self._emit(tmp_path, empty) == self._records(empty) == b"[]\n"
        negative = np.array([[-1, -2, 3], [-(2**40), -1, -7]])
        assert self._emit(tmp_path, negative) == self._records(negative)
        assert self._emit(tmp_path, negative.tolist()) == self._records(negative)


class TestMainEntry:
    def test_python_dash_m_runs_the_cli(self):
        src = Path(hittimes.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH")))
        ))
        done = subprocess.run([sys.executable, "-m", "hittimes", "--help"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: hittimes")

    def test_verify_subcommand(self, tmp_path, capsys):
        path = _write_config(tmp_path, dict(VERIFY_CFG, out=str(tmp_path / "r")))
        assert main(["verify", "--config", str(path)]) == 0
        out = capsys.readouterr().out.strip()
        assert Path(out).is_dir()

    @pytest.mark.parametrize("cfg,field", NON_FINITE_CFGS)
    def test_non_finite_config_exits_2_with_one_record(self, tmp_path, capsys, cfg, field):
        # json.dumps writes NaN and Infinity, and json.loads reads them back
        path = _write_config(tmp_path, dict(cfg, out=str(tmp_path / "r")))
        subcommand = "exact" if cfg["kind"] == "exact-markov" else "simulate"
        assert main([subcommand, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        record = json.loads(err)  # one JSON record and nothing else
        assert record == {"error": "ConfigError",
                          "message": f"config field {field}: numbers must be finite"}
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "subcommand,cfg,field",
        [
            ("exact", {"kind": "exact-markov", "source": {"type": "iid", "probs": [0.5, 0.5]},
                       "targets": [{"word": [0, 0]}], "delta": 0}, "delta"),
            ("verify", dict(VERIFY_CFG, words=[[1], [0, -1]]), "words/1/1"),
            ("counterexample", dict(CE_CFG, word=[-1, 0]), "word/0"),
            # settings that are constants of the program, not config keys
            ("exact", dict(EXACT_CFG, theta=0.5), "theta"),
            ("exact", dict(EXACT_CFG, points_per_decade=8), "points_per_decade"),
            ("simulate", dict(SIM_CF_CFG, chunk_size=1024), "chunk_size"),
            ("simulate", dict(SIM_CF_CFG, mark_cap=100), "mark_cap"),
            # a kind that is not a string is refused, not looked up
            ("exact", {"kind": ["exact-markov"]}, "unknown experiment kind"),
            ("exact", {"kind": {"a": 1}}, "unknown experiment kind"),
        ],
    )
    def test_malformed_config_exits_2_with_field(self, tmp_path, capsys, subcommand, cfg, field):
        path = _write_config(tmp_path, dict(cfg, out=str(tmp_path / "r")))
        assert main([subcommand, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert field in record["message"]

    @pytest.mark.parametrize(
        "kind,cfg,path", list(_integral_float_cases()),
        ids=lambda x: "/".join(map(str, x)) if isinstance(x, tuple) else None,
    )
    def test_integral_float_in_an_integer_field_exits_2(self, tmp_path, capsys, kind, cfg, path):
        # draft 2020-12 counts 64.0 as an integer; the runners would index, count
        # and hash with it as a float
        assert cfg is not None, f"no {kind} config holds integer field {path}"
        validate_config(cfg)
        bad = json.loads(json.dumps(cfg))
        node = bad
        for key in path[:-1]:
            node = node[key]
        value = node[path[-1]] = float(node[path[-1]])
        subcommand = next(s for s, kinds in cli._SUBCOMMAND_KINDS.items() if kind in kinds)
        path_file = _write_config(tmp_path, dict(bad, out=str(tmp_path / "r")))
        assert main([subcommand, "--config", str(path_file)]) == 2
        record = json.loads(capsys.readouterr().err)
        field = "/".join(map(str, path))
        assert record == {"error": "ConfigError",
                          "message": f"config field {field}: {value!r} is not of type 'integer'"}
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "subcommand,cfg,key",
        [
            ("simulate", {k: v for k, v in SIM_CFG.items() if k != "n_replicas"}, "n_replicas"),
            ("simulate", {"kind": "simulate-cf", "mode": "ergodic", "target": {"threshold": 10}},
             "n_digits"),
            ("counterexample", {k: v for k, v in CE_CFG.items() if k != "word"}, "word"),
            ("counterexample", {"kind": "counterexample", "flavor": "monte-carlo",
                                "target": {"word": [1, 1]}, "k_prune": 3, "n_digits": 1000},
             "system"),
        ],
        ids=["replica-n-replicas", "ergodic-n-digits", "exact-ce-word", "mc-ce-system"],
    )
    def test_runner_requires_its_keys(self, tmp_path, capsys, subcommand, cfg, key):
        # the schema asks for each mode's and flavor's keys, so no run directory is made
        path = _write_config(tmp_path, dict(cfg, out=str(tmp_path / "r")))
        assert main([subcommand, "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert record["message"] == f"config field (root): '{key}' is a required property"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "cfg,field",
        [
            (dict(SIM_CF_CFG, target={"word": [0, 1]}), "target/word"),
            (dict(SIM_CF_CFG, kind="simulate-doubling", target={"word": [1, 2]}), "target/word"),
            (dict(SIM_CF_CFG, kind="simulate-doubling", target={"threshold": 2}),
             "target/threshold"),
            # an exact-oracle key that the scan target would silently drop
            (dict(SIM_CF_CFG, target={"word": [1], "period_hint": 5}), "target"),
        ],
        ids=["cf-word-with-0", "doubling-word-with-2", "doubling-threshold", "period-hint"],
    )
    def test_simulate_target_without_an_answer_exits_2(self, tmp_path, capsys, cfg, field):
        # the first three have measure zero: no digit of the system hits them
        path = _write_config(tmp_path, dict(cfg, out=str(tmp_path / "r")))
        assert main(["simulate", "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"config field {field}:")
        assert not list((tmp_path / "r").glob("*/counts.csv"))  # refused before any sampling

    def test_verify_rare_word_kac_and_relation_untruncated(self, tmp_path, capsys):
        # fair coin, word 1^18: E[R] = 2^18, and the return tail stays above
        # 1e-12 past 2^22 steps, so no truncated return law can meet these
        cfg = {
            "kind": "verify-identities",
            "source": {"type": "iid", "probs": [0.5, 0.5]},
            "words": [[1] * 18],
            "out": str(tmp_path / "r"),
        }
        path = _write_config(tmp_path, cfg)
        assert main(["verify", "--config", str(path)]) == 0
        run_dir = Path(capsys.readouterr().out.strip())
        lines = (run_dir / "identities.csv").read_text().splitlines()[1:]
        residual = {check: float(value) for _, check, value in (r.split(",") for r in lines)}
        assert residual["kac_expectation"] <= 1e-9 * 2**18
        assert residual["discrete_integral_relation"] <= 1e-10

    @pytest.mark.parametrize(
        "target",
        [{"word": [0] * 8, "period_hint": 2}, {"word": [0, 1, 1], "period_hint": 3},
         {"word": [0, 1, 1], "period_hint": 1}, {"word": [1], "period_hint": 1}],
        ids=["zeros-non-minimal", "borderless-own-length", "borderless-short", "one-symbol"],
    )
    def test_period_hint_must_be_the_minimal_period_below_l(self, tmp_path, capsys, target):
        cfg = dict(EXACT_CFG, targets=[target], out=str(tmp_path / "r"))
        path = _write_config(tmp_path, cfg)
        assert main(["exact", "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith("config field targets/period_hint:")
        assert not list((tmp_path / "r").rglob("*.csv"))

    def test_exact_zero_measure_word_exits_1_without_traceback(self, tmp_path, capsys):
        # 1 -> 1 is impossible, so the word 11 has measure 0
        cfg = dict(EXACT_CFG, source={"type": "markov", "transitions": [[0.5, 0.5], [1, 0]]},
                   targets=[{"word": [1, 1]}], out=str(tmp_path / "r"))
        path = _write_config(tmp_path, cfg)
        assert main(["exact", "--config", str(path)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert issubclass(getattr(errors, record["error"]), errors.HitTimesError)
        assert "(1, 1)" in record["message"]
        assert "traceback" not in record

    def test_exact_underflowing_window_exits_1_without_traceback(self, tmp_path, capsys):
        # word 01's window runs to t = 1000, where mass and prediction both
        # underflow to 0.0, so the table has no ratio to report
        cfg = dict(EXACT_CFG, targets=[{"word": [0, 1]}], delta=0.001, out=str(tmp_path / "r"))
        path = _write_config(tmp_path, cfg)
        assert main(["exact", "--config", str(path)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ProbabilityUnderflowError"
        assert "traceback" not in record

    def test_exact_table_at_length_32_runs(self, tmp_path, capsys):
        # fair 0^31 1 reads k up to 2^33, which no series of the state budget reaches
        cfg = dict(EXACT_CFG, targets=[{"word": [0] * 31 + [1]}], out=str(tmp_path / "r"))
        path = _write_config(tmp_path, cfg)
        assert main(["exact", "--config", str(path)]) == 0
        run_dir = Path(capsys.readouterr().out.strip())
        for side in ("return", "hitting"):
            lines = (run_dir / f"{side}.csv").read_text().splitlines()
            assert lines[0] == "l,k,t,exact,predicted,ratio" and len(lines) == 22
            assert all(line.startswith("32,") for line in lines[1:])

    def test_binary_word_of_length_40_runs(self, tmp_path, capsys):
        cfg = dict(SIM_CFG, target={"word": [1] * 40}, out=str(tmp_path / "r"))
        path = _write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path)]) == 0
        run_dir = Path(capsys.readouterr().out.strip())
        assert (run_dir / "counts.csv").read_text().splitlines()[0] == "k1,count"

    @pytest.mark.parametrize(
        "prediction,field",
        [
            ({"family": "exponential-hitting", "theta": 1.0}, "mu"),
            ({"family": "exponential-return"}, "mu"),
            ({"family": "cf-joint", "prime": True}, "threshold"),
        ],
    )
    def test_prediction_without_its_fields_exits_2(self, tmp_path, capsys, prediction, field):
        cfg = dict(SIM_CFG, prediction=prediction, out=str(tmp_path / "r"))
        path = _write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "prediction" in record["message"] and f"'{field}'" in record["message"]
        assert not (tmp_path / "r").exists()  # rejected before any simulation

    @pytest.mark.parametrize(
        "counts,manifest,bad_file",
        [
            ("k1,count\n1,x\n", {"config": {"mode": "replica"}, "results": {"n_total": 4}},
             "counts.csv"),
            ("k1,count\n1,2,3\n", {"config": {"mode": "replica"}, "results": {"n_total": 4}},
             "counts.csv"),
            ("k1,count\n1,3\n", {"config": {"mode": "replica"}, "results": {}}, "manifest.json"),
            ("k1,count\n1,3\n", {"config": {"mode": "replica"}, "results": {"n_total": 0}},
             "manifest.json"),
            # JSON's true is an int to isinstance, and would be written as N = true
            ("k1,count\n1,1\n", {"config": {"mode": "replica"}, "results": {"n_total": True}},
             "manifest.json"),
            # one cell twice, counts above n_total, a negative count, a count
            # beyond int64, no key column
            ("k1,count\n1,5\n1,7\n", {"config": {"mode": "replica"}, "results": {"n_total": 20}},
             "counts.csv"),
            ("k1,count\n1,20\n2,15\n", {"config": {"mode": "replica"}, "results": {"n_total": 20}},
             "counts.csv"),
            ("k1,count\n1,-3\n2,5\n", {"config": {"mode": "replica"}, "results": {"n_total": 20}},
             "counts.csv"),
            ("k1,count\n1,9223372036854775808\n",
             {"config": {"mode": "replica"}, "results": {"n_total": 20}}, "counts.csv"),
            ("count\n3\n", {"config": {"mode": "replica"}, "results": {"n_total": 4}},
             "counts.csv"),
        ],
        ids=["non-integer-cell", "row-wider-than-header", "no-n-total", "zero-n-total",
             "true-n-total", "repeated-cell", "counts-above-n-total", "negative-count",
             "count-beyond-int64", "no-key-column"],
    )
    def test_report_on_malformed_input_exits_2(self, tmp_path, capsys, counts, manifest, bad_file):
        input_dir = tmp_path / "input"
        input_dir.mkdir()
        (input_dir / "counts.csv").write_text(counts)
        (input_dir / "manifest.json").write_text(json.dumps(manifest))
        cfg = {
            "kind": "report",
            "input_dir": str(input_dir),
            "prediction": {"family": "exponential-hitting", "mu": 0.25},
            "cells": [[1]],
            "out": str(tmp_path / "r"),
        }
        path = _write_config(tmp_path, cfg)
        assert main(["report", "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert str(input_dir / bad_file) in record["message"]

    def test_two_gap_exponential_prediction_runs(self, tmp_path, capsys):
        cells = [[1, 2], [2, 3], [3, 1]]
        cfg = dict(SIM_CFG, n_replicas=1000, d=2, cells=cells, out=str(tmp_path / "r"))
        path = _write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path)]) == 0
        run_dir = Path(capsys.readouterr().out.strip())
        lines = (run_dir / "estimate.csv").read_text().splitlines()
        assert lines[0].startswith("k1,k2,count,")
        for cell, line in zip(cells, lines[1:]):
            row = line.split(",")
            assert [int(x) for x in row[:2]] == cell
            assert float(row[5]) == consecutive_asymptote(1.0, 0.25, cell, hitting_start=True)

    @pytest.mark.parametrize(
        "cfg,field",
        [
            ({k: v for k, v in SIM_CFG.items() if k != "prediction"}, "'prediction'"),
            ({k: v for k, v in SIM_CFG.items() if k != "cells"}, "'cells'"),
            (dict(SIM_CFG, prediction={"family": "none"}), "prediction/family"),
            (dict(SIM_CFG, cells=[]), "config field cells:"),
        ],
        ids=["cells-without-prediction", "prediction-without-cells", "family-none", "no-cells"],
    )
    def test_estimate_request_that_writes_no_estimate_exits_2(self, tmp_path, capsys, cfg, field):
        path = _write_config(tmp_path, dict(cfg, out=str(tmp_path / "r")))
        assert main(["simulate", "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert field in record["message"]
        assert not (tmp_path / "r").exists()  # refused before any run directory

    @pytest.mark.parametrize(
        "prime,cells",
        [(False, [[1, 10], [4, 12]]), (True, [[1, 11], [4, 13]])],
        ids=["plain", "prime"],
    )
    def test_cf_joint_estimate_predicts_each_cell_by_the_asymptote(
        self, tmp_path, capsys, prime, cells
    ):
        cfg = dict(SIM_CF_CFG, target={"threshold": 10, "prime": prime}, cells=cells,
                   prediction={"family": "cf-joint", "threshold": 10, "prime": prime},
                   out=str(tmp_path / "r"))
        assert main(["simulate", "--config", str(_write_config(tmp_path, cfg))]) == 0
        run_dir = Path(capsys.readouterr().out.strip())
        lines = (run_dir / "estimate.csv").read_text().splitlines()
        assert lines[0].startswith("k1,a1,count,N,estimate,prediction,")
        assert len(lines) == len(cells) + 1
        for (k, a), line in zip(cells, lines[1:]):
            row = line.split(",")
            assert [int(x) for x in row[:2]] == [k, a]
            assert float(row[5]) == cf_joint_asymptote(10, (k,), (a,), prime)

    @pytest.mark.parametrize(
        "cfg,cell",
        [
            # a threshold target keys replica cells by (gap, mark)
            ({"kind": "simulate-cf", "target": {"threshold": 10}, "cells": [[1, 10]],
              "prediction": {"family": "exponential-hitting", "mu": 0.1375}}, "marks"),
            ({"kind": "simulate-cf", "mode": "ergodic", "target": {"threshold": 10},
              "n_digits": 100_000, "cells": [[1], [2]],
              "prediction": {"family": "cf-joint", "threshold": 10}}, "[1]"),
            ({"d": 2, "cells": [[1, 2], [3]]}, "[3]"),
            ({"cells": [[1], [0]]}, "[0]"),
        ],
        ids=["exponential-on-marks", "cf-joint-ergodic", "cell-width", "gap-zero"],
    )
    def test_bad_cells_exit_2_before_simulating(self, tmp_path, capsys, cfg, cell):
        path = _write_config(tmp_path, {**SIM_CFG, **cfg, "out": str(tmp_path / "r")})
        assert main(["simulate", "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert cell in record["message"]
        assert not list((tmp_path / "r").rglob("counts.csv"))

    def test_failed_run_writes_error_json_in_its_run_directory(self, tmp_path, capsys):
        cfg = {**SIM_CFG, "kind": "simulate-cf", "mode": "ergodic",
               "target": {"threshold": 10}, "n_digits": 100_000, "cells": [[1], [2]],
               "prediction": {"family": "cf-joint", "threshold": 10},
               "out": str(tmp_path / "r")}
        path = _write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        (run_dir,) = (tmp_path / "r").iterdir()
        assert run_dir.name == config_hash(validate_config(cfg))
        assert json.loads((run_dir / "error.json").read_text()) == record
        assert record["error"] == "ConfigError"

    def test_report_needs_only_n_total_from_the_manifest(self, tmp_path, capsys):
        input_dir = tmp_path / "input"
        input_dir.mkdir()
        (input_dir / "counts.csv").write_text("k1,count\n1,3\n2,1\n")
        (input_dir / "manifest.json").write_text(json.dumps({"results": {"n_total": 4}}))
        cfg = {
            "kind": "report",
            "input_dir": str(input_dir),
            "prediction": {"family": "exponential-hitting", "mu": 0.25},
            "cells": [[1]],
            "out": str(tmp_path / "r"),
        }
        assert main(["report", "--config", str(_write_config(tmp_path, cfg))]) == 0
        lines = (Path(capsys.readouterr().out.strip()) / "estimate.csv").read_text().splitlines()
        assert lines[1].split(",")[:3] == ["1", "3", "4"]

    def test_report_reads_rows_in_any_order(self, tmp_path, capsys):
        input_dir = tmp_path / "input"
        input_dir.mkdir()
        (input_dir / "counts.csv").write_text("k1,k2,count\n2,1,1\n1,-1,2\n1,2,3\n")
        (input_dir / "manifest.json").write_text(json.dumps({"results": {"n_total": 8}}))
        cfg = {
            "kind": "report",
            "input_dir": str(input_dir),
            "prediction": {"family": "exponential-hitting", "mu": 0.25},
            "cells": [[1, 2], [2, 1], [1, 1]],
            "out": str(tmp_path / "r"),
        }
        assert main(["report", "--config", str(_write_config(tmp_path, cfg))]) == 0
        lines = (Path(capsys.readouterr().out.strip()) / "estimate.csv").read_text().splitlines()
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["1", "2", "3"], ["2", "1", "1"], ["1", "1", "0"]
        ]

    def test_report_on_keys_across_the_int64_range(self, tmp_path, capsys):
        # key columns span 2^64, so sum_by_row ranks them before it sorts
        ends = [-(2**63), -1, 1, 2, 2**63 - 1]
        table = np.array([[k1, k2, 0] for k1 in ends for k2 in ends], dtype=np.int64)
        table[:, 2] = np.arange(1, len(table) + 1)
        table = table[np.random.default_rng(3).permutation(len(table))]
        keys, counts = cli.estimators.sum_by_row(table[:, :2], table[:, 2])
        assert len(keys) == len(table)
        pmf = cli.estimators.EmpiricalPMF(keys, counts, int(counts.sum()))
        cells = [[1, 2], [2, 1], [2, 2], [1, 1], [2, 3]]
        input_dir = tmp_path / "input"
        input_dir.mkdir()
        (input_dir / "manifest.json").write_text(json.dumps({"results": {"n_total": pmf.n_total}}))
        cfg = {
            "kind": "report",
            "input_dir": str(input_dir),
            "prediction": {"family": "exponential-hitting", "mu": 0.25},
            "cells": cells,
            "out": str(tmp_path / "r"),
        }
        path = _write_config(tmp_path, cfg)
        csv = "k1,k2,count\n" + "".join(f"{a},{b},{c}\n" for a, b, c in table.tolist())
        (input_dir / "counts.csv").write_text(csv)
        assert main(["report", "--config", str(path)]) == 0
        lines = (Path(capsys.readouterr().out.strip()) / "estimate.csv").read_text().splitlines()
        assert [[int(x) for x in line.split(",")[:3]] for line in lines[1:]] == [
            cell + [pmf.count(cell)] for cell in cells
        ]
        # the same table with one extreme row repeated is refused
        (input_dir / "counts.csv").write_text(csv + f"{2**63 - 1},{-(2**63)},1\n")
        assert main(["report", "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "1 cells repeat an earlier row" in record["message"]

    def test_report_cell_width_must_match_counts_header(self, tmp_path, capsys):
        input_dir = tmp_path / "input"
        input_dir.mkdir()
        (input_dir / "counts.csv").write_text("k1,k2,count\n1,2,3\n")
        manifest = {"config": {"mode": "replica"}, "results": {"n_total": 4}}
        (input_dir / "manifest.json").write_text(json.dumps(manifest))
        cfg = {
            "kind": "report",
            "input_dir": str(input_dir),
            "prediction": {"family": "exponential-hitting", "mu": 0.25},
            "cells": [[1, 2], [1]],
            "out": str(tmp_path / "r"),
        }
        path = _write_config(tmp_path, cfg)
        assert main(["report", "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "cell [1] " in record["message"]

    def test_unexpected_exception_exits_1_with_record(self, tmp_path, capsys, monkeypatch):
        def broken(cfg, run_dir):
            raise RuntimeError("runner broke")

        monkeypatch.setitem(cli._RUNNERS, "verify-identities", broken)
        path = _write_config(tmp_path, dict(VERIFY_CFG, out=str(tmp_path / "r")))
        assert main(["verify", "--config", str(path)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "RuntimeError"
        assert record["message"] == "runner broke"
        assert "in broken" in record["traceback"]

    def test_main_validates_the_config_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(config):
            calls.append(config)
            return validate_config(config)

        monkeypatch.setattr(cli, "validate_config", counting)
        path = _write_config(tmp_path, dict(VERIFY_CFG, out=str(tmp_path / "r")))
        assert main(["verify", "--config", str(path)]) == 0
        assert len(calls) == 1
        run_dir = Path(capsys.readouterr().out.strip())
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"] == validate_config(dict(VERIFY_CFG, out=str(tmp_path / "r")))

    def test_subcommand_kind_mismatch(self, tmp_path, capsys):
        path = _write_config(tmp_path, dict(VERIFY_CFG))
        assert main(["simulate", "--config", str(path)]) == 2

    def test_flag_overrides_change_hash(self, tmp_path):
        path = _write_config(tmp_path, dict(SIM_CFG, out=str(tmp_path / "r")))
        assert main(["simulate", "--config", str(path)]) == 0
        assert main(["simulate", "--config", str(path), "--seed", "9"]) == 0
        dirs = list((tmp_path / "r").iterdir())
        assert len(dirs) == 2  # different seeds land in different run dirs

    def test_missing_config_file(self, capsys):
        assert main(["verify", "--config", "/nonexistent/cfg.json"]) == 2
