"""CLI behaviour: schema rejection, artifact layout, idempotence, subcommands."""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import hittimes.markov_pattern.exact
from hittimes import cli
from hittimes.branch_systems import DOUBLING, generate_stream
from hittimes.cli import CONFIG_SCHEMAS, main, run_config, validate_config
from hittimes.errors import ConfigError
from hittimes.tables import config_hash
from hittimes.theory import consecutive_asymptote


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


class TestValidation:
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


class TestMainEntry:
    def test_verify_subcommand(self, tmp_path, capsys):
        path = _write_config(tmp_path, dict(VERIFY_CFG, out=str(tmp_path / "r")))
        assert main(["verify", "--config", str(path)]) == 0
        out = capsys.readouterr().out.strip()
        assert Path(out).is_dir()

    @pytest.mark.parametrize(
        "subcommand,cfg,field",
        [
            ("exact", {"kind": "exact-markov", "source": {"type": "iid", "probs": [0.5, 0.5]},
                       "targets": [{"word": [0, 0]}], "delta": 0}, "delta"),
            ("verify", dict(VERIFY_CFG, words=[[1], [0, -1]]), "words/1/1"),
            ("counterexample", dict(CE_CFG, word=[-1, 0]), "word/0"),
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
        path = _write_config(tmp_path, dict(cfg, out=str(tmp_path / "r")))
        assert main([subcommand, "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert record["message"].endswith(f"requires {key}")

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
        ],
        ids=["non-integer-cell", "row-wider-than-header", "no-n-total", "zero-n-total"],
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
