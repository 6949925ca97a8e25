"""Pinned SHA-256 digests of the artifacts of eleven small configs, of two
digit streams long enough to cross the stream's chunk and lane boundaries,
and of five block-chain laws.

A rerun only shows that a change is deterministic; these digests show that
it left the bytes of earlier runs alone. The seven Monte-Carlo configs and the
two streams must never move unless their sampling changes on purpose; each
runs with its uniforms read ahead on a helper thread and again without, as
on one CPU. The exact-markov, verify-identities, exact counterexample and
block-law digests move whenever the exact oracle's floating-point evaluation
order changes; a change that moves one must state the tolerance the new
values are held to.
"""

import hashlib

import pytest

from hittimes import branch_systems
from hittimes.branch_systems import DOUBLING, GAUSS, generate_stream
from hittimes.cli import run_config
from hittimes.markov_pattern import (
    MarkovSource,
    PatternTarget,
    block_hitting_pmf,
    block_return_pmf,
    block_set_return_pmf,
)

CONFIGS = {
    "exact-markov": {
        "kind": "exact-markov",
        "source": {"type": "iid", "probs": [0.5, 0.5]},
        "targets": [{"word": [0] * 8, "period_hint": 1}, {"word": [0, 1, 1]}],
        "delta": 0.5,
    },
    # theta from the minimal period 2 of the bordered word 01010, with no hint;
    # its CSVs equal those of the same config with period_hint 2
    "exact-markov-derived-period": {
        "kind": "exact-markov",
        "source": {"type": "iid", "probs": [0.5, 0.5]},
        "targets": [{"word": [0, 1, 0, 1, 0]}],
        "delta": 0.5,
    },
    "replica": {
        "kind": "simulate-doubling",
        "mode": "replica",
        "target": {"word": [1, 1]},
        "n_replicas": 20_000,
        "d": 1,
        "max_steps": 64,
        "seed": 1,
        "cells": [[1], [2], [3]],
        "prediction": {"family": "exponential-hitting", "theta": 1.0, "mu": 0.25},
    },
    "replica-d2": {
        "kind": "simulate-doubling",
        "mode": "replica",
        "target": {"word": [1, 1]},
        "n_replicas": 20_000,
        "d": 2,
        "max_steps": 64,
        "seed": 1,
        "cells": [[1, 2], [2, 3], [3, 1]],
        "prediction": {"family": "exponential-hitting", "theta": 1.0, "mu": 0.25},
    },
    # a threshold target at d = 2 over two chunks, written as CSV and JSON;
    # its keys include OVERFLOW_MARK, and the digests were taken before the
    # count table stayed two arrays
    "replica-cf-both": {
        "kind": "simulate-cf",
        "mode": "replica",
        "target": {"threshold": 5},
        "n_replicas": 70_000,
        "d": 2,
        "max_steps": 64,
        "seed": 3,
        "format": "both",
        "cells": [[1, 5, 1, 5], [2, 6, 1, 7]],
        "prediction": {"family": "cf-joint", "threshold": 5},
    },
    # threshold targets at d = 1: two chunks whose keys include
    # OVERFLOW_MARK, and a prime target that censors some replicas
    "replica-cf-d1": {
        "kind": "simulate-cf",
        "mode": "replica",
        "target": {"threshold": 5},
        "n_replicas": 70_000,
        "d": 1,
        "max_steps": 64,
        "seed": 5,
        "cells": [[1, 5], [2, 7], [3, 6]],
        "prediction": {"family": "cf-joint", "threshold": 5},
    },
    "replica-cf-prime-d1": {
        "kind": "simulate-cf",
        "mode": "replica",
        "target": {"threshold": 7, "prime": True},
        "n_replicas": 20_000,
        "d": 1,
        "max_steps": 64,
        "seed": 6,
        "cells": [[1, 7], [2, 11]],
        "prediction": {"family": "cf-joint", "threshold": 7, "prime": True},
    },
    "ergodic": {
        "kind": "simulate-cf",
        "mode": "ergodic",
        "target": {"threshold": 10},
        "n_digits": 100_000,
        "min_hits": 1000,
        "seed": 2,
    },
    "verify-identities": {
        "kind": "verify-identities",
        "source": {
            "type": "markov",
            "transitions": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
        },
        "words": [[0, 1, 2, 0, 1, 2], [0, 0, 1, 1, 2, 2]],
    },
    "counterexample-exact": {
        "kind": "counterexample",
        "flavor": "exact-markov",
        "source": {
            "type": "markov",
            "transitions": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
        },
        "word": [0, 1, 2],
        "k_prune": 7,
        "k_max": 512,
    },
    "counterexample-mc": {
        "kind": "counterexample",
        "flavor": "monte-carlo",
        "system": "doubling",
        "target": {"word": [1, 1]},
        "k_prune": 3,
        "n_digits": 100_000,
        "seed": 4,
    },
}

GOLDEN = {
    # re-pinned when grid points past the crossover moved to the closed-form
    # tail: every mass within 1e-14 relative of the series' (6.7e-16 read)
    "exact-markov": {
        "hitting.csv": "f79cba652bdbfca70cbffb6c2c3f472352a55a7d3e1c0a8ec5995d7051f8b463",
        "manifest.json": "7ac9d4d39168f2c7d09dc97bd552be8fddd94e9ab472f8943219c41528ae6a28",
        "return.csv": "f6fc06a6b0696753c3c3670093c422d7f2eae7e1d4e8dc67b41da31347967a6b",
    },
    "exact-markov-derived-period": {
        "hitting.csv": "e04e9c8e7204c26c1ee890de64be35d21229c95be083bd5917b57b9b313d0f2f",
        "manifest.json": "18bc1142952116753115c6b534cb1cb3ab5cf9416b1195d66032cc5952bdf31e",
        "return.csv": "0642d4dab7f1ee6ce764fad1adadcb9c7bcbf28da6439df12f0c830b4fb86787",
    },
    "replica": {
        "counts.csv": "f68e65304ddc98e78afc6ac3db0dd012a63cb9dd2e227619ba15ad76eb06cc54",
        "estimate.csv": "ca4437bd65df486062b0ffaaa36579669965096409f19f520059655391c0b520",
        "manifest.json": "12b12e6273d164eca3934e03699068138cca5db5ad240844e4abb9d39b6effdf",
    },
    "replica-d2": {
        "counts.csv": "4cbc43d8f053e6c84bf614a3867b2f7e235937e9b0b0888f55aea14714398070",
        "estimate.csv": "2e100da7de74cb345ec94ad0719cab8578d202120495ba23d33780b64a287bbc",
        "manifest.json": "38acc91281f33ca26c6949da2ab8adb85520a921455659defd1eb5c4bb8bd84d",
    },
    "replica-cf-both": {
        "counts.csv": "e1c64869ab976bcffa96b1906c60e5a2cd844a7fa489959aaf46cfbc3a0b0eb4",
        "counts.json": "870fcfed8476e6a7fc331cf19b144c429b7ce58a44e8c038fcfcafaa9d7fad8c",
        "estimate.csv": "0a93d5636f040eefb5d33ffeb7dbed1e9c4b6661224d6759ca483d81d96bac3b",
        "estimate.json": "ec62a2dbec1753974a58a791073f1c1e0f21b5ad6b7727bf00d7afb4fc2c939d",
        "manifest.json": "eb8d431265048d95dae649bb9f9ae0b71af9c4e3748e333ce79001bda3bd103f",
    },
    "replica-cf-d1": {
        "counts.csv": "70315c8a1822f74dba5b99dc4ac8d5aa55adf9533a1ace4e836acb557708b1e1",
        "estimate.csv": "f93307ac80353fa49629bc49b8f96b334c29aecacc114832e80b825423a27d46",
        "manifest.json": "821574c3b47a4ef46986dfd68666982ea03efa0102e2d0361d5bcf83656bc84a",
    },
    "replica-cf-prime-d1": {
        "counts.csv": "2d698111a2a5919e2e19913d15fe6f6248160f6c59bdd980980d9e614d51f848",
        "estimate.csv": "2b1a383f99f7e84c959e11de789eeb9f33ef8dcc58b8ad5ec3876d4fff4c31eb",
        "manifest.json": "30ef620f48f44cad8dbe262ae970905afcabdae5ca22781710d11080a5b39458",
    },
    "ergodic": {
        "counts.csv": "a0d47b377ed2c80f30ab1fd1a38fab96ef838a75c8e4c3305ed355f72375d8fa",
        "manifest.json": "97dd34d9692b5ff8063d0c89673f9df188a5102aa3e42b3ca30054c1efb67ec0",
    },
    "verify-identities": {
        "identities.csv": "2f38acd610dc11fb4e5bf78497fee23c496b3134ae6830ee6c8e32aebf2da593",
        "manifest.json": "9c7167f13decfeefa1f354bc17efd6b32af574cd10cc36f39427bb430307edb2",
    },
    "counterexample-exact": {
        "counterexample.csv": "afecde49bb3525bb1cc4c4745783e58d85f0f4a44d0812c1ac977cf34ac953bc",
        "manifest.json": "cdbff1a46fcb67005813eca19fb123019626088194eddc264a4314ae1eb69247",
    },
    "counterexample-mc": {
        "counterexample.csv": "1a86fb6ee50088f6bc1447f76e4ddd04ae1419fb2eea3b8bf419a564ad63ce00",
        "manifest.json": "ae0f73486e4ae5531865d2606bc04b9d051e9a6cf899c06dde0860ee306779f7",
    },
}


def _draws_uniforms(config: dict) -> bool:
    return config["kind"].startswith("simulate-") or config.get("flavor") == "monte-carlo"


# a config that draws uniforms runs on both of the samplers' paths: read
# ahead on a helper thread (ids as before) and drawn at each read, as on one CPU
_RUNS = [pytest.param(name, True, id=name) for name in sorted(CONFIGS)] + [
    pytest.param(name, False, id=f"{name}-one-cpu")
    for name in sorted(CONFIGS) if _draws_uniforms(CONFIGS[name])
]


@pytest.mark.parametrize("name, helper", _RUNS)
def test_artifact_digests(name, helper, tmp_path, monkeypatch):
    monkeypatch.setattr(branch_systems, "_spare_cpu", lambda: helper)
    # the manifest records the output root, so run under a fixed relative one
    monkeypatch.chdir(tmp_path)
    run_dir, _ = run_config(dict(CONFIGS[name]))
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.iterdir())
        if p.suffix in (".csv", ".json")
    }
    assert got == GOLDEN[name]


# (system, seed) -> SHA-256 of the little-endian int64 digits followed by
# repr(anchor_point), for 3 * 2**16 + 12345 digits
STREAM_GOLDEN = {
    (GAUSS, 31): "d41405545ce5a2972836814f0aa8ecad1027a8c21cf2e531db0a8efe9b0ddf05",
    (DOUBLING, 32): "059c037d42684f1492fbcbd1a18bb44437f97ed95d2e0530b7c31c738d8f5fdc",
}


@pytest.mark.parametrize(
    "system, seed, helper",
    [pytest.param(system, seed, helper, id=system.name + ("" if helper else "-one-cpu"))
     for helper in (True, False) for system, seed in STREAM_GOLDEN],
)
def test_stream_digests(system, seed, helper, monkeypatch):
    monkeypatch.setattr(branch_systems, "_spare_cpu", lambda: helper)
    stream = generate_stream(system, seed, 3 * 2**16 + 12345)
    payload = stream.digits.astype("<i8").tobytes() + repr(stream.anchor_point).encode()
    assert hashlib.sha256(payload).hexdigest() == STREAM_GOLDEN[system, seed]


# SHA-256 of a block law's little-endian float64 masses followed by
# repr(tail), and repr(mu) for a set; pinned before the block chain's state
# encoding changed, so they hold its laws to the same bits under any layout
_MARKOV3 = MarkovSource.from_transitions([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
_FAIR = MarkovSource.iid([0.5, 0.5])
# rank 4; 0120 and 2120 share their last 3 symbols, so one entry of the next
# marginal is recomputed from a kept predecessor, and the five blocks sort
# differently by oldest-first and newest-first digits
_SET_WORDS = [(0, 1, 2, 0), (2, 1, 2, 0), (1, 0, 2, 1), (2, 2, 0, 1), (1, 1, 1, 2)]
BLOCK_LAW_CALLS = {
    "fair-0^15-1-hitting": lambda: block_hitting_pmf(
        _FAIR, PatternTarget(word=(0,) * 15 + (1,)), 512),
    "fair-0^15-1-return": lambda: block_return_pmf(
        _FAIR, PatternTarget(word=(0,) * 15 + (1,)), 512),
    "markov3-012012-hitting": lambda: block_hitting_pmf(
        _MARKOV3, PatternTarget(word=(0, 1, 2, 0, 1, 2)), 512),
    "markov3-012012-return": lambda: block_return_pmf(
        _MARKOV3, PatternTarget(word=(0, 1, 2, 0, 1, 2)), 512),
    "markov3-rank-4-set-return": lambda: block_set_return_pmf(_MARKOV3, _SET_WORDS, 512),
}
BLOCK_LAW_GOLDEN = {
    "fair-0^15-1-hitting": "737e30db8fc51a83d69e0f7800db7197a790c24cee73243dd138756f4288b3f1",
    "fair-0^15-1-return": "7e19662adebd257dc88cc1b27f92e4e2d6da886a77d8c921fdb2e2f4d691191c",
    "markov3-012012-hitting": "3339a6f67c50e56438c84b69950989cd24fd1e468c45d36ce2a50a57aacf877d",
    "markov3-012012-return": "e700832c5c2aae58989536f127a856258671420ef090c8dc689120fa28eba82b",
    "markov3-rank-4-set-return": "12bc60f1604c1c64738b3598d45a17c3fb089bbdfc8c5bd052fb63f9d8107485",
}


@pytest.mark.parametrize("name", sorted(BLOCK_LAW_CALLS))
def test_block_law_digests(name):
    got = BLOCK_LAW_CALLS[name]()
    law, *mu = got if isinstance(got, tuple) else (got,)
    payload = law.masses.astype("<f8").tobytes() + "".join(map(repr, [law.tail, *mu])).encode()
    assert hashlib.sha256(payload).hexdigest() == BLOCK_LAW_GOLDEN[name]
