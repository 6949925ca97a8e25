"""The four benchmark workloads: timed operations, exact references, checks.

A workload is a fixed list of operations run as one pass. Each operation is
either a CLI config executed in-process by `hittimes.cli.run_config`, or a
direct call to a public library function where no config kind exists. The
timed part of an operation is that call alone; reading its artifacts,
hashing them and checking them happen outside the timed interval.

Every output is checked against an exact or closed-form reference, which is
computed after the timed passes so that it never enters `wall_ref_s` or the
workload's peak memory. Exact references are held to exact tolerances;
statistical ones to at least 5 sigma, so a correct program fails at no seed
in practice.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import hittimes.cli
from hittimes import markov_pattern as mp
from hittimes import theory
from hittimes.markov_pattern.exact import _MASS_DRIFT_TOL

LN2 = math.log(2.0)
SIGMAS = 5.0

FAIR_SPEC = {"type": "iid", "probs": [0.5, 0.5]}
MARKOV3_SPEC = {
    "type": "markov",
    "transitions": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
}
FAIR = mp.MarkovSource.iid(FAIR_SPEC["probs"])
MARKOV3 = mp.MarkovSource.from_transitions(MARKOV3_SPEC["transitions"])

RARE_LENGTHS = (10, 14, 16)
RARE_DELTA = 0.5
VERIFY_WORDS = ((0, 1, 2, 0, 1, 2), (0, 0, 1, 1, 2, 2))
VERIFY_K_MAX, VERIFY_J_MAX, VERIFY_M_MAX = 4096, 64, 64  # the verify-identities defaults
# first horizon at which each word's return tail is below 1e-12, the tail at
# which the verify runner calls a return law converged
KAC_HORIZONS = {(0, 1, 2, 0, 1, 2): 34857, (0, 0, 1, 1, 2, 2): 7219}
BLOCK_WORD = (0,) * 15 + (1,)
BLOCK_K = 512
CE_WORD, CE_K_PRUNE, CE_K_MAX = (0, 1, 2), 7, 512
GAUSS_L, GAUSS_N, GAUSS_STEPS = 50, 2**16, 512
GAUSS_GAPS, GAUSS_MARKS = (17, 25, 35, 50, 69), (50, 60, 75, 100)
DOUBLING_WORD, DOUBLING_N, DOUBLING_STEPS = (1, 1), 2**15, 256
PRIME_L, ERGODIC_DIGITS, ERGODIC_MIN_HITS = 100, 2**20, 1000
MC_CE_DIGITS, MC_CE_K_PRUNE = 2**18, 3
SIDES = ("return", "hitting")


@dataclass
class Op:
    """One timed operation: ``call`` is timed, ``collect`` turns its result
    into the output that is hashed and checked."""

    name: str
    call: Callable[[], object]
    collect: Callable[[object], dict[str, bytes] | tuple]
    config: dict | None = None


@dataclass
class Workload:
    name: str
    why: str
    dominant: tuple[str, ...]  # layers predicted to hold most of the self time
    work_metric: str  # user-facing throughput name, e.g. pmf_masses_per_s
    ops: Callable[[int], list[Op]]
    references: Callable[[], dict]
    work: Callable[[], int]  # work delivered per pass, fixed by the inputs
    checks: dict[str, Callable[[object, dict], list[str]]]
    calibration: str = "interpreter"  # the calibration loop of run.py that does work like these ops


# ---------------------------------------------------------------------------
# Operations, outputs and digests
# ---------------------------------------------------------------------------


def config_op(name: str, config: dict) -> Op:
    def collect(result) -> dict[str, bytes]:
        run_dir, _ = result
        return {
            p.name: p.read_bytes()
            for p in sorted(Path(run_dir).iterdir())
            if p.suffix == ".csv" or p.name == "manifest.json"
        }

    return Op(name, lambda: hittimes.cli.run_config(dict(config)), collect, config)


def digest(output: dict[str, bytes] | tuple) -> str:
    """SHA-256 of an operation's artifact bytes, or of a library result's masses."""
    h = hashlib.sha256()
    if isinstance(output, dict):
        for name, blob in sorted(output.items()):
            h.update(name.encode() + b"\0" + blob + b"\0")
    else:
        for pmf in output:
            h.update(np.ascontiguousarray(pmf.masses, dtype="<f8").tobytes())
            h.update(repr(float(pmf.tail)).encode() + b"\0")
    return h.hexdigest()


def _csv(output: dict[str, bytes], name: str) -> list[list[str]]:
    lines = output[name].decode("ascii").strip().split("\n")
    return [line.split(",") for line in lines[1:]]


def _manifest(output: dict[str, bytes]) -> dict:
    return json.loads(output["manifest.json"])


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _band(name: str, count: int, n: int, p: float) -> list[str]:
    """Binomial count against its exact probability, SIGMAS standard deviations wide."""
    sigma = math.sqrt(n * p * (1.0 - p))
    if abs(count - n * p) <= SIGMAS * sigma:
        return []
    return [f"{name}: count {count} vs expected {n * p:.1f} (sigma {sigma:.1f})"]


def _mass_balance(name: str, pmf) -> list[str]:
    total = math.fsum(pmf.masses.tolist()) + pmf.tail
    if abs(total - 1.0) <= _MASS_DRIFT_TOL:
        return []
    return [f"{name}: masses plus tail sum to {total!r}"]


# ---------------------------------------------------------------------------
# oracle-rare
# ---------------------------------------------------------------------------


def zero_run_laws(l: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact hitting and return laws of 0^l under a fair coin, k = 1..k_max.

    b(n), the probability that n fair bits hold no run of l zeros, obeys
    b(n) = b(n-1) - b(n-l-1) / 2^(l+1) for n > l, with b(n) = 1 for n < l
    and b(l) = 1 - 2^-l. The first run completes at n with probability
    f(l) = 2^-l and f(n) = b(n-l-1) / 2^(l+1) for n > l. A hitting time k
    completes at n = k + l - 1. From a full match the return time is 1 with
    probability 1/2; otherwise the next bit is 1, no return is possible for
    k <= l, and the return time is k with probability f(k-1) / 2.
    """
    n_max = k_max + l
    b = [1.0] * (n_max + 1)
    b[l] = 1.0 - 2.0**-l
    c = 2.0 ** -(l + 1)
    for n in range(l + 1, n_max + 1):
        b[n] = b[n - 1] - b[n - l - 1] * c
    f = np.zeros(n_max + 1)
    f[l] = 2.0**-l
    f[l + 1 :] = np.asarray(b[: n_max - l]) * c
    k = np.arange(1, k_max + 1)
    hitting = f[k + l - 1]
    ret = np.where(k > l, f[np.maximum(k - 1, 0)] / 2.0, 0.0)
    ret[0] = 0.5
    return hitting, ret


def _label(word: tuple[int, ...]) -> str:
    return "".join(map(str, word))


def _rare_ops(seed: int) -> list[Op]:
    # one operation per length and side, and per verified word, so that each
    # timed execution is short and a pass holds several of them
    exact = [
        config_op(
            f"exact-l{l}-{side}",
            {
                "kind": "exact-markov",
                "source": FAIR_SPEC,
                "targets": [{"word": [0] * l, "period_hint": 1}],
                "delta": RARE_DELTA,
                "sides": [side],
            },
        )
        for l in RARE_LENGTHS
        for side in SIDES
    ]
    verify = [
        config_op(
            f"verify-{_label(w)}",
            {"kind": "verify-identities", "source": MARKOV3_SPEC, "words": [list(w)]},
        )
        for w in VERIFY_WORDS
    ]
    return exact + verify


def _rare_window_end(l: int) -> int:
    return int(1.0 / (RARE_DELTA * FAIR.word_measure((0,) * l)))


def _rare_references() -> dict:
    return {"laws": {l: zero_run_laws(l, _rare_window_end(l)) for l in RARE_LENGTHS}}


def _rare_work() -> int:
    """Masses the pass delivers, fixed by its inputs.

    exact: both laws of every length up to the window end 1/(delta mu).
    verify, per word: hitting and return laws to k_max (inducing identity),
    the return law to j_max + m_max - 1 (shift grid), and the return and
    hitting laws to the first horizon whose return tail is below 1e-12 (Kac
    and the discrete integral relation).
    """
    exact = sum(2 * _rare_window_end(l) for l in RARE_LENGTHS)
    verify = sum(
        2 * VERIFY_K_MAX + VERIFY_J_MAX + VERIFY_M_MAX - 1 + 2 * KAC_HORIZONS[w] for w in VERIFY_WORDS
    )
    return exact + verify


def _check_exact(l_want: int, side: str, output: dict[str, bytes], refs: dict) -> list[str]:
    errors = []
    theta = 0.5  # escaping proportion of 0^l under a fair coin
    worst: dict[str, float] = {}
    for row in _csv(output, f"{side}.csv"):
        l, k = int(row[0]), int(row[1])
        t, exact, predicted, ratio = (float(x) for x in row[2:])
        if l != l_want:
            errors.append(f"{side}: a row for length {l}")
            continue
        hitting, ret = refs["laws"][l]
        want = float((ret if side == "return" else hitting)[k - 1])
        mu = 2.0**-l
        factor = theta**2 if side == "return" else theta
        if not (RARE_DELTA <= mu * k <= 1.0 / RARE_DELTA) or t != mu * k:
            errors.append(f"{side} l={l} k={k}: outside the window or wrong t")
        if not _close(exact, want, 1e-9):
            errors.append(f"{side} l={l} k={k}: mass {exact!r} vs exact {want!r}")
        if not _close(predicted, factor * math.exp(-theta * t) * mu, 1e-12):
            errors.append(f"{side} l={l} k={k}: prediction {predicted!r}")
        if ratio != exact / predicted:
            errors.append(f"{side} l={l} k={k}: ratio {ratio!r}")
        worst[str(l)] = max(worst.get(str(l), 0.0), abs(ratio - 1.0))
    if set(worst) != {str(l_want)}:
        errors.append(f"{side}: no rows for length {l_want}")
    if _manifest(output)["results"][side]["max_abs_ratio_minus_1_by_l"] != worst:
        errors.append(f"{side}: manifest summary disagrees with the table")
    return errors


def _check_verify(word: tuple[int, ...], output: dict[str, bytes], refs: dict) -> list[str]:
    # every check is an exact identity; the tolerances allow double rounding
    # and, for Kac and the integral relation, a return tail below 1e-12
    errors = []
    rows = _csv(output, "identities.csv")
    if {r[0] for r in rows} != {_label(word)} or len(rows) != 4:
        errors.append(f"identities.csv has rows {[r[:2] for r in rows]}")
    for label, check, value in rows:
        residual = float(value)
        if check == "kac_expectation":
            bound = 1e-9 / MARKOV3.word_measure(word)
        elif check == "discrete_integral_relation":
            bound = 1e-10
        else:
            bound = 1e-12
        if not residual <= bound:
            errors.append(f"{label} {check}: residual {residual!r} above {bound!r}")
    if _manifest(output)["results"]["max_residual"] != max(float(r[2]) for r in rows):
        errors.append("manifest max_residual disagrees with the table")
    return errors


# ---------------------------------------------------------------------------
# oracle-block
# ---------------------------------------------------------------------------


def _block_ops(seed: int) -> list[Op]:
    target = mp.PatternTarget(word=BLOCK_WORD)

    def hitting():
        return mp.block_hitting_pmf(FAIR, target, BLOCK_K), mp.hitting_pmf(FAIR, target, "stationary", BLOCK_K)

    def ret():
        return mp.block_return_pmf(FAIR, target, BLOCK_K), mp.return_pmf(FAIR, target, BLOCK_K)

    return [
        Op("block-vs-product-hitting", hitting, lambda pmfs: pmfs),
        Op("block-vs-product-return", ret, lambda pmfs: pmfs),
        config_op(
            "counterexample",
            {
                "kind": "counterexample",
                "flavor": "exact-markov",
                "source": MARKOV3_SPEC,
                "word": list(CE_WORD),
                "k_prune": CE_K_PRUNE,
                "k_max": CE_K_MAX,
            },
        ),
    ]


def _check_block(side: str, pmfs: tuple, refs: dict) -> list[str]:
    errors = []
    for name, pmf in zip((f"block {side}", f"product {side}"), pmfs):
        if pmf.masses.size != BLOCK_K:
            errors.append(f"{name}: {pmf.masses.size} masses")
        errors += _mass_balance(name, pmf)
    block, product = pmfs
    gap = float(np.max(np.abs(block.masses - product.masses)))
    if not gap <= 1e-12:
        errors.append(f"{side}: block and product masses differ by {gap!r}")
    return errors


def _check_counterexample(output: dict[str, bytes], refs: dict) -> list[str]:
    q = {name: float(v) for name, v in _csv(output, "counterexample.csv")}
    errors = []
    if q["b_return_at_k_prune"] != 0.0:
        errors.append(f"pruned return mass {q['b_return_at_k_prune']!r} is not exactly 0")
    if abs(q["ratio_b_over_a"] - q["expected_ratio"]) > 1e-12:
        errors.append(f"ratio {q['ratio_b_over_a']!r} vs 1 - pruned mass {q['expected_ratio']!r}")
    if abs(q["pruned_mass"] - (1.0 - q["expected_ratio"])) > 1e-12:
        errors.append("pruned mass and expected ratio disagree")
    if not _close(q["mu_b"] / q["mu_a"], q["ratio_b_over_a"], 1e-12):
        errors.append("mu_b / mu_a disagrees with the ratio")
    if q["cylinders_kept"] + q["cylinders_pruned"] != 3**CE_K_PRUNE:
        errors.append("kept and pruned cylinders do not cover every continuation")
    return errors


# ---------------------------------------------------------------------------
# mc-replica
# ---------------------------------------------------------------------------


def _replica_ops(seed: int) -> list[Op]:
    return [
        config_op(
            "gauss-threshold",
            {
                "kind": "simulate-cf",
                "mode": "replica",
                "target": {"threshold": GAUSS_L},
                "n_replicas": GAUSS_N,
                "d": 1,
                "max_steps": GAUSS_STEPS,
                "cells": [[k, a] for k in GAUSS_GAPS for a in GAUSS_MARKS],
                "prediction": {"family": "cf-joint", "threshold": GAUSS_L},
                "seed": seed,
            },
        ),
        config_op(
            "doubling-word",
            {
                "kind": "simulate-doubling",
                "mode": "replica",
                "target": {"word": list(DOUBLING_WORD)},
                "n_replicas": DOUBLING_N,
                "d": 1,
                "max_steps": DOUBLING_STEPS,
                "seed": seed,
            },
        ),
    ]


def gauss_first_passage_two(threshold: int, terms: int = 10**6) -> float:
    """Exact Gauss-measure probability that the first digit >= threshold is a_2.

    P(tau = 2) = mu(A) - mu(A n T^-1 A) with A = {a_1 >= L}. The digit cell
    {a_1 = i, a_2 >= L} is [1/(i + 1/L), 1/i), of measure
    log2(1 + c / (i (i + c + 1))) with c = 1/L; the sum over i >= L is taken
    to ``terms`` and closed with the tail c / (terms ln 2), which is exact
    to O(c / terms^2).
    """
    c = 1.0 / threshold
    i = np.arange(threshold, terms + 1, dtype=float)
    both = math.fsum((np.log1p(c / (i * (i + c + 1.0))) / LN2).tolist()) + c / (terms * LN2)
    return math.log1p(c) / LN2 - both


def _replica_references() -> dict:
    exact = mp.hitting_pmf(FAIR, mp.PatternTarget(word=DOUBLING_WORD), "stationary", DOUBLING_STEPS)
    return {
        "gauss_tau1": math.log1p(1.0 / GAUSS_L) / LN2,
        "gauss_tau2": gauss_first_passage_two(GAUSS_L),
        "doubling_law": exact.masses.copy(),
    }


def _replica_work() -> int:
    return GAUSS_N * GAUSS_STEPS + DOUBLING_N * DOUBLING_STEPS


def _counts(output: dict[str, bytes]) -> dict[tuple[int, ...], int]:
    return {tuple(int(x) for x in row[:-1]): int(row[-1]) for row in _csv(output, "counts.csv")}


def _check_gauss(output: dict[str, bytes], refs: dict) -> list[str]:
    counts = _counts(output)
    results = _manifest(output)["results"]
    n = GAUSS_N
    errors = []
    if results["n_total"] != n or sum(counts.values()) + results["censored"] != n:
        errors.append("counts plus censored do not add up to n_replicas")
    tau1 = sum(c for (k, _), c in counts.items() if k == 1)
    tau2 = sum(c for (k, _), c in counts.items() if k == 2)
    errors += _band("P(tau = 1)", tau1, n, refs["gauss_tau1"])
    errors += _band("P(tau = 2)", tau2, n, refs["gauss_tau2"])
    for a in GAUSS_MARKS:  # P(tau = 1, a_1 = a) is the Gauss digit-cell measure
        errors += _band(f"P(tau = 1, a = {a})", counts.get((1, a), 0), n, math.log1p(1.0 / (a * (a + 2.0))) / LN2)
    for row in _csv(output, "estimate.csv"):
        k, a, count = int(row[0]), int(row[1]), int(row[2])
        est, pred, ratio = float(row[4]), float(row[5]), float(row[6])
        want = math.exp(-k / (GAUSS_L * LN2)) / (a * a * LN2)
        if count != counts.get((k, a), 0) or est != count / n:
            errors.append(f"estimate row ({k}, {a}) disagrees with counts.csv")
        if not _close(pred, want, 1e-12) or ratio != est / pred:
            errors.append(f"estimate row ({k}, {a}): prediction {pred!r}, ratio {ratio!r}")
    return errors


def _check_doubling(output: dict[str, bytes], refs: dict) -> list[str]:
    counts = _counts(output)
    results = _manifest(output)["results"]
    n = DOUBLING_N
    errors = []
    if results["n_total"] != n or sum(counts.values()) + results["censored"] != n:
        errors.append("counts plus censored do not add up to n_replicas")
    for k, p in enumerate(refs["doubling_law"], start=1):
        if n * p >= 100:  # the normal band is sound from about 100 expected counts
            errors += _band(f"P(tau = {k})", counts.get((k,), 0), n, p)
    return errors


# ---------------------------------------------------------------------------
# mc-ergodic
# ---------------------------------------------------------------------------


def _ergodic_ops(seed: int) -> list[Op]:
    return [
        config_op(
            "gauss-prime-ergodic",
            {
                "kind": "simulate-cf",
                "mode": "ergodic",
                "target": {"threshold": PRIME_L, "prime": True},
                "n_digits": ERGODIC_DIGITS,
                "min_hits": ERGODIC_MIN_HITS,
                "seed": seed,
            },
        ),
        config_op(
            "pruned-gap-demo",
            {
                "kind": "counterexample",
                "flavor": "monte-carlo",
                "system": "doubling",
                "target": {"word": list(DOUBLING_WORD)},
                "k_prune": MC_CE_K_PRUNE,
                "n_digits": MC_CE_DIGITS,
                "seed": seed,
            },
        ),
    ]


def _ergodic_references() -> dict:
    ret = mp.return_pmf(FAIR, mp.PatternTarget(word=DOUBLING_WORD), MC_CE_K_PRUNE)
    return {
        "prime_measure": theory.prime_threshold_measure(PRIME_L),
        "kept_fraction": 1.0 - ret.mass_at(MC_CE_K_PRUNE),
    }


def _ergodic_work() -> int:
    return ERGODIC_DIGITS + 2 * MC_CE_DIGITS


def _check_prime(output: dict[str, bytes], refs: dict) -> list[str]:
    # companion to acceptance criterion 9a: the hit rate is held to the
    # near-exact prime-digit measure, not to the slowly converging asymptote
    counts = _counts(output)
    results = _manifest(output)["results"]
    errors = []
    gaps = sum(counts.values())
    if gaps != results["n_total"] or gaps != results["n_hits"] - 1:
        errors.append("gap histogram does not hold n_hits - 1 gaps")
    mean = math.fsum(k * c for (k,), c in counts.items()) / gaps
    if not _close(mean, results["mean_gap"], 1e-12):
        errors.append(f"mean gap {results['mean_gap']!r} vs histogram mean {mean!r}")
    errors += _band("prime-digit hits", results["n_hits"], ERGODIC_DIGITS, refs["prime_measure"])
    return errors


def _check_pruned_demo(output: dict[str, bytes], refs: dict) -> list[str]:
    q = {name: float(v) for name, v in _csv(output, "counterexample.csv")}
    want = refs["kept_fraction"]
    errors = []
    if q["b_returns_at_k_prune"] != 0:
        errors.append(f"{q['b_returns_at_k_prune']:.0f} pruned-target returns at k_prune")
    for name in ("b_fraction", "independent_fraction"):
        if abs(q[name] - want) > SIGMAS * q[f"{name}_se"]:
            errors.append(f"{name} {q[name]!r} vs exact {want!r} (se {q[f'{name}_se']!r})")
    if abs(q["discrepancy_z"]) > SIGMAS:
        errors.append(f"discrepancy z = {q['discrepancy_z']!r}")
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oracle-rare",
            "exact product-chain oracle at horizons to 2^17 steps plus the Kac horizon-doubling loop",
            ("markov_pattern",),
            "pmf_masses_per_s",
            _rare_ops,
            _rare_references,
            _rare_work,
            {
                **{f"exact-l{l}-{side}": partial(_check_exact, l, side) for l in RARE_LENGTHS for side in SIDES},
                **{f"verify-{_label(w)}": partial(_check_verify, w) for w in VERIFY_WORDS},
            },
        ),
        Workload(
            "oracle-block",
            "exact S^r block-chain backend (2^16 and 3^10 states) with short product-chain horizons",
            ("markov_pattern",),
            "pmf_masses_per_s",
            _block_ops,
            lambda: {},
            lambda: 4 * BLOCK_K + CE_K_MAX + CE_K_PRUNE,
            {
                **{f"block-vs-product-{side}": partial(_check_block, side) for side in SIDES},
                "counterexample": _check_counterexample,
            },
            calibration="array",
        ),
        Workload(
            "mc-replica",
            "vector backward branch step and replica registers, sparse and dense hit targets",
            ("branch_systems", "estimators"),
            "replica_steps_per_s",
            _replica_ops,
            _replica_references,
            _replica_work,
            {"gauss-threshold": _check_gauss, "doubling-word": _check_doubling},
            calibration="array",
        ),
        Workload(
            "mc-ergodic",
            "scalar stationary digit stream, hit scan, prime mask, batch means and pruned-gap demo",
            ("branch_systems",),
            "digits_per_s",
            _ergodic_ops,
            _ergodic_references,
            _ergodic_work,
            {"gauss-prime-ergodic": _check_prime, "pruned-gap-demo": _check_pruned_demo},
            calibration="scalar",
        ),
    )
}
