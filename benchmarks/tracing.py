"""Span tracing of the hittimes layers from outside the package.

`Tracer.install()` replaces each public function of each layer with a
wrapper that records a span (name, start, end, parent span, run id, work
counts), in every module namespace where callers look the name up; it also
wraps the `ExactPMF` summation methods and swaps the `GAUSS`/`DOUBLING`
branch systems for copies whose array kernels are wrapped.
`Tracer.uninstall()` puts every original object back. Nothing under `src/`
is modified.

Spans assume one calling thread: the benchmark runs every workload with
``workers = 1``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Callable

LAYERS = ("markov_pattern", "branch_systems", "estimators", "theory", "cli")

# module -> layer; `tables` is reported together with `cli`
_LAYER_MODULES = {
    "hittimes.markov_pattern.automaton": "markov_pattern",
    "hittimes.markov_pattern.exact": "markov_pattern",
    "hittimes.markov_pattern.reports": "markov_pattern",
    "hittimes.markov_pattern.source": "markov_pattern",
    "hittimes.branch_systems": "branch_systems",
    "hittimes.estimators": "estimators",
    "hittimes.theory": "theory",
    "hittimes.cli": "cli",
    "hittimes.tables": "cli",
}

# Called once per digit or per table cell: a wrapper would cost about as much
# as the call itself, so these stay unwrapped.
_PER_ELEMENT = {
    "doubling_branch_sample",
    "format_value",
    "gauss_branch_cum",
    "gauss_branch_prob",
    "gauss_branch_sample",
    "gauss_density",
    "gauss_stationary_point",
}

_SPAN_NAMES = {
    "block_hitting_pmf": "block_pmf",
    "block_return_pmf": "block_pmf",
    "block_set_return_pmf": "block_pmf",
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _block_work(rank_of: Callable, extra_steps: Callable) -> Callable:
    def work(args, kwargs, out):
        source = args[0]
        k_max = _arg(args, kwargs, 2, "k_max")
        rank = rank_of(args[1])
        steps = k_max + extra_steps(rank)
        return {"masses": k_max, "state_steps": source.alphabet_size**rank * steps}

    return work


# span name -> work counts of one call, from its arguments and result
_WORK: dict[str, Callable] = {
    "hitting_pmf": lambda a, kw, out: {"masses": out.masses.size},
    "block_hitting_pmf": _block_work(lambda t: t.length, lambda r: r - 1),
    "block_return_pmf": _block_work(lambda t: t.length, lambda r: 0),
    "block_set_return_pmf": _block_work(lambda words: len(words[0]), lambda r: 0),
    "exactpmf_sum": lambda a, kw, out: {"terms": a[0].masses.size},
    "branch_array": lambda a, kw, out: {"elements": a[1].size},
    "stationary_array": lambda a, kw, out: {"elements": a[0].size},
    "generate_stream": lambda a, kw, out: {"digits": len(out)},
    "scan_hits": lambda a, kw, out: {"digits_scanned": len(a[0])},
    "estimate_first_passage": lambda a, kw, out: {
        "replica_steps": out.n_total * _arg(a, kw, 4, "max_steps"),
        "replicas": out.n_total,
        "replicas_complete": out.n_total - out.censored,
    },
    "write_csv": lambda a, kw, out: {"bytes_written": Path(a[0]).stat().st_size},
    "write_json": lambda a, kw, out: {"bytes_written": Path(a[0]).stat().st_size},
}


@dataclasses.dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    run_id: int
    work: dict = dataclasses.field(default_factory=dict)
    key: object = None  # build_automaton: (word, alphabet size)
    error: bool = False


class Tracer:
    """In-memory span recorder with reversible patching of the hittimes layers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, layer: str, fn: Callable, work: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack
        keyed = name.endswith(".build_automaton")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.run_id)
            if keyed:
                span.key = (tuple(args[0].word), _arg(args, kwargs, 1, "alphabet_size"))
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if work is not None:
                span.work = work(args, kwargs, out)
            return out

        return traced

    # -- patching ---------------------------------------------------------

    def _replace_everywhere(self, original: object, replacement: object) -> None:
        """Rebind every module-level name in the package that refers to ``original``."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "hittimes" or modname.startswith("hittimes.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        import hittimes.cli  # noqa: F401  (loads every layer module)
        from hittimes import branch_systems
        from hittimes.markov_pattern import ExactPMF

        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, layer in _LAYER_MODULES.items():
            module = sys.modules[modname]
            prefix = "tables" if modname == "hittimes.tables" else layer
            for fname, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ != modname or fname.startswith("_") or fname in _PER_ELEMENT:
                    continue
                span_name = f"{prefix}.{_SPAN_NAMES.get(fname, fname)}"
                self._replace_everywhere(fn, self.wrap(span_name, layer, fn, _WORK.get(fname)))
        for method in ("total", "expectation", "survival"):
            original = ExactPMF.__dict__[method]
            self._patches.append((ExactPMF, method, original))
            setattr(
                ExactPMF,
                method,
                self.wrap("markov_pattern.exactpmf_sum", "markov_pattern", original, _WORK["exactpmf_sum"]),
            )
        for system in (branch_systems.GAUSS, branch_systems.DOUBLING):
            kernels = {
                field: self.wrap(f"branch_systems.{field}", "branch_systems", getattr(system, field), _WORK[field])
                for field in ("branch_array", "stationary_array")
            }
            self._replace_everywhere(system, dataclasses.replace(system, **kernels))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path: Path) -> None:
        """Write the recorded spans as one JSON array of records."""
        fields = ("name", "start", "end", "parent", "run_id", "work", "error")
        with open(path, "w", encoding="ascii") as handle:
            json.dump([{f: getattr(s, f) for f in fields} for s in self.spans], handle)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def aggregate(spans: list[Span], run_ids: set[int]) -> dict[str, dict[str, float]]:
    """Per span name, over the spans of the given runs: calls, self_s, summed
    work counts, and escaped errors.

    The pseudo-names ``<layer>`` carry each layer's total self time and the
    errors that escaped the layer (a failing span whose parent is in another
    layer, or that has no parent).
    """
    stats: dict[str, dict[str, float]] = {}
    selfs = self_times(spans)
    for s, own in zip(spans, selfs):
        if s.run_id not in run_ids:
            continue
        for key in (s.name, s.layer):
            entry = stats.setdefault(key, {"calls": 0, "self_s": 0.0, "errors": 0})
            entry["self_s"] += own
            if key == s.name:
                entry["calls"] += 1
                for w, v in s.work.items():
                    entry[w] = entry.get(w, 0) + v
        if s.error and (s.parent < 0 or spans[s.parent].layer != s.layer):
            stats[s.layer]["errors"] += 1
    return stats
