"""The benchmark's span tracer still fits the package.

`benchmarks/tracing.py` wraps library functions, `ExactPMF` methods and the
branch systems' kernels by name, and reads `PatternTarget.word` in its
`build_automaton` spans. A library change that deletes or renames one of
these breaks traced benchmark runs (``--trace 1``). This test imports the
tracer read-only from the benchmark directory, installs it on the current
package, makes one traced call and checks that uninstalling puts every
patched name back.
"""

import sys
from pathlib import Path

import pytest

import hittimes.cli
from hittimes import branch_systems
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
        assert mp.reports.hitting_pmf is mp.exact.hitting_pmf
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
