"""The benchmark's op configs still pass the CLI's schemas.

`benchmarks/run.py` validates the config of every operation of a workload
while it sets up, and one refusal stops every run of that workload. These
tests import `benchmarks/workloads.py` read-only, as `test_tracer_guard.py`
imports the tracer, and validate each config, so a schema change that
refuses one fails here first.
"""

import sys
from pathlib import Path

import pytest

from hittimes.cli import validate_config

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"

sys.path.insert(0, str(BENCH))
try:
    import workloads
finally:
    sys.path.remove(str(BENCH))

OP_CONFIGS = {
    (name, op.name): op.config
    for name, workload in workloads.WORKLOADS.items()
    for op in workload.ops(1)
    if op.config is not None
}


def test_every_workload_runs_configs():
    # each workload runs at least one CLI config, so none drops out of the check below unseen
    assert {name for name, _ in OP_CONFIGS} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("key", OP_CONFIGS, ids="/".join)
def test_benchmark_config_validates(key):
    validate_config(OP_CONFIGS[key])
