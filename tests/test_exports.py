"""Every name a package promises in ``__all__`` resolves, and importing the
package stays off SciPy."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hittimes


@pytest.mark.parametrize(
    "module", ["hittimes", "hittimes.markov_pattern", "hittimes.branch_systems"]
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    for name in mod.__all__:
        assert getattr(mod, name, None) is not None, f"{module}.{name}"


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: pytest plugins may already have SciPy loaded in this one
    src = str(Path(hittimes.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys, hittimes.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_cli_import_builds_no_prime_table():
    # the prime mask's sieve table is built on first use, not at start-up
    src = str(Path(hittimes.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import hittimes.cli, hittimes.estimators as e; "
        "print(e._prime_table.cache_info().currsize)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "0"
