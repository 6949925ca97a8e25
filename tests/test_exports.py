"""Every name a package promises in ``__all__`` resolves."""

import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["hittimes", "hittimes.markov_pattern", "hittimes.branch_systems"]
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    for name in mod.__all__:
        assert getattr(mod, name, None) is not None, f"{module}.{name}"
