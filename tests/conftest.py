"""Shared fixtures."""

import pytest

from hittimes import branch_systems


@pytest.fixture(params=["helper", "one-cpu"])
def sampler_path(request, monkeypatch):
    """Run the test on each of the samplers' two ways of drawing uniforms:
    read ahead on a helper thread, and drawn at each read as on one CPU,
    whatever CPUs this machine has."""
    monkeypatch.setattr(branch_systems, "_spare_cpu", lambda: request.param == "helper")
    return request.param
