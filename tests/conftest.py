import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import ghzlab.simulator
from ghzlab.experiments import SimContext, measured_noise_context
from ghzlab.source import SourceSpec, fit_master_fractions


@pytest.fixture(scope="session")
def ideal_ctx():
    return SimContext.ideal()


@pytest.fixture(scope="session")
def measured_overlaps_default():
    return dict(SourceSpec().measured_overlaps)


@pytest.fixture(scope="session")
def fitted_fractions(measured_overlaps_default):
    return fit_master_fractions(measured_overlaps_default)


@pytest.fixture(scope="session")
def noise_ctx():
    """Full measured-noise configuration, ideal detectors."""
    return measured_noise_context()


@pytest.fixture()
def enumeration_calls(monkeypatch):
    """Counts the simulator's calls of ``enumerate_joint_inputs``."""
    calls = []
    original = ghzlab.simulator.enumerate_joint_inputs

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ghzlab.simulator, "enumerate_joint_inputs", counted)
    return calls
