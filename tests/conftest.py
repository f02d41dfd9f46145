import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import ghzlab.chip
import ghzlab.simulator
import ghzlab.source
from ghzlab.config import default_config, parse_config
from ghzlab.experiments import SimContext
from ghzlab.source import SourceSpec, fit_master_fractions
from result_digests import VARIANT


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
    """Full measured-noise configuration, ideal detectors: the ``config-init`` device."""
    return parse_config(default_config()).context


@pytest.fixture(scope="session")
def variant_ctx():
    """The fixed non-default device of `tests/result_digests.py`: multiphoton
    emission, one partly distinguishable photon and lossy detectors.  Its
    heater calibration file reaches only `calibrate`, so it is left out."""
    cfg = default_config()
    for key, value in VARIANT.items():
        if key != "heater_calibration_file":
            cfg[key].update(value)
    return parse_config(cfg).context


def _count_calls(monkeypatch, name: str, module=ghzlab.source) -> list:
    """Records the arguments of every call of ``module.<name>``."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture()
def enumeration_calls(monkeypatch):
    """Counts the source's calls of ``enumerate_joint_inputs``."""
    return _count_calls(monkeypatch, "enumerate_joint_inputs")


@pytest.fixture()
def permanent_calls(monkeypatch):
    """Records the simulator's calls of ``permanent``."""
    return _count_calls(monkeypatch, "permanent", ghzlab.simulator)


@pytest.fixture()
def preparation_calls(monkeypatch):
    """Counts the chip's calls of ``preparation_unitary``; a stage that has
    already built its unitary makes none, so count on fresh contexts."""
    return _count_calls(monkeypatch, "preparation_unitary", ghzlab.chip)


@pytest.fixture()
def fit_calls(monkeypatch):
    """Counts the source's calls of ``fit_master_fractions``, memo cleared first."""
    ghzlab.source._master_fractions.cache_clear()
    return _count_calls(monkeypatch, "fit_master_fractions")
