"""The benchmark's per-layer tracer names functions that exist in the package,
and its observers read fields that the package's results have."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ghzlab.source import enumerate_joint_inputs

LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_LAYERS = _load_layers()
_TRACED = _LAYERS.LAYERS + _LAYERS.CLI_LAYERS


@pytest.mark.parametrize("name, module_name, attr", _TRACED,
                         ids=[name for name, _, _ in _TRACED])
def test_traced_function_resolves(name, module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None)), (
        f"{name}: {module_name}.{attr} does not exist")


def test_enumeration_observer_reads_a_real_enumeration(noise_ctx):
    spec = noise_ctx.spec
    enumeration = enumerate_joint_inputs(spec)
    counters = {}
    _LAYERS._observe_enumeration(counters, (spec,), enumeration)
    prefix = "source.enumerate_joint_inputs"
    assert counters[f"{prefix}.terms_raw"] == 1296
    assert counters[f"{prefix}.terms_four_photon"] == 1041
    assert counters[f"{prefix}.terms_kept"] == 410
    assert counters[f"{prefix}.retained_weight"] == enumeration.retained_weight
    assert enumeration.retained_weight == pytest.approx(2.4032888e-06, rel=1e-7)
