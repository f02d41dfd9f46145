"""The benchmark's per-layer tracer names functions that exist in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
