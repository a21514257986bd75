"""The benchmark tracer wraps dualgeo functions by name (perfbench/layers.py);
a refactor that renames or moves one silently drops its span's counts, so
every name it wraps must resolve as the tracer resolves it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.SPANS


@pytest.mark.parametrize("module_name, attr", [
    target for targets in _spans().values() for target in targets])
def test_every_traced_target_resolves(module_name, attr):
    module = importlib.import_module(f"dualgeo.{module_name}")
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        # the tracer wraps the method the class itself defines, not an inherited one
        assert name in vars(getattr(module, owner_name)), attr
    else:
        assert callable(getattr(module, name, None)), attr


def test_the_counted_distance_kernel_exists():
    geodesics = importlib.import_module("dualgeo.geodesics")
    assert callable(getattr(geodesics, "_polyline_distances", None))
