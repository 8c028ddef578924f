"""The benchmark's span boundaries name attributes that exist.

bench/tracing.py wraps each boundary by looking the attribute up in its
owner's `__dict__`; a refactor that renames or moves one of them would only
fail when the benchmark runs. This test loads tracing.py from its file (it
imports nothing from viscoflow at import time) and checks every boundary.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("path, attr, name", tracing.LAYERS, ids=str)
def test_boundary_is_an_attribute_of_its_owner(path, attr, name):
    owner = tracing._owner(path)
    assert attr in owner.__dict__, f"{name}: {path} has no attribute {attr!r}"
    assert callable(owner.__dict__[attr])
