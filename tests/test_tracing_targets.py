"""The functions perfbench's tracer wraps by name must exist in qdist.

``perfbench/tracing.py`` patches them by module and function name, so a
rename in the library would otherwise silently drop a layer from ``--trace``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    layers = _tracing_module()._LAYERS
    targets = [(m, f) for entries in layers.values() for m, f, _ in entries]
    assert targets
    missing = [
        f"{m}.{f}" for m, f in targets
        if not callable(getattr(importlib.import_module(m), f, None))
    ]
    assert not missing


def test_traced_echelon_class_exists():
    # the tracer subclasses GradientReducer to time each echelon
    assert isinstance(importlib.import_module("qdist.discrim").GradientReducer, type)
