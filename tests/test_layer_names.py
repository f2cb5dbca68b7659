"""Every layer function that the benchmark traces still exists.

``perfbench/spans.py`` rebinds each ``(module, function)`` of its
``LAYER_FUNCTIONS`` to a span recorder when the benchmark runs with
``--trace 1``.  Removing or renaming one of those functions would break
traced runs only, which the test suite does not otherwise exercise.  The
spans module is loaded from its file; nothing under ``perfbench/`` is
imported as a package or changed.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_layer_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYER_FUNCTIONS
    for module, function in spans.LAYER_FUNCTIONS:
        target = getattr(importlib.import_module(f"latgames.{module}"), function, None)
        assert callable(target), f"latgames.{module}.{function} is traced but missing"
