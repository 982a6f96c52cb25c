"""The traced benchmark wraps program functions by name; each must still exist.

``bench/tracer.py`` patches the functions named in its ``LAYERS`` and only
notes a missing one, so a deletion or rename in the program would leave a
benchmark layer quietly empty.  This test fails instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_function_the_tracer_wraps_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look their module up
    spec.loader.exec_module(tracer)
    wrapped = [(module, name) for module, names in tracer.LAYERS.values() for name in names]
    missing = [
        f"gridtopo.{module}.{name}"
        for module, name in wrapped
        if not callable(getattr(importlib.import_module(f"gridtopo.{module}"), name, None))
    ]
    assert wrapped and missing == []
