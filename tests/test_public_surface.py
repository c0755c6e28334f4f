"""Every exported name resolves, and every function the benchmark traces exists."""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import rootdec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_exported_and_traced_names_resolve():
    modules = {
        info.name: importlib.import_module(f"rootdec.{info.name}")
        for info in pkgutil.iter_modules(rootdec.__path__)
    }
    for name, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"rootdec.{name}.__all__ names missing {attr}"
    # the traced run wraps these by name, so a renamed function breaks it
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, functions in tracer.TRACED.items():
        for attr in functions:
            assert callable(getattr(modules[layer], attr, None)), f"rootdec.{layer}.{attr}"
