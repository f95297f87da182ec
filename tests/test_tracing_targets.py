"""Every name the benchmark's tracer rebinds must exist in the package.

``perfbench/tracing.py`` wraps functions by looking them up in the module
that calls them, so deleting or renaming one (even an import kept only for
the tracer) breaks traced benchmark runs.  This test reads the tracer's
own table without editing it.
"""
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_patched_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    assert Path(tracing.__file__).resolve().parent == PERFBENCH
    assert tracing.PATCHES
    missing = [f"{module}.{attr}" for module, attr, *_ in tracing.PATCHES
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
