"""The benchmark's tracer wraps lipfree functions by name; a rename would
only show when the benchmark runs, as an AttributeError in
``Tracer.install``.  This reads ``benchmarks/tracing.py`` and edits nothing.

``import lipfree`` loads its submodules on first use, so the test imports
the module each target names (for a class target, the class's module)
before resolving it; no target relies on another having loaded its module."""

import importlib
import importlib.util
import sys
from pathlib import Path


def test_every_tracing_target_resolves(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look themselves up there
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for _, namespace, attr, _ in tracing.TARGETS:
        parts = namespace.split(".")
        importlib.import_module(".".join(parts[:-1]) if parts[-1][:1].isupper() else namespace)
        owner = tracing._owner(namespace)
        assert owner is not None and callable(getattr(owner, attr, None)), f"{namespace}.{attr}"
