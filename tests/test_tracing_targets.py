"""The benchmark's tracer wraps lipfree functions by name; a rename would
only show when the benchmark runs, as an AttributeError in
``Tracer.install``.  This reads ``benchmarks/tracing.py`` and edits nothing."""

import importlib.util
import sys
from pathlib import Path

import lipfree  # noqa: F401 (loads the modules the targets name)
import lipfree.cli  # noqa: F401


def test_every_tracing_target_resolves(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look themselves up there
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for _, namespace, attr, _ in tracing.TARGETS:
        owner = tracing._owner(namespace)
        assert owner is not None and callable(getattr(owner, attr, None)), f"{namespace}.{attr}"
