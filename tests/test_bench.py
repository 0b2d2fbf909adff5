"""The benchmark's tracer wraps program functions by name, from outside."""

import importlib

from conftest import REPO_ROOT


def test_bench_traced_functions_resolve(monkeypatch):
    # bench/run.py --trace 1 puts a span around each (module, function) of
    # spans.TARGETS; one that is renamed or deleted fails there with an
    # AttributeError, so every pair must name a function of the program
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    spans = importlib.import_module("spans")
    for module, function, span, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), function, None)), span
