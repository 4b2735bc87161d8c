"""The benchmark's traced pass finds every function it names. A span whose
function no listed module binds reads 0 instead of failing, so moving such a
function out of those modules would silently zero a per-layer figure."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_function_span_is_a_module_level_callable_of_a_traced_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = [importlib.import_module(name) for name in spans.MODULES]
    for attr in spans.FUNCTION_SPANS:
        assert any(callable(getattr(module, attr, None)) for module in modules), attr
