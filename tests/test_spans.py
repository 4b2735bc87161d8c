"""The benchmark's traced pass finds every function it names. A span whose
function no listed module binds reads 0 instead of failing, so moving such a
function out of those modules would silently zero a per-layer figure."""

import importlib
import importlib.util
import json
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_function_span_is_a_module_level_callable_of_a_traced_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = [importlib.import_module(name) for name in spans.MODULES]
    for attr in spans.FUNCTION_SPANS:
        assert any(callable(getattr(module, attr, None)) for module in modules), attr


def test_every_class_span_is_a_method_the_tracer_can_wrap():
    from qtask.runtime import HostDevice, QpuDevice, Runtime

    for cls, attr in [(QpuDevice, "run_kernel"), (HostDevice, "run_kernel"),
                      (Runtime, "submit"), (Runtime, "wait"), (Runtime, "shutdown")]:
        assert callable(cls.__dict__.get(attr)), (cls.__name__, attr)


def test_graph_parses_through_the_module_global_once(monkeypatch, capsys, tmp_path):
    # the traced pass wraps cli.parse_graph_spec; a graph run that bound it some
    # other way would leave runtime.graph_spec_ms reading 0
    from qtask import cli

    calls = []
    parse = cli.parse_graph_spec

    def counting(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(cli, "parse_graph_spec", counting)
    path = tmp_path / "one.json"
    task = {"name": "a", "kernel": {"type": "host", "name": "noop"}}
    path.write_text(json.dumps({"devices": {"host": 1}, "tasks": [task]}))
    assert cli.main(["graph", str(path)]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == "a 0 completed\n"
