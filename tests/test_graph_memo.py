"""The submitted graph is its own handle, and ``create_task`` keeps its kernel
memo: each QIR spec is lowered, and each circuit content checked, once per graph."""

import contextlib
import io
import threading

import pytest

from qtask import runtime as rt
from qtask.circuit import Circuit, Gate
from qtask.cli import main
from qtask.qir import emit_qir
from qtask.runtime import CircuitKernel, HostKernel, QirKernel, TaskState, make_runtime
from qtask.simulator import NonTerminalMeasurementError


@pytest.fixture
def checks(monkeypatch):
    calls = []
    check = rt.check_simulable
    monkeypatch.setattr(rt, "check_simulable", lambda c: calls.append(c) or check(c))
    return calls


def test_submit_returns_the_graph_that_done_and_wait_take():
    release = threading.Event()
    with make_runtime(qpu=0, host=1) as runtime:
        runtime.register_host_kernel("gate", lambda p, d: release.wait(10))
        graph = runtime.create_graph()
        tid = graph.create_task("g", HostKernel("gate"))
        assert runtime.submit(graph) is graph
        assert not graph.done()
        assert runtime.wait(graph, timeout=0.01) == {}
        release.set()
        results = runtime.wait(graph)
        assert graph.done()
        assert results[tid].status is TaskState.COMPLETED
        assert runtime.wait(graph) == results


def test_a_sweep_checks_each_distinct_fragment_once_per_rep(checks):
    # 80 fragment tasks per rep share 24 distinct circuits
    reps = 20
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ghz-qpd", "--reps", str(reps), "--devices", "1"]) == 0
    assert len(checks) <= 24 * reps


def test_a_circuit_grown_after_create_task_is_checked_again(checks):
    circuit = Circuit(1).append(Gate.h(0), Gate.mz(0, 0))
    kernel = CircuitKernel(circuit)
    with make_runtime(qpu=1, host=0) as runtime:
        graph = runtime.create_graph()
        graph.create_task("first", kernel)
        graph.create_task("again", kernel)
        assert len(checks) == 1
        circuit.append(Gate.x(0))  # after the measurement: no longer simulable
        with pytest.raises(NonTerminalMeasurementError):
            graph.create_task("grown", kernel)
        assert len(checks) == 2 and len(graph.tasks) == 2


def test_inline_and_file_qir_of_one_program_share_one_exact_distribution(
    tmp_path, monkeypatch, checks
):
    monkeypatch.setattr(rt, "_EXACT", rt._ExactCache(rt._EXACT_OUTCOMES))
    simulated = []
    simulate = rt.simulate
    monkeypatch.setattr(rt, "simulate", lambda c: simulated.append(c) or simulate(c))
    text = emit_qir(Circuit(2).append(Gate.h(0), Gate.cnot(0, 1), Gate.mz(0, 0), Gate.mz(1, 1)))
    path = tmp_path / "pair.ll"
    path.write_text(text)
    with make_runtime(qpu=1, host=0) as runtime:
        graph = runtime.create_graph()
        inline = graph.create_task("inline", QirKernel(source=text, shots=0))
        by_file = graph.create_task("by_file", QirKernel(path=path, shots=0))
        results = runtime.wait(runtime.submit(graph))
    assert graph.tasks[inline].kernel is not graph.tasks[by_file].kernel
    assert len(checks) == 1  # one content, checked once
    assert results[inline].payload == results[by_file].payload
    assert set(results[inline].payload.probabilities) == {"00", "11"}
    assert len(simulated) == 1
