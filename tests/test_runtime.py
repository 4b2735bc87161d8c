import _thread
import gc
import json
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qtask.runtime
from qtask.circuit import Circuit, Gate
from qtask.cli import GraphSpecError, parse_graph_spec
from qtask.qir import QirParseError, find_kernel_file
from qtask.runtime import (
    ANY,
    HOST,
    MAX_DEVICES,
    POLICIES,
    QPU,
    TERMINAL_STATES,
    CircuitKernel,
    CycleError,
    HostDevice,
    HostKernel,
    QirKernel,
    QpuDevice,
    Runtime,
    TaskResult,
    TaskState,
    make_runtime,
)

BELL_TEXT = find_kernel_file("bell.ll").read_text()


def bell_kernel(shots=256):
    return QirKernel(source=BELL_TEXT, shots=shots)


# -- registries ---------------------------------------------------------------


def test_register_devices():
    with Runtime() as runtime:
        for i in range(4):
            assert runtime.register_device(QpuDevice(i)) == i
        assert [d.device_class for d in runtime.devices] == [QPU] * 4


def test_duplicate_device_id():
    with Runtime() as runtime:
        runtime.register_device(QpuDevice(0))
        with pytest.raises(ValueError, match="duplicate device id"):
            runtime.register_device(HostDevice(0))


def test_register_device_after_shutdown_starts_no_worker():
    runtime = Runtime()
    runtime.shutdown()
    threads = threading.active_count()
    with pytest.raises(ValueError, match="runtime is shut down"):
        runtime.register_device(QpuDevice(5))
    assert threading.active_count() == threads
    assert runtime.devices == []


def test_host_kernel_registry():
    with make_runtime(qpu=0, host=1) as runtime:
        calls = []
        runtime.register_host_kernel("collect", lambda p, d: calls.append(p) or "done")
        graph = runtime.create_graph()
        tid = graph.create_task("t", HostKernel("collect", params=(1, 2)))
        results = runtime.wait(runtime.submit(graph))
        assert results[tid].payload == "done"
        assert calls == [(1, 2)]


def test_unregistered_host_kernel_fails_task():
    with make_runtime(qpu=0, host=1) as runtime:
        graph = runtime.create_graph()
        tid = graph.create_task("t", HostKernel("missing"))
        results = runtime.wait(runtime.submit(graph))
        assert results[tid].status is TaskState.FAILED
        assert "unknown-kernel" in results[tid].error


def test_reregister_host_kernel():
    with Runtime() as runtime:
        runtime.register_host_kernel("k", lambda p, d: None)
        with pytest.raises(ValueError, match="already registered"):
            runtime.register_host_kernel("k", lambda p, d: None)


# -- graph building -----------------------------------------------------------


def test_create_task_unknown_dep():
    with Runtime() as runtime:
        graph = runtime.create_graph()
        with pytest.raises(ValueError, match="unknown dependency"):
            graph.create_task("t", HostKernel("x"), deps=[7])


def test_sixteen_independent_tasks():
    with Runtime() as runtime:
        graph = runtime.create_graph()
        for i in range(16):
            graph.create_task(f"t{i}", bell_kernel())
        assert len(graph.tasks) == 16
        assert all(t.state is TaskState.CREATED for t in graph.tasks.values())
        assert all(not t.deps for t in graph.tasks.values())


def test_cycle_rejected_before_any_state_change():
    with make_runtime(qpu=0, host=1) as runtime:
        graph = runtime.create_graph()
        a = graph.create_task("a", HostKernel("x"))
        b = graph.create_task("b", HostKernel("x"), deps=[a])
        graph.tasks[a].deps = frozenset({b})  # force a cycle
        with pytest.raises(CycleError):
            runtime.submit(graph)
        assert all(t.state is TaskState.CREATED for t in graph.tasks.values())


def test_empty_graph_immediately_terminal():
    with Runtime() as runtime:
        handle = runtime.submit(runtime.create_graph())
        assert handle.done()
        assert runtime.wait(handle) == {}


def test_chain_runs_in_dependency_order():
    with make_runtime(qpu=0, host=1) as runtime:
        runtime.register_host_kernel("nop", lambda p, d: None)
        graph = runtime.create_graph()
        a = graph.create_task("a", HostKernel("nop"))
        b = graph.create_task("b", HostKernel("nop"), deps=[a])
        c = graph.create_task("c", HostKernel("nop"), deps=[b])
        runtime.wait(runtime.submit(graph))
        running, terminal = _seqs(graph)
        assert terminal[a] < running[b]
        assert terminal[b] < running[c]


def test_failure_propagation():
    with make_runtime(qpu=0, host=2) as runtime:
        runtime.register_host_kernel("nop", lambda p, d: "ok")
        runtime.register_host_kernel("boom", lambda p, d: 1 / 0)
        graph = runtime.create_graph()
        a = graph.create_task("a", HostKernel("nop"))
        b = graph.create_task("b", HostKernel("boom"), deps=[a])
        c = graph.create_task("c", HostKernel("nop"), deps=[b])
        d = graph.create_task("d", HostKernel("nop"), deps=[c])
        e = graph.create_task("e", HostKernel("nop"))
        results = runtime.wait(runtime.submit(graph))
        assert results[a].status is TaskState.COMPLETED
        assert results[b].status is TaskState.FAILED
        assert "ZeroDivisionError" in results[b].error
        assert results[c].status is TaskState.FAILED
        assert results[c].error == "dependency-failed"
        assert results[d].error == "dependency-failed"
        assert results[e].status is TaskState.COMPLETED


def test_wait_is_idempotent():
    with make_runtime(qpu=1, host=0) as runtime:
        graph = runtime.create_graph(seed=3)
        graph.create_task("t", bell_kernel())
        handle = runtime.submit(graph)
        first = runtime.wait(handle)
        second = runtime.wait(handle)
        assert first == second


def test_wait_timeout_returns_partial_snapshot():
    import threading

    release = threading.Event()
    with make_runtime(qpu=0, host=1) as runtime:
        runtime.register_host_kernel("slow", lambda p, d: release.wait(5))
        graph = runtime.create_graph()
        tid = graph.create_task("t", HostKernel("slow"))
        handle = runtime.submit(graph)
        partial = runtime.wait(handle, timeout=0.05)
        assert tid not in partial and not handle.done()
        release.set()
        full = runtime.wait(handle)
        assert full[tid].status is TaskState.COMPLETED


def test_wait_rejects_a_graph_of_another_runtime_or_one_not_submitted():
    # no thread of `a` ends either graph, so a wait on it would never wake; each
    # call runs on a thread, so a regression fails here instead of hanging
    def wait_on_a_thread(runtime, graph):
        outcome = []

        def call():
            try:
                outcome.append(runtime.wait(graph))
            except ValueError as exc:
                outcome.append(str(exc))

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        return thread, outcome

    release = threading.Event()
    with make_runtime(qpu=0, host=1) as a, make_runtime(qpu=0, host=1) as b:
        a.register_host_kernel("nop", lambda p, d: None)
        b.register_host_kernel("hold", lambda p, d: release.wait(5))
        foreign = b.create_graph()
        foreign.create_task("t", HostKernel("hold"))
        b.submit(foreign)
        thread, outcome = wait_on_a_thread(a, foreign)
        release.set()
        b.wait(foreign)
        thread.join(2)
        assert not thread.is_alive(), "wait() blocked after the graph ended"
        assert outcome == ["graph belongs to a different runtime"]

        unsubmitted = a.create_graph()
        unsubmitted.create_task("t", HostKernel("nop"))
        thread, outcome = wait_on_a_thread(a, unsubmitted)
        thread.join(2)
        assert not thread.is_alive(), "wait() blocked"
        assert outcome == ["graph not submitted"]


# -- scheduling ---------------------------------------------------------------


def _fresh_tasks(graph, n, kernel=None):
    return [
        graph.tasks[graph.create_task(f"t{i}", kernel or bell_kernel())] for i in range(n)
    ]


def test_plan_roundrobin_turns():
    with Runtime() as runtime:
        devices = [QpuDevice(i) for i in range(4)]
        graph = runtime.create_graph()
        tasks = _fresh_tasks(graph, 16)
        plan = qtask.runtime._plan(tasks, devices, "roundrobin")
        assert [plan[t.id].id for t in tasks] == [0, 1, 2, 3] * 4


def test_explicit_requirement_no_capable_device():
    with make_runtime(qpu=4, host=0) as runtime:
        graph = runtime.create_graph()
        tid = graph.create_task("t", bell_kernel(), device_req=7)
        results = runtime.wait(runtime.submit(graph, policy="default"))
        assert results[tid].status is TaskState.FAILED
        assert "no-capable-device" in results[tid].error


def test_class_requirement_without_device_fails():
    with make_runtime(qpu=0, host=1) as runtime:
        graph = runtime.create_graph()
        tid = graph.create_task("t", bell_kernel())
        results = runtime.wait(runtime.submit(graph))
        assert results[tid].status is TaskState.FAILED
        assert "no-capable-device" in results[tid].error


def test_explicit_device_pinning():
    with make_runtime(qpu=3, host=0) as runtime:
        graph = runtime.create_graph(seed=1)
        tids = [
            graph.create_task(f"t{i}", bell_kernel(), device_req=2) for i in range(4)
        ]
        results = runtime.wait(runtime.submit(graph, policy="default"))
        assert all(results[t].device_id == 2 for t in tids)


def test_fanout_roundrobin_four_per_device_and_payload_identity():
    def run(qpu, policy):
        with make_runtime(qpu=qpu, host=0) as runtime:
            graph = runtime.create_graph(seed=99)
            tids = [graph.create_task(f"t{i}", bell_kernel(1024)) for i in range(16)]
            results = runtime.wait(runtime.submit(graph, policy=policy))
            return tids, results

    tids, results = run(4, "roundrobin")
    assert all(results[t].status is TaskState.COMPLETED for t in tids)
    per_device = {}
    for t in tids:
        per_device.setdefault(results[t].device_id, []).append(t)
    assert sorted(per_device) == [0, 1, 2, 3]
    assert all(len(v) == 4 for v in per_device.values())

    _, single = run(1, "default")
    for t in tids:
        assert single[t].payload.counts == results[t].payload.counts


def test_late_binding_ll_name_requires_qpu():
    with make_runtime(qpu=1, host=1) as runtime:
        graph = runtime.create_graph(seed=5)
        tid = graph.create_task("t", "bell.ll")
        results = runtime.wait(runtime.submit(graph))
        res = results[tid]
        assert res.status is TaskState.COMPLETED
        assert res.device_id == 0  # the qpu, not the host
        assert sum(res.payload.counts.values()) == 1024

    with make_runtime(qpu=0, host=1) as runtime:
        graph = runtime.create_graph()
        tid = graph.create_task("t", QirKernel(path="bell.ll", shots=16))
        results = runtime.wait(runtime.submit(graph))
        assert "no-capable-device" in results[tid].error


def test_late_binding_plain_name_binds_to_host_kernel():
    with make_runtime(qpu=1, host=1) as runtime:
        runtime.register_host_kernel("analyze", lambda p, d: "analyzed")
        graph = runtime.create_graph()
        tid = graph.create_task("t", "analyze")
        results = runtime.wait(runtime.submit(graph))
        assert results[tid].payload == "analyzed"
        assert results[tid].device_id == 1  # the host device


def test_kernel_spec_validation():
    with pytest.raises(ValueError, match="exactly one"):
        QirKernel(source="x", path="y.ll")
    with pytest.raises(ValueError, match="exactly one"):
        QirKernel()
    with pytest.raises(ValueError, match="mode"):
        CircuitKernel(Circuit(1), mode="fuzzy")


def test_submit_rejects_unknown_policy():
    with Runtime() as runtime:
        with pytest.raises(ValueError, match="unknown policy"):
            runtime.submit(runtime.create_graph(), policy="fifo")


def test_qir_kernel_is_lowered_at_create_task(tmp_path):
    with make_runtime(qpu=1, host=0) as runtime:
        graph = runtime.create_graph(seed=5)
        with pytest.raises(QirParseError):
            graph.create_task("bad", QirKernel(source="not qir"))
        path = tmp_path / "bell.ll"
        path.write_text(BELL_TEXT)
        by_file = graph.create_task("file", QirKernel(path=path, shots=64, seed=3))
        path.unlink()  # the program was read when the task was created
        inline = graph.create_task("inline", QirKernel(source=BELL_TEXT, shots=64, seed=3))
        assert isinstance(graph.tasks[by_file].kernel, CircuitKernel)
        results = runtime.wait(runtime.submit(graph))
    assert results[by_file].status is TaskState.COMPLETED
    assert results[by_file].payload.counts == results[inline].payload.counts


def test_circuit_kernel_exact_mode():
    circ = Circuit(1).append(Gate.h(0), Gate.mz(0, 0))
    with make_runtime(qpu=1, host=0) as runtime:
        graph = runtime.create_graph()
        tid = graph.create_task("t", CircuitKernel(circ, mode="exact"))
        results = runtime.wait(runtime.submit(graph))
        assert results[tid].payload.probabilities == pytest.approx({"0": 0.5, "1": 0.5})


def test_payload_determinism_across_policies():
    def payloads(policy, qpu):
        with make_runtime(qpu=qpu, host=0) as runtime:
            graph = runtime.create_graph(seed=123)
            tids = [graph.create_task(f"t{i}", bell_kernel(64)) for i in range(8)]
            results = runtime.wait(runtime.submit(graph, policy=policy))
            return [results[t].payload.counts for t in tids]

    assert payloads("default", 3) == payloads("roundrobin", 5) == payloads("default", 1)


# -- DMEM ---------------------------------------------------------------------


def test_dmem_host_write_then_device_read():
    with make_runtime(qpu=0, host=1) as runtime:
        runtime.register_host_kernel("nop", lambda p, d: None)
        obj = runtime.dmem_create(8)
        runtime.dmem_write_host(obj, b"12345678")
        graph = runtime.create_graph()
        t1 = graph.create_task("r1", HostKernel("nop"), reads=[obj])
        t2 = graph.create_task("r2", HostKernel("nop"), deps=[t1], reads=[obj])
        results = runtime.wait(runtime.submit(graph))
        assert results[t1].transfer_count == 1  # first read moves the data
        assert results[t2].transfer_count == 0  # clean copy reused


def test_dmem_host_read_all_clean():
    with Runtime() as runtime:
        obj = runtime.dmem_create(4)
        runtime.dmem_write_host(obj, b"abcd")
        assert runtime.dmem_read_host(obj) == b"abcd"
        assert obj.transfer_count == 0


def test_dmem_device_write_then_host_read_flushes():
    with make_runtime(qpu=0, host=1) as runtime:
        runtime.register_host_kernel("produce", lambda p, d: b"wxyz")
        obj = runtime.dmem_create(4)
        graph = runtime.create_graph()
        graph.create_task("w", HostKernel("produce"), writes=[obj])
        runtime.wait(runtime.submit(graph))
        assert runtime.dmem_read_host(obj) == b"wxyz"
        assert obj.transfer_count == 1  # exactly the device->host flush


def test_dmem_copies_move_between_two_devices():
    with make_runtime(qpu=0, host=2) as runtime:
        runtime.register_host_kernel("produce", lambda p, d: b"wxyz")
        runtime.register_host_kernel("nop", lambda p, d: None)
        obj = runtime.dmem_create(4)
        graph = runtime.create_graph()
        w = graph.create_task("w", HostKernel("produce"), device_req=0, writes=[obj])
        r1 = graph.create_task("r1", HostKernel("nop"), deps=[w], device_req=1, reads=[obj])
        r0 = graph.create_task("r0", HostKernel("nop"), deps=[r1], device_req=0, reads=[obj])
        results = runtime.wait(runtime.submit(graph))
        assert [results[t].transfer_count for t in (w, r1, r0)] == [0, 1, 0]
        assert runtime.dmem_read_host(obj) == b"wxyz"
        assert obj.transfer_count == 2

        runtime.dmem_write_host(obj, b"abcd")  # leaves both devices stale
        graph = runtime.create_graph()
        a = graph.create_task("a", HostKernel("nop"), device_req=1, reads=[obj])
        b = graph.create_task("b", HostKernel("nop"), deps=[a], device_req=1, reads=[obj])
        results = runtime.wait(runtime.submit(graph))
        assert [results[t].transfer_count for t in (a, b)] == [1, 0]
        assert obj.transfer_count == 3


def test_dmem_size_mismatch_and_use_after_free():
    with Runtime() as runtime:
        obj = runtime.dmem_create(4)
        with pytest.raises(ValueError, match="size mismatch"):
            runtime.dmem_write_host(obj, b"toolong!")
        runtime.dmem_free(obj)
        with pytest.raises(ValueError, match="after free"):
            runtime.dmem_read_host(obj)


def test_dmem_failures_in_a_task_fail_it_and_its_dependents():
    with make_runtime(qpu=0, host=1) as runtime:
        runtime.register_host_kernel("nop", lambda p, d: None)
        runtime.register_host_kernel("text", lambda p, d: "not bytes")
        obj, freed = runtime.dmem_create(4), runtime.dmem_create(4)
        runtime.dmem_free(freed)
        graph = runtime.create_graph()
        bad = graph.create_task("bad", HostKernel("text"), reads=[obj], writes=[obj])
        after = graph.create_task("after", HostKernel("nop"), deps=[bad])
        stale = graph.create_task("stale", HostKernel("nop"), reads=[freed])
        results = runtime.wait(runtime.submit(graph))
    error = "RuntimeError: tasks declaring writes must return a bytes payload"
    assert results[bad] == TaskResult(TaskState.FAILED, None, error, 0, 1)
    assert results[after] == TaskResult(TaskState.FAILED, None, "dependency-failed", None, 0)
    error = f"ValueError: mem object {freed.id} used after free"
    assert results[stale] == TaskResult(TaskState.FAILED, None, error, 0, 0)


def test_a_failing_read_keeps_the_transfers_made_before_it():
    # the first read copies the object to device 0; the second raises, and the
    # task's figure still counts the copy that its objects counted
    with make_runtime(qpu=0, host=1) as runtime:
        runtime.register_host_kernel("nop", lambda p, d: None)
        obj, freed = runtime.dmem_create(4), runtime.dmem_create(4)
        runtime.dmem_free(freed)
        graph = runtime.create_graph()
        tid = graph.create_task("t", HostKernel("nop"), reads=[obj, freed])
        result = runtime.wait(runtime.submit(graph))[tid]
    assert result.error == f"ValueError: mem object {freed.id} used after free"
    assert result.transfer_count == obj.transfer_count == 1
    assert 0 in obj._copies


# -- random DAG properties (small sanity; the acceptance suite scales this up)


def _seqs(graph):
    """Each task's running and terminal sequence numbers, read from ``graph.trace``:
    two dicts by task id, the first without the tasks that never ran."""
    running, terminal = {}, {}
    for seq, event, task_id, _ in graph.trace:
        (running if event == "running" else terminal)[task_id] = seq
    return running, terminal


def _check_trace(graph):
    running_seq, terminal_seq = _seqs(graph)
    running = {}
    for seq, event, task_id, device_id in graph.trace:
        if event == "running":
            assert device_id not in running, f"device {device_id} double occupancy"
            running[device_id] = task_id
        elif device_id is not None:
            assert running.pop(device_id) == task_id
    for task in graph.tasks.values():
        if task.state is not TaskState.COMPLETED:
            continue
        for dep in task.deps:
            assert terminal_seq[dep] < running_seq[task.id]


@pytest.mark.parametrize("trial", range(20))
def test_random_dag_safety(trial):
    rng = np.random.default_rng(1000 + trial)
    n_tasks = int(rng.integers(1, 30))
    n_qpu = int(rng.integers(1, 5))
    policy = "roundrobin" if trial % 2 else "default"
    with make_runtime(qpu=n_qpu, host=1) as runtime:
        runtime.register_host_kernel("nop", lambda p, d: p)
        graph = runtime.create_graph(seed=trial)
        ids = []
        for i in range(n_tasks):
            deps = [t for t in ids if rng.random() < min(0.3, 3 / (i + 1))]
            kernel = (
                HostKernel("nop", params=(i,))
                if rng.random() < 0.5
                else CircuitKernel(
                    Circuit(2).append(Gate.h(0), Gate.cnot(0, 1), Gate.mz(0, 0), Gate.mz(1, 1)),
                    shots=8,
                )
            )
            ids.append(graph.create_task(f"t{i}", kernel, deps=deps))
        results = runtime.wait(runtime.submit(graph, policy=policy))
        assert all(r.status is TaskState.COMPLETED for r in results.values())
        _check_trace(graph)


# -- dispatch cost and shutdown ------------------------------------------------


@pytest.mark.parametrize("policy", ["default", "roundrobin"])
@pytest.mark.parametrize("shape", ["chain", "fanout"])
def test_dispatch_hands_each_task_to_the_policy_once(monkeypatch, shape, policy):
    # counts, not wall-clock time: a dispatch that rescans every waiting task
    # places or pops about n*n/2 times on the default fan-out
    n = 2000
    placed, popped = [], []
    place, heappop = Runtime._place, qtask.runtime.heappop

    def counting_place(self, graph, task, device):
        placed.append(task.id)
        return place(self, graph, task, device)

    def counting_pop(heap):
        popped.append(heap[0][1])
        return heappop(heap)

    monkeypatch.setattr(Runtime, "_place", counting_place)
    monkeypatch.setattr(qtask.runtime, "heappop", counting_pop)
    with make_runtime(qpu=0, host=1) as runtime:
        runtime.register_host_kernel("nop", lambda p, d: None)
        graph = runtime.create_graph()
        prev = []
        for i in range(n):
            tid = graph.create_task(f"t{i}", HostKernel("nop"), deps=prev)
            prev = [tid] if shape == "chain" else []
        results = runtime.wait(runtime.submit(graph, policy=policy), timeout=60)
    assert len(results) == n
    assert all(r.status is TaskState.COMPLETED for r in results.values())
    assert len(placed) == n
    assert len(popped) == (n if policy == "default" else 0)


def _sleep_ms(params, deps):
    time.sleep(params[0] / 1000)


def test_roundrobin_placement_does_not_follow_completion_order():
    # random host delays vary which tasks become ready first; placement is fixed
    # at submit, so every run puts every task on the same device
    rng = np.random.default_rng(17)
    circuit = CircuitKernel(
        Circuit(2).append(Gate.h(0), Gate.cnot(0, 1), Gate.mz(0, 0), Gate.mz(1, 1)), shots=8
    )
    spec = []
    for i in range(40):
        deps = [j for j in range(i) if rng.random() < min(0.3, 3 / (i + 1))]
        host = rng.random() < 0.5
        spec.append((deps, host))
    placements = set()
    for run in range(20):
        with make_runtime(qpu=3, host=2) as runtime:
            runtime.register_host_kernel("sleep", _sleep_ms)
            graph = runtime.create_graph(seed=4)
            delays = np.random.default_rng(run).uniform(0, 3, size=len(spec))
            for i, (deps, host) in enumerate(spec):
                kernel = HostKernel("sleep", params=(float(delays[i]),)) if host else circuit
                graph.create_task(f"t{i}", kernel, deps=deps)
            results = runtime.wait(runtime.submit(graph, policy="roundrobin"), timeout=30)
        assert all(r.status is TaskState.COMPLETED for r in results.values())
        placements.add(tuple(results[i].device_id for i in range(len(spec))))
    assert len(placements) == 1


def test_roundrobin_plan_keeps_error_attribution():
    # a task with no capable device fails when it becomes ready, so behind a
    # failed task it reads dependency-failed, as under every other policy
    with make_runtime(qpu=0, host=1) as runtime:
        runtime.register_host_kernel("boom", _raise_value_error)
        graph = runtime.create_graph()
        a = graph.create_task("a", HostKernel("boom", params=(1,)))
        b = graph.create_task("b", bell_kernel(), deps=[a])
        c = graph.create_task("c", bell_kernel())
        results = runtime.wait(runtime.submit(graph, policy="roundrobin"))
    assert results[a].error == "ValueError: (1,)"
    assert results[b].error == "dependency-failed"
    assert results[c].error == "no-capable-device" and results[c].device_id is None


def test_roundrobin_each_class_cycles_its_own_devices():
    # circuit and host tasks alternate; a turn shared by both classes would put
    # every circuit task on qpu 0
    with make_runtime(qpu=2, host=1) as runtime:
        runtime.register_host_kernel("nop", lambda p, d: None)
        graph = runtime.create_graph()
        tids = [
            graph.create_task(f"t{i}", bell_kernel(8) if i % 2 == 0 else HostKernel("nop"))
            for i in range(12)
        ]
        results = runtime.wait(runtime.submit(graph, policy="roundrobin"))
    assert all(results[t].status is TaskState.COMPLETED for t in tids)
    assert [results[t].device_id for t in tids[0::2]] == [0, 1, 0, 1, 0, 1]
    assert [results[t].device_id for t in tids[1::2]] == [2] * 6


def test_default_any_and_own_class_requirements_share_one_queue():
    with make_runtime(qpu=1, host=0) as runtime:
        graph = runtime.create_graph()
        first = graph.create_task("first", bell_kernel(8), device_req=ANY)
        second = graph.create_task("second", bell_kernel(8), device_req=QPU)
        results = runtime.wait(runtime.submit(graph, policy="default"))
    assert all(results[t].status is TaskState.COMPLETED for t in (first, second))
    running, _ = _seqs(graph)
    assert running[first] < running[second]


def test_waiter_wakes_once_per_graph(monkeypatch):
    # a waiter is woken when its graph ends, not after every task
    with make_runtime(qpu=0, host=1) as runtime:
        runtime.register_host_kernel("sleep", _sleep_ms)
        graph = runtime.create_graph()
        prev = []
        for i in range(30):
            prev = [graph.create_task(f"t{i}", HostKernel("sleep", params=(1,)), deps=prev)]
        wakeups = []
        cond_wait = runtime._cond.wait

        def counting_wait(timeout=None):
            wakeups.append(timeout)
            return cond_wait(timeout)

        monkeypatch.setattr(runtime._cond, "wait", counting_wait)
        results = runtime.wait(runtime.submit(graph))
    assert all(r.status is TaskState.COMPLETED for r in results.values())
    assert len(wakeups) <= 1


def test_a_timed_waiter_wakes_once_per_graph(monkeypatch):
    # as above while a helper runs the chain: a task it queues wakes only callers
    # of its graph, and this graph has none
    with make_runtime(qpu=0, host=1) as runtime:
        runtime.register_host_kernel("sleep", _sleep_ms)
        graph = runtime.create_graph()
        prev = []
        for i in range(30):
            prev = [graph.create_task(f"t{i}", HostKernel("sleep", params=(1,)), deps=prev)]
        wakeups = []
        cond_wait = runtime._cond.wait

        def counting_wait(timeout=None):
            wakeups.append(timeout)
            return cond_wait(timeout)

        monkeypatch.setattr(runtime._cond, "wait", counting_wait)
        results = runtime.wait(runtime.submit(graph), timeout=10)
    assert len(results) == 30 and all(r.status is TaskState.COMPLETED for r in results.values())
    assert len(wakeups) <= 1


@pytest.mark.parametrize("policy", POLICIES)
def test_runtime_keeps_no_ended_graph(policy):
    with make_runtime(qpu=0, host=1) as runtime:
        for _ in range(50):
            graph = runtime.create_graph()
            graph.create_task("q", bell_kernel())
            results = runtime.wait(runtime.submit(graph, policy=policy))
            assert results[0].error == "no-capable-device"
        assert len(runtime._active) == 0


def test_shutdown_fails_tasks_not_yet_running_and_wait_returns():
    started, release = threading.Event(), threading.Event()
    runtime = make_runtime(qpu=0, host=1)
    try:

        def hold(params, deps):
            started.set()
            release.wait(10)
            return "a"

        runtime.register_host_kernel("hold", hold)
        runtime.register_host_kernel("nop", lambda p, d: "b")
        graph = runtime.create_graph()
        a = graph.create_task("a", HostKernel("hold"))
        b = graph.create_task("b", HostKernel("nop"), deps=[a])
        handle = runtime.submit(graph)
        assert started.wait(10)
        box = {}
        waiter = threading.Thread(target=lambda: box.update(results=runtime.wait(handle)))
        stopper = threading.Thread(target=runtime.shutdown)
        for thread in (waiter, stopper):
            thread.daemon = True
            thread.start()
        # b must fail while a still runs, before a's completion could promote it
        with runtime._cond:
            runtime._cond.wait_for(lambda: graph.tasks[b].state is TaskState.FAILED, timeout=5)
        release.set()
        stopper.join(timeout=10)
        waiter.join(timeout=10)
        assert not stopper.is_alive()
        assert not waiter.is_alive(), "wait() without a timeout did not return"
    finally:
        release.set()
        runtime.shutdown()
    results = box["results"]
    assert results[a].status is TaskState.COMPLETED and results[a].payload == "a"
    assert results[b].status is TaskState.FAILED
    assert results[b].error == "runtime-shutdown" and results[b].device_id is None
    assert handle.done()


def _raise_value_error(params, deps):
    raise ValueError(params)


def _raise_system_exit(params, deps):
    raise SystemExit(params[0])


def _nap(params, deps):
    time.sleep(0.001)  # keeps dependents waiting long enough for a shutdown to find them


_KERNELS = {
    "nop": HostKernel("nop", params=(1,)),
    "nap": HostKernel("nap"),
    "boom": HostKernel("boom", params=(2,)),
    "bail": HostKernel("bail", params=(3,)),
    "bell": CircuitKernel(
        Circuit(2).append(Gate.h(0), Gate.cnot(0, 1), Gate.mz(0, 0), Gate.mz(1, 1)), shots=8
    ),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_dag_with_failures_and_shutdown_always_ends(data):
    n_tasks = data.draw(st.integers(1, 30), label="tasks")
    n_qpu = data.draw(st.integers(1, 4), label="qpu")
    policy = data.draw(st.sampled_from(POLICIES), label="policy")
    stop_after = data.draw(st.none() | st.integers(0, n_tasks), label="shutdown after")
    runtime = make_runtime(qpu=n_qpu, host=1)
    try:
        runtime.register_host_kernel("nop", lambda p, d: p)
        runtime.register_host_kernel("nap", _nap)
        runtime.register_host_kernel("boom", _raise_value_error)
        runtime.register_host_kernel("bail", _raise_system_exit)
        graph = runtime.create_graph(seed=n_tasks)
        for i in range(n_tasks):
            deps = data.draw(st.sets(st.integers(0, i - 1), max_size=3)) if i else set()
            kind = data.draw(st.sampled_from(sorted(_KERNELS)))
            graph.create_task(f"t{i}", _KERNELS[kind], deps=deps)
        handle = runtime.submit(graph, policy=policy)
        if stop_after is not None:
            # poll: the condition is notified only when a graph ends
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with runtime._cond:
                    if sum(t.result is not None for t in graph.tasks.values()) >= stop_after:
                        break
                time.sleep(0.0002)
            runtime.shutdown()
        box = {}
        waiter = threading.Thread(target=lambda: box.update(results=runtime.wait(handle)))
        waiter.daemon = True
        waiter.start()
        waiter.join(timeout=10)
        assert not waiter.is_alive(), "wait() without a timeout did not return"
    finally:
        runtime.shutdown()
    assert len(box["results"]) == n_tasks
    assert all(t.state in TERMINAL_STATES for t in graph.tasks.values())
    if stop_after is None:
        assert all(r.error != "runtime-shutdown" for r in box["results"].values())
    _check_trace(graph)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_shutdown_after_some_tasks_end_ends_the_graph(data):
    # the runtime's condition is notified only when a graph ends, so the
    # shutdown point is found by polling; waiting on the condition for it
    # would put every shutdown after the graph's end
    n_tasks = data.draw(st.integers(2, 30), label="tasks")
    n_qpu = data.draw(st.integers(1, 4), label="qpu")
    policy = data.draw(st.sampled_from(POLICIES), label="policy")
    stop_after = data.draw(st.integers(1, n_tasks - 1), label="shutdown after")
    runtime = make_runtime(qpu=n_qpu, host=1)
    try:
        runtime.register_host_kernel("nop", lambda p, d: p)
        runtime.register_host_kernel("nap", _nap)
        runtime.register_host_kernel("boom", _raise_value_error)
        graph = runtime.create_graph(seed=n_tasks)
        for i in range(n_tasks):
            deps = data.draw(st.sets(st.integers(0, i - 1), max_size=3)) if i else set()
            kind = data.draw(st.sampled_from(["nop", "nap", "boom", "bell"]))
            graph.create_task(f"t{i}", _KERNELS[kind], deps=deps)
        handle = runtime.submit(graph, policy=policy)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            with runtime._cond:
                if sum(t.result is not None for t in graph.tasks.values()) >= stop_after:
                    break
            time.sleep(0.0002)
        runtime.shutdown()
        box = {}
        waiter = threading.Thread(target=lambda: box.update(results=runtime.wait(handle)))
        waiter.daemon = True
        waiter.start()
        waiter.join(timeout=10)
        assert not waiter.is_alive(), "wait() without a timeout did not return"
    finally:
        runtime.shutdown()
    assert len(box["results"]) == n_tasks
    assert all(t.state in TERMINAL_STATES for t in graph.tasks.values())
    _check_trace(graph)


# -- submit(sync=True) runs its graph on the calling thread --------------------


def _on_a_thread(fn, *args):
    """fn(*args) on a thread joined within 10 s, so a driver that hangs fails the test."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn(*args)), daemon=True)
    thread.start()
    thread.join(10)
    assert not thread.is_alive(), f"{fn.__name__} did not return within 10 s"
    assert out, f"{fn.__name__} raised"
    return out[0]


def test_ctrl_c_interrupts_a_sync_submit():
    # the kernel runs on the main thread, which the interrupt reaches; submit
    # raises it, and no task is left running
    runtime = make_runtime(qpu=0, host=1)
    runtime.register_host_kernel("ctrl_c", lambda p, d: _thread.interrupt_main())
    runtime.register_host_kernel("nop", lambda p, d: None)
    graph = runtime.create_graph()
    first = graph.create_task("ctrl_c", HostKernel("ctrl_c"))
    graph.create_task("after", HostKernel("nop"), deps=[first])
    try:
        with pytest.raises(KeyboardInterrupt):
            runtime.submit(graph, sync=True)
    finally:
        runtime.shutdown()
    assert all(t.state in TERMINAL_STATES for t in graph.tasks.values())
    assert sorted(runtime.wait(graph)) == [0, 1]


def test_an_interrupt_outside_the_kernel_leaves_no_task_running(monkeypatch):
    # as if Ctrl-C landed after _begin, before the kernel: the driver ends the
    # task it began, and the runtime runs on
    def interrupted(self, device, graph, task):
        raise KeyboardInterrupt

    monkeypatch.setattr(Runtime, "_run", interrupted)
    with make_runtime(qpu=0, host=1) as runtime:
        runtime.register_host_kernel("nop", lambda p, d: p)
        graph = runtime.create_graph()
        first = graph.create_task("t0", HostKernel("nop"))
        graph.create_task("t1", HostKernel("nop"), deps=[first])
        with pytest.raises(KeyboardInterrupt):
            runtime.submit(graph, sync=True)
        assert [(t.state, t.result.error) for t in graph.tasks.values()] == [
            (TaskState.FAILED, "KeyboardInterrupt: "),
            (TaskState.FAILED, "dependency-failed"),
        ]
        (device,) = runtime.devices
        assert (device.running, device.pending) == (0, 0)
        monkeypatch.undo()
        later = runtime.create_graph()
        later.create_task("t", HostKernel("nop", (1,)))
        assert runtime.wait(runtime.submit(later), timeout=10)[0].payload == (1,)


def test_a_kernel_may_run_a_graph_of_its_own_with_a_sync_submit():
    def nested():
        with make_runtime(qpu=1, host=1) as runtime:

            def inner(params, deps):
                graph = runtime.create_graph(seed=1)
                graph.create_task("q", bell_kernel())
                return runtime.submit(graph, sync=True).tasks[0].result

            runtime.register_host_kernel("inner", inner)
            graph = runtime.create_graph()
            graph.create_task("outer", HostKernel("inner"))
            runtime.submit(graph, sync=True)
            return graph.tasks[0].result, list(runtime._helpers)

    outer, helpers = _on_a_thread(nested)
    assert (outer.status, outer.device_id) == (TaskState.COMPLETED, 1)
    assert (outer.payload.status, outer.payload.device_id) == (TaskState.COMPLETED, 0)
    assert helpers == []


def _shared_device_graphs(runtime, n):
    # graphs whose sleeping host tasks take turns on the one host device
    runtime.register_host_kernel("sleep", _sleep_ms)
    graphs = []
    for g in range(n):
        graph = runtime.create_graph(seed=g)
        prev = [graph.create_task(f"q{i}", bell_kernel()) for i in range(3)]
        for i in range(3):
            prev = [graph.create_task(f"h{i}", HostKernel("sleep", (1,)), deps=prev)]
        graphs.append(graph)
    return graphs


def _payloads(graph):
    return {t.name: (t.state, t.result.payload) for t in graph.tasks.values()}


@pytest.mark.parametrize("mode", ["sync", "mixed", "waited"])
@pytest.mark.parametrize("n", [2, 4])
def test_threads_each_run_a_sync_submit_on_one_runtime(n, mode):
    # n callers drive one runtime at once, more of them than cores, switching
    # threads often; every other caller instead submits async and, when mixed,
    # waits on the helpers or, when waited, runs its graph through wait() beside
    # them: each device runs one task at a time, and every graph ends with the
    # payloads of a sequential run
    def together():
        with make_runtime(qpu=2, host=1) as runtime:
            graphs = _shared_device_graphs(runtime, n)
            start = threading.Barrier(n)

            def run(i, graph):
                start.wait(10)
                if mode == "mixed" and i % 2:
                    runtime.wait(runtime.submit(graph), timeout=10)
                elif mode == "waited" and i % 2:
                    runtime.wait(runtime.submit(graph))
                else:
                    runtime.submit(graph, sync=True)

            threads = [
                threading.Thread(target=run, args=(i, g), daemon=True) for i, g in enumerate(graphs)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
            assert not any(t.is_alive() for t in threads)
            assert [(d.running, d.pending) for d in runtime.devices] == [(0, 0)] * 3
            assert mode != "sync" or not runtime._helpers
        return graphs

    with make_runtime(qpu=2, host=1) as runtime:
        sequential = _shared_device_graphs(runtime, n)
        for graph in sequential:
            runtime.submit(graph, sync=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        concurrent = _on_a_thread(together)
    finally:
        sys.setswitchinterval(interval)
    for graph, alone in zip(concurrent, sequential):
        assert all(t.state is TaskState.COMPLETED for t in graph.tasks.values())
        _check_trace(graph)
        assert _payloads(graph) == _payloads(alone)


def test_a_graph_submitted_async_by_a_sync_run_goes_to_a_worker():
    # only a sync submit's tasks are left to its caller: the second graph's
    # task goes to a helper thread, and outlives the sync run
    def spawn():
        with make_runtime(qpu=1, host=1) as runtime:
            second = runtime.create_graph(seed=2)
            second.create_task("q", bell_kernel())
            runtime.register_host_kernel("spawn", lambda p, d: runtime.submit(second) and None)
            first = runtime.create_graph()
            first.create_task("spawn", HostKernel("spawn"))
            runtime.submit(first, sync=True)
            return runtime.wait(second, timeout=10), len(runtime._helpers)

    results, helpers = _on_a_thread(spawn)
    assert results[0].status is TaskState.COMPLETED and results[0].device_id == 0
    assert helpers == 1


def test_a_kernel_of_a_sync_run_may_wait_for_an_async_submit():
    # the caller blocked in the kernel is not the one that must run the graph it waits for
    def run():
        with make_runtime(qpu=1, host=1) as runtime:

            def spawn(params, deps):
                second = runtime.create_graph(seed=2)
                second.create_task("q", bell_kernel())
                return runtime.wait(runtime.submit(second))[0]

            runtime.register_host_kernel("spawn", spawn)
            first = runtime.create_graph()
            first.create_task("spawn", HostKernel("spawn"))
            return runtime.submit(first, sync=True).tasks[0].result

    outer = _on_a_thread(run)
    assert outer.status is TaskState.COMPLETED
    assert (outer.payload.status, outer.payload.device_id) == (TaskState.COMPLETED, 0)


def test_an_async_submit_runs_while_a_sync_caller_is_busy():
    # another thread's async graph does not wait for a caller blocked in a kernel
    def run():
        started, release = threading.Event(), threading.Event()
        with make_runtime(qpu=1, host=1) as runtime:
            runtime.register_host_kernel("block", lambda p, d: started.set() or release.wait(10))
            first = runtime.create_graph()
            first.create_task("block", HostKernel("block"))
            caller = threading.Thread(
                target=runtime.submit, args=(first, "default", True), daemon=True
            )
            caller.start()
            started.wait(10)
            second = runtime.create_graph(seed=2)
            second.create_task("q", bell_kernel())
            results = runtime.wait(runtime.submit(second), timeout=5)
            release.set()
            caller.join(10)
            return results, first.tasks[0].result

    results, blocked = _on_a_thread(run)
    assert results[0].status is TaskState.COMPLETED
    assert blocked.status is TaskState.COMPLETED


def test_a_worker_waits_while_a_sync_caller_runs_a_task_on_its_device():
    # a kernel of a sync run gives both devices async work: a helper runs the
    # pinned qpu task, and the host task begins only once the caller has freed the
    # host device, so no device runs two tasks at once
    def run():
        with make_runtime(qpu=1, host=1) as runtime:
            second = runtime.create_graph(seed=2)
            second.create_task("q", bell_kernel(), device_req=0)  # pinned: placed at once
            second.create_task("h", HostKernel("nop"), device_req=1)

            def spawn(params, deps):
                runtime.submit(second)
                time.sleep(0.05)  # a helper runs the qpu task meanwhile

            runtime.register_host_kernel("spawn", spawn)
            runtime.register_host_kernel("nop", lambda p, d: p)
            first = runtime.create_graph()
            head = first.create_task("spawn", HostKernel("spawn"))
            first.create_task("q", bell_kernel())
            first.create_task("h", HostKernel("nop", (1,)), deps=[head])
            runtime.submit(first, sync=True)
            runtime.wait(second, timeout=10)
            return first, second, len(runtime._helpers)

    first, second, helpers = _on_a_thread(run)
    for graph in (first, second):
        assert all(t.state is TaskState.COMPLETED for t in graph.tasks.values())
        _check_trace(graph)
    assert 1 <= helpers <= 2


@pytest.mark.parametrize("where", ["_begin", "_end"])
def test_an_interrupt_in_the_driver_leaves_no_task_stuck(monkeypatch, where):
    # as if Ctrl-C landed after the driver took a task but before it began it
    # (_begin), or after the task ended but before its device was freed (_end):
    # submit raises, and the rest of the graph runs on a helper thread
    real = getattr(Runtime, where)
    fired = []

    def interrupted(self, *args):
        if fired:
            return real(self, *args)
        fired.append(where)
        if where == "_end":
            real(self, *args)
        raise KeyboardInterrupt

    monkeypatch.setattr(Runtime, where, interrupted)

    def run():
        with make_runtime(qpu=0, host=1) as runtime:
            runtime.register_host_kernel("nop", lambda p, d: p)
            graph = runtime.create_graph()
            first = graph.create_task("t0", HostKernel("nop", (0,)))
            graph.create_task("t1", HostKernel("nop", (1,)), deps=[first])
            with pytest.raises(KeyboardInterrupt):
                runtime.submit(graph, sync=True)
            results = runtime.wait(graph, timeout=10)
            (device,) = runtime.devices
            return results, (device.running, device.pending)

    results, counts = _on_a_thread(run)
    assert [(r.status, r.payload) for r in results.values()] == [
        (TaskState.COMPLETED, (0,)),
        (TaskState.COMPLETED, (1,)),
    ]
    assert counts == (0, 0)


def test_an_interrupt_in_the_loop_over_dependents_leaves_no_task_stuck(monkeypatch):
    # as if Ctrl-C landed in _end's loop over a completed task's dependents, before
    # it promoted t1: the cleanup promotes it, so the graph ends without a shutdown
    real = Runtime._make_ready
    fired = []

    def interrupted(self, graph, task):
        if not fired and sys._getframe(1).f_code.co_name == "_end":
            fired.append(task.id)
            raise KeyboardInterrupt
        return real(self, graph, task)

    monkeypatch.setattr(Runtime, "_make_ready", interrupted)

    def run():
        with make_runtime(qpu=0, host=1) as runtime:
            runtime.register_host_kernel("nop", lambda p, d: p)
            graph = runtime.create_graph()
            first = graph.create_task("t0", HostKernel("nop", (0,)))
            graph.create_task("t1", HostKernel("nop", (1,)), deps=[first])
            with pytest.raises(KeyboardInterrupt):
                runtime.submit(graph, sync=True)
            runtime.wait(graph, timeout=2)  # only waits: a helper runs t1
            return [t.state for t in graph.tasks.values()], graph.done()

    states, done = _on_a_thread(run)
    assert fired == [1]
    assert states == [TaskState.COMPLETED] * 2 and done


def test_wait_runs_its_graph_on_the_calling_thread():
    # with no helper to run them, wait() without a timeout runs the graph's tasks itself
    def run():
        with make_runtime(qpu=1, host=1) as runtime:
            runtime._start_helper = lambda: None
            ran_on = []
            runtime.register_host_kernel("where", lambda p, d: ran_on.append(threading.current_thread()))
            graph = runtime.create_graph(seed=3)
            first = graph.create_task("q", bell_kernel())
            graph.create_task("h", HostKernel("where"), deps=[first])
            results = runtime.wait(runtime.submit(graph))
            return results, ran_on == [threading.current_thread()]

    results, here = _on_a_thread(run)
    assert [r.status for r in results.values()] == [TaskState.COMPLETED] * 2 and here


@pytest.mark.parametrize("after_a_root", [False, True])
def test_waited_tasks_that_must_overlap_meet(after_a_root):
    # two host tasks meet at a barrier: while the waiting caller runs one, a
    # helper runs the other, as roots or once a shared dependency has ended
    def run():
        with make_runtime(qpu=0, host=2) as runtime:
            barrier = threading.Barrier(2)
            runtime.register_host_kernel("meet", lambda p, d: barrier.wait(5))
            runtime.register_host_kernel("nop", lambda p, d: p)
            graph = runtime.create_graph()
            deps = [graph.create_task("root", HostKernel("nop"))] if after_a_root else []
            for i in range(2):
                graph.create_task(f"t{i}", HostKernel("meet", (i,)), deps=deps)
            return runtime.wait(runtime.submit(graph))

    results = _on_a_thread(run)
    assert [(r.status, r.error) for r in results.values()] == [(TaskState.COMPLETED, None)] * len(results)


def test_a_waited_chain_stays_on_the_waiting_thread():
    # once its caller waits, helpers leave the graph to it: each task ends with
    # the caller idle, so the caller takes the next, whoever ran the first
    def run():
        with make_runtime(qpu=0, host=1) as runtime:
            graph = runtime.create_graph()
            ran_on, caller = [], threading.current_thread()

            def first(params, deps):
                deadline = time.monotonic() + 10  # until the caller is in wait()
                while threading.current_thread() is not caller and not graph._callers:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)

            runtime.register_host_kernel("first", first)
            runtime.register_host_kernel("where", lambda p, d: ran_on.append(threading.current_thread()))
            prev = [graph.create_task("t0", HostKernel("first"))]
            for i in range(1, 20):
                prev = [graph.create_task(f"t{i}", HostKernel("where", (i,)), deps=prev)]
            results = runtime.wait(runtime.submit(graph))
            return results, ran_on == [caller] * 19

    results, here = _on_a_thread(run)
    assert [r.status for r in results.values()] == [TaskState.COMPLETED] * 20 and here


def _live_helpers(before):
    return [t for t in threading.enumerate() if t.name == "qtask-helper" and t not in before]


def test_helpers_never_outnumber_the_devices_they_run():
    # k + 2 blocking tasks on k host devices: a helper starts only while a task
    # waits beside a free device and no helper is idle, so k of them run every
    # task, and shutdown() stops them all
    k = 3
    before = set(threading.enumerate())
    started, release = threading.Semaphore(0), threading.Event()
    runtime = make_runtime(qpu=0, host=k)
    try:
        runtime.register_host_kernel("block", lambda p, d: started.release() or release.wait(10))
        graph = runtime.create_graph()
        for i in range(k + 2):
            graph.create_task(f"t{i}", HostKernel("block", (i,)))
        runtime.submit(graph)
        counts = [len(_live_helpers(before))]
        for _ in range(k):
            assert started.acquire(timeout=10)
            counts.append(len(_live_helpers(before)))
        time.sleep(0.05)  # a helper too many would start meanwhile
        helpers = _live_helpers(before)
        release.set()
        deadline = time.monotonic() + 10
        while not graph.done() and time.monotonic() < deadline:
            counts.append(len(_live_helpers(before)))
            time.sleep(0.001)
        results = runtime.wait(graph, timeout=10)
    finally:
        release.set()
        runtime.shutdown()
    assert len(helpers) == k and max(counts) <= k
    assert [r.status for r in results.values()] == [TaskState.COMPLETED] * (k + 2)
    assert not any(t.is_alive() for t in helpers) and not _live_helpers(before)


# -- graph JSON ---------------------------------------------------------------


def test_parse_graph_spec_roundtrip():
    text = json.dumps(
        {
            "seed": 3,
            "policy": "roundrobin",
            "devices": {"qpu": 2, "host": 1},
            "tasks": [
                {"name": "a", "kernel": {"type": "qir", "file": "bell.ll"}, "shots": 32},
                {
                    "name": "b",
                    "kernel": {"type": "host", "name": "noop"},
                    "depends": ["a"],
                    "device": "host",
                },
                {
                    "name": "c",
                    "kernel": {
                        "type": "circuit",
                        "qubits": 1,
                        "gates": [["h", 0], ["mz", 0, 0]],
                        "mode": "exact",
                    },
                },
            ],
        }
    )
    spec = parse_graph_spec(text)
    assert spec.seed == 3 and spec.policy == "roundrobin"
    assert spec.qpu == 2 and spec.host == 1
    assert [t.name for t in spec.tasks] == ["a", "b", "c"]
    assert isinstance(spec.tasks[0].kernel, QirKernel)
    assert spec.tasks[0].kernel.shots == 32
    assert spec.tasks[1].depends == ("a",)


@pytest.mark.parametrize("field", ["qpu", "host"])
def test_parse_graph_spec_bounds_device_counts(field):
    # the runtime scans a class's devices as each task ends, so counts from a file
    # are capped; the spec is rejected before any runtime exists
    def spec(count):
        return json.dumps({"devices": {field: count}, "tasks": []})

    assert getattr(parse_graph_spec(spec(MAX_DEVICES)), field) == MAX_DEVICES
    with pytest.raises(GraphSpecError, match=f"'{field}'.*{MAX_DEVICES}"):
        parse_graph_spec(spec(MAX_DEVICES + 1))


def test_parse_graph_spec_rejects_unknown_fields():
    with pytest.raises(GraphSpecError, match="'gpu'"):
        parse_graph_spec('{"devices": {"qpu": 1}, "gpu": 2, "tasks": []}')
    with pytest.raises(GraphSpecError, match="'priority'"):
        parse_graph_spec(
            '{"devices": {"qpu": 1}, "tasks": [{"name": "a", "priority": 3,'
            ' "kernel": {"type": "host", "name": "n"}}]}'
        )


def test_parse_graph_spec_unknown_dependency():
    with pytest.raises(GraphSpecError, match="unknown task"):
        parse_graph_spec(
            '{"devices": {"host": 1}, "tasks": [{"name": "a",'
            ' "kernel": {"type": "host", "name": "n"}, "depends": ["zz"]}]}'
        )


def test_parse_graph_spec_bad_policy_and_kernel():
    with pytest.raises(GraphSpecError, match="policy"):
        parse_graph_spec('{"policy": "greedy", "devices": {}, "tasks": []}')
    with pytest.raises(GraphSpecError, match="unknown type"):
        parse_graph_spec(
            '{"devices": {}, "tasks": [{"name": "a", "kernel": {"type": "gpu"}}]}'
        )


def _spec_with(top=None, devices=None, task=None, kernel=None):
    circuit = {"type": "circuit", "qubits": 1, "gates": [["h", 0], ["mz", 0, 0]]}
    entry = {"name": "a", "kernel": {**circuit, **(kernel or {})}, **(task or {})}
    spec = {"devices": {"qpu": 1, **(devices or {})}, "tasks": [entry], **(top or {})}
    return json.dumps(spec)


@pytest.mark.parametrize(
    "text, field",
    [
        (_spec_with(top={"seed": True}), "'seed'"),
        (_spec_with(devices={"qpu": True}), "'qpu'"),
        (_spec_with(devices={"host": False}), "'host'"),
        (_spec_with(task={"shots": False}), "'shots'"),
        (_spec_with(task={"device": True}), "'device'"),
        (_spec_with(kernel={"qubits": True}), "'qubits'"),
        (_spec_with(kernel={"gates": [["h", False], ["mz", 0, 0]]}), "boolean operand"),
    ],
    ids=["seed", "qpu", "host", "shots", "device", "qubits", "gate-operand"],
)
def test_parse_graph_spec_rejects_booleans_for_integers(text, field):
    with pytest.raises(GraphSpecError, match=field):
        parse_graph_spec(text)


def test_kernel_raising_system_exit_fails_task_and_worker_survives():
    import threading

    with make_runtime(qpu=0, host=1) as runtime:

        def bail(params, deps):
            raise SystemExit(3)

        runtime.register_host_kernel("bail", bail)
        runtime.register_host_kernel("ok", lambda p, d: "ok")
        graph = runtime.create_graph()
        tid = graph.create_task("t", HostKernel("bail"))
        handle = runtime.submit(graph)
        box = {}
        waiter = threading.Thread(target=lambda: box.update(results=runtime.wait(handle)))
        waiter.daemon = True
        waiter.start()
        waiter.join(timeout=10)
        assert "results" in box, "wait() without a timeout did not return"
        assert box["results"][tid].status is TaskState.FAILED
        assert box["results"][tid].error == "SystemExit: 3"

        later = runtime.create_graph()
        tid2 = later.create_task("u", HostKernel("ok"))
        results = runtime.wait(runtime.submit(later), timeout=10)
        assert results[tid2].status is TaskState.COMPLETED
        assert results[tid2].payload == "ok" and results[tid2].device_id == 0


_LEGAL_TRANSITIONS = {
    (TaskState.CREATED, TaskState.SUBMITTED),
    (TaskState.SUBMITTED, TaskState.READY),
    (TaskState.SUBMITTED, TaskState.FAILED),
    (TaskState.READY, TaskState.RUNNING),
    (TaskState.READY, TaskState.FAILED),
    (TaskState.RUNNING, TaskState.COMPLETED),
    (TaskState.RUNNING, TaskState.FAILED),
}


@pytest.mark.parametrize("old", list(TaskState), ids=lambda s: s.value)
@pytest.mark.parametrize("new", list(TaskState), ids=lambda s: s.value)
def test_set_state_allows_exactly_the_lifecycle_transitions(old, new):
    with Runtime() as runtime:
        graph = runtime.create_graph()
        task = graph.tasks[graph.create_task("t", HostKernel("x"))]
        graph.create_task("u", HostKernel("x"))  # keeps the graph unfinished
        task.state = old
        if (old, new) in _LEGAL_TRANSITIONS:
            runtime._set_state(graph, task, new)
            assert task.state is new
        else:
            with pytest.raises(AssertionError, match=f"illegal transition {old.value} -> {new.value} "):
                runtime._set_state(graph, task, new)
            assert task.state is old


def test_an_idle_worker_holds_no_ended_graph():
    # the thread that ran a graph's last task lets go of it before waiting for
    # the next, so the graph is freed while the runtime runs on
    gc.disable()
    try:
        with make_runtime(qpu=0, host=1) as runtime:
            runtime.register_host_kernel("nop", lambda p, d: p)
            graph = runtime.create_graph()
            graph.create_task("t", HostKernel("nop"))
            ref = weakref.ref(runtime.submit(graph, sync=True))
            del graph
            deadline = time.monotonic() + 10
            while ref() is not None and time.monotonic() < deadline:
                time.sleep(0.001)
            assert ref() is None
    finally:
        gc.enable()


def test_an_idle_worker_thread_holds_no_ended_graph():
    # as above, through an async submit, which a helper thread runs
    gc.disable()
    try:
        with make_runtime(qpu=0, host=1) as runtime:
            runtime.register_host_kernel("nop", lambda p, d: p)
            graph = runtime.create_graph()
            graph.create_task("t", HostKernel("nop"))
            runtime.wait(runtime.submit(graph), timeout=10)  # only waits: a helper runs it
            ref = weakref.ref(graph)
            del graph
            assert runtime._helpers
            deadline = time.monotonic() + 10
            while ref() is not None and time.monotonic() < deadline:
                time.sleep(0.001)
            assert ref() is None
    finally:
        gc.enable()


def test_ended_graph_is_freed_without_the_cyclic_collector():
    # no task refers to its graph, so dropping an ended graph frees it at once,
    # with no reference cycle left for gc to find
    gc.disable()
    try:
        with make_runtime(qpu=0, host=1) as runtime:
            runtime.register_host_kernel("nop", lambda p, d: p)
            graph = runtime.create_graph()
            prev = []
            for i in range(10):
                prev = [graph.create_task(f"t{i}", HostKernel("nop", (i,)), deps=prev)]
            handle = runtime.submit(graph, sync=True)
            task, ref = graph.tasks[0], weakref.ref(graph)
        del graph, handle
        assert ref() is None
        assert task.result.status is TaskState.COMPLETED
    finally:
        gc.enable()


# -- submitting an ended graph again -------------------------------------------


def _mixed_graph(runtime, seed, fail=False, interrupt=None):
    """Sampled, exact and pinned qpu tasks feeding host tasks, on a runtime with
    the "join", "boom" and "once" kernels: ``fail`` makes one host task raise,
    so its dependents fail, and ``interrupt`` puts the "once" kernel there."""
    graph = runtime.create_graph(seed=seed)
    bell = [graph.create_task(f"bell{i}", bell_kernel(64 + i)) for i in range(3)]
    exact = graph.create_task("exact", bell_kernel(0), device_req=1)
    pinned_kernel = CircuitKernel(_bell_circuit(), shots=32, seed=11)
    pinned = graph.create_task("pinned", pinned_kernel, device_req=0)
    host = "boom" if fail else "once" if interrupt else "join"
    mid = graph.create_task("mid", HostKernel(host), deps=[bell[0], exact])
    graph.create_task("late", HostKernel("join"), deps=[mid, bell[1]])
    graph.create_task("side", HostKernel("join"), deps=[bell[2], pinned])
    return graph


def _bell_circuit():
    return Circuit(2).append(Gate.h(0), Gate.cnot(0, 1), Gate.mz(0, 0), Gate.mz(1, 1))


def _mixed_runtime(interrupt=None):
    runtime = make_runtime(qpu=2, host=1)
    runtime.register_host_kernel("join", lambda p, d: sorted(d))
    runtime.register_host_kernel("boom", lambda p, d: 1 / 0)

    def once(p, d):
        if interrupt:
            interrupt.pop()
            raise KeyboardInterrupt
        return sorted(d)

    runtime.register_host_kernel("once", once)
    return runtime


def _run_outcome(graph, results):
    """What a run of ``graph`` shows: its results, per-task seeds and trace."""
    seeds = {
        t.id: (t.seed, None if t.seed_state is None else t.seed_state.words.tolist())
        for t in graph.tasks.values()
    }
    return results, seeds, list(graph.trace)


def _fresh_outcome(seed, policy, fail=False):
    with _mixed_runtime() as runtime:
        graph = _mixed_graph(runtime, seed, fail)
        return _run_outcome(graph, runtime.wait(runtime.submit(graph, policy, sync=True)))


@pytest.mark.parametrize("fail", [False, True])
@pytest.mark.parametrize("policy", POLICIES)
def test_an_ended_graph_submitted_again_runs_as_a_fresh_graph(policy, fail):
    with _mixed_runtime() as runtime:
        graph = _mixed_graph(runtime, seed=3, fail=fail)
        first = _run_outcome(graph, runtime.wait(runtime.submit(graph, policy, sync=True)))
        first_trace = graph.trace
        graph.seed = 4
        second = _run_outcome(graph, runtime.wait(runtime.submit(graph, policy, sync=True)))
        graph.seed = 3  # async this time: a helper runs it
        third = _run_outcome(graph, runtime.wait(runtime.submit(graph, policy)))
    assert first == third == _fresh_outcome(3, policy, fail)
    assert second == _fresh_outcome(4, policy, fail)
    assert first[1] != second[1]  # the seeds follow graph.seed
    assert first_trace == first[2]  # an earlier run's trace is left as it was
    results = second[0]
    assert {r.device_id for r in results.values()} >= {0, 1, 2}
    if fail:
        mid, late = (graph.task_id_by_name(n) for n in ("mid", "late"))
        assert "ZeroDivisionError" in results[mid].error
        assert results[late].error == "dependency-failed"
    else:
        assert all(r.status is TaskState.COMPLETED for r in results.values())


def test_a_graph_a_ctrl_c_ended_runs_again_as_a_fresh_graph():
    # the first run's "mid" kernel raises KeyboardInterrupt, which fails it and "late"
    # and ends the sync submit; once wait() has returned, the graph runs again
    interrupt = [True]
    with _mixed_runtime(interrupt) as runtime:
        graph = _mixed_graph(runtime, seed=5, interrupt=interrupt)
        with pytest.raises(KeyboardInterrupt):
            runtime.submit(graph, "roundrobin", sync=True)
        interrupted = runtime.wait(graph)
        mid, late = (graph.task_id_by_name(n) for n in ("mid", "late"))
        assert interrupted[mid].error == "KeyboardInterrupt: "
        assert interrupted[late].error == "dependency-failed"
        again = _run_outcome(graph, runtime.wait(runtime.submit(graph, "roundrobin", sync=True)))
    assert again == _fresh_outcome(5, "roundrobin")


def test_a_graph_in_flight_cannot_be_submitted_again():
    release = threading.Event()
    with make_runtime(qpu=0, host=1) as runtime:
        runtime.register_host_kernel("block", lambda p, d: release.wait(10))
        graph = runtime.create_graph()
        tid = graph.create_task("t", HostKernel("block"))
        runtime.submit(graph)
        try:
            with pytest.raises(ValueError, match="graph already submitted"):
                runtime.submit(graph)
            with pytest.raises(ValueError, match="graph already submitted"):
                graph.create_task("u", HostKernel("block"))
        finally:
            release.set()
        assert runtime.wait(graph)[tid].payload is True
        release.clear()
        runtime.submit(graph)  # ended: it may run again, with its tasks fixed
        try:
            assert runtime.wait(graph, timeout=0.05) == {}  # the last run's result is cleared
            with pytest.raises(ValueError, match="graph already submitted"):
                runtime.submit(graph)
            with pytest.raises(ValueError, match="graph already submitted"):
                graph.create_task("u", HostKernel("block"))
        finally:
            release.set()
        assert runtime.wait(graph)[tid].payload is True
        assert len(graph.tasks) == 1 and len(graph.trace) == 2


def test_an_ended_graph_is_not_submitted_to_a_runtime_shut_down():
    runtime = make_runtime(qpu=0, host=1)
    runtime.register_host_kernel("nop", lambda p, d: None)
    graph = runtime.create_graph()
    graph.create_task("t", HostKernel("nop"))
    results = runtime.wait(runtime.submit(graph, sync=True))
    runtime.shutdown()
    with pytest.raises(ValueError, match="runtime is shut down"):
        runtime.submit(graph)
    assert runtime.wait(graph) == results  # the ended run is left as it was
    with make_runtime(qpu=0, host=1) as other:
        with pytest.raises(ValueError, match="different runtime"):
            other.submit(graph)
