"""Threadless runtime driver: a runtime that starts no helper thread, whose
queued tasks run one at a time, in an order drawn from a seed, through the
runtime's own ``Runtime._step`` (its run queue holds ``(device, graph, task)``
entries).

Which device finishes next is the only freedom a threaded run has, so drawing
it from a seed makes every interleaving reproducible and lets a test inspect
the runtime between any two task ends.
"""

import gc
import hashlib
import os
import random

import pytest
from test_runtime import _check_trace

import qtask.runtime
from qtask.circuit import Circuit, Gate
from qtask.runtime import (
    ANY,
    HOST,
    QPU,
    TERMINAL_STATES,
    CircuitKernel,
    HostKernel,
    TaskState,
    make_runtime,
)


def _boom(params, deps):
    raise ValueError(params)


def _runtime(qpu, host, helpers=False):
    runtime = make_runtime(qpu=qpu, host=host)
    if not helpers:
        runtime._start_helper = lambda: None  # queued tasks wait for _step
    runtime.register_host_kernel("nop", lambda p, d: p)
    runtime.register_host_kernel("boom", _boom)
    return runtime


def _step(runtime, rng) -> bool:
    """Run the first queued task of a device drawn by ``rng``, through the runtime's
    own step; False when no task is queued."""
    queued = runtime._queued
    busy = [d for d in runtime.devices if any(s[0] is d for s in queued)]
    if not busy:
        return False
    device = rng.choice(busy)
    entry = next(s for s in queued if s[0] is device)
    queued.remove(entry)
    queued.appendleft(entry)  # a step takes its graph's first queued task on a free device
    return runtime._step(entry[1])


_BELL = Circuit(2).append(Gate.h(0), Gate.cnot(0, 1), Gate.mz(0, 0), Gate.mz(1, 1))


def _kernel(kind, params):
    if kind == "sampled":
        return CircuitKernel(_BELL, shots=8)
    if kind == "exact":
        return CircuitKernel(_BELL, mode="exact")
    return HostKernel(kind, params)


def _scenario(seed):
    """(qpu, host, graphs): 1-6 graphs of 1-14 tasks, each task a (kernel kind,
    deps, device requirement), and the graphs' seeds."""
    rng = random.Random(seed)
    qpu, host = rng.randint(0, 3), rng.randint(0, 2)
    graphs = []
    for _ in range(rng.randint(1, 6)):
        tasks = []
        for i in range(rng.randint(1, 14)):
            kind = rng.choice(["nop", "nop", "boom", "sampled", "exact"])
            own = HOST if kind in ("nop", "boom") else QPU
            # a pin may name the one id past the last device, which is unknown
            reqs = [ANY, ANY, own, HOST if own == QPU else QPU, rng.randrange(qpu + host + 1)]
            deps = rng.sample(range(i), min(i, rng.randint(0, 3)))
            tasks.append((kind, deps, rng.choice(reqs)))
        graphs.append((rng.randrange(1000), tasks))
    return qpu, host, graphs


def _build(runtime, graphs):
    built = []
    for g, (seed, tasks) in enumerate(graphs):
        graph = runtime.create_graph(seed=seed)
        for i, (kind, deps, req) in enumerate(tasks):
            graph.create_task(f"t{i}", _kernel(kind, (g, i)), deps=deps, device_req=req)
        built.append(graph)
    return built


def _outcome(graphs):
    return [
        {tid: (t.state, t.result.payload, t.result.error) for tid, t in g.tasks.items()}
        for g in graphs
    ]


def _no_task_waits_beside_an_idle_device(runtime, graphs):
    queued = {id(t) for _, _, t in runtime._queued}
    idle = {d.device_class for d in runtime.devices if d.pending == 0}
    for graph in graphs:
        for task in graph.tasks.values():
            if task.state is not TaskState.READY or id(task) in queued:
                continue
            assert isinstance(task.device_req, int) or task.kernel.device_class not in idle, (
                f"{task!r} waits while a {task.kernel.device_class} device is idle"
            )


def _run_threadless(scenario, policy, seed):
    """Submit the graphs in a seeded order, running 0-3 tasks before each
    submit, then drain; under ``default`` check placement after every step.
    Returns the graphs, the order and a function that runs them all again."""
    qpu, host, specs = scenario
    runtime = _runtime(qpu, host)
    rng = random.Random(seed)
    graphs = _build(runtime, specs)
    order = _drive_threadless(runtime, graphs, policy, rng)
    return graphs, order, lambda: _drive_threadless(runtime, graphs, policy, rng)


def _drive_threadless(runtime, graphs, policy, rng):
    order = list(range(len(graphs)))
    rng.shuffle(order)
    submitted = []

    def check():
        if policy == "default":
            _no_task_waits_beside_an_idle_device(runtime, submitted)

    for i in order:
        for _ in range(rng.randint(0, 3)):
            _step(runtime, rng)
            check()
        runtime.submit(graphs[i], policy=policy)
        submitted.append(graphs[i])
        check()
    while _step(runtime, rng):
        check()
    return order


def _run_threaded(scenario, policy, order):
    qpu, host, specs = scenario
    with _runtime(qpu, host, helpers=True) as runtime:
        graphs = _build(runtime, specs)
        handles = [runtime.submit(graphs[i], policy=policy) for i in order]
        for handle in handles:
            runtime.wait(handle, timeout=30)
    return graphs


def _check_scenario(seed, policy):
    # the graphs run as the threaded run's fresh ones do; then, once they have
    # ended, each is submitted again in a new seeded interleaving and still does
    scenario = _scenario(seed)
    graphs, order, again = _run_threadless(scenario, policy, seed)
    fresh = _outcome(_run_threaded(scenario, policy, order))
    for rerun in (False, True):
        if rerun:
            again()
        for graph in graphs:
            assert all(t.state in TERMINAL_STATES for t in graph.tasks.values())
            _check_trace(graph)
        assert _outcome(graphs) == fresh


@pytest.mark.parametrize("policy", ["default", "roundrobin"])
def test_graphs_in_flight_end_and_match_a_threaded_run(policy):
    for seed in range(50):
        _check_scenario(seed, policy)


# SHA-256 over seeds 0-299 of each task's (state, error, device id) after
# _run_threadless(_scenario(seed), policy, seed): where every task ran, or why not
PLACEMENT_SHA256 = {
    "default": "b8d4d6646cb677723cf79934a44903d4fe8f5e666ae305da7f2b3cc943cb78ed",
    "roundrobin": "04e1a232e630df95494bac51ce87b5967ae7cbb206a71d14c2b48198d8072efe",
}


@pytest.mark.parametrize("policy", sorted(PLACEMENT_SHA256))
def test_placement_bytes(policy):
    digest = hashlib.sha256()
    for seed in range(300):
        graphs, _, _ = _run_threadless(_scenario(seed), policy, seed)
        for graph in graphs:
            placed = [(t.state.value, t.result.error, t.result.device_id) for t in graph.tasks.values()]
            digest.update(repr(placed).encode())
    assert digest.hexdigest() == PLACEMENT_SHA256[policy]


def _run_each(scenario, policy, sync):
    """Submit each graph in turn and run it to its end on this thread, by
    ``submit(sync=True)`` or by ``submit`` then ``wait()``; no helper starts."""
    qpu, host, specs = scenario
    runtime = _runtime(qpu, host)
    graphs = _build(runtime, specs)
    for graph in graphs:
        if sync:
            runtime.submit(graph, policy=policy, sync=True)
        else:
            runtime.wait(runtime.submit(graph, policy=policy))
    return graphs


@pytest.mark.parametrize("policy", ["default", "roundrobin"])
def test_a_sync_run_and_a_waited_run_give_one_trace(policy):
    # wait() runs its graph as submit(sync=True) does: the same steps in the same
    # order, so the same trace, payloads and devices
    for seed in range(50):
        synced, waited = (_run_each(_scenario(seed), policy, sync) for sync in (True, False))
        assert [g.trace for g in synced] == [g.trace for g in waited]
        assert _outcome(synced) == _outcome(waited)
        assert [[t.result.device_id for t in g.tasks.values()] for g in synced] == [
            [t.result.device_id for t in g.tasks.values()] for g in waited
        ]


@pytest.mark.fullscale
@pytest.mark.skipif(
    not os.environ.get("QTASK_FULL_SCALE"),
    reason="long threadless sweep; set QTASK_FULL_SCALE=1",
)
def test_graphs_in_flight_sweep():
    for seed in range(2000):
        for policy in ("default", "roundrobin"):
            _check_scenario(seed, policy)


@pytest.mark.parametrize("pinned_first", [True, False])
def test_pinned_task_occupies_its_device_as_soon_as_it_is_ready(pinned_first):
    # the unpinned task must take the other qpu, not queue behind the pin
    runtime = _runtime(qpu=2, host=0)
    graph = runtime.create_graph()
    reqs = [0, ANY] if pinned_first else [ANY, 0]
    tids = [graph.create_task(f"t{i}", _kernel("sampled", ()), device_req=r) for i, r in enumerate(reqs)]
    runtime.submit(graph)
    assert [d.pending for d in runtime.devices] == [1, 1]
    while _step(runtime, random.Random(0)):
        pass
    devices = {req: graph.tasks[tid].result.device_id for req, tid in zip(reqs, tids)}
    assert devices == {0: 0, ANY: 1}


def test_default_task_waits_while_its_device_is_busy():
    runtime = _runtime(qpu=1, host=0)
    graph = runtime.create_graph()
    first, second = (
        graph.tasks[graph.create_task(f"t{i}", _kernel("sampled", ()))] for i in range(2)
    )
    runtime.submit(graph)
    (device,) = runtime.devices
    assert list(runtime._queued) == [(device, graph, first)]
    assert second.state is TaskState.READY
    runtime._step(graph)
    assert list(runtime._queued) == [(device, graph, second)]


def test_default_tasks_take_the_lowest_id_idle_devices():
    runtime = _runtime(qpu=3, host=0)
    busy = runtime.create_graph()
    busy.create_task("t", _kernel("sampled", ()))
    runtime.submit(busy)
    graph = runtime.create_graph()
    tasks = [graph.tasks[graph.create_task(f"t{i}", _kernel("sampled", ()))] for i in range(2)]
    runtime.submit(graph)
    queued = {t.name: d.id for d, g, t in runtime._queued if g is graph}
    assert queued == {"t0": 1, "t1": 2}
    assert all(t.state is TaskState.READY for t in tasks)


def test_dispatch_cost_does_not_grow_with_graphs_in_flight(monkeypatch):
    # 100 chains wait on one host device; a dispatch that visits every graph
    # in flight looks up capable devices about 100 times per task, and one that
    # looks them up at all about once per task
    calls = []
    capable_devices = qtask.runtime._capable_devices

    def counting(devices, key):
        calls.append(key)
        return capable_devices(devices, key)

    monkeypatch.setattr(qtask.runtime, "_capable_devices", counting)
    runtime = _runtime(qpu=0, host=1)
    graphs = []
    for g in range(100):
        graph = runtime.create_graph()
        prev = []
        for i in range(10):
            prev = [graph.create_task(f"t{i}", HostKernel("nop", (g, i)), deps=prev)]
        runtime.submit(graph)
        graphs.append(graph)
    rng = random.Random(5)
    while _step(runtime, rng):
        pass
    assert all(t.state is TaskState.COMPLETED for g in graphs for t in g.tasks.values())
    # devices are looked up only when a submit plans its graph: one key each
    assert len(calls) <= 100


def _refers_to(task, graph) -> bool:
    refs = gc.get_referents(task)
    # where a task's attributes live in a __dict__, that dict is the referent
    refs += [v for r in refs if isinstance(r, dict) for v in r.values()]
    return any(r is graph for r in refs)


def test_a_task_holds_no_reference_to_its_graph():
    # the graph travels beside its tasks, through the ready heap, the run queue
    # and _step, so no task refers back to it at any point
    runtime = _runtime(qpu=0, host=1)
    graph = runtime.create_graph()
    running = []  # whether each task, while it runs, refers to its graph

    def look(params, deps):
        running.append(_refers_to(graph.tasks[params[0]], graph))

    runtime.register_host_kernel("look", look)
    tasks = [graph.tasks[graph.create_task(f"t{i}", HostKernel("look", (i,)))] for i in range(2)]
    assert not any(_refers_to(t, graph) for t in tasks)  # created
    runtime.submit(graph)
    (device,) = runtime.devices
    assert list(runtime._queued) == [(device, graph, tasks[0])]
    assert tasks[1].state is TaskState.READY  # waits in the ready heap
    assert not any(_refers_to(t, graph) for t in tasks)  # queued and waiting
    while _step(runtime, random.Random(0)):
        pass
    assert running == [False, False]
    assert graph.done() and all(t.state is TaskState.COMPLETED for t in tasks)
    assert not any(_refers_to(t, graph) for t in tasks)  # ended


def test_shutdown_fails_each_task_not_started_itself():
    # shutdown() records each unstarted task's end without the cascade of a
    # failed run, so none reads dependency-failed, whatever its place in a chain
    runtime = _runtime(qpu=0, host=1)
    graph = runtime.create_graph()
    prev = []
    for i in range(3):
        prev = [graph.create_task(f"t{i}", HostKernel("nop", (i,)), deps=prev)]
    runtime.submit(graph)
    runtime.shutdown()
    assert [(t.state, t.result.error) for t in graph.tasks.values()] == [
        (TaskState.FAILED, "runtime-shutdown")
    ] * 3
    assert graph.trace == [(i, "failed", i, None) for i in range(3)]
    (device,) = runtime.devices
    assert not runtime._queued and not runtime._step(graph)  # the queued t0 does not start
    assert device.pending == 0 and len(graph.trace) == 3
