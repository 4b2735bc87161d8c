"""Graph ingestion: the CLI's linear creation order, the id-order acyclicity
proof at submit, and one lowering and check per QIR spec per graph."""

import graphlib
import json
import os
import random
import sys
import threading

import pytest

import qtask
import qtask.runtime
from qtask import cli
from qtask.circuit import Circuit, Gate
from qtask.qir import emit_qir
from qtask.cli import TaskSpecEntry
from qtask.runtime import HostKernel, QirKernel, TaskState, make_runtime
from qtask.simulator import MAX_QUBITS, TooManyQubitsError


def _entries(named_depends):
    kernel = HostKernel("noop")
    return [TaskSpecEntry(name, kernel, tuple(deps), "any") for name, deps in named_depends]


def _random_spec(rng: random.Random, ordered: bool):
    """A random DAG as (name, depends) pairs. Names are shuffled strings, so a
    set of them iterates in hash order; ``depends`` may repeat a name. With
    ``ordered``, every task lists its dependencies earlier in the file."""
    n = rng.randint(1, 40)
    names = rng.sample([f"n{i}" for i in range(200)], n)
    spec = []
    for i, name in enumerate(names):
        deps = rng.choices(names[:i], k=rng.randint(0, min(i, 4))) if i else []
        if deps and rng.random() < 0.3:
            deps.append(deps[0])  # a duplicate counts once
        spec.append((name, deps))
    if not ordered:
        rng.shuffle(spec)
    return spec


@pytest.mark.parametrize("seed", range(200))
def test_creation_order_is_graphlib_static_order_on_ordered_files(seed):
    spec = _random_spec(random.Random(seed), ordered=True)
    expected = list(graphlib.TopologicalSorter({n: set(d) for n, d in spec}).static_order())
    assert cli._creation_order(_entries(spec)) == expected


@pytest.mark.parametrize("seed", range(50))
def test_creation_order_reads_depends_in_list_order(seed):
    # any acyclic file: graphlib's order when each task adds its depends in list order
    spec = _random_spec(random.Random(seed), ordered=False)
    sorter = graphlib.TopologicalSorter()
    for name, deps in spec:
        sorter.add(name, *dict.fromkeys(deps))
    assert cli._creation_order(_entries(spec)) == list(sorter.static_order())


def test_creation_order_rejects_a_cycle_with_duplicate_depends():
    spec = [("a", ["c"]), ("b", ["a", "a"]), ("c", ["b"]), ("d", [])]
    with pytest.raises(graphlib.CycleError):
        cli._creation_order(_entries(spec))


def _graph_file(*tasks):
    noop = {"type": "host", "name": "noop"}
    return json.dumps(
        {"devices": {"host": 1}, "tasks": [
            {"name": name, "kernel": noop, "depends": deps} for name, deps in tasks
        ]}
    )


@pytest.mark.parametrize(
    "text, error, message",
    [
        (_graph_file(("a", ["b"]), ("b", ["a"])), graphlib.CycleError, "cycle"),
        (_graph_file(("a", []), ("b", ["a", "zz"]), ("c", ["yy"]), ("d", ["zz"])),
         cli.GraphSpecError, "^task 'b' depends on unknown task 'zz'$"),
        (_graph_file(("a", ["b", "yy"]), ("b", ["zz"]), ("c", ["a"]), ("d", [])),
         cli.GraphSpecError, "^task 'a' depends on unknown task 'yy'$"),
    ],
    ids=["cycle", "unknown", "unknown-after-a-forward-name"],
)
def test_parse_graph_spec_rejects_cycles_and_unknown_dependencies_before_any_thread(
    text, error, message
):
    # the file's tasks are ordered as they are parsed, so these input errors
    # come before any runtime, and so any device thread, exists; an unknown
    # dependency is named as the first one read, tasks in file order
    threads = threading.active_count()
    with pytest.raises(error, match=message):
        cli.parse_graph_spec(text)
    assert threading.active_count() == threads


def test_parse_graph_spec_gives_the_creation_order():
    text = _graph_file(("c", ["b"]), ("a", []), ("b", ["a"]))
    spec = cli.parse_graph_spec(text)
    assert [t.name for t in spec.tasks] == ["c", "a", "b"]
    assert spec.order == ["a", "b", "c"]


class _CountingSorter(graphlib.TopologicalSorter):
    built = 0

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def counting_sorter(monkeypatch):
    _CountingSorter.built = 0
    monkeypatch.setattr(graphlib, "TopologicalSorter", _CountingSorter)
    return _CountingSorter


def test_submit_proves_id_ordered_graph_acyclic_without_graphlib(counting_sorter):
    with make_runtime(qpu=0, host=1) as runtime:
        runtime.register_host_kernel("nop", lambda p, d: p)
        graph = runtime.create_graph()
        ids = []
        for i in range(20):
            ids.append(graph.create_task(f"t{i}", HostKernel("nop", (i,)), deps=ids[-2:]))
        results = runtime.wait(runtime.submit(graph))
    assert counting_sorter.built == 0
    assert all(r.status is TaskState.COMPLETED for r in results.values())


def test_submit_falls_back_to_graphlib_for_a_dependency_on_a_later_id(counting_sorter):
    # a dependency on a higher id is not a cycle: graphlib checks it, and the
    # graph runs in dependency order
    with make_runtime(qpu=0, host=1) as runtime:
        runtime.register_host_kernel("nop", lambda p, d: sorted(d))
        graph = runtime.create_graph()
        a = graph.create_task("a", HostKernel("nop"))
        b = graph.create_task("b", HostKernel("nop"))
        c = graph.create_task("c", HostKernel("nop"), deps=[b])
        graph.tasks[a].deps = frozenset({c})
        results = runtime.wait(runtime.submit(graph))
    assert counting_sorter.built == 1
    assert all(r.status is TaskState.COMPLETED for r in results.values())
    assert results[a].payload == ["c"] and results[c].payload == ["b"]
    seq = {(event, tid): s for s, event, tid, _ in graph.trace}
    assert seq[("completed", c)] < seq[("running", a)]


def test_graph_reads_each_qir_file_once(capsys, tmp_path, monkeypatch):
    calls = []
    find = qtask.runtime.find_kernel_file

    def counting(name):
        calls.append(name)
        return find(name)

    monkeypatch.setattr(qtask.runtime, "find_kernel_file", counting)
    bell = {"type": "qir", "file": "bell.ll"}
    spec = {
        "devices": {"qpu": 1, "host": 1},
        "tasks": [
            {"name": "q0", "kernel": bell, "shots": 32},
            {"name": "h", "kernel": {"type": "host", "name": "noop"}, "depends": ["q0"]},
            {"name": "q1", "kernel": bell, "shots": 32, "depends": ["h"]},
            {"name": "q2", "kernel": bell, "shots": 32},
        ],
    }
    path = tmp_path / "three_qir.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["graph", str(path)]) == 0
    assert calls == ["bell.ll"]
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines() if not line.startswith(" ")] == [
        "q0", "h", "q1", "q2"
    ]


def test_create_task_lowers_and_checks_each_qir_spec_once(monkeypatch):
    counts = {"find": 0, "check": 0}
    find, check = qtask.runtime.find_kernel_file, qtask.runtime.check_simulable

    def counting_find(name):
        counts["find"] += 1
        return find(name)

    def counting_check(circuit):
        counts["check"] += 1
        return check(circuit)

    monkeypatch.setattr(qtask.runtime, "find_kernel_file", counting_find)
    monkeypatch.setattr(qtask.runtime, "check_simulable", counting_check)
    with make_runtime(qpu=1, host=0) as runtime:
        graph = runtime.create_graph(seed=3)
        spec = QirKernel(path="bell.ll", shots=16)
        tids = [graph.create_task(f"q{i}", spec) for i in range(3)]
        assert counts == {"find": 1, "check": 1}
        kernels = {id(graph.tasks[t].kernel) for t in tids}
        assert len(kernels) == 1  # the tasks share one circuit kernel
        # a circuit kernel given directly is checked once per content, and this
        # content was checked when the spec was lowered
        shared = graph.tasks[tids[0]].kernel
        graph.create_task("c0", shared)
        graph.create_task("c1", shared)
        assert counts["check"] == 1
        results = runtime.wait(runtime.submit(graph))
    assert all(r.status is TaskState.COMPLETED for r in results.values())
    # each task still samples from its own derived seed
    assert len({tuple(sorted(results[t].payload.counts.items())) for t in tids}) > 1


def test_create_task_raises_again_for_a_spec_that_failed_its_check():
    wide = QirKernel(source=emit_qir(Circuit(MAX_QUBITS + 6).append(Gate.h(0))))
    with make_runtime(qpu=1, host=0) as runtime:
        graph = runtime.create_graph()
        for name in ("first", "second"):
            with pytest.raises(TooManyQubitsError):
                graph.create_task(name, wide)
        assert graph.tasks == {}


# -- one kernel per distinct kernel object --------------------------------------


def _parse(*tasks):
    return cli.parse_graph_spec(json.dumps({"devices": {"qpu": 1, "host": 1}, "tasks": list(tasks)}))


def test_equal_kernel_objects_share_one_kernel():
    noop = {"type": "host", "name": "noop"}
    spec = _parse(
        {"name": "a", "kernel": noop},
        {"name": "b", "kernel": dict(noop)},
        {"name": "c", "kernel": {"name": "noop", "type": "host"}, "shots": 7},
        {"name": "d", "kernel": {"type": "host", "name": "other"}},
    )
    a, b, c, d = (t.kernel for t in spec.tasks)
    assert a is b and a == c and a != d
    assert a == HostKernel("noop")


@pytest.mark.parametrize("param, kind", [("1", int), ("true", bool), ("1.0", float)])
def test_host_params_keep_their_json_types(param, kind):
    # each task's params after a task whose params are equal in Python but not in JSON
    text = json.dumps({"devices": {"host": 1}, "tasks": [
        {"name": f"t{i}", "kernel": {"type": "host", "name": "f", "params": [p]}}
        for i, p in enumerate((1, True, 1.0))
    ]})
    spec = cli.parse_graph_spec(text.replace('"params": [1]', f'"params": [{param}]', 1))
    (p,) = spec.tasks[0].kernel.params
    assert type(p) is kind
    assert [type(t.kernel.params[0]) for t in spec.tasks[1:]] == [bool, float]


def test_a_boolean_circuit_width_after_an_integer_one_is_rejected(capsys, tmp_path):
    path = tmp_path / "widths.json"
    path.write_text(json.dumps({"devices": {"qpu": 1}, "tasks": [
        {"name": "a", "kernel": {"type": "circuit", "qubits": 1}},
        {"name": "b", "kernel": {"type": "circuit", "qubits": True}},
    ]}))
    assert cli.main(["graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: circuit kernel in task 'b' needs a positive 'qubits'\n"


def test_one_qir_file_with_different_shots_gives_distinct_kernels():
    bell = {"type": "qir", "file": "bell.ll"}
    spec = _parse(
        {"name": "a", "kernel": bell, "shots": 16},
        {"name": "b", "kernel": dict(bell), "shots": 32},
        {"name": "c", "kernel": dict(bell), "shots": 16},
    )
    a, b, c = (t.kernel for t in spec.tasks)
    assert a is c and a is not b
    assert (a.shots, b.shots) == (16, 32)


# -- Python calls per task ------------------------------------------------------


def _layered_graph_file(path, rng: random.Random, tasks=1000, width=8):
    """Layers of ``width`` tasks, each depending on two random tasks of the layer
    before; a quarter, at random places, run a shipped QIR file on the qpu, the
    rest are host no-ops."""
    qir = set(rng.sample(range(tasks), tasks // 4))
    entries, prev = [], []
    for layer in range(tasks // width):
        names = [f"t{layer}_{j}" for j in range(width)]
        for name in names:
            if len(entries) in qir:
                kernel = {"type": "qir", "file": ("bell.ll", "ghz4.ll")[len(entries) % 2]}
                task = {"name": name, "kernel": kernel, "shots": 256, "device": "qpu"}
            else:
                task = {"name": name, "kernel": {"type": "host", "name": "noop"}, "device": "host"}
            if prev:
                task["depends"] = sorted(rng.sample(prev, 2))
            entries.append(task)
        prev = names
    spec = {"seed": 7, "policy": "roundrobin", "devices": {"qpu": 1, "host": 1}, "tasks": entries}
    path.write_text(json.dumps(spec))


def test_graph_makes_few_python_calls_per_task(capsys, tmp_path):
    # counts every call of a function in qtask's files and every call made from one
    # (a dataclass __init__, an enum property, a Condition's __enter__, ...). The
    # count repeats exactly: on Python 3.11 it read 55.8 per task before equal
    # kernel objects shared a kernel and the state step got cheaper, and 33.6 after;
    # 3.12 inlines comprehensions, so it reads less
    path = tmp_path / "layered.json"
    _layered_graph_file(path, random.Random(0))
    argv = ["graph", str(path)]
    assert cli.main(argv) == 0  # warm-up: fills the exact-distribution cache
    capsys.readouterr()
    package = os.path.dirname(qtask.__file__)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and (
            frame.f_code.co_filename.startswith(package)
            or frame.f_back is not None and frame.f_back.f_code.co_filename.startswith(package)
        ):
            calls += 1

    sys.setprofile(profile)
    try:
        code = cli.main(argv)
    finally:
        sys.setprofile(None)
    assert code == 0
    out = capsys.readouterr().out
    assert sum(not line.startswith(" ") for line in out.splitlines()) == 1000
    assert calls / 1000 <= 34
