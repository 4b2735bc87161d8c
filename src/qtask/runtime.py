"""Task runtime: dependency DAGs over simulated heterogeneous devices.

Tasks carry kernels (host callbacks, QIR programs, or circuit payloads) and
are scheduled onto registered device backends by a configurable policy.
Submission and waiting may happen from any thread; state transitions are
serialized through one runtime lock, each device drains its queue on its own
worker thread, and the worker that ends a task promotes its dependents and
dispatches waiting tasks under that lock.

Data movement is modeled by DMEM objects with a clean/dirty coherence state
per location: a task reading an object on a device triggers a transfer only
when that device's copy is stale, and transfer counts are reported per task.

Determinism: kernels that sample take their seed from the kernel spec or,
when unset, derive it from (graph seed, task id), so payloads are identical
across scheduling policies and device counts.
"""

from __future__ import annotations

import enum
import functools
import graphlib
import itertools
import json
import queue
import threading
import time
from bisect import insort
from collections import OrderedDict
from dataclasses import dataclass
from heapq import heappop, heappush
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .circuit import ROTATION_KINDS, TWO_QUBIT_KINDS, Circuit, Gate, GateKind
from .qir import find_kernel_file, lower_to_circuit, output_positions, parse_qir
from .seeding import derive_seed
from .simulator import (
    ProbDist,
    ShotHistogram,
    check_simulable,
    marginalize,
    marginalize_counts,
    run_trajectory,
    sample_shots,
    simulate,
)

ANY = "any"
HOST = "host"
QPU = "qpu"

POLICIES = ("default", "roundrobin")
MAX_DEVICES = 256  # per class, from graph JSON or the CLI: each device is an OS thread

CycleError = graphlib.CycleError

_SHUTDOWN = object()


# --------------------------------------------------------------------------
# Kernel specs


@dataclass(frozen=True)
class HostKernel:
    """Registered host callback, invoked as fn(params, dep_payloads)."""

    device_class = HOST
    name: str
    params: tuple = ()


@dataclass(frozen=True)
class QirKernel:
    """QIR program given as inline text or a .ll path; sampled unless shots=0.
    ``create_task`` reads and lowers it once, to a CircuitKernel (``lower_qir``)."""

    source: str | None = None
    path: str | Path | None = None
    shots: int = 1024
    seed: int | None = None

    def __post_init__(self):
        if (self.source is None) == (self.path is None):
            raise ValueError("QirKernel needs exactly one of source or path")
        if self.shots < 0:
            raise ValueError("shots must be non-negative")


@dataclass(frozen=True)
class CircuitKernel:
    device_class = QPU
    circuit: Circuit
    shots: int = 1024
    seed: int | None = None
    mode: str = "sampled"
    positions: tuple[int, ...] | None = None  # set by lower_qir: the program's output_positions

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be exact or sampled, got {self.mode!r}")
        if self.shots < 0:
            raise ValueError("shots must be non-negative")
        if self.positions is not None:  # part of the exact cache's key, so hashable
            object.__setattr__(self, "positions", tuple(self.positions))


@dataclass(frozen=True)
class NamedKernel:
    """Kernel given by name, resolved by ``TaskGraph.create_task``: names
    ending in .ll become a QirKernel on that path, read and lowered there to
    a CircuitKernel; anything else becomes a HostKernel, looked up in the
    registry at dispatch."""

    name: str
    shots: int = 1024
    params: tuple = ()
    seed: int | None = None


KernelSpec = HostKernel | QirKernel | CircuitKernel | NamedKernel


# --------------------------------------------------------------------------
# Tasks and graphs


class TaskState(enum.Enum):
    CREATED = "created"
    SUBMITTED = "submitted"
    READY = "ready"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


TERMINAL_STATES = frozenset({TaskState.COMPLETED, TaskState.FAILED})

_ALLOWED_TRANSITIONS = {
    TaskState.CREATED: {TaskState.SUBMITTED},
    TaskState.SUBMITTED: {TaskState.READY, TaskState.FAILED},
    TaskState.READY: {TaskState.RUNNING, TaskState.FAILED},
    TaskState.RUNNING: {TaskState.COMPLETED, TaskState.FAILED},
}


@dataclass(frozen=True)
class TaskResult:
    status: TaskState
    payload: Any = None
    error: str | None = None
    device_id: int | None = None
    transfer_count: int = 0


class Task:
    def __init__(self, task_id, name, kernel, deps, device_req, reads, writes):
        self.id = task_id
        self.name = name
        self.kernel = kernel
        self.deps: frozenset[int] = frozenset(deps)
        self.device_req = device_req
        self.reads = tuple(reads)
        self.writes = tuple(writes)
        self.graph: "TaskGraph | None" = None
        self.state = TaskState.CREATED
        self.result: TaskResult | None = None
        self.remaining_deps = 0
        self.running_seq: int | None = None
        self.terminal_seq: int | None = None

    def __repr__(self):
        return f"Task(id={self.id}, name={self.name!r}, state={self.state.value})"


class TaskGraph:
    def __init__(self, runtime: "Runtime", graph_id: int, seed: int):
        self._runtime = runtime
        self.graph_id = graph_id
        self.seed = seed
        self.tasks: dict[int, Task] = {}
        self._by_name: dict[str, int] = {}
        self.dependents: dict[int, list[int]] = {}
        # task id -> device fixed at submit by _plan (None: no capable device)
        self.plan: dict[int, DeviceBackend | None] = {}
        self.submitted = False
        self._order = 0  # submit order among the runtime's graphs, set by submit
        self.trace: list[tuple[int, str, int, int | None]] = []
        self._seq = itertools.count()
        self._unfinished = 0  # tasks not yet completed or failed

    def create_task(
        self,
        name: str,
        kernel: KernelSpec | str,
        deps: Iterable[int] = (),
        device_req: str | int = ANY,
        reads: Iterable["MemObject"] = (),
        writes: Iterable["MemObject"] = (),
    ) -> int:
        """Add a task in Created state; returns its id. QIR lowering and qpu checks raise here."""
        if self.submitted:
            raise ValueError("graph already submitted")
        if name in self._by_name:
            raise ValueError(f"duplicate task name {name!r}")
        if isinstance(kernel, str):
            kernel = NamedKernel(kernel)
        if isinstance(kernel, NamedKernel):
            if kernel.name.endswith(".ll"):
                kernel = QirKernel(path=kernel.name, shots=kernel.shots, seed=kernel.seed)
            else:
                kernel = HostKernel(kernel.name, kernel.params)
        if isinstance(kernel, QirKernel):
            kernel = lower_qir(kernel)
        if isinstance(kernel, CircuitKernel):
            check_simulable(kernel.circuit)  # a qpu runs statevector only
        if not isinstance(kernel, (HostKernel, CircuitKernel)):
            raise ValueError(f"not a kernel spec: {kernel!r}")
        if not (device_req in (ANY, HOST, QPU) or isinstance(device_req, int)):
            raise ValueError(f"invalid device requirement {device_req!r}")
        deps = frozenset(deps)
        for d in deps:
            if d not in self.tasks:
                raise ValueError(f"unknown dependency id {d}")
        task_id = len(self.tasks)
        task = Task(task_id, name, kernel, deps, device_req, reads, writes)
        task.graph = self
        self.tasks[task_id] = task
        self._by_name[name] = task_id
        self._unfinished += 1
        return task_id

    def task_id_by_name(self, name: str) -> int:
        return self._by_name[name]

    def derived_seed(self, task: Task) -> int:
        return derive_seed(self.seed, task.id)

    def all_terminal(self) -> bool:
        return self._unfinished == 0

    def _record(self, event: str, task: Task, device_id: int | None) -> int:
        seq = next(self._seq)
        self.trace.append((seq, event, task.id, device_id))
        return seq


@dataclass
class GraphHandle:
    runtime: "Runtime"
    graph: TaskGraph

    def wait(self, timeout: float | None = None) -> dict[int, TaskResult]:
        return self.runtime.wait(self, timeout=timeout)

    def done(self) -> bool:
        with self.runtime._cond:
            return self.graph.all_terminal()


# --------------------------------------------------------------------------
# DMEM


class MemObject:
    """Runtime-managed buffer with one clean copy per location.

    ``_copies`` maps each location holding a clean copy (a device id, or
    None for the host) to its bytes. A write leaves only the writer's copy;
    a read where no copy is held copies any entry and counts a transfer.
    The map starts with the zeroed host copy, so it is never empty.
    """

    def __init__(self, obj_id: int, size: int):
        self.id = obj_id
        self.size = size
        self._copies: dict[int | None, bytes] = {None: bytes(size)}
        self._alive = True
        self.transfer_count = 0

    def _check_alive(self):
        if not self._alive:
            raise ValueError(f"mem object {self.id} used after free")

    def _ensure_clean(self, loc: int | None) -> int:
        """Give ``loc`` a clean copy; returns the transfers made (0 or 1)."""
        self._check_alive()
        if loc in self._copies:
            return 0
        self._copies[loc] = next(iter(self._copies.values()))
        self.transfer_count += 1
        return 1

    def _write(self, loc: int | None, data: bytes):
        self._check_alive()
        if len(data) != self.size:
            raise ValueError(f"size mismatch: object holds {self.size} bytes, got {len(data)}")
        self._copies = {loc: bytes(data)}


# --------------------------------------------------------------------------
# Devices


class DeviceBackend:
    """In-process device worker: single queue, one task at a time."""

    device_class = ""

    def __init__(self, device_id: int):
        self.id = device_id
        self.pending = 0  # assigned (queued or running), guarded by runtime lock
        self.running = 0
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._thread: threading.Thread | None = None

    def _start(self, runtime: "Runtime"):
        self._thread = threading.Thread(
            target=self._loop,
            args=(runtime,),
            daemon=True,
            name=f"{self.device_class}-device-{self.id}",
        )
        self._thread.start()

    def _loop(self, runtime: "Runtime"):
        while True:
            task = self._queue.get()
            if task is _SHUTDOWN:
                return
            runtime._execute_on(self, task)

    def _stop(self):
        self._queue.put(_SHUTDOWN)
        if self._thread is not None:
            self._thread.join(timeout=10)

    def run_kernel(self, task: Task, graph: TaskGraph, runtime: "Runtime"):
        raise NotImplementedError


# Pure qpu work is done once per distinct input, for every runtime and thread.
_LOWERED_PROGRAMS = 256  # QIR texts whose lowering is kept
_EXACT_OUTCOMES = 1 << 14  # outcomes the exact-distribution cache holds over all entries


@functools.lru_cache(maxsize=_LOWERED_PROGRAMS)
def _lowered(text: str) -> tuple[Circuit, tuple[int, ...] | None]:
    prog = parse_qir(text)
    circuit = lower_to_circuit(prog)  # rejects recorded slots that are never measured
    positions = output_positions(prog)
    return circuit, None if positions is None else tuple(positions)


def lower_qir(spec: QirKernel) -> CircuitKernel:
    """Read, parse and lower a QIR kernel; ``shots == 0`` means the exact distribution.
    Each program text is lowered once; every kernel gets its own copy of the circuit."""
    circuit, positions = _lowered(
        spec.source if spec.path is None else find_kernel_file(spec.path).read_text()
    )
    mode = "exact" if spec.shots == 0 else "sampled"
    return CircuitKernel(circuit.copy(), spec.shots, spec.seed, mode, positions)


class _ExactCache:
    """Exact distributions by circuit content and output positions, holding at most
    ``limit`` outcomes over all entries: the least recently used go first, and a
    wider distribution is never kept. Held distributions are read-only, so their
    sampling tables are kept too. Safe to use from several qpu worker threads."""

    def __init__(self, limit: int):
        self.limit = limit
        self.held = 0  # outcomes over all entries
        self._dists: OrderedDict[tuple, ProbDist] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, circuit: Circuit, positions: tuple[int, ...] | None) -> ProbDist:
        key = (circuit.num_qubits, tuple(circuit.ops), positions)
        with self._lock:
            dist = self._dists.get(key)
            if dist is not None:
                self._dists.move_to_end(key)
                return dist
        _, dist = simulate(circuit)
        if positions is not None:
            dist = marginalize(dist, positions)
        dist.probabilities = MappingProxyType(dist.probabilities)
        size = len(dist.probabilities)
        with self._lock:
            if size <= self.limit and key not in self._dists:
                self._dists[key] = dist
                self.held += size
                while self.held > self.limit:
                    self.held -= len(self._dists.popitem(last=False)[1].probabilities)
        return dist


_EXACT = _ExactCache(_EXACT_OUTCOMES)


def run_qir(spec: CircuitKernel, seed: int, accelerator="statevector") -> ProbDist | ShotHistogram:
    """The one execution path of qpu tasks and ``qtask exec``: statevector returns the
    exact distribution in ``exact`` mode; otherwise both accelerators sample from ``seed``."""
    if accelerator not in ("statevector", "trajectory"):
        raise ValueError(f"unknown accelerator {accelerator!r}")
    if accelerator == "trajectory":
        hist = run_trajectory(spec.circuit, spec.shots, seed)
        return hist if spec.positions is None else marginalize_counts(hist, spec.positions)
    dist = _EXACT.get(spec.circuit, spec.positions)
    if spec.mode == "exact":  # the payload is the caller's to change
        return ProbDist(dist.measured_qubits, dict(dist.probabilities))
    return sample_shots(dist, spec.shots, seed)


class QpuDevice(DeviceBackend):
    """Simulated QPU: runs CircuitKernels (QIR arrives lowered) through run_qir."""

    device_class = QPU

    def run_kernel(self, task, graph, runtime):
        seed = task.kernel.seed
        return run_qir(task.kernel, graph.derived_seed(task) if seed is None else seed)


class HostDevice(DeviceBackend):
    """Host callback executor for registered classical kernels."""

    device_class = HOST

    def run_kernel(self, task, graph, runtime):
        spec = task.kernel
        fn = runtime._host_kernels.get(spec.name)
        if fn is None:
            raise RuntimeError(f"unknown-kernel: {spec.name!r} is not registered")
        deps = {graph.tasks[d].name: graph.tasks[d].result.payload for d in sorted(task.deps)}
        return fn(spec.params, deps)


# --------------------------------------------------------------------------
# Scheduling


def _placement_key(task: Task) -> tuple[str, str | int]:
    """Which tasks are interchangeable for placement: (kernel class, requirement),
    where a requirement naming the kernel's own class counts as ``any``."""
    kind, req = task.kernel.device_class, task.device_req
    return kind, ANY if req == kind else req


def _capable_devices(devices: Iterable[DeviceBackend], key: tuple[str, str | int]):
    """Devices, in the given order, of class ``key[0]`` that meet the requirement
    ``key[1]`` of a ``_placement_key``: ``any`` or the device's id."""
    kind, req = key
    return [d for d in devices if d.device_class == kind and req in (ANY, d.id)]


def _plan(tasks: Iterable[Task], devices: Sequence[DeviceBackend], policy: str):
    """Devices fixed at submit, by task id; None (no capable device) fails a task
    once ready. In task order each ``_placement_key`` takes turns over its capable
    devices, whatever their load; a pin is a key with one. Under ``default`` an
    unpinned task of a class with a device is left out, to wait for an idle one."""
    plan: dict[int, DeviceBackend | None] = {}
    turns: dict[tuple[str, str | int], Iterator[DeviceBackend] | None] = {}
    for task in tasks:
        key = _placement_key(task)
        if key not in turns:  # one lookup per key
            caps = _capable_devices(devices, key)
            turns[key] = itertools.cycle(caps) if caps else None
        turn = turns[key]
        if turn is None or policy == "roundrobin" or key[1] != ANY:
            plan[task.id] = None if turn is None else next(turn)
    return plan


# --------------------------------------------------------------------------
# Runtime


class Runtime:
    """Coordinator owning devices, host-kernel registry, and DMEM objects."""

    def __init__(self):
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._devices: dict[int, DeviceBackend] = {}
        self._by_class: dict[str, list[DeviceBackend]] = {}  # each class's devices by id
        self._host_kernels: dict[str, Callable] = {}
        self._graph_count = itertools.count()
        self._mem_count = itertools.count()
        self._active: dict[int, TaskGraph] = {}  # submitted graphs not yet ended
        self._submits = itertools.count()
        # unplanned ready tasks of all graphs, one (graph._order, id, task) heap per device class
        self._ready: dict[str, list[tuple[int, int, Task]]] = {}
        self._closed = False

    # -- registries

    def register_device(self, backend: DeviceBackend) -> int:
        with self._cond:
            if self._closed:
                raise ValueError("runtime is shut down")
            if backend.id in self._devices:
                raise ValueError(f"duplicate device id {backend.id}")
            self._devices[backend.id] = backend
            insort(self._by_class.setdefault(backend.device_class, []), backend, key=lambda d: d.id)
        backend._start(self)
        return backend.id

    @property
    def devices(self) -> list[DeviceBackend]:
        return list(self._devices.values())

    def register_host_kernel(self, name: str, fn: Callable) -> None:
        with self._cond:
            if name in self._host_kernels:
                raise ValueError(f"host kernel {name!r} already registered")
            self._host_kernels[name] = fn

    def has_host_kernel(self, name: str) -> bool:
        return name in self._host_kernels

    # -- graphs

    def create_graph(self, seed: int = 0) -> TaskGraph:
        return TaskGraph(self, next(self._graph_count), seed)

    def submit(self, graph: TaskGraph, policy: str = "default", sync: bool = False) -> GraphHandle:
        """Mark all tasks Submitted, promote dependency-free ones, dispatch.

        A cycle is rejected before any task changes state. With sync=True the
        call blocks until the graph is terminal.
        """
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        if graph._runtime is not self:
            raise ValueError("graph belongs to a different runtime")
        with self._cond:
            if self._closed:
                raise ValueError("runtime is shut down")
            if graph.submitted:
                raise ValueError("graph already submitted")
            sorter = graphlib.TopologicalSorter(
                {tid: set(t.deps) for tid, t in graph.tasks.items()}
            )
            sorter.prepare()  # raises graphlib.CycleError before any state change

            graph.submitted = True
            graph._order = next(self._submits)
            # in id order, so placement does not depend on the order in which
            # tasks become ready
            graph.plan = _plan(graph.tasks.values(), self.devices, policy)
            graph.dependents = {tid: [] for tid in graph.tasks}
            for task in graph.tasks.values():
                self._set_state(task, TaskState.SUBMITTED)
                task.remaining_deps = len(task.deps)
                for d in task.deps:
                    graph.dependents[d].append(task.id)
            if graph.tasks:
                self._active[graph.graph_id] = graph
            for task in graph.tasks.values():
                if task.remaining_deps == 0:
                    self._make_ready(graph, task)
            self._dispatch()
        handle = GraphHandle(self, graph)
        if sync:
            self.wait(handle)
        return handle

    def wait(self, handle: GraphHandle, timeout: float | None = None) -> dict[int, TaskResult]:
        """Block until the graph is terminal; idempotent.

        With a timeout, returns a snapshot of the results produced so far.
        """
        graph = handle.graph
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not graph.all_terminal():
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(remaining)
            return {tid: t.result for tid, t in graph.tasks.items() if t.result is not None}

    # -- DMEM

    def dmem_create(self, nbytes: int) -> MemObject:
        if nbytes < 0:
            raise ValueError("size must be non-negative")
        return MemObject(next(self._mem_count), nbytes)

    def dmem_write_host(self, obj: MemObject, data: bytes) -> None:
        with self._cond:
            obj._write(None, data)

    def dmem_read_host(self, obj: MemObject) -> bytes:
        with self._cond:
            obj._ensure_clean(None)
            return obj._copies[None]

    def dmem_free(self, obj: MemObject) -> None:
        with self._cond:
            obj._check_alive()
            obj._alive = False

    # -- lifecycle

    def shutdown(self):
        """Stop the device workers. Tasks of submitted graphs that have not
        started running fail with ``runtime-shutdown``, so every graph ends and
        every ``wait()`` returns; a task already running finishes normally."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._ready.clear()
            for graph in list(self._active.values()):
                for task in graph.tasks.values():
                    if task.state in (TaskState.SUBMITTED, TaskState.READY):
                        self._mark_failed(graph, task, "runtime-shutdown")
            self._cond.notify_all()
            devices = list(self._devices.values())
        for d in devices:
            d._stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False

    # -- internals (these run under self._cond unless noted)

    def _set_state(self, task: Task, new: TaskState):
        allowed = _ALLOWED_TRANSITIONS.get(task.state, frozenset())
        if new not in allowed:
            raise AssertionError(
                f"illegal transition {task.state.value} -> {new.value} for {task!r}"
            )
        task.state = new
        if new in TERMINAL_STATES:
            graph = task.graph
            graph._unfinished -= 1
            if graph._unfinished == 0:
                # the graph has ended: forget it and wake its waiters
                del self._active[graph.graph_id]
                self._cond.notify_all()

    def _make_ready(self, graph: TaskGraph, task: Task):
        # a task with a planned device is queued at once, so it occupies that
        # device; the others wait in their class's ready heap for _dispatch
        self._set_state(task, TaskState.READY)
        if task.id in graph.plan:
            self._place(graph, task, graph.plan[task.id])
        else:
            heappush(self._ready.setdefault(task.kernel.device_class, []), (graph._order, task.id, task))

    def _place(self, graph: TaskGraph, task: Task, device: DeviceBackend | None):
        if device is None:
            self._fail_task(graph, task, None, "no-capable-device", 0)
            return
        device.pending += 1
        device._queue.put(task)

    def _dispatch(self):
        # each idle device, lowest id first, takes the head of its class's heap;
        # every task there has a capable device, as _plan fixed the others
        for kind, heap in self._ready.items():
            if heap:
                for device in [d for d in self._by_class[kind] if d.pending == 0][:len(heap)]:
                    task = heappop(heap)[2]
                    self._place(task.graph, task, device)

    def _finish(self, graph: TaskGraph, task: Task, result: TaskResult):
        self._set_state(task, result.status)
        task.result = result
        task.terminal_seq = graph._record(result.status.value, task, result.device_id)

    def _complete_task(self, graph: TaskGraph, task: Task, device, payload, transfers):
        result = TaskResult(TaskState.COMPLETED, payload, device_id=device.id, transfer_count=transfers)
        self._finish(graph, task, result)
        # ascending id, so queue and failure order follow task ids
        for dep_id in graph.dependents.get(task.id, ()):
            dependent = graph.tasks[dep_id]
            dependent.remaining_deps -= 1
            if dependent.remaining_deps == 0 and dependent.state is TaskState.SUBMITTED:
                self._make_ready(graph, dependent)

    def _mark_failed(self, graph: TaskGraph, task: Task, error: str, device_id=None, transfers=0):
        self._finish(graph, task, TaskResult(TaskState.FAILED, None, error, device_id, transfers))

    def _fail_task(self, graph: TaskGraph, task: Task, device, error: str, transfers: int):
        self._mark_failed(graph, task, error, None if device is None else device.id, transfers)
        # fail-fast: transitive dependents never run
        stack = list(graph.dependents.get(task.id, ()))
        while stack:
            dep_id = stack.pop()
            dependent = graph.tasks[dep_id]
            if dependent.state in TERMINAL_STATES:
                continue
            self._mark_failed(graph, dependent, "dependency-failed")
            stack.extend(graph.dependents.get(dep_id, ()))

    def _prepare_reads(self, task: Task, device: DeviceBackend) -> int:
        if not task.reads:
            return 0
        with self._cond:
            return sum(obj._ensure_clean(device.id) for obj in task.reads)

    def _commit_writes(self, task: Task, device: DeviceBackend, payload):
        if not task.writes:
            return
        if not isinstance(payload, (bytes, bytearray)):
            raise RuntimeError("tasks declaring writes must return a bytes payload")
        with self._cond:
            for obj in task.writes:
                obj._write(device.id, payload)

    def _execute_on(self, device: DeviceBackend, task: Task):
        # runs on the device worker thread
        graph = task.graph
        with self._cond:
            if task.state in TERMINAL_STATES:  # failed by shutdown() while queued
                device.pending -= 1
                return
            self._set_state(task, TaskState.RUNNING)
            device.running += 1
            if device.running != 1:
                raise AssertionError(f"device {device.id} double occupancy")
            task.running_seq = graph._record("running", task, device.id)
        transfers, error = 0, None
        try:
            transfers = self._prepare_reads(task, device)
            payload = device.run_kernel(task, graph, self)
            self._commit_writes(task, device, payload)
        # whatever the kernel raised (SystemExit too) fails the task and the worker
        # lives on; signals such as KeyboardInterrupt only reach the main thread
        except BaseException as exc:
            error = f"{type(exc).__name__}: {exc}"
        with self._cond:
            device.running -= 1
            device.pending -= 1
            if error is None:
                self._complete_task(graph, task, device, payload, transfers)
            else:
                self._fail_task(graph, task, device, error, transfers)
            self._dispatch()  # the freed device may take a waiting task of any graph


def make_runtime(qpu: int = 1, host: int = 1) -> Runtime:
    """Runtime with qpu devices ids 0..qpu-1 and host devices after them."""
    runtime = Runtime()
    for i in range(qpu + host):
        runtime.register_device(QpuDevice(i) if i < qpu else HostDevice(i))
    return runtime


# --------------------------------------------------------------------------
# Graph JSON


class GraphSpecError(ValueError):
    pass


@dataclass
class TaskSpecEntry:
    name: str
    kernel: KernelSpec
    depends: tuple[str, ...]
    device: str | int


@dataclass
class GraphSpec:
    seed: int
    policy: str
    qpu: int
    host: int
    tasks: list[TaskSpecEntry]


_TOP_FIELDS = {"seed", "policy", "devices", "tasks"}
_DEVICE_FIELDS = {"qpu", "host"}
_TASK_FIELDS = {"name", "kernel", "shots", "depends", "device"}
_KERNEL_FIELDS = {
    "qir": {"type", "file", "source"},
    "host": {"type", "name", "params"},
    "circuit": {"type", "qubits", "gates", "mode"},
}

# gate name -> (constructor, argument count, whether the last argument is an
# angle): the qubits, then an angle or a result slot
_JSON_GATES: dict[str, tuple[Callable, int, bool]] = {
    kind.value: (
        getattr(Gate, kind.value),
        (2 if kind in TWO_QUBIT_KINDS else 1) + (kind in ROTATION_KINDS or kind is GateKind.MZ),
        kind in ROTATION_KINDS,
    )
    for kind in GateKind
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _reject_unknown(obj: Mapping, allowed: set[str], where: str):
    for key in obj:
        if key not in allowed:
            raise GraphSpecError(f"unknown field {key!r} in {where}")


def _json_circuit(spec: Mapping, where: str) -> Circuit:
    qubits = spec.get("qubits")
    if not _is_int(qubits) or qubits < 1:
        raise GraphSpecError(f"circuit kernel in {where} needs a positive 'qubits'")
    gates = spec.get("gates", [])
    if not isinstance(gates, list):
        raise GraphSpecError(f"'gates' of the circuit kernel in {where} must be a list")
    circuit = Circuit(qubits)
    for entry in gates:
        if not isinstance(entry, list) or not entry or entry[0] not in _JSON_GATES:
            raise GraphSpecError(f"bad gate entry {entry!r} in {where}")
        ctor, arity, angle = _JSON_GATES[entry[0]]
        args = entry[1:]
        if len(args) != arity:
            raise GraphSpecError(
                f"gate {entry[0]!r} in {where} expects {arity} argument(s), got {len(args)}"
            )
        if any(isinstance(a, bool) for a in args):
            raise GraphSpecError(f"bad gate entry {entry!r} in {where}: boolean operand")
        ints = args[:-1] if angle else args
        if not all(map(_is_int, ints)) or angle and not isinstance(args[-1], (int, float)):
            raise GraphSpecError(f"bad gate entry {entry!r} in {where}: qubits and result "
                                 "slots must be integers, an angle a number")
        try:
            circuit.append(ctor(*args))
        except (TypeError, ValueError) as exc:
            raise GraphSpecError(f"bad gate entry {entry!r} in {where}: {exc}") from exc
    return circuit


def _json_kernel(spec, shots: int, where: str) -> KernelSpec:
    if not isinstance(spec, Mapping):
        raise GraphSpecError(f"kernel in {where} must be an object")
    ktype = spec.get("type")
    if ktype not in _KERNEL_FIELDS:
        raise GraphSpecError(
            f"kernel in {where} has unknown type {ktype!r}; expected qir, host, or circuit"
        )
    _reject_unknown(spec, _KERNEL_FIELDS[ktype], f"{where} kernel")
    if ktype == "qir":
        file, source = spec.get("file"), spec.get("source")
        if (file is None) == (source is None):
            raise GraphSpecError(f"qir kernel in {where} needs exactly one of file or source")
        return QirKernel(source=source, path=file, shots=shots)
    if ktype == "host":
        name = spec.get("name")
        if not isinstance(name, str):
            raise GraphSpecError(f"host kernel in {where} needs a string 'name'")
        params = spec.get("params", [])
        if not isinstance(params, list):
            raise GraphSpecError(f"host kernel params in {where} must be a list")
        return HostKernel(name, tuple(params))
    mode = spec.get("mode", "sampled")
    if mode not in ("exact", "sampled"):
        raise GraphSpecError(f"circuit kernel mode in {where} must be exact or sampled")
    return CircuitKernel(_json_circuit(spec, where), shots=shots, mode=mode)


def parse_graph_spec(text: str) -> GraphSpec:
    """Validate and load the graph JSON format. Unknown fields are rejected."""
    obj = json.loads(text)
    if not isinstance(obj, Mapping):
        raise GraphSpecError("graph spec must be a JSON object")
    _reject_unknown(obj, _TOP_FIELDS, "graph spec")

    seed = obj.get("seed", 0)
    if not _is_int(seed):
        raise GraphSpecError("'seed' must be an integer")
    policy = obj.get("policy", "default")
    if policy not in POLICIES:
        raise GraphSpecError(f"'policy' must be default or roundrobin, got {policy!r}")

    devices = obj.get("devices")
    if not isinstance(devices, Mapping):
        raise GraphSpecError("missing or invalid 'devices' object")
    _reject_unknown(devices, _DEVICE_FIELDS, "devices")
    qpu = devices.get("qpu", 0)
    host = devices.get("host", 0)
    for key, count in (("qpu", qpu), ("host", host)):
        if not _is_int(count) or not 0 <= count <= MAX_DEVICES:
            raise GraphSpecError(f"device count {key!r} must be an integer in 0..{MAX_DEVICES}")

    raw_tasks = obj.get("tasks")
    if not isinstance(raw_tasks, list):
        raise GraphSpecError("missing or invalid 'tasks' list")

    names: set[str] = set()
    entries: list[TaskSpecEntry] = []
    for i, raw in enumerate(raw_tasks):
        where = f"task #{i}"
        if not isinstance(raw, Mapping):
            raise GraphSpecError(f"{where} must be an object")
        _reject_unknown(raw, _TASK_FIELDS, where)
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise GraphSpecError(f"{where} needs a non-empty string 'name'")
        if name in names:
            raise GraphSpecError(f"duplicate task name {name!r}")
        names.add(name)
        where = f"task {name!r}"
        shots = raw.get("shots", 1024)
        if not _is_int(shots) or shots < 0:
            raise GraphSpecError(f"'shots' in {where} must be a non-negative integer")
        depends = raw.get("depends", [])
        if not isinstance(depends, list) or not all(isinstance(d, str) for d in depends):
            raise GraphSpecError(f"'depends' in {where} must be a list of task names")
        device = raw.get("device", ANY)
        if not (device in (ANY, HOST, QPU) or _is_int(device)):
            raise GraphSpecError(f"'device' in {where} must be any, qpu, host, or an id")
        kernel = _json_kernel(raw.get("kernel"), shots, where)
        entries.append(TaskSpecEntry(name, kernel, tuple(depends), device))

    for entry in entries:
        for dep in entry.depends:
            if dep not in names:
                raise GraphSpecError(f"task {entry.name!r} depends on unknown task {dep!r}")

    return GraphSpec(seed=seed, policy=policy, qpu=qpu, host=host, tasks=entries)
