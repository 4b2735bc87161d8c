"""Task runtime: dependency DAGs over simulated heterogeneous devices.

Tasks carry kernels (host callbacks, QIR programs, or circuit payloads) and
are scheduled onto registered device backends by a configurable policy.
Submission and waiting may happen from any thread; state transitions are
serialized through one runtime lock. Every placed task joins one run queue,
and ``Runtime._step``, the only way a task runs, begins the first queued task
whose device is free in the lock hold that takes it, runs its kernel, then
ends it (``_end`` promotes or fails its dependents). ``submit(sync=True)`` and
``wait()`` without a timeout run steps of their graph on the calling thread;
helper threads run steps until ``shutdown()``, of any graph with no idle
caller (a ``wait()`` caller inside a host kernel is not idle), one starting
only when such a task is runnable on a free device and no helper is idle.

Data movement is modeled by DMEM objects with a clean/dirty coherence state
per location: a task reading an object on a device triggers a transfer only
when that device's copy is stale, and transfer counts are reported per task.

Determinism: kernels that sample take their seed from the kernel spec or,
when unset, derive it from (graph seed, task id), so payloads are identical
across scheduling policies and device counts. ``submit`` fixes each sampled
qpu task's seed and hashes the graph's seeds in one pass (``seed_states``).
A graph that has ended may be submitted again, with the same or a new seed,
and runs as a fresh graph with that seed would, without being rebuilt.
"""

from __future__ import annotations

import enum
import graphlib
import itertools
import threading
import time
from bisect import insort
from collections import OrderedDict, deque
from dataclasses import dataclass
from heapq import heappop, heappush
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Sequence

from .circuit import Circuit
from .qir import find_kernel_file, lower_to_circuit, output_positions, parse_qir
from .seeding import seed_deriver, seed_states
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
# per class, from graph JSON or the CLI: a step and _dispatch scan the devices as each
# task ends, and up to one helper thread may run per busy device
MAX_DEVICES = 256

CycleError = graphlib.CycleError


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
    ``create_task`` reads and lowers each spec once per graph, to the
    CircuitKernel that every task naming it shares (``lower_qir``)."""

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


KernelSpec = HostKernel | QirKernel | CircuitKernel


# --------------------------------------------------------------------------
# Tasks and graphs


class TaskState(enum.Enum):
    CREATED = "created"
    SUBMITTED = "submitted"
    READY = "ready"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


# tuples, not sets: membership compares by identity, where a set would call the
# Python-level Enum.__hash__ on every task transition
TERMINAL_STATES = (TaskState.COMPLETED, TaskState.FAILED)

_ALLOWED_TRANSITIONS = (
    (TaskState.CREATED, TaskState.SUBMITTED),
    (TaskState.SUBMITTED, TaskState.READY),
    (TaskState.SUBMITTED, TaskState.FAILED),
    (TaskState.READY, TaskState.RUNNING),
    (TaskState.READY, TaskState.FAILED),
    (TaskState.RUNNING, TaskState.COMPLETED),
    (TaskState.RUNNING, TaskState.FAILED),
)
# each state's value -> the states it may move to: a str key hashes in C
_NEXT_STATES = {
    old.value: tuple(new for o, new in _ALLOWED_TRANSITIONS if o is old) for old in TaskState
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
        self.deps: frozenset[int] = deps  # built once, by create_task
        self.device_req = device_req
        self.reads = tuple(reads)
        self.writes = tuple(writes)
        self.state = TaskState.CREATED
        self.result: TaskResult | None = None
        self.remaining_deps = 0
        # a sampled qpu task's seed and its SeedState (None: default_rng(seed)), set by submit
        self.seed: int | None = None
        self.seed_state = None

    def __repr__(self):
        return f"Task(id={self.id}, name={self.name!r}, state={self.state.value})"


class TaskGraph:
    def __init__(self, runtime: "Runtime", seed: int):
        self._runtime = runtime
        self.seed = seed
        self.tasks: dict[int, Task] = {}
        self._by_name: dict[str, int] = {}
        self._kernels: dict[QirKernel, CircuitKernel] = {}  # each QIR spec, lowered
        self._checked: set[str] = set()  # content keys of circuits that passed check_simulable
        self.dependents: dict[int, list[int]] = {}
        # task id -> device fixed at submit by _plan (None: no capable device)
        self.plan: dict[int, DeviceBackend | None] = {}
        self._order: int | None = None  # submit rank among the runtime's graphs, set by submit
        # threads running it and not inside its kernels (submit(sync=True) never leaves,
        # wait() leaves for each host kernel); helpers leave its tasks while there are any
        self._callers: set[int] = set()
        # the one record of run order: (seq, event, task id, device id), seq being the
        # entry's index; a task has a "running" entry if it ran, then a terminal one
        self.trace: list[tuple[int, str, int, int | None]] = []
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
        """Add a task in Created state; returns its id. QIR lowering and qpu checks
        raise here; each QIR spec is lowered, and each circuit content checked, once."""
        if self._order is not None:
            raise ValueError("graph already submitted")
        if name in self._by_name:
            raise ValueError(f"duplicate task name {name!r}")
        if isinstance(kernel, str):
            kernel = QirKernel(path=kernel) if kernel.endswith(".ll") else HostKernel(kernel)
        if isinstance(kernel, QirKernel):
            lowered = self._kernels.get(kernel)
            if lowered is None:
                lowered = self._kernels[kernel] = lower_qir(kernel)
            kernel = lowered
        if isinstance(kernel, CircuitKernel):
            # a qpu runs statevector only; a circuit grown by append has a new key
            key = kernel.circuit.content_key()
            if key not in self._checked:
                check_simulable(kernel.circuit)
                self._checked.add(key)  # only once it passes
        elif not isinstance(kernel, HostKernel):
            raise ValueError(f"not a kernel spec: {kernel!r}")
        if not (device_req in (ANY, HOST, QPU) or isinstance(device_req, int)):
            raise ValueError(f"invalid device requirement {device_req!r}")
        deps = frozenset(deps)
        if not deps <= self.tasks.keys():
            unknown = next(d for d in deps if d not in self.tasks)
            raise ValueError(f"unknown dependency id {unknown}")
        task_id = len(self.tasks)
        self.tasks[task_id] = Task(task_id, name, kernel, deps, device_req, reads, writes)
        self._by_name[name] = task_id
        self._unfinished += 1
        return task_id

    def task_id_by_name(self, name: str) -> int:
        return self._by_name[name]

    def done(self) -> bool:
        """Whether every task has completed or failed."""
        with self._runtime._lock:
            return self._unfinished == 0

    def _record(self, event: str, task: Task, device_id: int | None):
        self.trace.append((len(self.trace), event, task.id, device_id))


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
    """Simulated device: runs one task at a time, on whichever thread takes its step."""

    device_class = ""

    def __init__(self, device_id: int):
        self.id = device_id
        self.pending = 0  # assigned (queued or running), guarded by runtime lock
        self.running = 0

    def run_kernel(self, task: Task, graph: TaskGraph, runtime: "Runtime"):
        raise NotImplementedError


# Each exact distribution is simulated once per distinct input, for every runtime and thread.
_EXACT_OUTCOMES = 1 << 14  # outcomes the exact-distribution cache holds over all entries


class InputFileError(ValueError):
    """A graph or QIR file exists but cannot be read as UTF-8 text."""


def read_input(path: str | Path) -> str:
    """The text of a graph or QIR file, read as UTF-8. A missing file raises
    FileNotFoundError; a directory, an unreadable file or one that is not UTF-8
    raises InputFileError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (IsADirectoryError, PermissionError) as exc:
        raise InputFileError(f"cannot read {str(path)!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputFileError(
            f"cannot read {str(path)!r}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc


def lower_qir(spec: QirKernel) -> CircuitKernel:
    """Read, parse and lower a QIR kernel; ``shots == 0`` means the exact distribution."""
    prog = parse_qir(spec.source if spec.path is None else read_input(find_kernel_file(spec.path)))
    circuit = lower_to_circuit(prog)  # rejects recorded slots that are never measured
    mode = "exact" if spec.shots == 0 else "sampled"
    return CircuitKernel(circuit, spec.shots, spec.seed, mode, output_positions(prog))


class _ExactCache:
    """Exact distributions by circuit content key and output positions, holding at most
    ``limit`` outcomes over all entries: the least recently used go first, and a
    wider distribution is never kept. Held distributions are read-only, so their
    sampling tables are kept too. Safe to use from several threads."""

    def __init__(self, limit: int):
        self.limit = limit
        self.held = 0  # outcomes over all entries
        self._dists: OrderedDict[tuple[str, tuple[int, ...] | None], ProbDist] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, circuit: Circuit, positions: tuple[int, ...] | None) -> ProbDist:
        key = circuit.content_key(), positions
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


def run_qir(
    spec: CircuitKernel, seed: int, accelerator="statevector", rng=None
) -> ProbDist | ShotHistogram:
    """The one execution path of qpu tasks and ``qtask exec``: statevector returns the
    exact distribution in ``exact`` mode; otherwise both accelerators sample from ``seed``.
    A statevector sample draws from ``rng``, the generator of ``seed``, when it is given."""
    if accelerator not in ("statevector", "trajectory"):
        raise ValueError(f"unknown accelerator {accelerator!r}")
    if accelerator == "trajectory":
        hist = run_trajectory(spec.circuit, spec.shots, seed)
        return hist if spec.positions is None else marginalize_counts(hist, spec.positions)
    dist = _EXACT.get(spec.circuit, spec.positions)
    if spec.mode == "exact":  # the payload is the caller's to change
        return ProbDist(dist.measured_qubits, dict(dist.probabilities))
    return sample_shots(dist, spec.shots, seed, rng)


def _fix_seeds(graph: TaskGraph):
    """Give each sampled qpu task its seed, the kernel's or one derived from (graph
    seed, task id), and the seed's SeedState, all hashed in one pass."""
    derive = seed_deriver(graph.seed)
    sampled = []
    for task in graph.tasks.values():
        kernel = task.kernel
        if isinstance(kernel, CircuitKernel) and kernel.mode == "sampled":
            task.seed = derive(task.id) if kernel.seed is None else kernel.seed
            sampled.append(task)
    for task, state in zip(sampled, seed_states([t.seed for t in sampled])):
        task.seed_state = state


class QpuDevice(DeviceBackend):
    """Simulated QPU: runs CircuitKernels (QIR arrives lowered) through run_qir."""

    device_class = QPU

    def run_kernel(self, task, graph, runtime):
        state = task.seed_state
        return run_qir(task.kernel, task.seed, rng=None if state is None else state.generator())


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
        # the runtime lock; both conditions wrap it, so holding it holds them
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._work = threading.Condition(self._lock)  # where idle helpers wait
        self._devices: dict[int, DeviceBackend] = {}
        self._by_class: dict[str, list[DeviceBackend]] = {}  # each class's devices by id
        self._host_kernels: dict[str, Callable] = {}
        self._mem_count = itertools.count()
        self._active: dict[int, TaskGraph] = {}  # submitted graphs not yet ended, by _order
        self._submits = itertools.count()
        # unplanned ready tasks of all graphs, one heap per device class of
        # (graph._order, id, graph, task): (order, id) is unique, so graphs are never compared
        self._ready: dict[str, list[tuple[int, int, TaskGraph, Task]]] = {}
        # the run queue: each placed (device, graph, task) not yet begun, in placement order
        self._queued: deque[tuple[DeviceBackend, TaskGraph, Task]] = deque()
        self._helpers: list[threading.Thread] = []
        self._idle = 0  # helpers not running a step
        self._waiting = 0  # callers waiting in _step for a task of their graph
        self._closed = False

    # -- registries

    def register_device(self, backend: DeviceBackend) -> int:
        with self._lock:
            if self._closed:
                raise ValueError("runtime is shut down")
            if backend.id in self._devices:
                raise ValueError(f"duplicate device id {backend.id}")
            self._devices[backend.id] = backend
            insort(self._by_class.setdefault(backend.device_class, []), backend, key=lambda d: d.id)
        return backend.id

    @property
    def devices(self) -> list[DeviceBackend]:
        return list(self._devices.values())

    def register_host_kernel(self, name: str, fn: Callable) -> None:
        with self._lock:
            if name in self._host_kernels:
                raise ValueError(f"host kernel {name!r} already registered")
            self._host_kernels[name] = fn

    def has_host_kernel(self, name: str) -> bool:
        return name in self._host_kernels

    # -- graphs

    def create_graph(self, seed: int = 0) -> TaskGraph:
        return TaskGraph(self, seed)

    def submit(self, graph: TaskGraph, policy: str = "default", sync: bool = False) -> TaskGraph:
        """Mark all tasks Submitted, promote dependency-free ones, dispatch, and
        return the graph, which ``wait`` and ``TaskGraph.done`` take.

        A cycle is rejected before any task changes state. With sync=True the
        call runs the graph's tasks on the calling thread until it is terminal.
        A graph that has ended may be submitted again: its tasks, kernels and
        dependents are kept; results, trace, plan and seeds (from ``graph.seed``)
        are made afresh. One still in flight raises.
        """
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        if graph._runtime is not self:
            raise ValueError("graph belongs to a different runtime")
        with self._lock:
            if self._closed:
                raise ValueError("runtime is shut down")
            if graph._order is None:
                # create_task takes only existing ids, so dependencies below their
                # task's id prove the graph acyclic in O(E). graphlib checks any other
                # graph, raising CycleError before any state change
                if any(t.deps and max(t.deps) >= t.id for t in graph.tasks.values()):
                    graphlib.TopologicalSorter({t.id: t.deps for t in graph.tasks.values()}).prepare()
                graph.dependents = {tid: [] for tid in graph.tasks}  # a key for every task
                for task in graph.tasks.values():
                    for d in task.deps:
                        graph.dependents[d].append(task.id)
            elif graph._unfinished:
                raise ValueError("graph already submitted")
            else:  # ended: its tasks are fixed, so their dependents and proof hold
                for task in graph.tasks.values():
                    task.state, task.result = TaskState.CREATED, None
                graph.trace = []
                graph._unfinished = len(graph.tasks)

            _fix_seeds(graph)
            graph._order = next(self._submits)
            # in id order, so placement does not depend on the order in which
            # tasks become ready
            graph.plan = _plan(graph.tasks.values(), self.devices, policy)
            for task in graph.tasks.values():
                self._set_state(graph, task, TaskState.SUBMITTED)
                task.remaining_deps = len(task.deps)
            if graph.tasks:
                self._active[graph._order] = graph
            if sync:  # before placing, so no helper takes this graph's tasks
                graph._callers.add(threading.get_ident())
            for task in graph.tasks.values():
                if task.remaining_deps == 0:
                    self._make_ready(graph, task)
            self._dispatch()
            if not sync:
                self._help()
        if sync:
            self._drive(graph)
        return graph

    def wait(self, graph: TaskGraph, timeout: float | None = None) -> dict[int, TaskResult]:
        """Block until the graph, submitted to this runtime, is terminal; idempotent.
        Reports the graph's latest run.

        Without a timeout the caller runs the graph's tasks meanwhile, as
        ``submit(sync=True)`` does, but while it runs a host kernel helpers may
        run the others. With one it only waits, as a kernel cannot be stopped at the
        deadline, and returns a snapshot of the results so far.
        """
        if graph._runtime is not self:  # its end would never wake this runtime's waiters
            raise ValueError("graph belongs to a different runtime")
        with self._lock:
            if graph._order is None:
                raise ValueError("graph not submitted")
            if timeout is None:
                graph._callers.add(threading.get_ident())
        if timeout is None:
            self._drive(graph, lend=True)
        deadline = time.monotonic() + (timeout or 0)
        with self._lock:
            while graph._unfinished:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return {tid: t.result for tid, t in graph.tasks.items() if t.result is not None}

    # -- DMEM

    def dmem_create(self, nbytes: int) -> MemObject:
        if nbytes < 0:
            raise ValueError("size must be non-negative")
        return MemObject(next(self._mem_count), nbytes)

    def dmem_write_host(self, obj: MemObject, data: bytes) -> None:
        with self._lock:
            obj._write(None, data)

    def dmem_read_host(self, obj: MemObject) -> bytes:
        with self._lock:
            obj._ensure_clean(None)
            return obj._copies[None]

    def dmem_free(self, obj: MemObject) -> None:
        with self._lock:
            obj._check_alive()
            obj._alive = False

    # -- lifecycle

    def shutdown(self):
        """Stop the helper threads. Tasks of submitted graphs that have not
        started running fail with ``runtime-shutdown``, so every graph ends and
        every ``wait()`` returns; a task already running finishes normally."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._ready.clear()
            for device, _, _ in self._queued:  # each queued task fails below, unstarted
                device.pending -= 1
            self._queued.clear()
            for graph in list(self._active.values()):
                for task in graph.tasks.values():
                    if task.state in (TaskState.SUBMITTED, TaskState.READY):
                        # _finish, not _end: each reads runtime-shutdown, never dependency-failed
                        result = TaskResult(TaskState.FAILED, None, "runtime-shutdown")
                        self._finish(graph, task, result)
            self._cond.notify_all()
            self._work.notify_all()
        for helper in self._helpers:  # each returns from _step once its task, if any, ends
            helper.join(timeout=10)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False

    # -- internals (these run under self._lock unless noted)

    def _set_state(self, graph: TaskGraph, task: Task, new: TaskState):
        if new not in _NEXT_STATES[task.state._value_]:
            raise AssertionError(
                f"illegal transition {task.state.value} -> {new.value} for {task!r}"
            )
        task.state = new
        if new in TERMINAL_STATES:
            graph._unfinished -= 1
            if graph._unfinished == 0:  # the graph has ended: forget it, wake its waiters
                del self._active[graph._order]
                self._cond.notify_all()

    def _make_ready(self, graph: TaskGraph, task: Task):
        # a task with a planned device is queued at once, so it occupies that
        # device; the others wait in their class's ready heap for _dispatch
        self._set_state(graph, task, TaskState.READY)
        if task.id in graph.plan:
            self._place(graph, task, graph.plan[task.id])
        else:
            heap = self._ready.setdefault(task.kernel.device_class, [])
            heappush(heap, (graph._order, task.id, graph, task))

    def _place(self, graph: TaskGraph, task: Task, device: DeviceBackend | None):
        if device is None:
            self._end(graph, task, TaskResult(TaskState.FAILED, None, "no-capable-device"))
            return
        device.pending += 1
        self._queued.append((device, graph, task))
        if self._waiting and graph._callers:  # one of them may be waiting for it
            self._cond.notify_all()

    def _next(self, graph: TaskGraph | None) -> tuple[DeviceBackend, TaskGraph, Task] | None:
        # the first queued step on a free device: of ``graph`` for its caller, else
        # of a graph with no idle caller
        for step in self._queued:
            if not step[0].running and (step[1] is graph or (graph is None and not step[1]._callers)):
                return step
        return None

    def _help(self):
        # a helper for a step that no idle caller will take, if there is one; the
        # queue is read only while some graph has no idle caller and some device
        # with a queued task is free
        if (
            any(not g._callers for g in self._active.values())
            and any(d.pending and not d.running for d in self._devices.values())
            and self._next(None)
        ):
            self._start_helper()

    def _start_helper(self):
        # wake an idle helper, or start one only when none is idle: so helpers
        # never outnumber busy devices
        if self._idle:
            self._work.notify()
        elif not self._closed:
            self._idle += 1
            helper = threading.Thread(target=self._drive, daemon=True, name="qtask-helper")
            self._helpers.append(helper)
            helper.start()

    def _drive(self, graph: TaskGraph | None = None, lend: bool = False):
        # the one loop: a caller's until its graph ends, a helper's until shutdown()
        while self._step(graph, lend):
            pass

    def _dispatch(self):
        # each idle device, lowest id first, takes the head of its class's heap;
        # every task there has a capable device, as _plan fixed the others
        for kind, heap in self._ready.items():
            if heap:
                for device in [d for d in self._by_class[kind] if d.pending == 0][:len(heap)]:
                    _, _, graph, task = heappop(heap)
                    self._place(graph, task, device)

    def _finish(self, graph: TaskGraph, task: Task, result: TaskResult):
        self._set_state(graph, task, result.status)
        task.result = result
        graph._record(result.status._value_, task, result.device_id)

    def _begin(self, device: DeviceBackend, graph: TaskGraph, task: Task):
        # the one start of a task
        self._set_state(graph, task, TaskState.RUNNING)
        device.running += 1
        if device.running != 1:
            raise AssertionError(f"device {device.id} double occupancy")
        graph._record("running", task, device.id)

    def _end(self, graph: TaskGraph, task: Task, result: TaskResult):
        """The one end of a run or a placement: record the result, then promote a
        completed task's dependents or fail a failed task's transitive dependents."""
        self._finish(graph, task, result)
        if result.status is TaskState.COMPLETED:
            # ascending id, so queue and failure order follow task ids
            for dep_id in graph.dependents[task.id]:
                dependent = graph.tasks[dep_id]
                dependent.remaining_deps -= 1
                if dependent.remaining_deps == 0 and dependent.state is TaskState.SUBMITTED:
                    self._make_ready(graph, dependent)
            return
        # fail-fast: transitive dependents never run
        stack = list(graph.dependents[task.id])
        while stack:
            dep_id = stack.pop()
            dependent = graph.tasks[dep_id]
            if dependent.state in TERMINAL_STATES:
                continue
            self._finish(graph, dependent, TaskResult(TaskState.FAILED, None, "dependency-failed"))
            stack.extend(graph.dependents[dep_id])

    def _step(self, graph: TaskGraph | None = None, lend: bool = False) -> bool:
        """Run one queued task: the first whose device is free, of ``graph`` for its
        caller (``submit(sync=True)``, ``wait``), else, for a helper, of a graph with no
        idle caller. It begins in the lock hold that takes it, so no two threads share
        a device. A caller that lends (``wait``) is not idle while it runs a host
        kernel, a callback that may wait for another task, so helpers may run the
        graph's other tasks meanwhile; a qpu kernel runs its circuit and waits for
        none. Blocks until there is a task; False once ``graph`` has ended or, for a
        helper, the runtime is shut down."""
        me = threading.get_ident()
        step = None
        try:
            with self._lock:
                while True:
                    step = self._next(graph)
                    if step:
                        break
                    if graph is None:
                        if self._closed:
                            return False
                        self._work.wait()
                    elif graph._unfinished:
                        self._waiting += 1  # until _place or _end_run wakes it
                        try:
                            self._cond.wait()
                        finally:
                            self._waiting -= 1
                    else:
                        graph._callers.discard(me)
                        return False
                self._queued.remove(step)
                self._begin(*step)
                lent = lend and isinstance(step[2].kernel, HostKernel)
                if graph is None:
                    self._idle -= 1
                    self._help()
                elif lent:
                    graph._callers.discard(me)
                    self._help()
            result, raised = self._run(*step)
            with self._lock:
                # idle again before _end_run places dependents, so this thread takes them
                if graph is None:
                    self._idle += 1
                elif lent:
                    graph._callers.add(me)
                self._end_run(*step, result)
                if graph is not None:  # a helper takes the next step itself
                    self._help()
            if graph and isinstance(raised, KeyboardInterrupt):
                raise raised  # once the task it landed in has failed
            return True
        except BaseException as exc:  # an interrupt outside the kernel leaves no task stuck
            with self._lock:
                if step and step[2].state is TaskState.READY and step not in self._queued:
                    self._queued.appendleft(step)  # taken, not yet begun
                elif step and step[2].state is TaskState.RUNNING:
                    error = f"{type(exc).__name__}: {exc}"
                    self._end_run(*step, TaskResult(TaskState.FAILED, None, error, step[0].id))
                elif step:  # ended: _end's loop over dependents may not have got to them all
                    g = step[1]
                    for t in g.tasks.values():  # in id order, so each task's deps come first
                        if t.state is TaskState.SUBMITTED:
                            states = [g.tasks[d].state for d in t.deps]
                            t.remaining_deps = sum(s is not TaskState.COMPLETED for s in states)
                            if TaskState.FAILED in states:
                                self._finish(g, t, TaskResult(TaskState.FAILED, None, "dependency-failed"))
                            elif t.remaining_deps == 0:
                                self._make_ready(g, t)
                    self._dispatch()
                if graph:  # a caller gone early leaves its graph to helpers
                    graph._callers.discard(me)
                self._help()
                self._cond.notify_all()
            raise

    def _run(self, device: DeviceBackend, graph: TaskGraph, task: Task):
        # a begun task's reads, kernel and writes: its result, and what they raised
        # (SystemExit too), which fails the task
        transfers, error, raised = 0, None, None
        try:
            if task.reads:
                with self._lock:
                    for obj in task.reads:  # counted as made: a failing read keeps the others
                        transfers += obj._ensure_clean(device.id)
            payload = device.run_kernel(task, graph, self)
            if task.writes:
                if not isinstance(payload, (bytes, bytearray)):
                    raise RuntimeError("tasks declaring writes must return a bytes payload")
                with self._lock:
                    for obj in task.writes:
                        obj._write(device.id, payload)
        except BaseException as exc:
            payload, error, raised = None, f"{type(exc).__name__}: {exc}", exc
        status = TaskState.COMPLETED if error is None else TaskState.FAILED
        return TaskResult(status, payload, error, device.id, transfers), raised

    def _end_run(self, device: DeviceBackend, graph: TaskGraph, task: Task, result: TaskResult):
        try:
            self._end(graph, task, result)  # first: until it ends, a task keeps its device's counts
        finally:  # even when Ctrl-C lands in _end, the device is freed
            device.running -= 1
            device.pending -= 1
            self._dispatch()  # the freed device may take a waiting task of any graph
            if self._waiting and device.pending:  # a caller may wait for a task queued here
                self._cond.notify_all()


def make_runtime(qpu: int = 1, host: int = 1) -> Runtime:
    """Runtime with qpu devices ids 0..qpu-1 and host devices after them."""
    runtime = Runtime()
    for i in range(qpu + host):
        runtime.register_device(QpuDevice(i) if i < qpu else HostDevice(i))
    return runtime
