"""Command-line driver.

Subcommands:
  exec     run one QIR file on a simulator backend and print the histogram
  graph    execute a task graph described in JSON
  ghz-qpd  run the wire-cut GHZ estimation, optionally many times

Exit codes are stable for scripting: 0 success, 1 execution failure,
2 usage or input-parse error. All randomness flows from --seed (default 0),
so identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import graphlib
import json
import sys

from .circuit import ROTATION_KINDS, TWO_QUBIT_KINDS, Circuit, Gate, GateKind
from .qir import QirLoweringError, QirParseError
from .qpd import validate_run, write_validation_csv
from .runtime import ANY, HOST, MAX_DEVICES, POLICIES, QPU, CircuitKernel, HostKernel
from .runtime import InputFileError, KernelSpec, QirKernel, TaskState, lower_qir, make_runtime
from .runtime import read_input, run_qir
from .simulator import MAX_SHOTS, NonTerminalMeasurementError, ProbDist, ShotHistogram
from .simulator import TooManyQubitsError, format_histogram, format_probabilities

ACCELERATORS = ("statevector", "trajectory")


def _int_in(low: int, high: int | None = None):
    """An argparse type: an integer from ``low`` to ``high`` (unbounded when None)."""

    def integer(value: str) -> int:  # argparse names it in "invalid integer value"
        n = int(value)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        if high is not None and n > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {n}")
        return n

    return integer


@functools.cache  # one parser per process: in-process callers run main many times
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qtask", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_exec = sub.add_parser("exec", help="run a QIR file and print its histogram")
    p_exec.add_argument("file", help=".ll file (falls back to the shipped kernels)")
    p_exec.add_argument("-a", "--accelerator", choices=ACCELERATORS, default="statevector")
    p_exec.add_argument("-s", "--shots", type=_int_in(0, MAX_SHOTS), default=1024)
    p_exec.add_argument("--seed", type=_int_in(0), default=0)
    p_exec.add_argument(
        "--probs", action="store_true", help="print the exact distribution instead of sampling"
    )
    p_exec.set_defaults(func=cmd_exec)

    p_graph = sub.add_parser("graph", help="execute a JSON task graph")
    p_graph.add_argument("file", help="graph JSON file")
    p_graph.add_argument("--policy", choices=POLICIES, default=None)
    p_graph.add_argument("--seed", type=int, default=None)
    p_graph.set_defaults(func=cmd_graph)

    p_qpd = sub.add_parser("ghz-qpd", help="wire-cut GHZ estimation of the Z-string mean")
    p_qpd.add_argument("--shots", type=_int_in(0, MAX_SHOTS), default=1024)
    p_qpd.add_argument("--reps", type=_int_in(1), default=1)
    p_qpd.add_argument("--devices", type=_int_in(1, MAX_DEVICES), default=4)
    p_qpd.add_argument("--mode", choices=("exact", "sampled"), default="sampled")
    p_qpd.add_argument("--seed", type=int, default=0)
    p_qpd.add_argument("--csv", default=None, help="write per-repetition values to this path")
    p_qpd.add_argument("--dedup", action=argparse.BooleanOptionalAction, default=True)
    p_qpd.set_defaults(func=cmd_ghz_qpd)

    return parser


def cmd_exec(args) -> int:
    if args.probs and args.accelerator != "statevector":
        print("error: --probs requires the statevector accelerator", file=sys.stderr)
        return 2
    kernel = lower_qir(QirKernel(path=args.file, shots=args.shots))
    kernel = dataclasses.replace(kernel, mode="exact" if args.probs else "sampled")
    result = run_qir(kernel, args.seed, args.accelerator)
    if args.probs:
        print(format_probabilities(result))
        return 0
    if args.shots == 0:
        print("note: 0 shots requested; use --probs for the exact distribution", file=sys.stderr)
    print(format_histogram(result))
    return 0


def _summarize(payload) -> str | None:
    if payload is None:
        return None
    if isinstance(payload, ShotHistogram):
        body = ",".join(map("%s:%s".__mod__, sorted(payload.counts.items())))
        return f"counts {body} shots={payload.shots}"
    if isinstance(payload, ProbDist):
        body = ",".join(
            f"{k}:{payload.probabilities[k]:.12g}" for k in sorted(payload.probabilities)
        )
        return f"probs {body}"
    text = repr(payload)
    return text if len(text) <= 72 else text[:69] + "..."


# --------------------------------------------------------------------------
# Graph JSON: parsed and ordered before any runtime exists


class GraphSpecError(ValueError):
    pass


@dataclasses.dataclass
class TaskSpecEntry:
    name: str
    kernel: KernelSpec
    depends: tuple[str, ...]
    device: str | int


@dataclasses.dataclass
class GraphSpec:
    seed: int
    policy: str
    qpu: int
    host: int
    tasks: list[TaskSpecEntry]  # in file order
    order: list[str]  # task names in creation order: each after its dependencies


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
_JSON_GATES = {
    kind.value: (
        getattr(Gate, kind.value),
        (2 if kind in TWO_QUBIT_KINDS else 1) + (kind in ROTATION_KINDS or kind is GateKind.MZ),
        kind in ROTATION_KINDS,
    )
    for kind in GateKind
}


_STR = frozenset({str})
_SCALARS = frozenset({str, int, float, bool, type(None)})  # the JSON types that hash


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _unknown_field(obj: dict, allowed: set[str], where: str) -> GraphSpecError:
    """The error for ``obj``'s first key not in ``allowed``; there must be one."""
    key = next(key for key in obj if key not in allowed)
    return GraphSpecError(f"unknown field {key!r} in {where}")


def _json_circuit(spec: dict, where: str) -> Circuit:
    qubits = spec.get("qubits")
    if not _is_int(qubits) or qubits < 1:
        raise GraphSpecError(f"circuit kernel in {where} needs a positive 'qubits'")
    gates = spec.get("gates", [])
    if not isinstance(gates, list):
        raise GraphSpecError(f"'gates' of the circuit kernel in {where} must be a list")
    circuit = Circuit(qubits)
    for entry in gates:
        if not (isinstance(entry, list) and entry and isinstance(entry[0], str)
                and entry[0] in _JSON_GATES):
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
    if not isinstance(spec, dict):
        raise GraphSpecError(f"kernel in {where} must be an object")
    ktype = spec.get("type")
    if ktype not in _KERNEL_FIELDS:
        raise GraphSpecError(
            f"kernel in {where} has unknown type {ktype!r}; expected qir, host, or circuit"
        )
    if not spec.keys() <= _KERNEL_FIELDS[ktype]:
        raise _unknown_field(spec, _KERNEL_FIELDS[ktype], f"{where} kernel")
    if ktype == "qir":
        file, source = spec.get("file"), spec.get("source")
        if (file is None) == (source is None):
            raise GraphSpecError(f"qir kernel in {where} needs exactly one of file or source")
        field = "source" if file is None else "file"
        if not isinstance(spec[field], str):  # a spec is hashed, so no list or object
            raise GraphSpecError(f"qir kernel {field!r} in {where} must be a string")
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


def _creation_order(tasks: list[TaskSpecEntry]) -> list[str]:
    """Task names in dependency order, as ``graphlib``'s ``static_order`` gives
    them for a file whose tasks list their dependencies first, in one linear
    pass: ready names come in batches, each in the order its names became
    ready, the first in file order. ``depends`` are read in list order, each
    name once, so the order does not depend on string hashing. A dependency
    that names no task raises GraphSpecError, a cycle graphlib.CycleError."""
    waiting: dict[str, int] = {}  # name -> dependencies not yet in the order
    dependents: dict[str, list[str]] = {}
    for t in tasks:
        depends = dict.fromkeys(t.depends)
        waiting[t.name] = waiting.get(t.name, 0) + len(depends)
        for d in depends:
            waiting.setdefault(d, 0)
            dependents.setdefault(d, []).append(t.name)
    if len(waiting) > len(tasks):  # names are unique, so a dependency names no task
        names = {t.name for t in tasks}
        dep = next(name for name in waiting if name not in names)  # the first one read
        raise GraphSpecError(f"task {dependents[dep][0]!r} depends on unknown task {dep!r}")
    order = [name for name, n in waiting.items() if n == 0]
    for name in order:  # grows while it is read: each batch follows the last
        for dependent in dependents.get(name, ()):
            waiting[dependent] -= 1
            if waiting[dependent] == 0:
                order.append(dependent)
    if len(order) < len(waiting):  # raises graphlib.CycleError naming a cycle
        graphlib.TopologicalSorter({t.name: t.depends for t in tasks}).prepare()
    return order


def parse_graph_spec(text: str) -> GraphSpec:
    """Validate and load the graph JSON format, with its tasks in creation order.
    Unknown fields, unknown dependencies and cycles are rejected."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise GraphSpecError("graph spec must be a JSON object")
    if not obj.keys() <= _TOP_FIELDS:
        raise _unknown_field(obj, _TOP_FIELDS, "graph spec")

    seed = obj.get("seed", 0)
    if not _is_int(seed):
        raise GraphSpecError("'seed' must be an integer")
    policy = obj.get("policy", "default")
    if policy not in POLICIES:
        raise GraphSpecError(f"'policy' must be default or roundrobin, got {policy!r}")

    devices = obj.get("devices")
    if not isinstance(devices, dict):
        raise GraphSpecError("missing or invalid 'devices' object")
    if not devices.keys() <= _DEVICE_FIELDS:
        raise _unknown_field(devices, _DEVICE_FIELDS, "devices")
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
    # equal kernel objects of equal shots share one kernel: keyed by their items, then
    # their values' types, so that 1, 1.0 and true never meet; one holding a list or
    # an object is built for its task alone
    kernels: dict[tuple, KernelSpec] = {}
    for i, raw in enumerate(raw_tasks):
        # the checks of the JSON types hold for what json.loads gives: no subclasses
        if type(raw) is not dict:
            raise GraphSpecError(f"task #{i} must be an object")
        if not raw.keys() <= _TASK_FIELDS:
            raise _unknown_field(raw, _TASK_FIELDS, f"task #{i}")
        name = raw.get("name")
        if type(name) is not str or not name:
            raise GraphSpecError(f"task #{i} needs a non-empty string 'name'")
        if name in names:
            raise GraphSpecError(f"duplicate task name {name!r}")
        names.add(name)
        shots = raw.get("shots", 1024)
        if type(shots) is not int or not 0 <= shots <= MAX_SHOTS:
            raise GraphSpecError(f"'shots' in task {name!r} must be an integer in 0..{MAX_SHOTS}")
        depends = raw.get("depends", [])
        if type(depends) is not list or not _STR.issuperset(map(type, depends)):
            raise GraphSpecError(f"'depends' in task {name!r} must be a list of task names")
        device = raw.get("device", ANY)
        if not (device in (ANY, HOST, QPU) or type(device) is int):
            raise GraphSpecError(f"'device' in task {name!r} must be any, qpu, host, or an id")
        spec = raw.get("kernel")
        key = None
        if type(spec) is dict:
            types = tuple(map(type, spec.values()))
            if _SCALARS.issuperset(types):
                key = (*spec.items(), *types, shots)
        kernel = kernels.get(key)
        if kernel is None:
            kernel = _json_kernel(spec, shots, f"task {name!r}")
            if key is not None:
                kernels[key] = kernel
        entries.append(TaskSpecEntry(name, kernel, tuple(depends), device))

    return GraphSpec(seed, policy, qpu, host, entries, _creation_order(entries))


def cmd_graph(args) -> int:
    spec = parse_graph_spec(read_input(args.file))
    policy = args.policy if args.policy is not None else spec.policy
    seed = args.seed if args.seed is not None else spec.seed
    by_name = {t.name: t for t in spec.tasks}

    runtime = make_runtime(qpu=spec.qpu, host=spec.host)
    runtime.register_host_kernel("noop", lambda params, deps: None)

    ids: dict[str, int] = {}
    try:
        graph = runtime.create_graph(seed=seed)
        for name in spec.order:
            entry = by_name[name]
            try:  # each dependency was created before its task
                ids[name] = graph.create_task(
                    name, entry.kernel, map(ids.__getitem__, entry.depends), entry.device
                )
            except (QirParseError, QirLoweringError, FileNotFoundError, InputFileError) as exc:
                raise GraphSpecError(f"qir kernel in task {name!r}: {exc}") from exc
            except (TooManyQubitsError, NonTerminalMeasurementError) as exc:
                raise GraphSpecError(f"no qpu can run the kernel in task {name!r}: {exc}") from exc
        results = runtime.wait(runtime.submit(graph, policy=policy, sync=True))
    finally:
        runtime.shutdown()

    failed = False
    lines = []
    for entry in spec.tasks:
        result = results[ids[entry.name]]
        device = "-" if result.device_id is None else result.device_id
        lines.append(f"{entry.name} {device} {result.status._value_}")
        if result.status is TaskState.FAILED:
            failed = True
            lines.append(f"  error: {result.error}")
        else:
            summary = _summarize(result.payload)
            if summary:
                lines.append(f"  {summary}")
    if lines:  # one write; a graph of no tasks prints nothing
        print("\n".join(lines))
    return 1 if failed else 0


def cmd_ghz_qpd(args) -> int:
    if args.mode == "sampled" and args.shots < 1:
        print("error: --shots must be at least 1 in sampled mode", file=sys.stderr)
        return 2
    if args.csv:
        try:  # before the sweep, so that a bad path prints no estimate
            open(args.csv, "a").close()
        except OSError as exc:
            print(f"error: cannot write --csv {args.csv!r}: {exc.strerror}", file=sys.stderr)
            return 2
    estimate = validate_run(
        reps=args.reps,
        shots=args.shots,
        seed=args.seed,
        devices=args.devices,
        mode=args.mode,
        dedup=args.dedup,
    )
    print(f"estimate {estimate.mean:.9f}")
    print(f"std {estimate.std:.9g}")
    if args.csv:
        write_validation_csv(args.csv, estimate)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except graphlib.CycleError as exc:  # args: a message, then the cycle's names in order
        print(f"error: dependency cycle: {' -> '.join(map(str, exc.args[1]))}", file=sys.stderr)
        return 2
    except (
        QirParseError,
        QirLoweringError,
        GraphSpecError,
        json.JSONDecodeError,
        FileNotFoundError,
        InputFileError,
        NonTerminalMeasurementError,
        TooManyQubitsError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
