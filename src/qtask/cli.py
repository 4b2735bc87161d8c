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

from .qir import QirLoweringError, QirParseError
from .qpd import validate_run, write_validation_csv
from .runtime import MAX_DEVICES, POLICIES, GraphSpecError, InputFileError
from .runtime import QirKernel, TaskState, lower_qir, make_runtime, parse_graph_spec, read_input
from .runtime import TaskSpecEntry, run_qir
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
        body = ",".join(f"{k}:{payload.counts[k]}" for k in sorted(payload.counts))
        return f"counts {body} shots={payload.shots}"
    if isinstance(payload, ProbDist):
        body = ",".join(
            f"{k}:{payload.probabilities[k]:.12g}" for k in sorted(payload.probabilities)
        )
        return f"probs {body}"
    text = repr(payload)
    return text if len(text) <= 72 else text[:69] + "..."


def _creation_order(tasks: list[TaskSpecEntry]) -> list[str]:
    """Task names in dependency order, as ``graphlib``'s ``static_order`` gives
    them for a file whose tasks list their dependencies first, in one linear
    pass: ready names come in batches, each in the order its names became
    ready, the first in file order. ``depends`` are read in list order, each
    name once, so the order does not depend on string hashing."""
    waiting: dict[str, int] = {}  # name -> dependencies not yet in the order
    dependents: dict[str, list[str]] = {}
    for t in tasks:
        depends = dict.fromkeys(t.depends)
        waiting[t.name] = waiting.get(t.name, 0) + len(depends)
        for d in depends:
            waiting.setdefault(d, 0)
            dependents.setdefault(d, []).append(t.name)
    order = [name for name, n in waiting.items() if n == 0]
    for name in order:  # grows while it is read: each batch follows the last
        for dependent in dependents.get(name, ()):
            waiting[dependent] -= 1
            if waiting[dependent] == 0:
                order.append(dependent)
    if len(order) < len(waiting):  # raises graphlib.CycleError naming a cycle
        graphlib.TopologicalSorter({t.name: t.depends for t in tasks}).prepare()
    return order


def cmd_graph(args) -> int:
    spec = parse_graph_spec(read_input(args.file))
    policy = args.policy if args.policy is not None else spec.policy
    seed = args.seed if args.seed is not None else spec.seed

    # creation must follow dependencies; printing keeps the file's order
    order = _creation_order(spec.tasks)
    by_name = {t.name: t for t in spec.tasks}

    runtime = make_runtime(qpu=spec.qpu, host=spec.host)
    runtime.register_host_kernel("noop", lambda params, deps: None)

    try:
        graph = runtime.create_graph(seed=seed)
        for name in order:
            entry = by_name[name]
            deps = [graph.task_id_by_name(d) for d in entry.depends]
            try:
                graph.create_task(name, entry.kernel, deps, entry.device)
            except (QirParseError, QirLoweringError, FileNotFoundError, InputFileError) as exc:
                raise GraphSpecError(f"qir kernel in task {name!r}: {exc}") from exc
            except (TooManyQubitsError, NonTerminalMeasurementError) as exc:
                raise GraphSpecError(f"no qpu can run the kernel in task {name!r}: {exc}") from exc
        results = runtime.wait(runtime.submit(graph, policy=policy))
    finally:
        runtime.shutdown()

    failed = False
    for entry in spec.tasks:
        result = results[graph.task_id_by_name(entry.name)]
        device = "-" if result.device_id is None else str(result.device_id)
        print(f"{entry.name} {device} {result.status.value}")
        if result.status is TaskState.FAILED:
            failed = True
            print(f"  error: {result.error}")
        else:
            summary = _summarize(result.payload)
            if summary:
                print(f"  {summary}")
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
