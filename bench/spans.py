"""Span recording for the traced pass, and the per-layer figures made from it.

``Tracer.install`` replaces module-level names of qtask that callers look up
at call time (and the two devices' ``run_kernel`` plus the runtime's
``submit``/``wait``/``shutdown``) with wrappers that record one span per
call: name, start, end, thread and op id. Nothing under ``src/`` changes;
``uninstall`` puts the originals back. Spans stay in memory and are written
out as Chrome trace-event JSON when the run ends.

Self time is measured on one timeline across threads: a layer's self time is
the part of its spans' union that no child span covers. Under the GIL a
``run_kernel`` span also contains time the kernel waited for the interpreter
while the other worker scanned for ready tasks; that time counts as kernel
time, not runtime time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

# function name -> span name; wrapped in every module below that binds it
FUNCTION_SPANS = {
    "parse_qir": "qir.parse",
    "lower_to_circuit": "qir.lower",
    "simulate": "simulator.simulate",
    "sample_shots": "simulator.sample",
    "run_trajectory": "simulator.trajectory",
    "parse_graph_spec": "runtime.graph_spec",
    "format_histogram": "cli.format",
    "estimate_zzzz": "qpd.estimate",
    "instances_to_graph": "qpd.graph_build",
    "build_ghz_qpd_instances": "circuit.fragment_batch",
}
MODULES = ("qtask.qir", "qtask.simulator", "qtask.runtime", "qtask.qpd", "qtask.cli")
EXPORTED_OPS = 4  # traced ops written to the Chrome trace; all feed the metrics


def _circuit_info(args, result):
    """Width, unitary gate count and state bytes of a simulate call."""
    circuit = args[0]
    gates = sum(1 for g in circuit.ops if g.kind.value != "mz")
    state_bytes = result[0].amplitudes.nbytes
    return {"qubits": circuit.num_qubits, "gates": gates, "state_bytes": state_bytes}


def _task_info(args, result):
    return {"task": args[1].name}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, thread, op, info)
        self.op = -1
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, via, info=None):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter_ns()
            result = fn(*args, **kwargs)
            end = time.perf_counter_ns()
            extra = {"via": via}
            if info is not None:
                extra.update(info(args, result))
            spans.append((name, start, end, threading.current_thread().name, self.op, extra))
            return result

        return traced

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        from qtask import runtime

        for modname in MODULES:
            module = importlib.import_module(modname)
            via = modname.rsplit(".", 1)[1]
            for attr, name in FUNCTION_SPANS.items():
                fn = getattr(module, attr, None)
                if callable(fn):
                    info = _circuit_info if attr == "simulate" else None
                    self._patch(module, attr, self._wrap(fn, name, via, info))
        for cls, name in ((runtime.QpuDevice, "kernel.qpu"), (runtime.HostDevice, "kernel.host")):
            self._patch(cls, "run_kernel", self._wrap(cls.run_kernel, name, "runtime", _task_info))
        for attr in ("submit", "wait", "shutdown"):
            fn = getattr(runtime.Runtime, attr)
            self._patch(runtime.Runtime, attr, self._wrap(fn, f"runtime.{attr}", "caller"))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# Interval arithmetic on [start, end) pairs in ns


def _union(intervals):
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return merged


def _length(merged) -> int:
    return sum(end - start for start, end in merged)


def _minus(a, b) -> int:
    """Length of the union of ``a`` not covered by the union of ``b``."""
    a, b = _union(a), _union(b)
    covered, j = 0, 0
    for start, end in a:
        while j < len(b) and b[j][1] <= start:
            j += 1
        k = j
        while k < len(b) and b[k][0] < end:
            covered += min(end, b[k][1]) - max(start, b[k][0])
            k += 1
    return _length(a) - covered


# --------------------------------------------------------------------------
# Per-layer metrics


def _median_us(durations) -> float:
    return statistics.median(durations) / 1e3 if durations else 0.0


def layer_metrics(spans, ops, probe_spans, chains: dict, overhead: float) -> dict:
    """Per-layer figures from the spans of the traced ops and of the exec probe.

    ``ops`` holds (op id, start ns, end ns, label). Per-call figures are
    medians over all calls; shares and per-op counts are totals over all
    traced ops divided by total op time or op count. The per-width simulator
    figures, the trajectory time and the histogram formatting time come
    from ``probe_spans``. Layers a workload does not reach read 0.
    """
    from qtask.qpd import REDUCE_TASK

    by_op = defaultdict(list)
    for span in spans:
        by_op[span[4]].append(span)
    dur = defaultdict(list)
    for name, start, end, _thread, _op, info in spans:
        dur[name].append(end - start)
        if name == "simulator.simulate":
            dur[f"simulate.w{info['qubits']}"].append(end - start)
        if name == "kernel.host" and info["task"] == REDUCE_TASK:
            dur["kernel.reduce"].append(end - start)

    op_ns = 0
    layer_ns = defaultdict(int)
    tasks = 0
    for op_id, start, end, _label in ops:
        op_ns += end - start
        mine = by_op[op_id]

        def pick(*prefixes, _mine=mine):
            return [(s[1], s[2]) for s in _mine if s[0].startswith(prefixes)]

        kernels = pick("kernel.")
        qpd = pick("qpd.", "circuit.") + [
            (s[1], s[2]) for s in mine if s[0] == "kernel.host" and s[5]["task"] == REDUCE_TASK
        ]
        tasks += len(kernels)
        layer_ns["qir"] += _length(_union(pick("qir.")))
        layer_ns["simulator"] += _length(_union(pick("simulator.")))
        layer_ns["qpd"] += _length(_union(qpd))
        windows = pick("runtime.submit", "runtime.wait", "runtime.shutdown")
        layer_ns["runtime"] += _minus(windows, kernels + qpd)
        layer_ns["cli"] += _minus([(start, end)], [(s[1], s[2]) for s in mine])

    n_ops = max(len(ops), 1)
    share = {k: v / op_ns if op_ns else 0.0 for k, v in layer_ns.items()}

    def count(*names):
        return sum(len(dur[n]) for n in names) / n_ops

    probe = defaultdict(list)
    for name, start, end, _thread, _op, info in probe_spans:
        probe[name].append(end - start)
        if name == "simulator.simulate":
            probe[f"simulate.w{info['qubits']}"].append(end - start)

    def gate_rate(width):
        calls = [s for s in probe_spans if s[0] == "simulator.simulate" and s[5]["qubits"] == width]
        busy = sum(s[2] - s[1] for s in calls)
        return sum(s[5]["gates"] for s in calls) / (busy / 1e9) if busy else 0.0

    w18 = [s[5] for s in probe_spans if s[0] == "simulator.simulate" and s[5]["qubits"] == 18]
    return {
        "qir.parse_us": _median_us(dur["qir.parse"]),
        "qir.lower_us": _median_us(dur["qir.lower"]),
        "qir.calls_per_op": count("qir.parse"),
        "qir.share": share.get("qir", 0.0),
        "simulator.simulate_us.w2": _median_us(dur["simulate.w2"]),
        "simulator.sample_us": _median_us(dur["simulator.sample"]),
        "simulator.calls_per_op": count(
            "simulator.simulate", "simulator.sample", "simulator.trajectory"
        ),
        "simulator.share": share.get("simulator", 0.0),
        "simulator.simulate_ms.w12": _median_us(probe["simulate.w12"]) / 1e3,
        "simulator.simulate_ms.w16": _median_us(probe["simulate.w16"]) / 1e3,
        "simulator.simulate_ms.w18": _median_us(probe["simulate.w18"]) / 1e3,
        "simulator.gate_apps_per_s.w16": gate_rate(16),
        "simulator.gate_apps_per_s.w18": gate_rate(18),
        # computed, not measured: each gate application reads and writes the state once
        "simulator.bytes_per_gate_computed.w18": 2.0 * w18[0]["state_bytes"] if w18 else 0.0,
        "simulator.trajectory_ms": _median_us(probe["simulator.trajectory"]) / 1e3,
        "runtime.self_us_per_task": layer_ns["runtime"] / 1e3 / tasks if tasks else 0.0,
        "runtime.self_share": share.get("runtime", 0.0),
        "runtime.kernel_us.qpu": _median_us(dur["kernel.qpu"]),
        "runtime.kernel_us.host": _median_us(dur["kernel.host"]),
        "runtime.tasks_per_op": tasks / n_ops,
        "runtime.graph_spec_ms": _median_us(dur["runtime.graph_spec"]) / 1e3,
        "runtime.chain_us_per_task.n100": chains["n100"],
        "runtime.chain_us_per_task.n2000": chains["n2000"],
        "qpd.estimate_us": _median_us(dur["qpd.estimate"]),
        "qpd.graph_build_us": _median_us(dur["qpd.graph_build"]),
        "qpd.reduce_kernel_us": _median_us(dur["kernel.reduce"]),
        "qpd.share": share.get("qpd", 0.0),
        "circuit.fragment_batch_ms": _median_us(dur["circuit.fragment_batch"]) / 1e3,
        "cli.self_share": share.get("cli", 0.0),
        "cli.format_us": _median_us(probe["cli.format"]),
        "trace.overhead": overhead,
    }


# --------------------------------------------------------------------------
# Chrome trace-event export


def write_chrome_trace(path: Path, workload: str, spans, ops) -> None:
    """One track per thread name; opens in Perfetto and chrome://tracing."""
    exported = {op[0] for op in ops[:EXPORTED_OPS]}
    origin = min((op[1] for op in ops), default=0)
    tids: dict[str, int] = {"MainThread": 0}
    events = []

    def event(name, cat, start, end, thread, args):
        tid = tids.setdefault(thread, len(tids))
        events.append({
            "name": name, "cat": cat, "ph": "X", "pid": 1, "tid": tid,
            "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3, "args": args,
        })

    for op_id, start, end, label in ops:
        if op_id in exported:
            event(f"op {label}", "op", start, end, "MainThread", {"op": op_id})
    for name, start, end, thread, op_id, info in spans:
        if op_id in exported:
            event(name, name.split(".", 1)[0], start, end, thread, {"op": op_id, **info})
    process = {"name": f"qtask bench {workload}"}
    meta = [{"name": "process_name", "ph": "M", "pid": 1, "args": process}]
    meta += [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": thread}}
        for thread, tid in tids.items()
    ]
    doc = {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"workload": workload, "ops_traced": len(ops), "ops_exported": len(exported)},
    }
    path.write_text(json.dumps(doc))
