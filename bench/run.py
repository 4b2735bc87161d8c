"""qtask benchmark: the ghz_qpd and graph_dag workloads, measured end to end
and layer by layer.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
  python3 bench/run.py --workload all [--seed N] [--seconds S] [--out FILE]
  python3 bench/run.py --compare BASE.jsonl NEW.jsonl

Run from the repository root; qtask is imported from ``src/``. One run makes
every input from ``--seed``, measures one workload for ``--seconds`` in one
process (one client, closed loop), checks every output and prints the
metrics by name with their units. Its last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Metric
names, units and bounds come from BENCHMARK.json.

End-to-end metrics (untraced), named the same on every workload:
  setup_s      median over SETUP_PROBES fresh interpreters of the time from
               before ``import qtask`` to the end of one warm-up op
  peak_rss_mb  ru_maxrss of the workload process at the end of the run
  op_s_p50     median wall time of one op: sweep_s_p50 on ghz_qpd,
               graph_s_p50 on graph_dag
  op_s_p90     90th percentile of the same
  items_per_s  reps_per_s or tasks_per_s over the run
``fail_frac`` is ``failed / attempted`` of the JSON line; an op fails if it
raises, exits non-zero or fails its output check.

The traced run times each op twice, untraced and traced in alternating
order, so ``trace.overhead`` compares the same inputs; the per-layer figures
come from the traced copies (see spans.py). It then probes the runtime with
no-op chains and the simulator with ``qtask exec`` on w12/w16/w18 and
trajectory programs, and writes the spans of the first traced ops to
``.bench_work/trace-<workload>.json``.

``--out`` appends one JSON line per run; ``--compare`` reads two such files
and prints, for each workload and metric, the new/base ratio with its base.
A metric whose base runs spread (interquartile range over median) more than
its bound is marked unresolved.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
CHAIN_PROBES = {"n100": (100, 5), "n2000": (2000, 1)}  # name -> (tasks, repetitions)
MAX_FAILURES_SHOWN = 10

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def import_cli():
    """qtask.cli.main from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import qtask.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import qtask from {SRC}: {exc}")
    if Path(qtask.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: qtask was imported from {qtask.cli.__file__}, not from {SRC}")
    return qtask.cli.main


class Runner:
    """Runs ops through ``main`` in-process and counts failures."""

    def __init__(self, main, workload):
        self.main = main
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = self.main(list(argv))
        return rc, out.getvalue()

    def note(self, label: str, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{label}: {error}")
        return error is None

    def run(self, op, check=None) -> tuple[bool, int, int]:
        start = time.perf_counter_ns()
        try:
            rc, out = self.invoke(op.argv)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            rc, out, error = None, "", f"raised {type(exc).__name__}: {exc}"
        else:
            error = None
        end = time.perf_counter_ns()
        error = error or (check or self.workload.check)(op, rc, out)
        return self.note(op.label, error), start, end


def measure_setup(runner, workload) -> float:
    argv = json.dumps(list(workload.warmup_ops()[0].argv))
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(SRC), argv],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runner.note("setup", None if result["rc"] == 0 else f"set-up op returned {result['rc']}")
        times.append(result["setup_s"])
    return statistics.median(times)


def run_untraced(runner, workload, seconds):
    times, items = [], 0
    start = time.perf_counter()
    for op in workload.stream():
        if time.perf_counter() - start >= seconds:
            break
        ok, t0, t1 = runner.run(op)
        times.append((t1 - t0) / 1e9)
        items += op.items if ok else 0
    elapsed = time.perf_counter() - start
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    return {
        "op_s_p50": statistics.median(times),
        "op_s_p90": p90,
        "items_per_s": items / elapsed,
    }, len(times)


def run_traced(runner, workload, probe, seconds):
    tracer = spans.Tracer()
    ops, plain_ns, traced_ns = [], 0, 0
    start = time.perf_counter()
    for pair, op in enumerate(workload.stream()):
        if time.perf_counter() - start >= seconds:
            break
        for traced in (pair % 2 == 1, pair % 2 == 0):
            if traced:
                tracer.op = pair
                tracer.install()
            try:
                _, t0, t1 = runner.run(op)
            finally:
                tracer.uninstall()
            if traced:
                traced_ns += t1 - t0
                ops.append((pair, t0, t1, op.label))
            else:
                plain_ns += t1 - t0
    chains = {name: chain_probe(runner, n, reps) for name, (n, reps) in CHAIN_PROBES.items()}
    probe_tracer = spans.Tracer()
    probe_tracer.install()
    try:
        for op in probe.ops:
            runner.run(op, probe.check)
    finally:
        probe_tracer.uninstall()
    metrics = spans.layer_metrics(
        tracer.spans, ops, probe_tracer.spans, chains, traced_ns / plain_ns
    )
    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{workload.name}.json"
    spans.write_chrome_trace(trace_path, workload.name, tracer.spans, ops)
    return metrics, len(ops), trace_path


def chain_probe(runner, n: int, reps: int) -> float:
    """Runtime cost per task of a chain of n no-op host tasks, untraced."""
    from qtask.runtime import HostKernel, TaskState, make_runtime

    per_task = []
    for _ in range(reps):
        runtime = make_runtime(qpu=0, host=1)
        try:
            runtime.register_host_kernel("noop", lambda params, deps: None)
            graph = runtime.create_graph(seed=0)
            deps = ()
            for i in range(n):
                task = graph.create_task(f"c{i}", HostKernel("noop"), deps=deps, device_req="host")
                deps = (task,)
            start = time.perf_counter_ns()
            results = runtime.wait(runtime.submit(graph, sync=True))
            per_task.append((time.perf_counter_ns() - start) / 1e3 / n)
            done = sum(r.status is TaskState.COMPLETED for r in results.values())
        finally:
            runtime.shutdown()
        runner.note(f"chain{n}", None if done == n else f"{done} of {n} chain tasks completed")
    return statistics.median(per_task)


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def machine_stamp() -> dict:
    cpuinfo = (_read("/proc/cpuinfo") or "").splitlines()
    models = [ln.split(":", 1)[1].strip() for ln in cpuinfo if ln.startswith("model name")]
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    cache = {level: (_read(f"{cache_dir}/index{level[1]}/size") or "").strip() or None
             for level in ("l2", "l3")}
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": models[0] if models else platform.processor(),
        "l2_per_core": cache["l2"],
        "l3": cache["l3"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def run_one(args) -> int:
    load_before = os.getloadavg()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.make_workload(args.workload, args.seed, workdir)
        main = import_cli()
        runner = Runner(main, workload)
        setup_s = measure_setup(runner, workload) if not args.trace else None
        for op in workload.warmup_ops():
            runner.run(op)
        if args.trace:
            probe = workloads.ExecProbe(args.seed, workdir)
            values, n_ops, trace_path = run_traced(runner, workload, probe, args.seconds)
            names = SPEC["per_layer"]
        else:
            values, n_ops = run_untraced(runner, workload, args.seconds)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            names = SPEC["end_to_end"]
            trace_path = None
        runner.note("run", workload.finish())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    stamp = machine_stamp() | {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": n_ops,
        "load_before": load_before,
        "load_after": os.getloadavg(),
    }
    checks = workload.record()
    report(workload, result, stamp, runner.failures, checks, trace_path)
    if args.out:
        record = {**result, "stamp": stamp, "checks": checks, "failures": runner.failures}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def report(workload, result, stamp, failures, checks, trace_path):
    print("# " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    op, unit = workload.op_name, workload.unit
    aliases = {"op_s_p50": f"{op}_s_p50", "op_s_p90": f"{op}_s_p90", "items_per_s": f"{unit}_per_s"}
    for metric, entry in result["metrics"].items():
        print(f"{aliases.get(metric, metric):40s} {entry['value']:<14.6g} {entry['unit']}")
    fail_frac = result["failed"] / result["attempted"]
    counts = f"({result['failed']} of {result['attempted']} ops)"
    print(f"{'fail_frac':40s} {fail_frac:<14.6g} ratio  {counts}")
    for line in failures[:MAX_FAILURES_SHOWN]:
        print(f"# failed: {line}")
    sweeps = checks.get("sweeps")
    if sweeps:
        means = [s["mean"] for s in sweeps]
        stds = [s["std"] for s in sweeps]
        print(f"# sweeps: {len(sweeps)}, mean of means {statistics.fmean(means):.6f}, "
              f"median std {statistics.median(stds):.6f}")
    if "stdout_sha256" in checks:
        print(f"# stdout repeat-checked for {len(checks['stdout_sha256'])} distinct inputs")
    if trace_path is not None:
        print("# note: under the GIL a run_kernel span also holds time spent waiting on the")
        print("#       other worker's dispatch scans; that time counts as kernel, not runtime")
        print(f"# trace: {trace_path.relative_to(ROOT)}")


# --------------------------------------------------------------------------
# All workloads in one command, and comparison of two result files


def run_all(args) -> int:
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.out:
                cmd += ["--out", args.out]
            print(f"## {name} trace={trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                ok = False
            else:
                ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def _spread(values) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(base_path, new_path) -> int:
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}

    def load(path):
        runs = {}
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            key = (rec["stamp"]["workload"], rec["stamp"]["trace"])
            for metric, entry in rec["metrics"].items():
                runs.setdefault(key + (metric,), []).append(entry["value"])
        return runs

    base, new = load(base_path), load(new_path)
    row = "{:10s} {:40s} {:>12} {:>12} {:>7} {:>7}  {}"
    print(row.format("workload", "metric", "base", "new", "ratio", "spread", "verdict"))
    for key in sorted(base.keys() & new.keys()):
        workload, _, metric = key
        b, n = base[key], new[key]
        b_med, n_med = statistics.median(b), statistics.median(n)
        ratio = n_med / b_med if b_med else float("nan")
        spread = _spread(b)
        verdict = ""
        if metric in bounds:
            bound = bounds[metric]["bound"]
            lower = bounds[metric]["better"] == "lower"
            worse_by = (ratio - 1) if lower else (1 - ratio)
            all_better = (max(n) < min(b)) if lower else (min(n) > max(b))
            if all_better:
                verdict = "better"
            elif spread > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            elif -worse_by > spread:
                verdict = "better"
            else:
                verdict = "same"
        print(row.format(workload, metric, f"{b_med:.6g}", f"{n_med:.6g}", f"{ratio:.3f}",
                         f"{spread:.3f}", verdict))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append one JSON line per run to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
