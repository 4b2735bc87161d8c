"""The benchmark workloads and the exec probe: inputs, operations and checks.

Each workload is a closed loop with one client: an operation is one call of
``qtask.cli.main`` and the next starts only after it returns. All inputs are
made from the workload seed by ``make_workload`` before any timing starts,
so the same seed gives the same argument lists and the same input files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

GHZ_REPS = 20
GHZ_SHOTS = 1024
GHZ_SWEEPS = 4096  # distinct sweep seeds made up front; reused only past that many ops
# A sweep's mean must lie within GHZ_T_BAND * std / sqrt(GHZ_REPS) of 1, with
# std the sample std of its own reps. (mean - 1) / (std / sqrt(20)) follows
# Student's t with 19 degrees of freedom, not a normal: 7.35 is its quantile
# for the two-sided tail of 5 normal sigmas (5.7e-7); 5 would wrongly fail
# about one sweep in 12,500. The mean over all sweeps of a run, whose error
# is near normal, must lie within GHZ_POOLED_SIGMAS standard errors of 1.
GHZ_T_BAND = 7.35
GHZ_POOLED_SIGMAS = 5

GRAPH_TASKS = 1000
GRAPH_WIDTH = 8
GRAPH_POOL = 3
GRAPH_QIR_SHARE = 0.25
GRAPH_SHOTS = 256

EXEC_DEPTH = 8
EXEC_SHOTS = 1024
TRAJ_SHOTS = 256
# Programs of the traced pass's exec probe: (label, qubits, trajectory).
# The state vector is 64 KiB at w12, 1 MiB at w16 (fits a 2 MiB L2) and
# 4 MiB at w18 (does not); the w8 trajectory program re-evolves per shot.
EXEC_PROBE = (
    ("w12", 12, False),
    ("w16", 16, False),
    ("w18", 18, False),
    ("traj8", 8, True),
)
EXEC_PROBE_RUNS = 2

WORKLOADS = ("ghz_qpd", "graph_dag")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``label`` names its class, ``items`` counts the
    reps or tasks it completes."""

    argv: tuple[str, ...]
    label: str
    items: int


# --------------------------------------------------------------------------
# QIR text, written here so that inputs do not depend on qtask's own emitter


def _qubit(i: int) -> str:
    return "%Qubit* null" if i == 0 else f"%Qubit* inttoptr (i64 {i} to %Qubit*)"


def _result(i: int) -> str:
    return "%Result* null" if i == 0 else f"%Result* inttoptr (i64 {i} to %Result*)"


def _module(name: str, qubits: int, results: int, body: list[str]) -> str:
    lines = [
        f"; ModuleID = '{name}'",
        "%Qubit = type opaque",
        "%Result = type opaque",
        "",
        "define void @main() #0 {",
        "entry:",
        "  call void @__quantum__rt__initialize(i8* null)",
        *("  " + line for line in body),
        "  ret void",
        "}",
        "",
        'attributes #0 = { "entry_point" "qir_profiles"="base_profile" '
        f'"required_num_qubits"="{qubits}" "required_num_results"="{results}" }}',
    ]
    return "\n".join(lines) + "\n"


def _measure_all(width: int) -> list[str]:
    return [f"call void @__quantum__qis__mz__body({_qubit(q)}, {_result(q)})" for q in range(width)]


def _record(results) -> list[str]:
    return [
        f"call void @__quantum__rt__result_record_output({_result(r)}, i8* null)"
        for r in results
    ]


def ghz_qir(width: int) -> str:
    body = [f"call void @__quantum__qis__h__body({_qubit(0)})"]
    body += [
        f"call void @__quantum__qis__cnot__body({_qubit(q)}, {_qubit(q + 1)})"
        for q in range(width - 1)
    ]
    body += _measure_all(width) + _record(range(width))
    return _module(f"ghz{width}", width, width, body)


def brickwork_qir(rng: random.Random, width: int, depth: int, trajectory: bool) -> str:
    """Random brickwork: per layer a single-qubit gate on every qubit, then
    cnot and cz on alternating pairs; every qubit ends in an mz. A trajectory
    program also measures qubit 0 halfway into result ``width`` and keeps
    using it afterwards.

    Programs of one width cost the same whatever the seed. The first layer
    is h on every qubit and later layers draw from s, t and rz, which all
    cost the same; none of these can cancel amplitudes, so every output
    covers all 2**width outcomes (building and sampling the distribution
    costs in proportion to its support). Where cnot and cz go is fixed,
    because a cnot's cost depends on its qubits.
    """
    body = []
    for layer in range(depth):
        for q in range(width):
            gate = rng.choice(("s", "t", "rz")) if layer else "h"
            if gate == "rz":
                angle = rng.uniform(-math.pi, math.pi)
                body.append(f"call void @__quantum__qis__rz__body(double {angle!r}, {_qubit(q)})")
            else:
                body.append(f"call void @__quantum__qis__{gate}__body({_qubit(q)})")
        for i, a in enumerate(range(layer % 2, width - 1, 2)):
            gate = ("cnot", "cz")[(i + layer) % 2]
            body.append(f"call void @__quantum__qis__{gate}__body({_qubit(a)}, {_qubit(a + 1)})")
        if trajectory and layer == depth // 2 - 1:
            body.append(f"call void @__quantum__qis__mz__body({_qubit(0)}, {_result(width)})")
    results = width + 1 if trajectory else width
    body += _measure_all(width) + _record(range(results))
    return _module(f"brick{width}", width, results, body)


# --------------------------------------------------------------------------
# Workloads


class Workload:
    """The ops a run times, in order, plus the checks their outputs must pass.

    ``check`` returns None for a correct output and a one-line reason
    otherwise.
    """

    name = ""
    op_name = ""  # what one op is called in the report: sweep, graph, exec
    unit = ""  # what ``Op.items`` counts
    ops: list[Op]

    def stream(self):
        return itertools.cycle(self.ops)

    def warmup_ops(self) -> list[Op]:
        """Ops run and checked once before timing starts; the first is also
        the set-up probe's op."""
        return [self.ops[0]]

    def check(self, op: Op, rc: int, out: str) -> str | None:
        raise NotImplementedError

    def finish(self) -> str | None:
        """A check over every op of the run, made once after timing ends."""
        return None

    def record(self) -> dict:
        """What the checks saw, for the result stamp."""
        return {}


class _RepeatCheck:
    """Remembers stdout per key and reports any later difference."""

    def __init__(self):
        self.digests: dict[str, str] = {}

    def __call__(self, key: str, out: str) -> str | None:
        digest = hashlib.sha256(out.encode()).hexdigest()
        first = self.digests.setdefault(key, digest)
        if digest != first:
            return f"stdout of {key} differs from its first run"
        return None


class GhzQpd(Workload):
    name = "ghz_qpd"
    op_name = "sweep"
    unit = "reps"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"ghz_qpd:{seed}")
        self.ops = [
            Op(
                (
                    "ghz-qpd", "--reps", str(GHZ_REPS), "--shots", str(GHZ_SHOTS),
                    "--devices", "1", "--seed", str(rng.randrange(2**31)),
                ),
                "sweep",
                GHZ_REPS,
            )
            for _ in range(GHZ_SWEEPS)
        ]
        self.exact = Op(("ghz-qpd", "--mode", "exact", "--reps", "1"), "exact", 1)
        self.sweeps: dict[tuple[str, ...], tuple[float, float]] = {}  # argv -> (mean, std)

    def warmup_ops(self):
        return [self.ops[0], self.exact]

    def check(self, op, rc, out):
        if rc != 0:
            return f"exit code {rc}"
        fields = dict(line.split(" ", 1) for line in out.splitlines() if " " in line)
        try:
            mean, std = float(fields["estimate"]), float(fields["std"])
        except (KeyError, ValueError):
            return f"unreadable output {out[:80]!r}"
        if op is self.exact:
            return None if abs(mean - 1.0) <= 1e-9 else f"exact-mode estimate {mean} is not 1"
        self.sweeps[op.argv] = (mean, std)  # a sweep run twice counts once in finish
        band = GHZ_T_BAND * std / math.sqrt(GHZ_REPS)
        if not abs(mean - 1.0) <= band:
            return f"sweep mean {mean} outside 1 +- {band:.3g}"
        return None

    def finish(self):
        if not self.sweeps:
            return None
        sweeps = self.sweeps.values()
        n = len(sweeps)
        mean = math.fsum(m for m, _ in sweeps) / n
        stderr = math.sqrt(math.fsum(s * s for _, s in sweeps) / GHZ_REPS) / n
        band = GHZ_POOLED_SIGMAS * stderr
        if not abs(mean - 1.0) <= band:
            return f"mean of {n} sweep means {mean} outside 1 +- {band:.3g}"
        return None

    def record(self):
        return {"sweeps": [{"mean": m, "std": s} for m, s in self.sweeps.values()]}


class GraphDag(Workload):
    name = "graph_dag"
    op_name = "graph"
    unit = "tasks"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"graph_dag:{seed}")
        ghz4, bell = workdir / "ghz4.ll", workdir / "bell.ll"
        ghz4.write_text(ghz_qir(4))
        bell.write_text(ghz_qir(2))
        kernels = (
            {"type": "qir", "file": str(ghz4)},
            {"type": "qir", "file": str(bell)},
            {"type": "qir", "source": ghz_qir(4)},
        )
        self.ops = []
        for g in range(GRAPH_POOL):
            path = workdir / f"graph{g}.json"
            path.write_text(json.dumps(self._graph(rng, kernels)))
            self.ops.append(Op(("graph", str(path)), f"graph{g}", GRAPH_TASKS))
        self._repeat = _RepeatCheck()

    @staticmethod
    def _graph(rng: random.Random, kernels) -> dict:
        """Layered DAG: GRAPH_WIDTH tasks per layer, each depending on two
        random tasks of the previous layer. Exactly a quarter, at random
        places, run QIR on the qpu, split evenly over the three kernels, so
        every graph holds the same work; the rest are host no-ops."""
        n_qir = int(GRAPH_TASKS * GRAPH_QIR_SHARE)
        qir_kernels = dict(zip(
            rng.sample(range(GRAPH_TASKS), n_qir), (kernels[i % len(kernels)] for i in range(n_qir))
        ))
        tasks, prev = [], []
        for layer in range(GRAPH_TASKS // GRAPH_WIDTH):
            names = [f"t{layer}_{j}" for j in range(GRAPH_WIDTH)]
            for name in names:
                kernel = qir_kernels.get(len(tasks))
                if kernel is not None:
                    task = {"name": name, "kernel": kernel, "shots": GRAPH_SHOTS, "device": "qpu"}
                else:
                    kernel = {"type": "host", "name": "noop"}
                    task = {"name": name, "kernel": kernel, "device": "host"}
                if prev:
                    task["depends"] = sorted(rng.sample(prev, 2))
                tasks.append(task)
            prev = names
        return {
            "seed": rng.randrange(2**31),
            "policy": "roundrobin",
            "devices": {"qpu": 1, "host": 1},
            "tasks": tasks,
        }

    def check(self, op, rc, out):
        if rc != 0:
            return f"exit code {rc}"
        task_lines = [line for line in out.splitlines() if not line.startswith(" ")]
        if len(task_lines) != GRAPH_TASKS:
            return f"{len(task_lines)} task lines, expected {GRAPH_TASKS}"
        for line in task_lines:
            if not line.endswith(" completed"):
                return f"task not completed: {line!r}"
        return self._repeat(op.label, out)

    def record(self):
        return {"stdout_sha256": dict(self._repeat.digests)}


class ExecProbe:
    """``qtask exec`` on one generated program per EXEC_PROBE class, each run
    EXEC_PROBE_RUNS times: the traced pass's source of large-state simulator
    figures, which neither workload reaches."""

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"exec_probe:{seed}")
        self.ops = []
        for label, width, trajectory in EXEC_PROBE:
            path = workdir / f"{label}.ll"
            path.write_text(brickwork_qir(rng, width, EXEC_DEPTH, trajectory))
            accelerator = "trajectory" if trajectory else "statevector"
            shots = TRAJ_SHOTS if trajectory else EXEC_SHOTS
            argv = (
                "exec", str(path), "-a", accelerator, "-s", str(shots),
                "--seed", str(rng.randrange(2**31)),
            )
            self.ops += [Op(argv, label, 1)] * EXEC_PROBE_RUNS
        self._repeat = _RepeatCheck()

    def check(self, op, rc, out):
        if rc != 0:
            return f"exit code {rc}"
        lines = out.splitlines()
        shots = int(op.argv[op.argv.index("-s") + 1])
        if not lines or lines[-1] != f"shots {shots}":
            return f"last line {lines[-1:]!r}, expected 'shots {shots}'"
        try:
            total = sum(int(line.split()[1]) for line in lines[:-1])
        except (IndexError, ValueError):
            return "unreadable histogram line"
        if total != shots:
            return f"histogram counts sum to {total}, expected {shots}"
        return self._repeat(op.label, out)


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    cls = {"ghz_qpd": GhzQpd, "graph_dag": GraphDag}[name]
    return cls(seed, workdir)
