"""Byte contract: values recorded before a runtime rewrite and pinned across it.

Each pin is a ``float.hex`` or a stdout SHA-256 that any change to the
scheduler, the estimator or the CLI must leave unchanged. A change that moves
one on purpose records the new value and says why.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from qtask.circuit import Circuit, Gate
from qtask.cli import main
from qtask.qir import emit_qir
from qtask.qpd import InstanceResult, canonical_wire_cut, estimate_zzzz, validate_run

# validate_run(reps=5, shots=1024, seed=2024, devices=d).mean.hex()
VALIDATE_MEAN_HEX = {
    1: "0x1.ffa1a00000000p-1",
    8: "0x1.ffa1a00000000p-1",
    64: "0x1.ffa1a00000000p-1",
}

GHZ_QPD_STDOUT_SHA256 = {
    ("ghz-qpd", "--reps", "5", "--seed", "3"):
        "78a0e7a1bb92f9cd38b348cc130890137c34e229287f7f4e3018533400605d2f",
    ("ghz-qpd", "--reps", "5", "--seed", "3", "--no-dedup"):
        "1e55242a693e26fb1bff8adeabebcfc4cf86ac5ca1b7d20b23451a37a307f156",
}

# estimate_zzzz(...).value.hex() on _random_instance_results(): its 64 terms are not
# dyadic, so the value also pins the order in which they are summed
ESTIMATE_VALUE_HEX = "0x1.c0e04439db407p-7"

# `qtask graph --policy roundrobin` on the graph of _mixed_graph(), per (qpu, host)
GRAPH_STDOUT_SHA256 = {
    (1, 1): "e611dbefcc9527efb9ff6596f6c7aa7420e39f0788510c6d5b76e11dea076c00",
    (3, 2): "b33f78365698d831e6f39c9dc178e500c26af2200b20e7748e6f9424c6dee64f",
}


@pytest.mark.parametrize("devices", sorted(VALIDATE_MEAN_HEX))
def test_validate_run_mean_bytes(devices):
    mean = validate_run(reps=5, shots=1024, seed=2024, devices=devices).mean
    assert mean.hex() == VALIDATE_MEAN_HEX[devices]


def _random_instance_results(seed: int = 0) -> dict:
    """One InstanceResult per two-cut (k, s), each fragment a dict of four
    normalised probabilities drawn from ``np.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    results = {}
    for k in range(1, 9):
        for s in range(1, 9):
            dists = []
            for _ in range(3):
                p = rng.random(4)
                dists.append(dict(zip(("00", "01", "10", "11"), (p / p.sum()).tolist())))
            results[(k, s)] = InstanceResult(*dists)
    return results


def test_estimate_summation_order_bytes():
    results = _random_instance_results()
    value = estimate_zzzz(results, canonical_wire_cut(), mode="exact").value
    assert value.hex() == ESTIMATE_VALUE_HEX


def _stdout_sha256(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(GHZ_QPD_STDOUT_SHA256), ids=" ".join)
def test_ghz_qpd_stdout_bytes(capsys, argv):
    assert _stdout_sha256(capsys, argv) == GHZ_QPD_STDOUT_SHA256[argv]


def _random_gates(rng: random.Random, qubits: int) -> list[list]:
    gates = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(["h", "x", "s", "t", "rx", "rz"] + ["cnot", "cz"] * (qubits > 1))
        if kind in ("cnot", "cz"):
            gates.append([kind, *rng.sample(range(qubits), 2)])
        elif kind in ("rx", "rz"):
            gates.append([kind, rng.randrange(qubits), rng.choice([0.25, 0.5, 1.0, 2.5])])
        else:
            gates.append([kind, rng.randrange(qubits)])
    return gates + [["mz", q, q] for q in range(qubits)]


def _mixed_graph(n: int = 240, seed: int = 2024) -> dict:
    """A layered DAG mixing QIR by file, inline QIR, exact and sampled circuits
    and host no-ops, with class requirements and pins to device 0."""
    rng = random.Random(seed)
    tasks = []
    for i in range(n):
        kind = rng.choice(["file", "inline", "exact", "sampled", "host", "host"])
        entry = {"name": f"t{i}"}
        if kind == "file":
            entry["kernel"] = {"type": "qir", "file": rng.choice(["bell.ll", "ghz4.ll"])}
            entry["shots"] = rng.choice([0, 64, 256])
        elif kind == "inline":
            qubits = rng.randint(2, 3)
            circuit = Circuit(qubits)
            for name, *args in _random_gates(rng, qubits):
                circuit.append(getattr(Gate, name)(*args))
            entry["kernel"] = {"type": "qir", "source": emit_qir(circuit)}
            entry["shots"] = rng.choice([32, 128])
        elif kind in ("exact", "sampled"):
            qubits = rng.randint(1, 3)
            entry["kernel"] = {
                "type": "circuit", "qubits": qubits, "mode": kind,
                "gates": _random_gates(rng, qubits),
            }
            entry["shots"] = rng.choice([16, 100, 512])
        else:
            entry["kernel"] = {"type": "host", "name": "noop", "params": [i]}
        if kind != "host" and rng.random() < 0.1:
            entry["device"] = 0
        elif rng.random() < 0.3:
            entry["device"] = "host" if kind == "host" else "qpu"
        if i:
            window = range(max(0, i - 20), i)
            deps = rng.sample(window, min(len(window), rng.randint(0, 3)))
            entry["depends"] = [f"t{j}" for j in sorted(deps)]
        tasks.append(entry)
    return {"seed": 17, "policy": "default", "devices": {"qpu": 1, "host": 1}, "tasks": tasks}


@pytest.mark.parametrize("qpu,host", sorted(GRAPH_STDOUT_SHA256))
def test_graph_roundrobin_stdout_bytes(capsys, tmp_path, qpu, host):
    spec = _mixed_graph()
    spec["devices"] = {"qpu": qpu, "host": host}
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(spec))
    digest = _stdout_sha256(capsys, ["graph", str(path), "--policy", "roundrobin"])
    assert digest == GRAPH_STDOUT_SHA256[(qpu, host)]
