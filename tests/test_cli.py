import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from test_runtime import _on_a_thread

import qtask
from qtask import cli
from qtask.circuit import Circuit, Gate
from qtask.cli import main
from qtask.qir import emit_qir, output_positions, parse_qir
from qtask.runtime import MAX_DEVICES, HostDevice, QirKernel, QpuDevice, TaskState, make_runtime
from qtask.simulator import MAX_QUBITS

FANOUT_GRAPH = {
    "seed": 7,
    "policy": "roundrobin",
    "devices": {"qpu": 4, "host": 0},
    "tasks": [
        {"name": f"t{i}", "kernel": {"type": "qir", "file": "bell.ll"}, "shots": 128}
        for i in range(16)
    ],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exec ---------------------------------------------------------------------


def test_exec_bell_histogram_shape(capsys):
    code, out, _ = run_cli(capsys, "exec", "bell.ll", "-a", "statevector", "-s", "1024", "--seed", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "shots 1024"
    counts = dict(line.split() for line in lines[:-1])
    assert set(counts) <= {"00", "11"}
    values = [int(v) for v in counts.values()]
    assert sum(values) == 1024
    assert all(432 <= v <= 592 for v in values)


def test_exec_zero_shots_with_note(capsys):
    code, out, err = run_cli(capsys, "exec", "ghz4.ll", "-s", "0")
    assert code == 0
    assert out == "shots 0\n"
    assert "exact distribution" in err


def test_exec_probs(capsys):
    code, out, _ = run_cli(capsys, "exec", "ghz4.ll", "-s", "0", "--probs")
    assert code == 0
    assert out == "0000 0.5\n1111 0.5\n"


def test_exec_unknown_accelerator_lists_choices(capsys):
    code, _, err = run_cli(capsys, "exec", "bell.ll", "-a", "qpp", "-s", "8")
    assert code == 2
    assert "statevector" in err and "trajectory" in err


def test_exec_trajectory(capsys):
    code, out, _ = run_cli(capsys, "exec", "bell.ll", "-a", "trajectory", "-s", "40", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "shots 40"
    assert set(dict(line.split() for line in lines[:-1])) <= {"00", "11"}


def test_exec_missing_file(capsys):
    code, _, err = run_cli(capsys, "exec", "missing.ll")
    assert code == 2
    assert "not found" in err


def test_exec_parse_error_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.ll"
    bad.write_text(
        "define void @main() {\n"
        "  call void @__quantum__qis__h__body(%Qubit* inttoptr (i64 oops to %Qubit*))\n"
        "  ret void\n"
        "}\n"
    )
    code, _, err = run_cli(capsys, "exec", str(bad))
    assert code == 2
    assert "line 2" in err


def test_exec_measurement_then_gate_needs_trajectory(capsys, tmp_path):
    path = tmp_path / "midcircuit.ll"
    circuit = Circuit(1).append(Gate.h(0), Gate.mz(0, 0), Gate.x(0), Gate.mz(0, 1))
    path.write_text(emit_qir(circuit))
    code, out, err = run_cli(capsys, "exec", str(path), "-s", "8")
    assert code == 2 and out == ""
    assert "trajectory" in err
    code, out, _ = run_cli(capsys, "exec", str(path), "-a", "trajectory", "-s", "8")
    assert code == 0 and out.endswith("shots 8\n")


@pytest.mark.parametrize("accelerator", ["statevector", "trajectory"])
def test_exec_too_wide_is_usage_error(capsys, tmp_path, accelerator):
    # the width is checked before the state is allocated
    width = MAX_QUBITS + 6
    path = tmp_path / "wide.ll"
    path.write_text(emit_qir(Circuit(width).append(Gate.h(width - 1))))
    code, out, err = run_cli(capsys, "exec", str(path), "-a", accelerator)
    assert code == 2 and out == ""
    assert f"{width} qubits" in err and str(MAX_QUBITS) in err


def test_exec_trajectory_reorders_keys_like_statevector(capsys, tmp_path):
    # x q0, mz q0 -> r0, mz q1 -> r1, recorded r1 then r0: every shot reads 01
    path = tmp_path / "swapped.ll"
    circuit = Circuit(2).append(Gate.x(0), Gate.mz(0, 0), Gate.mz(1, 1))
    path.write_text(emit_qir(circuit, output_order=[1, 0]))
    for accelerator in ("statevector", "trajectory"):
        code, out, _ = run_cli(capsys, "exec", str(path), "-a", accelerator, "-s", "16")
        assert code == 0
        assert out == "01 16\nshots 16\n"


def test_exec_byte_identical_across_runs(capsys):
    args = ("exec", "bell.ll", "-s", "512", "--seed", "21")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# -- graph --------------------------------------------------------------------


def test_graph_fanout_roundrobin(capsys, tmp_path):
    path = tmp_path / "fanout.json"
    path.write_text(json.dumps(FANOUT_GRAPH))
    code, out, _ = run_cli(capsys, "graph", str(path))
    assert code == 0
    status_lines = [ln for ln in out.splitlines() if not ln.startswith("  ")]
    assert len(status_lines) == 16
    devices = []
    for line in status_lines:
        name, device, state = line.split()
        assert state == "completed"
        devices.append(int(device))
    assert sorted(devices) == sorted(list(range(4)) * 4)


def test_graph_empty_tasks(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"devices": {"qpu": 1, "host": 1}, "tasks": []}')
    code, out, _ = run_cli(capsys, "graph", str(path))
    assert code == 0 and out == ""


def test_graph_unknown_field_named(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"devices": {"qpu": 1}, "gpu": 3, "tasks": []}')
    code, _, err = run_cli(capsys, "graph", str(path))
    assert code == 2 and "'gpu'" in err


def test_graph_cycle_rejected(capsys, tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(
        json.dumps(
            {
                "devices": {"host": 1},
                "tasks": [
                    {"name": "a", "kernel": {"type": "host", "name": "noop"}, "depends": ["b"]},
                    {"name": "b", "kernel": {"type": "host", "name": "noop"}, "depends": ["a"]},
                ],
            }
        )
    )
    code, _, err = run_cli(capsys, "graph", str(path))
    assert code == 2
    assert "error" in err.lower()


def test_graph_cycle_named_in_one_sentence(capsys, tmp_path):
    noop = {"type": "host", "name": "noop"}
    path = tmp_path / "cycle.json"
    path.write_text(
        json.dumps(
            {
                "devices": {"host": 1},
                "tasks": [
                    {"name": "t0", "kernel": noop, "depends": ["t1"]},
                    {"name": "t1", "kernel": noop, "depends": ["t0"]},
                ],
            }
        )
    )
    code, out, err = run_cli(capsys, "graph", str(path))
    assert code == 2 and out == ""
    assert err in (
        "error: dependency cycle: t0 -> t1 -> t0\n",
        "error: dependency cycle: t1 -> t0 -> t1\n",
    )


def test_graph_failed_task_exit_code(capsys, tmp_path):
    path = tmp_path / "fail.json"
    path.write_text(
        json.dumps(
            {
                "devices": {"qpu": 0, "host": 1},
                "tasks": [{"name": "a", "kernel": {"type": "qir", "file": "bell.ll"}}],
            }
        )
    )
    code, out, _ = run_cli(capsys, "graph", str(path))
    assert code == 1
    assert "a - failed" in out
    assert "no-capable-device" in out


def test_graph_repeat_byte_identical(capsys, tmp_path):
    path = tmp_path / "fanout.json"
    path.write_text(json.dumps(FANOUT_GRAPH))
    _, out1, _ = run_cli(capsys, "graph", str(path))
    _, out2, _ = run_cli(capsys, "graph", str(path))
    assert out1 == out2


def test_graph_payload_summaries_stable_across_policies(capsys, tmp_path):
    path = tmp_path / "fanout.json"
    path.write_text(json.dumps(FANOUT_GRAPH))
    _, out_rr, _ = run_cli(capsys, "graph", str(path), "--policy", "roundrobin")
    _, out_def, _ = run_cli(capsys, "graph", str(path), "--policy", "default")
    payloads_rr = [ln for ln in out_rr.splitlines() if ln.startswith("  ")]
    payloads_def = [ln for ln in out_def.splitlines() if ln.startswith("  ")]
    assert payloads_rr == payloads_def


# qpu tasks of several lengths, some waiting on others, plus host tasks: under
# default the device a task lands on depends on which qpu frees first
MIXED_GRAPH = {
    "seed": 9,
    "policy": "default",
    "devices": {"qpu": 2, "host": 1},
    "tasks": [
        {"name": "a", "kernel": {"type": "qir", "file": "bell.ll"}, "shots": 256},
        {"name": "b", "kernel": {"type": "qir", "file": "ghz4.ll"}, "shots": 256},
        {"name": "c", "kernel": {"type": "qir", "file": "bell.ll"}, "shots": 64},
        {"name": "d", "kernel": {"type": "host", "name": "noop"}, "depends": ["a"]},
        {"name": "e", "kernel": {"type": "qir", "file": "ghz4.ll"}, "shots": 128,
         "depends": ["a"]},
        {"name": "f", "kernel": {"type": "qir", "file": "bell.ll"}, "shots": 32,
         "depends": ["b"]},
        {"name": "g", "kernel": {"type": "host", "name": "noop"}, "depends": ["c", "e"]},
        {"name": "h", "kernel": {"type": "qir", "file": "bell.ll"}, "shots": 512,
         "depends": ["f"]},
    ],
}


def test_graph_default_policy_repeats_everything_but_the_device_column(capsys, tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED_GRAPH))
    runs = []
    for _ in range(5):
        code, out, _ = run_cli(capsys, "graph", str(path), "--policy", "default")
        assert code == 0
        lines = out.splitlines()
        payloads = [ln for ln in lines if ln.startswith("  ")]
        statuses = [ln.split()[::2] for ln in lines if not ln.startswith("  ")]
        runs.append((payloads, statuses))
    assert len(runs[0][0]) == 6
    assert all(status == "completed" for _, status in runs[0][1])
    assert all(run == runs[0] for run in runs)


def test_graph_roundrobin_stdout_repeats_whatever_finishes_first(capsys, tmp_path, monkeypatch):
    # random kernel delays vary the order in which tasks become ready; roundrobin
    # placement is fixed at submit, so the device column must not follow it
    rng = random.Random(3)
    for cls in (QpuDevice, HostDevice):
        run_kernel = cls.run_kernel

        def delayed(self, task, graph, runtime, run_kernel=run_kernel):
            time.sleep(rng.uniform(0, 0.003))
            return run_kernel(self, task, graph, runtime)

        monkeypatch.setattr(cls, "run_kernel", delayed)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED_GRAPH))
    hashes = set()
    for _ in range(40):
        code, out, _ = run_cli(capsys, "graph", str(path), "--policy", "roundrobin")
        assert code == 0
        hashes.add(hashlib.sha256(out.encode()).hexdigest())
    assert len(hashes) == 1


def test_graph_default_stdout_repeats_whatever_finishes_first(capsys, tmp_path, monkeypatch):
    # the calling thread runs the tasks in placement order, so which device is
    # the lowest-id idle one does not depend on which kernel returns first
    rng = random.Random(3)
    for cls in (QpuDevice, HostDevice):
        run_kernel = cls.run_kernel

        def delayed(self, task, graph, runtime, run_kernel=run_kernel):
            time.sleep(rng.uniform(0, 0.003))
            return run_kernel(self, task, graph, runtime)

        monkeypatch.setattr(cls, "run_kernel", delayed)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED_GRAPH))
    outs = set()
    for _ in range(40):
        code, out, _ = run_cli(capsys, "graph", str(path), "--policy", "default")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_ghz_qpd_and_graph_start_no_thread(capsys, tmp_path):
    # both run their graphs with submit(sync=True), on the calling thread
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED_GRAPH))
    real_start = threading.Thread.start

    def run(argv):
        with mock.patch.object(threading.Thread, "start", autospec=True, side_effect=real_start) as start:
            code = main(argv)
        return code, start.call_count

    assert _on_a_thread(run, ["ghz-qpd", "--reps", "2", "--devices", "4"]) == (0, 0)
    assert _on_a_thread(run, ["graph", str(path)]) == (0, 0)
    assert capsys.readouterr().out.count("completed") == 8


# -- ghz-qpd ------------------------------------------------------------------


def test_ghz_qpd_exact(capsys):
    code, out, _ = run_cli(capsys, "ghz-qpd", "--mode", "exact", "--reps", "1")
    assert code == 0
    assert out == "estimate 1.000000000\nstd 0\n"


def test_ghz_qpd_devices_zero_usage_error(capsys):
    code, _, err = run_cli(capsys, "ghz-qpd", "--devices", "0")
    assert code == 2
    assert "at least 1" in err


def test_ghz_qpd_sampled_zero_shots_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "ghz-qpd", "--shots", "0")
    assert code == 2 and out == ""
    assert "--shots" in err
    code, out, _ = run_cli(capsys, "ghz-qpd", "--mode", "exact", "--shots", "0")
    assert code == 0 and out.startswith("estimate 1.000000000\n")


def test_ghz_qpd_devices_above_cap_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "ghz-qpd", "--devices", str(MAX_DEVICES + 1))
    assert code == 2 and out == ""
    assert "--devices" in err and str(MAX_DEVICES) in err


def test_ghz_qpd_sampled_with_csv(capsys, tmp_path):
    csv_path = tmp_path / "vals.csv"
    code, out, _ = run_cli(
        capsys,
        "ghz-qpd", "--shots", "256", "--reps", "4", "--devices", "2",
        "--seed", "5", "--csv", str(csv_path),
    )
    assert code == 0
    assert out.startswith("estimate ")
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "rep,value" and len(lines) == 7


def test_ghz_qpd_stdout_invariant_to_device_count(capsys):
    args = ("ghz-qpd", "--shots", "128", "--reps", "2", "--seed", "11")
    _, out_a, _ = run_cli(capsys, *args, "--devices", "1")
    _, out_b, _ = run_cli(capsys, *args, "--devices", "6")
    assert out_a == out_b


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_graph_boolean_for_integer_is_usage_error(capsys, tmp_path):
    spec = dict(FANOUT_GRAPH, tasks=[dict(FANOUT_GRAPH["tasks"][0], device=True)])
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "graph", str(path))
    assert code == 2 and out == ""
    assert "'device'" in err


def test_graph_device_count_above_cap_is_usage_error(capsys, tmp_path):
    spec = dict(FANOUT_GRAPH, devices={"qpu": MAX_DEVICES + 1, "host": 0})
    path = tmp_path / "many.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "graph", str(path))
    assert code == 2 and out == ""
    assert "'qpu'" in err


@pytest.mark.parametrize(
    "task",
    [
        {"kernel": {"type": "circuit", "qubits": 2, "mode": "exact", "gates": [
            ["h", 0], ["cnot", 0, 1], ["mz", 0, 0], ["mz", 1, 1]]}},
        {"kernel": {"type": "qir", "file": "bell.ll"}, "shots": 0},
    ],
    ids=["circuit-exact", "qir-zero-shots"],
)
def test_graph_prints_exact_distribution(capsys, tmp_path, task):
    spec = {"devices": {"qpu": 1, "host": 0}, "tasks": [dict(task, name="bell")]}
    path = tmp_path / "exact.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "graph", str(path))
    assert code == 0
    assert out == "bell 0 completed\n  probs 00:0.5,11:0.5\n"


@pytest.mark.parametrize(
    "kernel", [{"type": "qir", "source": "not qir"}, {"type": "qir", "file": "missing.ll"}]
)
def test_graph_malformed_qir_is_usage_error(capsys, tmp_path, kernel):
    # a QIR kernel is lowered when its task is created, so a bad program stops
    # the command before anything runs, naming the task
    spec = {
        "devices": {"qpu": 1, "host": 0},
        "tasks": [
            {"name": "good", "kernel": {"type": "qir", "file": "bell.ll"}},
            {"name": "broken", "kernel": kernel, "depends": ["good"]},
        ],
    }
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "graph", str(path))
    assert code == 2 and out == ""
    assert "'broken'" in err


@pytest.mark.parametrize(
    "kernel",
    [
        {"type": "circuit", "qubits": MAX_QUBITS + 6, "gates": [["h", MAX_QUBITS + 5]]},
        {"type": "qir", "source": emit_qir(Circuit(MAX_QUBITS + 6).append(Gate.h(0)))},
        {"type": "circuit", "qubits": 1, "gates": [["mz", 0, 0], ["h", 0]]},
    ],
    ids=["circuit-too-wide", "qir-too-wide", "circuit-measure-then-use"],
)
def test_graph_qpu_kernel_no_qpu_can_run_is_usage_error(capsys, tmp_path, kernel):
    # a qpu runs statevector only, so such a kernel is rejected when its task
    # is created, before anything runs, naming the task
    spec = {
        "devices": {"qpu": 1, "host": 0},
        "tasks": [
            {"name": "good", "kernel": {"type": "qir", "file": "bell.ll"}},
            {"name": "unrunnable", "kernel": kernel, "depends": ["good"]},
        ],
    }
    path = tmp_path / "unrunnable.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "graph", str(path))
    assert code == 2 and out == ""
    assert "'unrunnable'" in err


@pytest.mark.parametrize(
    "kernel",
    [
        {"type": "qir", "source": "not qir"},
        {"type": "qir", "file": "missing.ll"},
        {"type": "circuit", "qubits": 1, "gates": [["mz", 0, 0], ["h", 0]]},
    ],
    ids=["qir-does-not-parse", "qir-file-missing", "circuit-measure-then-use"],
)
def test_graph_kernel_input_error_starts_no_thread(capsys, tmp_path, kernel):
    # a device becomes a thread only once it is given a task, so a kernel that
    # create_task rejects ends the command before any of the 6 devices starts
    spec = {"devices": {"qpu": 4, "host": 2}, "tasks": [{"name": "bad", "kernel": kernel}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    real_start = threading.Thread.start
    with mock.patch.object(threading.Thread, "start", autospec=True, side_effect=real_start) as start:
        code, out, err = run_cli(capsys, "graph", str(path))
    assert code == 2 and out == "" and "'bad'" in err
    assert start.call_count == 0


@pytest.mark.parametrize(
    "gates",
    [5, None, [["h", 0.5]], [["cnot", 0, 1.0]], [["mz", 0, 0.0]], [["rx", 0, "1.5"]]],
    ids=["gates-int", "gates-null", "qubit-float", "target-float", "slot-float", "angle-string"],
)
def test_graph_bad_circuit_operand_is_usage_error(capsys, tmp_path, gates):
    # a gate list or operand of the wrong type stops the command before
    # anything runs, naming the task, rather than failing or running the task
    spec = {
        "devices": {"qpu": 1, "host": 0},
        "tasks": [
            {"name": "good", "kernel": {"type": "qir", "file": "bell.ll"}},
            {"name": "bad", "kernel": {"type": "circuit", "qubits": 2, "gates": gates},
             "depends": ["good"]},
        ],
    }
    path = tmp_path / "operands.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "graph", str(path))
    assert code == 2 and out == ""
    assert "'bad'" in err


_INFINITE_RX_QIR = emit_qir(Circuit(1).append(Gate.rx(0, 1.5), Gate.mz(0, 0))).replace(
    "double 1.5", "double 1e999"
)


def test_exec_infinite_angle_is_usage_error(capsys, tmp_path):
    # a QIR double of 1e999 reads as inf; no gate takes it
    path = tmp_path / "inf.ll"
    path.write_text(_INFINITE_RX_QIR)
    code, out, err = run_cli(capsys, "exec", str(path))
    assert code == 2 and out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "kernel",
    [
        {"type": "qir", "source": _INFINITE_RX_QIR},
        {"type": "circuit", "qubits": 1, "gates": [["rx", 0, float("nan")], ["mz", 0, 0]]},
        {"type": "circuit", "qubits": 1, "gates": [["ry", 0, float("-inf")]]},
    ],
    ids=["qir-inf", "circuit-nan", "circuit-minus-inf"],
)
def test_graph_non_finite_angle_is_usage_error(capsys, tmp_path, kernel):
    # JSON reads NaN and -Infinity as floats; a task with such an angle stops
    # the command before anything runs, naming the task
    spec = {
        "devices": {"qpu": 1, "host": 0},
        "tasks": [
            {"name": "good", "kernel": {"type": "qir", "file": "bell.ll"}},
            {"name": "angled", "kernel": kernel, "shots": 0, "depends": ["good"]},
        ],
    }
    path = tmp_path / "angles.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "graph", str(path))
    assert code == 2 and out == ""
    assert "'angled'" in err and "finite" in err


# -- one QIR execution path ---------------------------------------------------


def _qir_task_payload(kernel):
    with make_runtime(qpu=1, host=0) as runtime:
        graph = runtime.create_graph()
        tid = graph.create_task("t", kernel)
        result = runtime.wait(runtime.submit(graph))[tid]
    assert result.status is TaskState.COMPLETED
    return result.payload


@pytest.mark.parametrize("program", ["bell", "reordered"])
def test_exec_prints_the_counts_of_the_equivalent_qir_task(capsys, tmp_path, program):
    if program == "bell":
        path, keys = "bell.ll", {"00", "11"}
    else:
        # record order differs from slot order, so the outcome keys are reordered
        circuit = Circuit(3).append(
            Gate.h(0), Gate.cnot(0, 1), Gate.x(2), Gate.mz(0, 0), Gate.mz(1, 1), Gate.mz(2, 2)
        )
        text = emit_qir(circuit, output_order=[2, 0, 1])
        assert output_positions(parse_qir(text)) is not None
        path, keys = str(tmp_path / "reordered.ll"), {"100", "111"}
        (tmp_path / "reordered.ll").write_text(text)
    code, out, _ = run_cli(capsys, "exec", path, "-s", "64", "--seed", "7")
    payload = _qir_task_payload(QirKernel(path=path, shots=64, seed=7))
    assert code == 0
    assert set(payload.counts) <= keys
    expected = "".join(f"{k} {payload.counts[k]}\n" for k in sorted(payload.counts))
    assert out == expected + "shots 64\n"


def test_exec_probs_with_trajectory_rejected_before_simulating(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_qir", lambda *a, **k: pytest.fail("program was executed"))
    code, out, err = run_cli(capsys, "exec", "bell.ll", "-a", "trajectory", "--probs")
    assert code == 2 and out == ""
    assert "statevector" in err


# SHA-256 of stdout for the README commands, recorded before the CLI and the
# QPU device shared one QIR execution path; pins the bytes across changes
README_STDOUT_SHA256 = {
    ("exec", "bell.ll", "-s", "1024", "--seed", "7"):
        "cacc12c2ac3f75df0ba2ce6a9db9763fad1cd3a5ce52c75617b3490c50a7a891",
    ("exec", "ghz4.ll", "-s", "0", "--probs"):
        "5683c1def71890c3d05886bace960d9a0c0023fe318cb804628daf68ee1366d1",
    ("exec", "ghz4.ll", "-a", "trajectory", "-s", "64", "--seed", "3"):
        "b00f5277f09fcf64fe49f7cf35c5e637c88222e7e712dcbecb2e032a26e0bab2",
    ("ghz-qpd", "--mode", "exact", "--reps", "1"):
        "5f3332897b3198968fbe0ae13700883138d5ec46088a1aa2887bd5ae8ef1159e",
    ("ghz-qpd", "--reps", "3", "--seed", "5", "--devices", "2"):
        "800f4fcd391398513365f03c45f4e9bac034700c7409c0bf2b1c70edd997b1e6",
}


@pytest.mark.parametrize("argv", list(README_STDOUT_SHA256), ids=" ".join)
def test_readme_commands_stdout_golden(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == README_STDOUT_SHA256[argv]


# -- inputs mended at the boundary ----------------------------------------------


def _one_error_line(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_graph_directory_is_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "graph", str(tmp_path))
    assert code == 2 and out == ""
    assert str(tmp_path) in _one_error_line(err)


def test_graph_file_not_utf8_is_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"devices": {"host": 1}, "tasks": [{"name": "café"}]}'.encode("latin-1"))
    code, out, err = run_cli(capsys, "graph", str(path))
    assert code == 2 and out == ""
    line = _one_error_line(err)
    assert str(path) in line and "UTF-8" in line


def test_graph_qir_file_naming_directory_is_usage_error(capsys, tmp_path):
    spec = {
        "devices": {"qpu": 1, "host": 0},
        "tasks": [{"name": "q", "kernel": {"type": "qir", "file": str(tmp_path)}}],
    }
    path = tmp_path / "dir_kernel.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "graph", str(path))
    assert code == 2 and out == ""
    line = _one_error_line(err)
    assert "'q'" in line and str(tmp_path) in line


def test_exec_directory_is_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "exec", str(tmp_path))
    assert code == 2 and out == ""
    assert str(tmp_path) in _one_error_line(err)


def test_exec_empty_file_name_is_usage_error(capsys):
    # Path("") is ".", the working directory, which must not stand in for the name
    code, out, err = run_cli(capsys, "exec", "")
    assert code == 2 and out == ""
    line = _one_error_line(err)
    assert "''" in line and "'.'" not in line


def test_exec_shots_above_cap_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "exec", "bell.ll", "-s", str(10**20))
    assert code == 2 and out == ""
    assert "--shots" in err and str(cli.MAX_SHOTS) in err


def test_exec_shots_at_cap_samples(capsys):
    code, out, _ = run_cli(capsys, "exec", "bell.ll", "-s", str(cli.MAX_SHOTS))
    assert code == 0
    assert out.splitlines()[-1] == f"shots {cli.MAX_SHOTS}"


def test_exec_negative_seed_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "exec", "bell.ll", "--seed", "-1")
    assert code == 2 and out == ""
    assert "--seed" in err


def test_ghz_qpd_shots_above_cap_is_usage_error(capsys):
    argv = ("ghz-qpd", "--shots", str(10**20), "--reps", "1", "--devices", "1")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "--shots" in err and str(cli.MAX_SHOTS) in err


def test_graph_shots_above_cap_is_usage_error(capsys, tmp_path):
    spec = {
        "devices": {"qpu": 1, "host": 0},
        "tasks": [{"name": "q", "kernel": {"type": "qir", "file": "bell.ll"}, "shots": 10**20}],
    }
    path = tmp_path / "huge_shots.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "graph", str(path))
    assert code == 2 and out == ""
    line = _one_error_line(err)
    assert "'shots'" in line and "'q'" in line


def _graph_kernel_error(capsys, tmp_path, kernel) -> str:
    """The one error line of a graph whose task 'k' has ``kernel``; it must exit 2."""
    spec = {"devices": {"qpu": 1, "host": 1}, "tasks": [{"name": "k", "kernel": kernel}]}
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "graph", str(path))
    assert code == 2 and out == ""
    line = _one_error_line(err)
    assert "'k'" in line
    return line


def test_graph_qir_source_not_a_string_is_usage_error(capsys, tmp_path):
    line = _graph_kernel_error(capsys, tmp_path, {"type": "qir", "source": 5})
    assert "'source'" in line


def test_graph_qir_file_not_a_string_is_usage_error(capsys, tmp_path):
    line = _graph_kernel_error(capsys, tmp_path, {"type": "qir", "file": 7})
    assert "'file'" in line


@pytest.mark.parametrize(
    "kernel", [{"type": "qir", "file": {"a": 1}}, {"type": "qir", "source": ["x"]}],
    ids=["file-object", "source-list"],
)
def test_graph_qir_spec_unhashable_is_usage_error(capsys, tmp_path, kernel):
    # the spec keys the graph's lowering dict, so it must be checked before that
    line = _graph_kernel_error(capsys, tmp_path, kernel)
    assert "must be a string" in line


@pytest.mark.parametrize("name", [["h"], {"h": 0}, 1])
def test_graph_gate_name_not_a_string_is_usage_error(capsys, tmp_path, name):
    kernel = {"type": "circuit", "qubits": 1, "gates": [[name, 0]]}
    assert "bad gate entry" in _graph_kernel_error(capsys, tmp_path, kernel)


def test_graph_qir_file_name_too_long_is_usage_error(capsys, tmp_path):
    # the OS cannot look such a name up (ENAMETOOLONG), so it is not found
    line = _graph_kernel_error(capsys, tmp_path, {"type": "qir", "file": "q" * 300 + ".ll"})
    assert "not found" in line


_NOOP = {"type": "host", "name": "noop"}
_TASK_B = {"name": "b", "kernel": _NOOP, "depends": ["a"]}
_SHOTS_LINE = f"error: 'shots' in task 'b' must be an integer in 0..{cli.MAX_SHOTS}"
_DEPENDS_LINE = "error: 'depends' in task 'b' must be a list of task names"
_DEVICE_LINE = "error: 'device' in task 'b' must be any, qpu, host, or an id"
_NAME_LINE = "error: task #1 needs a non-empty string 'name'"
_KERNEL_LINE = "error: kernel in task 'b' must be an object"


@pytest.mark.parametrize(
    "task, line",
    [
        (5, "error: task #1 must be an object"),
        (["b"], "error: task #1 must be an object"),
        (dict(_TASK_B, gpu=1), "error: unknown field 'gpu' in task #1"),
        (dict(_TASK_B, gpu=1, name=1), "error: unknown field 'gpu' in task #1"),
        ({"kernel": _NOOP}, _NAME_LINE),
        (dict(_TASK_B, name=""), _NAME_LINE),
        (dict(_TASK_B, name=1), _NAME_LINE),
        (dict(_TASK_B, name=True), _NAME_LINE),
        (dict(_TASK_B, name=None), _NAME_LINE),
        (dict(_TASK_B, name="a"), "error: duplicate task name 'a'"),
        (dict(_TASK_B, shots=True), _SHOTS_LINE),
        (dict(_TASK_B, shots=-1), _SHOTS_LINE),
        (dict(_TASK_B, shots=2**31), _SHOTS_LINE),
        (dict(_TASK_B, shots=1.0), _SHOTS_LINE),
        (dict(_TASK_B, shots=-1, depends=None), _SHOTS_LINE),
        (dict(_TASK_B, depends=None), _DEPENDS_LINE),
        (dict(_TASK_B, depends=""), _DEPENDS_LINE),
        (dict(_TASK_B, depends=0), _DEPENDS_LINE),
        (dict(_TASK_B, depends={}), _DEPENDS_LINE),
        (dict(_TASK_B, depends="a"), _DEPENDS_LINE),
        (dict(_TASK_B, depends=[1]), _DEPENDS_LINE),
        (dict(_TASK_B, depends=[None]), _DEPENDS_LINE),
        (dict(_TASK_B, depends=["a", None]), _DEPENDS_LINE),
        (dict(_TASK_B, depends=None, device="gpu"), _DEPENDS_LINE),
        (dict(_TASK_B, device=True), _DEVICE_LINE),
        (dict(_TASK_B, device=1.5), _DEVICE_LINE),
        (dict(_TASK_B, device="gpu"), _DEVICE_LINE),
        (dict(_TASK_B, device="gpu", kernel=5), _DEVICE_LINE),
        (dict(_TASK_B, kernel=5), _KERNEL_LINE),
        (dict(_TASK_B, kernel="noop"), _KERNEL_LINE),
        (dict(_TASK_B, kernel=[_NOOP]), _KERNEL_LINE),
        ({"name": "b"}, _KERNEL_LINE),
        (dict(_TASK_B, kernel={"type": "gpu"}),
         "error: kernel in task 'b' has unknown type 'gpu'; expected qir, host, or circuit"),
        (dict(_TASK_B, kernel={"name": "noop"}),
         "error: kernel in task 'b' has unknown type None; expected qir, host, or circuit"),
        (dict(_TASK_B, kernel=dict(_NOOP, x=1)), "error: unknown field 'x' in task 'b' kernel"),
    ],
)
def test_graph_task_error_is_one_exact_line(capsys, tmp_path, task, line):
    # the second task is the bad one, after a good task with the kernel it names
    # most often; where a task has two faults, the first check named here wins
    spec = {"devices": {"qpu": 0, "host": 1}, "tasks": [{"name": "a", "kernel": _NOOP}, task]}
    path = tmp_path / "bad_task.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "graph", str(path))
    assert (code, out) == (2, "")
    assert _one_error_line(err) == line


def test_derived_seeds_accept_a_negative_seed(capsys, tmp_path):
    # graph and ghz-qpd derive every task's seed from --seed, so any integer works
    path = tmp_path / "fanout.json"
    path.write_text(json.dumps(FANOUT_GRAPH))
    assert run_cli(capsys, "graph", str(path), "--seed", "-1")[0] == 0
    argv = ("ghz-qpd", "--reps", "1", "--shots", "16", "--devices", "1", "--seed", "-1")
    assert run_cli(capsys, *argv)[0] == 0


# c lists b and a before the file defines them; their creation order, and so
# their ids and derived seeds, once followed string hashing
FORWARD_REFERENCE_GRAPH = {
    "seed": 3,
    "policy": "roundrobin",
    "devices": {"qpu": 1, "host": 1},
    "tasks": [
        {"name": name, "kernel": {"type": "qir", "file": "bell.ll"}, "shots": 64, "depends": deps}
        for name, deps in (
            ("c", ["b", "a"]), ("d", ["c"]), ("a", []), ("b", []), ("e", []), ("f", ["e"])
        )
    ],
}


def test_graph_forward_reference_stdout_independent_of_hash_seed(tmp_path):
    path = tmp_path / "forward.json"
    path.write_text(json.dumps(FORWARD_REFERENCE_GRAPH))
    src = str(Path(qtask.__file__).resolve().parents[1])
    outs = set()
    for hash_seed in range(4):
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "qtask.cli", "graph", str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


_RX_QIR = emit_qir(Circuit(1).append(Gate.rx(0, 1.5), Gate.mz(0, 0)))


@pytest.mark.parametrize("double", ["1.2.3", "1e5e5", "1e"])
def test_exec_malformed_double_is_usage_error(capsys, tmp_path, double):
    # each matches the operand's characters but is not a number
    path = tmp_path / "rx.ll"
    path.write_text(_RX_QIR.replace("double 1.5", f"double {double}"))
    code, out, err = run_cli(capsys, "exec", str(path))
    assert code == 2 and out == ""
    assert f"malformed double operand 'double {double}'" in _one_error_line(err)


@pytest.mark.parametrize("field", ["source", "file"])
def test_graph_malformed_double_is_usage_error(capsys, tmp_path, field):
    program = tmp_path / "rx.ll"
    program.write_text(_RX_QIR.replace("double 1.5", "double 1.2.3"))
    kernel = {"type": "qir", field: program.read_text() if field == "source" else str(program)}
    spec = {"devices": {"qpu": 1, "host": 0}, "tasks": [{"name": "rx", "kernel": kernel}]}
    path = tmp_path / "rx.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "graph", str(path))
    assert code == 2 and out == ""
    line = _one_error_line(err)
    assert "'rx'" in line and "malformed double operand" in line


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_ghz_qpd_unwritable_csv_fails_before_the_sweep(capsys, tmp_path, monkeypatch, where):
    csv_path = tmp_path if where == "directory" else tmp_path / "missing" / "vals.csv"
    sweeps = []
    monkeypatch.setattr(cli, "validate_run", lambda **kw: sweeps.append(kw))
    code, out, err = run_cli(capsys, "ghz-qpd", "--csv", str(csv_path))
    assert code == 2 and out == "" and sweeps == []
    assert str(csv_path) in _one_error_line(err)
