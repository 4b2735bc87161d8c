import numpy as np
import pytest

from qtask.circuit import Circuit, Gate, GateKind
from qtask.qir import (
    QirLoweringError,
    QirParseError,
    UnsupportedControlFlowError,
    UnsupportedIntrinsicError,
    emit_qir,
    find_kernel_file,
    lower_to_circuit,
    output_positions,
    parse_qir,
)

BELL = find_kernel_file("bell.ll").read_text()
GHZ4 = find_kernel_file("ghz4.ll").read_text()


def test_bell_fixture_parses():
    prog = parse_qir(BELL)
    assert prog.entry_name == "main"
    assert prog.required_qubits == 2
    assert len(prog.calls) == 4
    assert prog.output_order == (0, 1)
    names = [c.name.split("__")[3] for c in prog.calls]
    assert names == ["h", "cnot", "mz", "mz"]


def test_bell_fixture_lowers():
    circuit = lower_to_circuit(parse_qir(BELL))
    assert circuit.num_qubits == 2
    assert circuit.ops == [
        Gate.h(0),
        Gate.cnot(0, 1),
        Gate.mz(0, 0),
        Gate.mz(1, 1),
    ]


def test_ghz4_fixture():
    prog = parse_qir(GHZ4)
    assert prog.required_qubits == 4
    assert prog.output_order == (0, 1, 2, 3)
    circuit = lower_to_circuit(prog)
    assert circuit.ops == [
        Gate.h(0),
        Gate.cnot(0, 1),
        Gate.cnot(1, 2),
        Gate.cnot(2, 3),
        Gate.mz(0, 0),
        Gate.mz(1, 1),
        Gate.mz(2, 2),
        Gate.mz(3, 3),
    ]


def test_empty_body_uses_attribute():
    text = """
define void @main() #0 {
entry:
  ret void
}
attributes #0 = { "entry_point" "required_num_qubits"="3" }
"""
    prog = parse_qir(text)
    assert prog.calls == () and prog.required_qubits == 3


def test_required_qubits_inferred_from_operands():
    text = """
define void @main() {
  call void @__quantum__qis__h__body(%Qubit* inttoptr (i64 5 to %Qubit*))
  ret void
}
"""
    assert parse_qir(text).required_qubits == 6


def test_no_entry_function():
    with pytest.raises(QirParseError, match="no entry-point"):
        parse_qir("declare void @__quantum__qis__h__body(%Qubit*)\n")


def test_unknown_intrinsic_named():
    text = """
define void @main() {
  call void @__quantum__qis__ccx__body(%Qubit* null, %Qubit* null, %Qubit* null)
  ret void
}
"""
    with pytest.raises(UnsupportedIntrinsicError, match="__quantum__qis__ccx__body"):
        parse_qir(text)


def test_malformed_operand_reports_line():
    text = """define void @main() {
  call void @__quantum__qis__h__body(%Qubit* inttoptr (i64 x to %Qubit*))
  ret void
}
"""
    with pytest.raises(QirParseError, match="line 2") as err:
        parse_qir(text)
    assert err.value.line == 2
    assert "malformed qubit operand" in str(err.value)


def test_control_flow_rejected():
    text = """
define void @main() {
entry:
  call void @__quantum__qis__h__body(%Qubit* null)
  br label %next
next:
  call void @__quantum__qis__x__body(%Qubit* null)
  ret void
}
"""
    with pytest.raises(UnsupportedControlFlowError):
        parse_qir(text)


def test_rz_double_argument():
    text = """
define void @main() {
  call void @__quantum__qis__rz__body(double 0.5, %Qubit* inttoptr (i64 2 to %Qubit*))
  ret void
}
"""
    circuit = lower_to_circuit(parse_qir(text))
    assert circuit.ops == [Gate.rz(2, 0.5)]


def test_record_without_measurement_is_lowering_error():
    text = """
define void @main() {
  call void @__quantum__qis__h__body(%Qubit* null)
  call void @__quantum__rt__result_record_output(%Result* inttoptr (i64 3 to %Result*), i8* null)
  ret void
}
attributes #0 = { "required_num_qubits"="1" }
"""
    prog = parse_qir(text)
    with pytest.raises(QirLoweringError, match="result 3 recorded but never measured"):
        lower_to_circuit(prog)


def test_parse_is_deterministic():
    assert parse_qir(BELL) == parse_qir(BELL)


def test_order_preserved():
    text = """
define void @main() {
  call void @__quantum__qis__x__body(%Qubit* null)
  call void @__quantum__qis__h__body(%Qubit* null)
  call void @__quantum__qis__z__body(%Qubit* null)
  ret void
}
"""
    kinds = [g.kind for g in lower_to_circuit(parse_qir(text)).ops]
    assert kinds == [GateKind.X, GateKind.H, GateKind.Z]


def test_declares_are_skipped():
    # declare lines contain __quantum__ but no call; they must be ignored
    prog = parse_qir(BELL)
    assert len(prog.calls) == 4


def _random_circuit(rng) -> tuple[Circuit, tuple[int, ...]]:
    n = int(rng.integers(1, 5))
    c = Circuit(n)
    slot = 0
    for _ in range(int(rng.integers(0, 10))):
        roll = int(rng.integers(0, 6))
        if roll == 0 and n >= 2:
            a, b = (int(x) for x in rng.permutation(n)[:2])
            c.append(Gate.cnot(a, b) if rng.integers(2) else Gate.cz(a, b))
        elif roll == 1:
            c.append(Gate.mz(int(rng.integers(0, n)), slot))
            slot += 1
        elif roll == 2:
            kind = [Gate.rx, Gate.ry, Gate.rz][int(rng.integers(0, 3))]
            c.append(kind(int(rng.integers(0, n)), float(rng.uniform(-7, 7))))
        else:
            ctor = [Gate.h, Gate.x, Gate.y, Gate.z, Gate.s, Gate.sdg, Gate.t, Gate.tdg][
                int(rng.integers(0, 8))
            ]
            c.append(ctor(int(rng.integers(0, n))))
    order = tuple(int(s) for s in rng.permutation(c.result_slots))
    return c, order


def test_emit_parse_roundtrip_100_random_programs():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        circuit, order = _random_circuit(rng)
        text = emit_qir(circuit, output_order=order)
        prog = parse_qir(text)
        assert prog.required_qubits == circuit.num_qubits
        assert prog.output_order == order
        assert lower_to_circuit(prog) == circuit


def test_emit_rejects_unmeasured_output_order():
    with pytest.raises(ValueError, match="unmeasured"):
        emit_qir(Circuit(1).append(Gate.mz(0, 0)), output_order=(1,))


def test_output_positions_identity_and_permuted():
    c = Circuit(2).append(Gate.h(0), Gate.mz(0, 0), Gate.mz(1, 1))
    assert output_positions(parse_qir(emit_qir(c))) is None
    assert output_positions(parse_qir(emit_qir(c, output_order=(1, 0)))) == [1, 0]


def test_find_kernel_file_missing():
    with pytest.raises(FileNotFoundError):
        find_kernel_file("nope.ll")


def test_emit_bytes_pinned_for_every_gate_kind():
    # SHA-256 of the emitted text, recorded before the emitter's gate-name
    # table was derived from the parser's; any byte of drift fails here
    import hashlib

    c = Circuit(3)
    for g in [
        Gate.h(0), Gate.x(1), Gate.y(2), Gate.z(0), Gate.s(1), Gate.sdg(2), Gate.t(0),
        Gate.tdg(1), Gate.rx(2, 0.1), Gate.ry(0, -1.5), Gate.rz(1, 3.0), Gate.cnot(0, 1),
        Gate.cz(1, 2), Gate.mz(2, 1), Gate.mz(0, 0), Gate.mz(1, 2),
    ]:
        c.append(g)
    assert {g.kind for g in c.ops} == set(GateKind)
    text = emit_qir(c, output_order=[2, 0, 1])
    assert "__quantum__qis__cnot__body" in text
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "5ef84ba61a9da143df3789309289e50cde9f78d1241ca91af6959327ea002e8c"
