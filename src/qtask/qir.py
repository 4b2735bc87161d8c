"""Textual QIR subset: parse, lower to circuits, and emit.

Supported fragment: a single entry-point function whose body is a straight
line of ``call`` instructions to ``__quantum__`` intrinsics, with statically
encoded qubit/result operands (``%Qubit* null`` for index 0 and
``%Qubit* inttoptr (i64 N to %Qubit*)`` otherwise). The scanner is
line-oriented and tolerant: body lines that do not contain both ``call`` and
a ``__quantum__`` symbol are skipped, which makes metadata and declaration
noise from different producers harmless. Branches, extra basic blocks, and
every other LLVM construct are out of scope and rejected explicitly.

The emitter writes the same grammar, so generated circuits can be
materialized as ``.ll`` files and fed back through the parser.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

from .circuit import Circuit, Gate, GateKind


class QirParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class UnsupportedIntrinsicError(QirParseError):
    def __init__(self, intrinsic: str, line: int | None = None):
        self.intrinsic = intrinsic
        super().__init__(f"unsupported intrinsic {intrinsic}", line)


class UnsupportedControlFlowError(QirParseError):
    pass


class QirLoweringError(ValueError):
    pass


@dataclass(frozen=True)
class IntrinsicCall:
    name: str
    qubit_args: tuple[int, ...] = ()
    result_args: tuple[int, ...] = ()
    double_args: tuple[float, ...] = ()


@dataclass(frozen=True)
class QirProgram:
    entry_name: str
    required_qubits: int
    calls: tuple[IntrinsicCall, ...]
    output_order: tuple[int, ...]


_QIS_PREFIX = "__quantum__qis__"
_QIS_SUFFIX = "__body"

# intrinsic short name -> (gate kind, qubit arity, double arity)
_GATE_INTRINSICS: dict[str, tuple[GateKind, int, int]] = {
    "h": (GateKind.H, 1, 0),
    "x": (GateKind.X, 1, 0),
    "y": (GateKind.Y, 1, 0),
    "z": (GateKind.Z, 1, 0),
    "s": (GateKind.S, 1, 0),
    "s__adj": (GateKind.SDG, 1, 0),
    "t": (GateKind.T, 1, 0),
    "t__adj": (GateKind.TDG, 1, 0),
    "rx": (GateKind.RX, 1, 1),
    "ry": (GateKind.RY, 1, 1),
    "rz": (GateKind.RZ, 1, 1),
    "cnot": (GateKind.CNOT, 2, 0),
    "cx": (GateKind.CNOT, 2, 0),
    "cz": (GateKind.CZ, 2, 0),
}

_MZ = "__quantum__qis__mz__body"
_RECORD = "__quantum__rt__result_record_output"
_INITIALIZE = "__quantum__rt__initialize"

_DEFINE_RE = re.compile(r"^\s*define\b[^@]*@([\w.$-]+)\s*\(")
_CALL_RE = re.compile(r"\bcall\b[^@]*@(__quantum__[\w]+)\s*\((.*)\)")
_QUBIT_ARG_RE = re.compile(
    r"^%Qubit\*\s+(?:null|inttoptr\s*\(\s*i64\s+(\d+)\s+to\s+%Qubit\*\s*\))$"
)
_RESULT_ARG_RE = re.compile(
    r"^%Result\*\s+(?:null|inttoptr\s*\(\s*i64\s+(\d+)\s+to\s+%Result\*\s*\))$"
)
_DOUBLE_ARG_RE = re.compile(r"^double\s+([-+]?[0-9]+(?:\.[0-9]*)?(?:[eE][-+]?[0-9]+)?)$")
_ATTR_QUBITS_RE = re.compile(r'"required_num_qubits"\s*=\s*"(\d+)"')
_LABEL_RE = re.compile(r"^\s*[\w.$-]+:\s*(?:;.*)?$")
_BRANCH_RE = re.compile(r"^\s*br\s")


def _split_args(argstr: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in argstr:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_operands(args: list[str], lineno: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[float, ...]]:
    qubits: list[int] = []
    results: list[int] = []
    doubles: list[float] = []
    for arg in args:
        if arg.startswith("%Qubit*"):
            m = _QUBIT_ARG_RE.match(arg)
            if not m:
                raise QirParseError(f"malformed qubit operand {arg!r}", lineno)
            qubits.append(int(m.group(1)) if m.group(1) else 0)
        elif arg.startswith("%Result*"):
            m = _RESULT_ARG_RE.match(arg)
            if not m:
                raise QirParseError(f"malformed result operand {arg!r}", lineno)
            results.append(int(m.group(1)) if m.group(1) else 0)
        elif arg.startswith("double"):
            m = _DOUBLE_ARG_RE.match(arg)
            if not m:
                raise QirParseError(f"malformed double operand {arg!r}", lineno)
            doubles.append(float(m.group(1)))
        # anything else (i8* labels, attributes) is ignored
    return tuple(qubits), tuple(results), tuple(doubles)


def _check_arity(name: str, nq: int, nr: int, nd: int, got, lineno: int):
    q, r, d = got
    if (len(q), len(r), len(d)) != (nq, nr, nd):
        raise QirParseError(
            f"{name} expects {nq} qubit/{nr} result/{nd} double operands, "
            f"got {len(q)}/{len(r)}/{len(d)}",
            lineno,
        )


def parse_qir(text: str) -> QirProgram:
    """Parse the straight-line QIR subset into an ordered intrinsic-call list."""
    lines = text.splitlines()
    defines = [(i, _DEFINE_RE.match(ln)) for i, ln in enumerate(lines) if _DEFINE_RE.match(ln)]
    if not defines:
        raise QirParseError("no entry-point function definition found")
    if len(defines) > 1:
        raise QirParseError(
            f"expected exactly one function definition, found {len(defines)}",
            defines[1][0] + 1,
        )
    start, m = defines[0]
    entry_name = m.group(1)

    end = None
    for i in range(start + 1, len(lines)):
        if lines[i].strip() == "}":
            end = i
            break
    if end is None:
        raise QirParseError("unterminated function body", start + 1)

    calls: list[IntrinsicCall] = []
    output_order: list[int] = []
    labels_seen = 0
    control_flow = False
    for i in range(start + 1, end):
        line = lines[i]
        lineno = i + 1
        if _LABEL_RE.match(line):
            labels_seen += 1
            if labels_seen > 1:
                control_flow = True
            continue
        if _BRANCH_RE.match(line):
            control_flow = True
            continue
        if "call" not in line or "__quantum__" not in line:
            continue
        cm = _CALL_RE.search(line)
        if not cm:
            raise QirParseError(f"malformed call instruction: {line.strip()!r}", lineno)
        name, argstr = cm.group(1), cm.group(2)
        if control_flow:
            raise UnsupportedControlFlowError(
                f"quantum call {name} after branch or extra basic block", lineno
            )
        operands = _parse_operands(_split_args(argstr), lineno)

        if name == _INITIALIZE:
            continue
        if name == _RECORD:
            if len(operands[1]) != 1:
                raise QirParseError(f"{name} expects one result operand", lineno)
            output_order.append(operands[1][0])
            continue
        if name == _MZ:
            _check_arity(name, 1, 1, 0, operands, lineno)
            calls.append(IntrinsicCall(name, *operands))
            continue
        if name.startswith(_QIS_PREFIX) and name.endswith(_QIS_SUFFIX):
            short = name[len(_QIS_PREFIX) : -len(_QIS_SUFFIX)]
            if short in _GATE_INTRINSICS:
                _, nq, nd = _GATE_INTRINSICS[short]
                _check_arity(name, nq, 0, nd, operands, lineno)
                calls.append(IntrinsicCall(name, *operands))
                continue
        raise UnsupportedIntrinsicError(name, lineno)

    attr = _ATTR_QUBITS_RE.search(text)
    if attr:
        required = int(attr.group(1))
    else:
        qubit_ops = [q for c in calls for q in c.qubit_args]
        required = (1 + max(qubit_ops)) if qubit_ops else 0

    return QirProgram(entry_name, required, tuple(calls), tuple(output_order))


def lower_to_circuit(prog: QirProgram) -> Circuit:
    """Map parsed intrinsic calls onto a Circuit, one gate per call in order.

    ``prog.output_order`` carries the result-recording order used for
    histogram keys; see :func:`output_positions`.
    """
    circuit = Circuit(max(1, prog.required_qubits))
    measured: set[int] = set()
    try:
        for call in prog.calls:
            if call.name == _MZ:
                slot = call.result_args[0]
                circuit.append(Gate.mz(call.qubit_args[0], slot))
                measured.add(slot)
                continue
            short = call.name[len(_QIS_PREFIX) : -len(_QIS_SUFFIX)]
            kind = _GATE_INTRINSICS[short][0]
            angle = call.double_args[0] if call.double_args else None
            circuit.append(Gate(kind, call.qubit_args, angle=angle))
    except ValueError as exc:
        raise QirLoweringError(str(exc)) from exc
    for r in prog.output_order:
        if r not in measured:
            raise QirLoweringError(f"result {r} recorded but never measured")
    return circuit


def output_positions(prog: QirProgram) -> list[int] | None:
    """Key-reordering positions mapping slot-ordered bitstrings to record order.

    Returns None when no reordering is needed (no record calls, or record
    order already matches ascending slot order).
    """
    if not prog.output_order:
        return None
    slots = sorted({c.result_args[0] for c in prog.calls if c.name == _MZ})
    positions = [slots.index(r) for r in prog.output_order]
    if positions == list(range(len(slots))):
        return None
    return positions


# reversed, so the first intrinsic listed for a kind wins (CNOT emits cnot, not cx)
_KIND_TO_INTRINSIC = {kind: short for short, (kind, _, _) in reversed(_GATE_INTRINSICS.items())}


def _qubit_operand(q: int) -> str:
    return "%Qubit* null" if q == 0 else f"%Qubit* inttoptr (i64 {q} to %Qubit*)"


def _result_operand(r: int) -> str:
    return "%Result* null" if r == 0 else f"%Result* inttoptr (i64 {r} to %Result*)"


def emit_qir(circuit: Circuit, entry_name: str = "main", output_order=None) -> str:
    """Write a circuit as a ``.ll`` text in the supported subset.

    ``output_order`` defaults to ascending result slots; it must reference
    slots the circuit measures.
    """
    slots = circuit.result_slots
    if output_order is None:
        output_order = slots
    else:
        unknown = [r for r in output_order if r not in set(slots)]
        if unknown:
            raise ValueError(f"output order references unmeasured slots {unknown}")

    body = ["  call void @__quantum__rt__initialize(i8* null)"]
    for gate in circuit.ops:
        if gate.kind is GateKind.MZ:
            body.append(
                f"  call void @{_MZ}({_qubit_operand(gate.qubits[0])}, "
                f"{_result_operand(gate.result_slot)})"
            )
            continue
        name = f"{_QIS_PREFIX}{_KIND_TO_INTRINSIC[gate.kind]}{_QIS_SUFFIX}"
        args = [_qubit_operand(q) for q in gate.qubits]
        if gate.angle is not None:
            args.insert(0, f"double {gate.angle!r}")
        body.append(f"  call void @{name}({', '.join(args)})")
    for r in output_order:
        body.append(f"  call void @{_RECORD}({_result_operand(r)}, i8* null)")

    return "\n".join(
        [
            f"; {entry_name}: generated by qtask",
            "%Qubit = type opaque",
            "%Result = type opaque",
            "",
            f"define void @{entry_name}() #0 {{",
            "entry:",
            *body,
            "  ret void",
            "}",
            "",
            'attributes #0 = { "entry_point" '
            f'"required_num_qubits"="{circuit.num_qubits}" '
            f'"required_num_results"="{circuit.result_count}" }}',
            "",
        ]
    )


_KERNEL_DIR = Path(__file__).parent / "kernels"


def find_kernel_file(name) -> Path:
    """Resolve a ``.ll`` path, falling back to the kernels shipped in-package.
    A name the OS cannot look up, such as one too long, counts as not found,
    and so does an empty one, which ``Path`` would read as ``.``."""
    if name == "":
        raise FileNotFoundError("QIR kernel '' not found: the file name is empty")
    path = Path(name)
    if os.path.exists(path):
        return path
    shipped = _KERNEL_DIR / path.name
    if os.path.exists(shipped):
        return shipped
    raise FileNotFoundError(f"QIR kernel {name!r} not found (also searched {_KERNEL_DIR})")
