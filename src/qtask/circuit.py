"""Device-agnostic quantum circuit IR.

A :class:`Circuit` is an ordered list of :class:`Gate` operations on a fixed
qubit register. Measurements write named integer result slots rather than
being tied to qubit identity, which keeps composition and result recording
unambiguous. Circuits are append-only while being built and are treated as
immutable once handed to the simulator or the runtime.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence


class GateKind(enum.Enum):
    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    CNOT = "cnot"
    CZ = "cz"
    MZ = "mz"


ROTATION_KINDS = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ})
TWO_QUBIT_KINDS = frozenset({GateKind.CNOT, GateKind.CZ})


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None
    result_slot: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        expected = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if len(self.qubits) != expected:
            raise ValueError(
                f"{self.kind.value} expects {expected} qubit(s), got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit in {self.kind.value} gate: {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.kind.value} gate")
        if (self.angle is not None) != (self.kind in ROTATION_KINDS):
            raise ValueError(f"angle is required for rotations only, got {self.kind.value}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError(f"{self.kind.value} angle must be finite, got {self.angle}")
        if (self.result_slot is not None) != (self.kind is GateKind.MZ):
            raise ValueError(f"result_slot is required for mz only, got {self.kind.value}")
        if self.result_slot is not None and self.result_slot < 0:
            raise ValueError("result slot must be non-negative")

    @classmethod
    def h(cls, q: int) -> "Gate":
        return cls(GateKind.H, (q,))

    @classmethod
    def x(cls, q: int) -> "Gate":
        return cls(GateKind.X, (q,))

    @classmethod
    def y(cls, q: int) -> "Gate":
        return cls(GateKind.Y, (q,))

    @classmethod
    def z(cls, q: int) -> "Gate":
        return cls(GateKind.Z, (q,))

    @classmethod
    def s(cls, q: int) -> "Gate":
        return cls(GateKind.S, (q,))

    @classmethod
    def sdg(cls, q: int) -> "Gate":
        return cls(GateKind.SDG, (q,))

    @classmethod
    def t(cls, q: int) -> "Gate":
        return cls(GateKind.T, (q,))

    @classmethod
    def tdg(cls, q: int) -> "Gate":
        return cls(GateKind.TDG, (q,))

    @classmethod
    def rx(cls, q: int, angle: float) -> "Gate":
        return cls(GateKind.RX, (q,), angle=float(angle))

    @classmethod
    def ry(cls, q: int, angle: float) -> "Gate":
        return cls(GateKind.RY, (q,), angle=float(angle))

    @classmethod
    def rz(cls, q: int, angle: float) -> "Gate":
        return cls(GateKind.RZ, (q,), angle=float(angle))

    @classmethod
    def cnot(cls, control: int, target: int) -> "Gate":
        return cls(GateKind.CNOT, (control, target))

    @classmethod
    def cz(cls, a: int, b: int) -> "Gate":
        return cls(GateKind.CZ, (a, b))

    @classmethod
    def mz(cls, q: int, slot: int) -> "Gate":
        return cls(GateKind.MZ, (q,), result_slot=slot)


class Circuit:
    """Ordered gate list on ``num_qubits`` wires.

    Result slots must be distinct; every gate is validated against the
    register size on append.
    """

    def __init__(self, num_qubits: int):
        if not isinstance(num_qubits, int) or num_qubits < 1:
            raise ValueError(f"circuit needs a positive qubit count, got {num_qubits}")
        self.num_qubits = num_qubits
        self.ops: list[Gate] = []
        self._slots: set[int] = set()

    def append(self, *gates: Gate) -> "Circuit":
        """Append gates in order, validating each; returns self for chaining."""
        for gate in gates:
            self._append_one(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        return self.append(*gates)

    def _append_one(self, gate: Gate):
        for q in gate.qubits:
            if q >= self.num_qubits:
                raise ValueError(
                    f"qubit {q} out of range for {self.num_qubits}-qubit circuit"
                )
        if gate.kind is GateKind.MZ:
            if gate.result_slot in self._slots:
                raise ValueError(f"result slot {gate.result_slot} already written")
            self._slots.add(gate.result_slot)
        self.ops.append(gate)

    @property
    def result_count(self) -> int:
        return len(self._slots)

    @property
    def result_slots(self) -> tuple[int, ...]:
        return tuple(sorted(self._slots))

    def slot_to_qubit(self) -> dict[int, int]:
        """Map each written result slot to the qubit its mz gate measured."""
        return {g.result_slot: g.qubits[0] for g in self.ops if g.kind is GateKind.MZ}

    def copy(self) -> "Circuit":
        dup = Circuit(self.num_qubits)
        dup.ops = list(self.ops)
        dup._slots = set(self._slots)
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self.ops == other.ops

    def __repr__(self) -> str:
        return f"Circuit(num_qubits={self.num_qubits}, ops={len(self.ops)})"


def new_circuit(num_qubits: int) -> Circuit:
    return Circuit(num_qubits)


def _remap_gate(gate: Gate, qubit_map: Sequence[int]) -> Gate:
    return dataclasses.replace(gate, qubits=tuple(qubit_map[q] for q in gate.qubits))


def compose(front: Circuit, back: Circuit, qubit_map: Sequence[int]) -> Circuit:
    """Prefix ``front``'s ops, remapped through ``qubit_map``, onto ``back``.

    ``qubit_map[i]`` is the wire of ``back`` that carries front qubit ``i``.
    When the two circuits' result slots collide, every slot of ``back`` is
    shifted past ``front``'s largest slot so slots stay distinct.
    """
    if len(qubit_map) != front.num_qubits:
        raise ValueError(
            f"qubit map length {len(qubit_map)} != front qubit count {front.num_qubits}"
        )
    for m in qubit_map:
        if not 0 <= m < back.num_qubits:
            raise ValueError(f"mapped qubit {m} out of range for back circuit")

    out = Circuit(back.num_qubits)
    front_slots: set[int] = set()
    for gate in front.ops:
        out.append(_remap_gate(gate, qubit_map))
        if gate.kind is GateKind.MZ:
            front_slots.add(gate.result_slot)

    back_slots = {g.result_slot for g in back.ops if g.kind is GateKind.MZ}
    offset = 0
    if front_slots & back_slots:
        offset = max(front_slots) + 1
    for gate in back.ops:
        if gate.kind is GateKind.MZ and offset:
            gate = dataclasses.replace(gate, result_slot=gate.result_slot + offset)
        out.append(gate)
    return out


class Pauli(enum.Enum):
    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"

    @classmethod
    def from_char(cls, ch: str) -> "Pauli":
        try:
            return cls(ch.upper())
        except ValueError:
            raise ValueError(f"unknown Pauli {ch!r}; expected one of I, X, Y, Z") from None


def pauli_string(paulis: str | Sequence[Pauli]) -> tuple[Pauli, ...]:
    """Normalize a Pauli string ('IXZZ' or a Pauli sequence), index order."""
    if isinstance(paulis, str):
        return tuple(Pauli.from_char(c) for c in paulis)
    return tuple(paulis)


class PrepLabel(enum.Enum):
    ZERO = "0"
    ONE = "1"
    PLUS = "+"
    MINUS = "-"
    PLUS_I = "+i"
    MINUS_I = "-i"

    @classmethod
    def from_label(cls, label: str) -> "PrepLabel":
        try:
            return cls(label)
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown prep label {label!r}; expected one of {valid}") from None


# Single-qubit preparation of each labeled state from |0>.
_PREP_OPS: dict[PrepLabel, tuple] = {
    PrepLabel.ZERO: (),
    PrepLabel.ONE: (Gate.x,),
    PrepLabel.PLUS: (Gate.h,),
    PrepLabel.MINUS: (Gate.x, Gate.h),
    PrepLabel.PLUS_I: (Gate.h, Gate.s),
    PrepLabel.MINUS_I: (Gate.h, Gate.sdg),
}


def prep_circuit(label: PrepLabel) -> Circuit:
    """One-qubit circuit preparing the labeled state from |0>."""
    circ = Circuit(1)
    for ctor in _PREP_OPS[label]:
        circ.append(ctor(0))
    return circ


@dataclass(frozen=True)
class BasisChange:
    """Rotation into the Z eigenbasis for a single-qubit observable.

    ``needs_measurement`` is False only for the identity observable, whose
    outcome is fixed at +1 and needs no measurement at all.
    """

    gates: tuple[Gate, ...]
    needs_measurement: bool


_BASIS_OPS: dict[Pauli, tuple] = {
    Pauli.I: (),
    Pauli.Z: (),
    Pauli.X: (Gate.h,),
    Pauli.Y: (Gate.sdg, Gate.h),
}


def basis_change(obs: Pauli) -> BasisChange:
    """Gates (on qubit 0) mapping the observable's eigenbasis to the Z basis."""
    gates = tuple(ctor(0) for ctor in _BASIS_OPS[obs])
    return BasisChange(gates=gates, needs_measurement=obs is not Pauli.I)
