"""Dense statevector execution backend.

Evolves circuits on a complex128 statevector (qubit 0 is the least
significant index bit), produces exact measurement distributions keyed by
result-slot order, samples seeded shot histograms, runs per-shot
trajectories for mid-circuit measurement, and evaluates Pauli-string
expectation values.

Randomness: every sampling entry point takes an explicit integer seed and
uses numpy's PCG64 generator, so outputs are reproducible bit-for-bit.
:func:`sample_shots` also takes the seed's generator, made ahead of time from
a qpu task's ``SeedState``, as ``rng``: it draws what ``default_rng(seed)``
would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .circuit import Circuit, Gate, GateKind, Pauli, pauli_string

MAX_QUBITS = 24
# numpy's multinomial takes the shot count as a C long, 32 bits on some platforms
MAX_SHOTS = 2**31 - 1

_NORM_TOL = 1e-10
_PROB_EPS = 1e-15  # exact-distribution entries below this are dropped

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_FIXED_1Q = {
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2,
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
    GateKind.T: np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    GateKind.TDG: np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
}

_PAULI_1Q = {
    Pauli.X: _FIXED_1Q[GateKind.X],
    Pauli.Y: _FIXED_1Q[GateKind.Y],
    Pauli.Z: _FIXED_1Q[GateKind.Z],
}


def gate_matrix(gate: Gate) -> np.ndarray:
    """2x2 unitary for a single-qubit gate (rotations included)."""
    if gate.kind in _FIXED_1Q:
        return _FIXED_1Q[gate.kind]
    t = gate.angle / 2.0
    c, s = math.cos(t), math.sin(t)
    if gate.kind is GateKind.RX:
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if gate.kind is GateKind.RY:
        return np.array([[c, -s], [s, c]], dtype=complex)
    if gate.kind is GateKind.RZ:
        return np.array([[np.exp(-1j * t), 0], [0, np.exp(1j * t)]], dtype=complex)
    raise ValueError(f"{gate.kind.value} has no single-qubit matrix")


class NonTerminalMeasurementError(ValueError):
    """simulate() found work on a qubit after its measurement; use run_trajectory."""


class TooManyQubitsError(ValueError):
    """A circuit is wider than MAX_QUBITS; raised before any state is allocated."""


def _check_width(num_qubits: int) -> None:
    if num_qubits > MAX_QUBITS:
        raise TooManyQubitsError(
            f"{num_qubits} qubits exceeds the {MAX_QUBITS}-qubit dense-simulation cap"
        )


@dataclass
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        _check_width(num_qubits)
        amps = np.zeros(1 << num_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(num_qubits, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _apply_1q(amps: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    # Reshape so the middle axis is bit q of the index.
    view = amps.reshape(1 << (n - 1 - q), 2, 1 << q)
    return np.einsum("ij,ajb->aib", mat, view).reshape(-1)


def _qubit_index(n: int, bits: Mapping[int, int]) -> tuple:
    """Index into a state reshaped to one axis per qubit (axis n-1-q is qubit q)
    that fixes each listed qubit to its bit."""
    index = [slice(None)] * n
    for q, bit in bits.items():
        index[n - 1 - q] = bit
    return tuple(index)


def _apply_cnot(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    # Swap the target's two halves where the control is 1: a permutation, so exact.
    n = amps.size.bit_length() - 1
    src, out = amps.reshape([2] * n), amps.copy()
    dst = out.reshape(src.shape)
    zero, one = _qubit_index(n, {control: 1, target: 0}), _qubit_index(n, {control: 1, target: 1})
    dst[zero], dst[one] = src[one], src[zero]
    return out


def _apply_cz(amps: np.ndarray, a: int, b: int) -> np.ndarray:
    n = amps.size.bit_length() - 1
    out = amps.copy()
    out.reshape([2] * n)[_qubit_index(n, {a: 1, b: 1})] *= -1
    return out


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply a unitary gate in place and return the state. MZ is rejected."""
    if gate.kind is GateKind.MZ:
        raise ValueError("measurement is not a unitary; use simulate or run_trajectory")
    for q in gate.qubits:
        if q >= state.num_qubits:
            raise ValueError(f"qubit {q} out of range for {state.num_qubits}-qubit state")
    if gate.kind is GateKind.CNOT:
        state.amplitudes = _apply_cnot(state.amplitudes, *gate.qubits)
    elif gate.kind is GateKind.CZ:
        state.amplitudes = _apply_cz(state.amplitudes, *gate.qubits)
    else:
        state.amplitudes = _apply_1q(
            state.amplitudes, gate_matrix(gate), gate.qubits[0], state.num_qubits
        )
    return state


@dataclass
class ProbDist:
    """Exact outcome distribution over measured qubits, in result-slot order.

    Keys have one character per measured qubit, leftmost = first listed
    qubit (slot 0). A circuit with no measurements yields {"": 1.0}.
    """

    measured_qubits: tuple[int, ...]
    probabilities: dict[str, float]

    def __post_init__(self):
        width = len(self.measured_qubits)
        for key, p in self.probabilities.items():
            if len(key) != width:
                raise ValueError(f"key {key!r} does not match {width} measured qubits")
            if p < -1e-12:
                raise ValueError(f"negative probability for {key!r}: {p}")
        total = sum(self.probabilities.values())
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")


@dataclass
class ShotHistogram:
    counts: dict[str, int]
    shots: int
    seed: int

    def __post_init__(self):
        total = sum(self.counts.values())
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected {self.shots} shots")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("negative count")


def _slot_ordered_qubits(circuit: Circuit) -> tuple[int, ...]:
    mapping = circuit.slot_to_qubit()
    return tuple(mapping[s] for s in sorted(mapping))


def check_simulable(circuit: Circuit) -> None:
    """Raise unless :func:`simulate` can run the circuit: it must be at most
    MAX_QUBITS wide, and once a qubit is measured no later gate may touch it
    (including a second measurement)."""
    _check_width(circuit.num_qubits)
    measured: set[int] = set()
    for gate in circuit.ops:
        for q in gate.qubits:
            if q in measured:
                raise NonTerminalMeasurementError(
                    f"qubit {q} used after its measurement; run_trajectory handles this"
                )
        if gate.kind is GateKind.MZ:
            measured.add(gate.qubits[0])


def simulate(circuit: Circuit) -> tuple[StateVector, ProbDist]:
    """Evolve the circuit's unitary part and marginalize over measured qubits;
    all measurements must be terminal (:func:`check_simulable`)."""
    check_simulable(circuit)
    state = StateVector.zero(circuit.num_qubits)
    for gate in circuit.ops:
        if gate.kind is not GateKind.MZ:
            apply_gate(state, gate)

    qubits = _slot_ordered_qubits(circuit)
    dist = _marginal_distribution(state, qubits)
    return state, dist


def _marginal_distribution(state: StateVector, qubits: Sequence[int]) -> ProbDist:
    n = state.num_qubits
    m = len(qubits)
    if m == 0:
        return ProbDist((), {"": 1.0})
    probs = state.probabilities().reshape([2] * n)
    # Axis a of the reshaped tensor is qubit n-1-a.
    keep = [n - 1 - q for q in qubits]
    rest = [a for a in range(n) if a not in keep]
    vec = probs.transpose(keep + rest).reshape(1 << m, -1).sum(axis=1)
    out = {
        format(i, f"0{m}b"): float(p)
        for i, p in enumerate(vec)
        if p > _PROB_EPS
    }
    return ProbDist(tuple(qubits), out)


def _sampling_table(dist: ProbDist) -> tuple[list[str], np.ndarray]:
    """Sorted keys and normalised probabilities of a distribution, the input of
    every multinomial draw. It is kept on a distribution whose probabilities are
    read-only (the exact-distribution cache's), which cannot change under it."""
    table = dist.__dict__.get("_table")
    if table is None:
        keys = sorted(dist.probabilities)
        p = np.array([dist.probabilities[k] for k in keys], dtype=float)
        table = keys, p / p.sum()
        if isinstance(dist.probabilities, MappingProxyType):
            dist._table = table
    return table


def sample_shots(dist: ProbDist, shots: int, seed: int, rng=None) -> ShotHistogram:
    """Seeded multinomial sample of a distribution, drawn from ``rng`` if given,
    else from ``default_rng(seed)``; zero counts are dropped."""
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if shots == 0:
        return ShotHistogram({}, 0, seed)
    keys, p = _sampling_table(dist)
    counts = np.random.default_rng(seed if rng is None else rng).multinomial(shots, p)
    return ShotHistogram(
        {k: int(c) for k, c in zip(keys, counts) if c > 0}, shots, seed
    )


def run_trajectory(circuit: Circuit, shots: int, seed: int) -> ShotHistogram:
    """Per-shot stochastic evolution with measurement collapse.

    Handles mid-circuit measurement: each mz samples the qubit's marginal,
    collapses and renormalizes, and records the bit under its result slot.
    Histogram keys list result slots in ascending slot order. The gates before
    the first mz draw nothing, so they are applied once and every shot starts
    from a copy of that state.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    slots = circuit.result_slots
    slot_pos = {s: i for i, s in enumerate(slots)}
    prefix = StateVector.zero(circuit.num_qubits)  # rejects a width past MAX_QUBITS
    ops = circuit.ops
    first_mz = next((i for i, g in enumerate(ops) if g.kind is GateKind.MZ), len(ops))
    for gate in ops[:first_mz]:
        apply_gate(prefix, gate)
    index = np.arange(prefix.amplitudes.size)
    bit_of = [((index >> q) & 1).astype(bool) for q in range(circuit.num_qubits)]
    rng = np.random.default_rng(seed)
    counts: dict[str, int] = {}
    for _ in range(shots):
        state = StateVector(circuit.num_qubits, prefix.amplitudes.copy())
        bits = ["0"] * len(slots)
        for gate in ops[first_mz:]:
            if gate.kind is not GateKind.MZ:
                apply_gate(state, gate)
                continue
            q = gate.qubits[0]
            probs = state.probabilities()
            p1 = float(probs[bit_of[q]].sum())
            outcome = 1 if rng.random() < p1 else 0
            keepmask = bit_of[q] if outcome else ~bit_of[q]
            nxt = np.where(keepmask, state.amplitudes, 0.0)
            norm = math.sqrt(p1 if outcome else 1.0 - p1)
            state.amplitudes = nxt / norm if norm > 1e-12 else nxt
            bits[slot_pos[gate.result_slot]] = str(outcome)
        key = "".join(bits)
        counts[key] = counts.get(key, 0) + 1
    return ShotHistogram(counts, shots, seed)


def expectation_pauli(state: StateVector, paulis: str | Sequence[Pauli]) -> float:
    """<psi|P|psi> for a Pauli string; paulis[q] acts on qubit q."""
    ps = pauli_string(paulis)
    if len(ps) != state.num_qubits:
        raise ValueError(
            f"pauli string length {len(ps)} != qubit count {state.num_qubits}"
        )
    phi = state.amplitudes.copy()
    for q, p in enumerate(ps):
        if p is not Pauli.I:
            phi = _apply_1q(phi, _PAULI_1Q[p], q, state.num_qubits)
    return float(np.vdot(state.amplitudes, phi).real)


def _regroup(table: Mapping[str, float], positions: Sequence[int]) -> dict[str, float]:
    """Sum ``table``'s values over new keys whose char j is the old key's char
    ``positions[j]``; a position outside the keys, negative too, is rejected."""
    bad = [p for p in positions if not 0 <= p < len(next(iter(table), ""))]
    if table and bad:
        raise ValueError(f"position {bad[0]} out of range")
    out: dict[str, float] = {}
    for key, value in table.items():
        new = "".join(key[p] for p in positions)
        out[new] = out.get(new, 0) + value
    return out


def marginalize(dist: ProbDist, positions: Sequence[int]) -> ProbDist:
    """Project/reorder a distribution: output char j = input char positions[j].

    Dropping positions marginalizes them out; permuting reorders the key.
    """
    probabilities = _regroup(dist.probabilities, positions)
    return ProbDist(tuple(dist.measured_qubits[p] for p in positions), probabilities)


def marginalize_counts(hist: ShotHistogram, positions: Sequence[int]) -> ShotHistogram:
    """Histogram analogue of :func:`marginalize`."""
    return ShotHistogram(_regroup(hist.counts, positions), hist.shots, hist.seed)


def format_histogram(hist: ShotHistogram) -> str:
    """CLI text form: '<bitstring> <count>' lines sorted by bitstring, then 'shots <N>'."""
    lines = [f"{key} {hist.counts[key]}" for key in sorted(hist.counts)]
    lines.append(f"shots {hist.shots}")
    return "\n".join(lines)


def format_probabilities(dist: ProbDist) -> str:
    lines = [f"{key} {dist.probabilities[key]:.12g}" for key in sorted(dist.probabilities)]
    return "\n".join(lines)
