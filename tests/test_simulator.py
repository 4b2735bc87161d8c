import math

import numpy as np
import pytest

from qtask.circuit import Circuit, Gate, GateKind, Pauli, basis_change
from qtask.qpd import ghz_circuit
from qtask.simulator import (
    NonTerminalMeasurementError,
    ProbDist,
    ShotHistogram,
    StateVector,
    apply_gate,
    expectation_pauli,
    format_histogram,
    marginalize,
    marginalize_counts,
    run_trajectory,
    sample_shots,
    simulate,
)

SQ2 = 1 / math.sqrt(2)


def test_h_on_zero():
    state = apply_gate(StateVector.zero(1), Gate.h(0))
    np.testing.assert_allclose(state.amplitudes, [SQ2, SQ2], atol=1e-12)


def test_cnot_builds_bell():
    state = StateVector.zero(2)
    apply_gate(state, Gate.h(0))
    apply_gate(state, Gate.cnot(0, 1))
    np.testing.assert_allclose(state.amplitudes, [SQ2, 0, 0, SQ2], atol=1e-12)


def test_rz_is_global_phase_on_distribution():
    base = Circuit(1).append(Gate.h(0), Gate.mz(0, 0))
    rotated = Circuit(1).append(Gate.rz(0, 0.7), Gate.h(0), Gate.mz(0, 0))
    plain = Circuit(1).append(Gate.rz(0, 0.7), Gate.mz(0, 0))
    _, d0 = simulate(Circuit(1).append(Gate.mz(0, 0)))
    _, d1 = simulate(plain)
    assert d0.probabilities == pytest.approx(d1.probabilities, abs=1e-12)
    _, db = simulate(base)
    _, dr = simulate(rotated)
    assert set(dr.probabilities) == set(db.probabilities)


def test_apply_gate_rejects_mz():
    with pytest.raises(ValueError, match="not a unitary"):
        apply_gate(StateVector.zero(1), Gate.mz(0, 0))


def test_qubit_cap():
    with pytest.raises(ValueError, match="24-qubit"):
        StateVector.zero(25)


# -- dense-matrix oracle ------------------------------------------------------


def _dense_1q(mat, q, n):
    out = np.eye(1, dtype=complex)
    for a in range(n - 1, -1, -1):  # kron factor order: qubit n-1 leftmost
        out = np.kron(out, mat if a == q else np.eye(2))
    return out


def _dense_2q(kind, a, b, n):
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        if kind is GateKind.CNOT:
            j = i ^ (1 << b) if (i >> a) & 1 else i
            m[j, i] = 1
        else:  # CZ
            m[i, i] = -1 if ((i >> a) & 1 and (i >> b) & 1) else 1
    return m


def _random_gate(rng, n):
    roll = int(rng.integers(0, 5))
    if roll == 0 and n >= 2:
        a, b = (int(x) for x in rng.permutation(n)[:2])
        return Gate.cnot(a, b) if rng.integers(2) else Gate.cz(a, b)
    if roll == 1:
        ctor = [Gate.rx, Gate.ry, Gate.rz][int(rng.integers(0, 3))]
        return ctor(int(rng.integers(0, n)), float(rng.uniform(-7, 7)))
    ctor = [Gate.h, Gate.x, Gate.y, Gate.z, Gate.s, Gate.sdg, Gate.t, Gate.tdg][
        int(rng.integers(0, 8))
    ]
    return ctor(int(rng.integers(0, n)))


@pytest.mark.parametrize("seed", range(8))
def test_apply_gate_matches_dense_oracle(seed):
    from qtask.simulator import gate_matrix

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    state = StateVector.zero(n)
    reference = np.zeros(1 << n, dtype=complex)
    reference[0] = 1.0
    for _ in range(20):
        gate = _random_gate(rng, n)
        apply_gate(state, gate)
        if gate.kind in (GateKind.CNOT, GateKind.CZ):
            dense = _dense_2q(gate.kind, *gate.qubits, n)
        else:
            dense = _dense_1q(gate_matrix(gate), gate.qubits[0], n)
        reference = dense @ reference
        np.testing.assert_allclose(state.amplitudes, reference, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_norm_preserved_on_random_circuits(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 11))
    state = StateVector.zero(n)
    for _ in range(100):
        apply_gate(state, _random_gate(rng, n))
        assert abs(state.norm() - 1.0) <= 1e-10


# -- simulate -----------------------------------------------------------------


def bell_circuit():
    return Circuit(2).append(Gate.h(0), Gate.cnot(0, 1), Gate.mz(0, 0), Gate.mz(1, 1))


def test_simulate_bell():
    _, dist = simulate(bell_circuit())
    assert dist.probabilities == pytest.approx({"00": 0.5, "11": 0.5}, abs=1e-12)
    assert dist.measured_qubits == (0, 1)


def test_simulate_ghz4():
    circ = ghz_circuit(4)
    for q in range(4):
        circ.append(Gate.mz(q, q))
    _, dist = simulate(circ)
    assert dist.probabilities == pytest.approx({"0000": 0.5, "1111": 0.5}, abs=1e-12)


def test_simulate_no_measurement():
    _, dist = simulate(Circuit(1).append(Gate.h(0)))
    assert dist.probabilities == {"": 1.0}


def test_simulate_rejects_non_terminal_measurement():
    circ = Circuit(1).append(Gate.mz(0, 0), Gate.x(0))
    with pytest.raises(NonTerminalMeasurementError):
        simulate(circ)
    # measuring the same qubit twice is also non-terminal
    circ2 = Circuit(1).append(Gate.mz(0, 0), Gate.mz(0, 1))
    with pytest.raises(NonTerminalMeasurementError):
        simulate(circ2)


def test_slot_order_defines_key_order():
    # slot 0 on qubit 1, slot 1 on qubit 0: key char 0 must be qubit 1's bit
    circ = Circuit(2).append(Gate.x(1), Gate.mz(1, 0), Gate.mz(0, 1))
    _, dist = simulate(circ)
    assert dist.probabilities == pytest.approx({"10": 1.0})


# -- sampling -----------------------------------------------------------------


def test_sample_deterministic_dist():
    hist = sample_shots(ProbDist((0,), {"0": 1.0}), 100, seed=1)
    assert hist.counts == {"0": 100}


def test_sample_bell_within_5_sigma():
    _, dist = simulate(bell_circuit())
    hist = sample_shots(dist, 1024, seed=11)
    assert set(hist.counts) <= {"00", "11"}
    assert sum(hist.counts.values()) == 1024
    for count in hist.counts.values():
        assert 432 <= count <= 592  # 512 +- 5*sqrt(1024*0.25)


def test_sample_zero_shots():
    hist = sample_shots(ProbDist((0,), {"0": 1.0}), 0, seed=5)
    assert hist.counts == {} and hist.shots == 0


def test_sample_is_seed_deterministic():
    _, dist = simulate(bell_circuit())
    a = sample_shots(dist, 512, seed=3)
    b = sample_shots(dist, 512, seed=3)
    c = sample_shots(dist, 512, seed=4)
    assert a.counts == b.counts
    assert a.counts != c.counts or a.seed != c.seed


def test_sampling_consistency_chi_squared():
    scipy_stats = pytest.importorskip("scipy.stats")
    _, dist = simulate(bell_circuit())
    hist = sample_shots(dist, 100_000, seed=17)
    observed = [hist.counts.get(k, 0) for k in ("00", "11")]
    expected = [100_000 * 0.5] * 2
    result = scipy_stats.chisquare(observed, expected)
    assert result.pvalue > 0.001


# -- trajectories -------------------------------------------------------------


def test_trajectory_deterministic_bit():
    hist = run_trajectory(Circuit(1).append(Gate.x(0), Gate.mz(0, 0)), 50, seed=0)
    assert hist.counts == {"1": 50}


def test_trajectory_supports_mid_circuit_measurement():
    # measure, then keep operating on the same qubit under a new slot
    circ = Circuit(1).append(Gate.h(0), Gate.mz(0, 0), Gate.x(0), Gate.mz(0, 1))
    hist = run_trajectory(circ, 200, seed=9)
    assert set(hist.counts) <= {"01", "10"}  # second bit is always the flip


def test_trajectory_matches_exact_distribution():
    shots = 100_000
    _, exact = simulate(bell_circuit())
    hist = run_trajectory(bell_circuit(), shots, seed=23)
    kl = 0.0
    for key, count in hist.counts.items():
        freq = count / hist.shots
        kl += freq * math.log(freq / exact.probabilities[key])
    assert kl < 0.01


# -- expectations -------------------------------------------------------------


def test_zzzz_on_ghz4():
    state, _ = simulate(ghz_circuit(4))
    assert expectation_pauli(state, "ZZZZ") == pytest.approx(1.0, abs=1e-12)


def test_ziii_on_ghz4():
    state, _ = simulate(ghz_circuit(4))
    assert expectation_pauli(state, "ZIII") == pytest.approx(0.0, abs=1e-12)


def test_identity_expectation():
    state, _ = simulate(ghz_circuit(3))
    assert expectation_pauli(state, "III") == pytest.approx(1.0, abs=1e-12)


def test_expectation_length_mismatch():
    state, _ = simulate(ghz_circuit(2))
    with pytest.raises(ValueError, match="length"):
        expectation_pauli(state, "Z")


@pytest.mark.parametrize("seed", range(5))
def test_expectation_matches_measurement_pathway(seed):
    # cross-check: <P> equals the signed parity of the basis-rotated distribution
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(1, 4))
    circ = Circuit(n)
    for _ in range(10):
        circ.append(_random_gate(rng, n))
    state, _ = simulate(circ)
    paulis = [Pauli(rng.choice(["I", "X", "Y", "Z"])) for _ in range(n)]

    rotated = circ.copy()
    measured = []
    for q, p in enumerate(paulis):
        for g in basis_change(p).gates:
            rotated.append(Gate(g.kind, (q,)))
        if p is not Pauli.I:
            rotated.append(Gate.mz(q, len(measured)))
            measured.append(q)
    _, dist = simulate(rotated)
    signed = sum(
        prob * np.prod([1 - 2 * int(b) for b in key]) for key, prob in dist.probabilities.items()
    )
    assert expectation_pauli(state, paulis) == pytest.approx(float(signed), abs=1e-12)


# -- formats ------------------------------------------------------------------


def test_histogram_format():
    hist = ShotHistogram({"11": 3, "00": 7}, 10, seed=0)
    assert format_histogram(hist) == "00 7\n11 3\nshots 10"


def test_marginalize_reorders_and_projects():
    dist = ProbDist((0, 1), {"01": 0.25, "10": 0.75})
    flipped = marginalize(dist, [1, 0])
    assert flipped.probabilities == pytest.approx({"10": 0.25, "01": 0.75})
    first = marginalize(dist, [0])
    assert first.probabilities == pytest.approx({"0": 0.25, "1": 0.75})



def test_marginalize_counts_rejects_out_of_range_positions():
    hist = ShotHistogram({"01": 3, "10": 1}, 4, seed=0)
    assert marginalize_counts(hist, [1, 0]).counts == {"10": 3, "01": 1}
    for position in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            marginalize_counts(hist, [position])
    with pytest.raises(ValueError, match="out of range"):
        marginalize(ProbDist((0, 1), {"01": 0.25, "10": 0.75}), [-1])

def test_probdist_validation():
    with pytest.raises(ValueError, match="sum"):
        ProbDist((0,), {"0": 0.7})
    with pytest.raises(ValueError, match="match"):
        ProbDist((0,), {"00": 1.0})


def test_histogram_validation():
    with pytest.raises(ValueError, match="counts sum"):
        ShotHistogram({"0": 3}, 5, seed=0)
