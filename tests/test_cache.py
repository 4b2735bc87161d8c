"""Pure qpu work runs once per distinct input: one exact distribution per
(circuit content key, output positions), with the same payloads as computing
each afresh."""

import contextlib
import hashlib
import io
import sys
import threading

import pytest

from qtask import qpd
from qtask import runtime as rt
from qtask.circuit import Circuit, Gate
from qtask.cli import main
from qtask.qir import emit_qir
from qtask.simulator import ShotHistogram, simulate


@pytest.fixture(autouse=True)
def empty_caches(monkeypatch):
    monkeypatch.setattr(rt, "_EXACT", rt._ExactCache(rt._EXACT_OUTCOMES))


@pytest.fixture
def simulate_calls(monkeypatch):
    calls = []
    simulate = rt.simulate

    def counted(circuit):
        calls.append(circuit)
        return simulate(circuit)

    monkeypatch.setattr(rt, "simulate", counted)
    return calls


def _held(cache) -> int:
    return sum(len(d.probabilities) for d in cache._dists.values())


def test_ghz_qpd_simulates_each_distinct_fragment_once(simulate_calls):
    # 5 reps run 400 fragment tasks over 24 distinct circuits; one device keeps
    # two misses of one circuit from overlapping
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ghz-qpd", "--reps", "5", "--devices", "1"]) == 0
    assert len(simulate_calls) == 24
    assert len(rt._EXACT._dists) == 24


def test_lowering_is_cached_per_text_and_each_kernel_owns_its_circuit(monkeypatch):
    parses = []
    parse_qir = rt.parse_qir
    monkeypatch.setattr(rt, "parse_qir", lambda text: parses.append(text) or parse_qir(text))
    first = rt.lower_qir(rt.QirKernel(path="bell.ll", shots=0))
    bell = rt.run_qir(first, seed=0).probabilities
    first.circuit.append(Gate.x(0))
    second = rt.lower_qir(rt.QirKernel(path="bell.ll", shots=0))
    assert len(parses) == 2  # nothing is kept across calls: each lowering parses its text
    assert second.circuit is not first.circuit
    assert len(second.circuit.ops) == len(first.circuit.ops) - 1
    assert rt.run_qir(second, seed=0).probabilities == bell


def test_writing_into_an_exact_payload_leaves_later_results_alone(simulate_calls):
    kernel = rt.lower_qir(rt.QirKernel(path="bell.ll", shots=0))
    payload = rt.run_qir(kernel, seed=0)
    bell = dict(payload.probabilities)
    assert set(bell) == {"00", "11"}
    payload.probabilities["00"] = 1.0
    del payload.probabilities["11"]
    again = rt.run_qir(kernel, seed=0)
    assert again is not payload
    assert again.probabilities == bell
    sampled = rt.run_qir(rt.lower_qir(rt.QirKernel(path="bell.ll", shots=64)), seed=3)
    assert set(sampled.counts) == {"00", "11"}
    assert len(simulate_calls) == 1


def test_same_circuit_with_other_positions_is_another_entry(simulate_calls):
    circuit = Circuit(2).append(Gate.x(0), Gate.mz(0, 0), Gate.mz(1, 1))
    as_measured = rt.run_qir(rt.CircuitKernel(circuit, mode="exact"), seed=0)
    swapped = rt.run_qir(rt.CircuitKernel(circuit, mode="exact", positions=(1, 0)), seed=0)
    assert as_measured.probabilities == {"10": 1.0}
    assert swapped.probabilities == {"01": 1.0}
    assert len(simulate_calls) == 2 and len(rt._EXACT._dists) == 2


def test_held_outcomes_stay_within_the_bound():
    limit = rt._EXACT_OUTCOMES
    width = limit.bit_length() - 5  # a sixteenth of the bound per distribution

    def spread(n, angle):
        circuit = Circuit(n).append(*(Gate.h(q) for q in range(n)), Gate.rz(0, angle))
        return circuit.append(*(Gate.mz(q, q) for q in range(n)))

    for i in range(20):
        rt.run_qir(rt.CircuitKernel(spread(width, 0.1 * i), mode="exact"), seed=0)
    assert 0 < rt._EXACT.held <= limit
    assert rt._EXACT.held == _held(rt._EXACT)
    assert len(rt._EXACT._dists) == 16  # the four least recently used went
    # a distribution wider than the bound is computed but never kept, and
    # pushes out none of the held ones
    held = list(rt._EXACT._dists)
    wide = rt.CircuitKernel(spread(limit.bit_length(), 0.0), shots=8)
    assert isinstance(rt.run_qir(wide, seed=1), ShotHistogram)
    assert list(rt._EXACT._dists) == held


def test_exact_cache_bookkeeping_holds_under_worker_threads():
    # more threads than cores and a short switch interval, so that a lost update
    # of the held count or the entries would show as a mismatch between them
    cache = rt._ExactCache(limit=12)
    circuits = [
        Circuit(2).append(Gate.ry(0, 0.3 * i), Gate.h(1), Gate.mz(0, 0), Gate.mz(1, 1))
        for i in range(16)
    ]
    expected = [simulate(c)[1].probabilities for c in circuits]
    errors = []

    def worker(offset):
        try:
            for step in range(200):
                i = (offset + step) % len(circuits)
                if cache.get(circuits[i], None).probabilities != expected[i]:
                    raise AssertionError(f"circuit {i} got another circuit's distribution")
        except Exception as exc:  # reported below; a thread cannot fail the test itself
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i * 5,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert cache.held == _held(cache) <= 12


def test_inline_and_file_qir_of_one_program_share_a_lowering(tmp_path, simulate_calls):
    circuit = Circuit(2).append(Gate.h(0), Gate.cnot(0, 1), Gate.mz(0, 0), Gate.mz(1, 1))
    text = emit_qir(circuit)
    path = tmp_path / "pair.ll"
    path.write_text(text)
    inline = rt.lower_qir(rt.QirKernel(source=text, shots=0))
    by_file = rt.lower_qir(rt.QirKernel(path=path, shots=0))
    assert rt.run_qir(inline, 0) == rt.run_qir(by_file, 0)
    assert len(simulate_calls) == 1


def test_equal_circuits_built_apart_share_one_entry(simulate_calls):
    a = Circuit(2).append(Gate.h(0), Gate.cnot(0, 1), Gate.mz(0, 0), Gate.mz(1, 1))
    b = Circuit(2).extend([Gate.h(0), Gate.cnot(0, 1), Gate.mz(0, 0), Gate.mz(1, 1)])
    assert a is not b and a.content_key() == b.content_key()
    assert rt._EXACT.get(a, None) is rt._EXACT.get(b, None)
    assert len(simulate_calls) == 1 and len(rt._EXACT._dists) == 1


def test_appending_after_a_lookup_changes_the_key_and_the_distribution(simulate_calls):
    circuit = Circuit(3).append(Gate.x(0), Gate.mz(0, 0))
    assert rt._EXACT.get(circuit, None).probabilities == {"1": 1.0}
    first = circuit.content_key()
    circuit.append(Gate.x(1), Gate.mz(1, 1))
    second = circuit.content_key()
    assert second != first
    assert rt._EXACT.get(circuit, None).probabilities == {"11": 1.0}
    circuit.extend([Gate.mz(2, 2)])
    assert circuit.content_key() not in (first, second)
    assert rt._EXACT.get(circuit, None).probabilities == {"110": 1.0}
    assert len(simulate_calls) == 3


def test_a_copy_keeps_the_key_until_it_changes():
    source = Circuit(2).append(Gate.h(0))
    before = source.copy()  # copied before the key is computed
    key = source.content_key()
    after = source.copy()
    assert before.content_key() == after.content_key() == key
    after.append(Gate.x(1))
    assert after.content_key() != key
    assert source.content_key() == key and before.content_key() == key


def test_an_angle_or_the_positions_alone_make_another_entry(simulate_calls):
    def rotated(angle):
        return Circuit(1).append(Gate.rx(0, angle), Gate.mz(0, 0))

    near = rotated(0.5)
    far = rotated(0.5000000000000001)
    assert near.content_key() != far.content_key()
    assert rt._EXACT.get(near, None) is not rt._EXACT.get(far, None)
    assert len(simulate_calls) == 2
    pair = Circuit(2).append(Gate.x(0), Gate.mz(0, 0), Gate.mz(1, 1))
    assert rt._EXACT.get(pair, None).probabilities == {"10": 1.0}
    assert rt._EXACT.get(pair, (1, 0)).probabilities == {"01": 1.0}
    assert len(simulate_calls) == 4 and len(rt._EXACT._dists) == 4


def test_the_instance_batch_builds_each_distinct_fragment_once(monkeypatch):
    # 4 first fragments (one per observable), 6 x 4 middle ones and 6 last ones
    built = []
    fragment = qpd._entangler_fragment
    monkeypatch.setattr(qpd, "_entangler_fragment", lambda *f: built.append(f) or fragment(*f))
    instances = qpd.build_ghz_qpd_instances(qpd.canonical_wire_cut(), 2)
    assert len(built) == len(set(built)) == 34
    assert len({id(f) for inst in instances for f in inst.fragments}) == 34


def test_a_sweep_keys_and_simulates_each_fragment_circuit_once(monkeypatch, simulate_calls):
    keyed = []
    content_key = Circuit.content_key

    def counted(circuit):
        if circuit._key is None:
            keyed.append(circuit)
        return content_key(circuit)

    monkeypatch.setattr(Circuit, "content_key", counted)
    # the sweep builds its graph once: 81 tasks, and one check per distinct circuit
    created, checked = [], []

    def counting(fn, calls):
        def call(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(rt.TaskGraph, "create_task", counting(rt.TaskGraph.create_task, created))
    monkeypatch.setattr(rt, "check_simulable", counting(rt.check_simulable, checked))
    qpd.validate_run(reps=20, shots=1024, seed=5, devices=1)
    assert len(keyed) <= 34
    assert len(simulate_calls) <= 34
    assert len(created) == 81
    assert len(checked) == 24


# sha256 of stdout, recorded before content keys, shared fragments and the
# single-walk estimator; --no-dedup gives every instance its own payloads
SWEEP_STDOUT_SHA256 = {
    ("ghz-qpd", "--reps", "20", "--shots", "1024", "--devices", "1", "--seed", "1"):
        "42678ab59130a721371b058b985e0f56b242f63af57d1046f5fa302e37ce21d8",
    ("ghz-qpd", "--reps", "20", "--shots", "1024", "--devices", "1", "--seed", "7"):
        "051b2f71feddfafbfe3cd1e6478032e41694e2be7ff8b29c1cc7766dc2cfb1e6",
    ("ghz-qpd", "--reps", "2", "--no-dedup", "--seed", "4"):
        "57ab48b937baab357bd56929f00dddd01e7c8a12299af86506c522554e35641a",
}


@pytest.mark.parametrize("argv", list(SWEEP_STDOUT_SHA256), ids=" ".join)
def test_sweep_stdout_bytes(capsys, argv):
    assert main(list(argv)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SWEEP_STDOUT_SHA256[argv]
