"""numpy's seed hash, run for a batch of seeds, against numpy itself.

``seed_words`` reimplements ``np.random.SeedSequence`` with array arithmetic,
so every check here compares with the numpy that runs the tests: a numpy
whose hash differed would fail them. The runtime tests check that each
submitted graph hashes its sampling seeds once and that every sampled qpu task
draws from a generator made from them, while a seed outside the hash's range
keeps ``default_rng(seed)``. ``seed_deriver``, which hashes a graph's seed
once for all its task ids, is checked against ``derive_seed`` and against
the SHA-256 definition that both implement.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qtask.runtime
import qtask.seeding
from qtask.circuit import Circuit, Gate
from qtask.cli import main
from qtask.runtime import CircuitKernel, TaskState, make_runtime
from qtask.seeding import SeedState, derive_seed, seed_deriver, seed_states, seed_words
from qtask.simulator import sample_shots, simulate

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
SEEDS_64 = st.integers(0, 2**64 - 1)


def _numpy_words(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


def _assert_rows_match(seeds):
    words = seed_words(seeds)
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for seed, row in zip(seeds, words):
        assert row.tolist() == _numpy_words(seed).tolist(), seed


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_seed_words_match_seed_sequence_at_the_edges(seed):
    _assert_rows_match([seed])


def test_seed_words_match_seed_sequence_in_one_batch():
    _assert_rows_match(EDGE_SEEDS + EDGE_SEEDS[::-1])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(SEEDS_64, min_size=100, max_size=100))
def test_seed_words_match_seed_sequence_on_random_seeds(seeds):
    # 100 batches of 100: 10,000 seeds, each row hashed beside 99 others
    _assert_rows_match(seeds)


def test_seed_words_of_no_seeds():
    assert seed_words([]).shape == (0, 4)


def _sha256_seed(*path) -> int:
    # derive_seed's definition, spelled out: the low 63 bits of the first 8
    # bytes of SHA-256 over the path's text, joined by ":"
    digest = hashlib.sha256(":".join(map(str, path)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


def _assert_derivations(base, ids):
    derive = seed_deriver(base)
    for task_id in ids:
        assert derive(task_id) == derive_seed(base, task_id) == _sha256_seed(base, task_id)
    assert seed_deriver(base, "rep")(7) == derive_seed(base, "rep", 7) == _sha256_seed(base, "rep", 7)
    assert derive_seed(base) == _sha256_seed(base)


@pytest.mark.parametrize("base", [-(2**70), -1, 0, 2**64, 2**64 + 1, 2**100])
def test_seed_deriver_at_the_edges(base):
    _assert_derivations(base, [0, 1, 79, -1, 2**64, "t0", ""])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.integers(-(2**80), 2**80),
    st.lists(st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=8)), max_size=20),
)
def test_seed_deriver_derives_what_derive_seed_derives(base, ids):
    _assert_derivations(base, ids)


def _streams(rng: np.random.Generator) -> list:
    p = np.array([0.1, 0.2, 0.3, 0.4])
    return [
        rng.random(8).tolist(),
        rng.integers(0, 2**40, 8).tolist(),
        rng.multinomial(1024, p).tolist(),
        rng.random(),
    ]


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.lists(SEEDS_64, min_size=1, max_size=20))
def test_generators_draw_what_default_rng_draws(seeds):
    for seed, state in zip(seeds + EDGE_SEEDS, seed_states(seeds + EDGE_SEEDS)):
        assert _streams(state.generator()) == _streams(np.random.default_rng(seed)), seed


def test_seed_states_leave_seeds_outside_the_hash_to_default_rng():
    seeds = [5, -1, 2**64, 2**70, 2.0, None, 2**64 - 1]
    states = seed_states(seeds)
    assert [state is None for state in states] == [False, True, True, True, True, True, False]
    assert seed_states([]) == []


def test_seed_state_holds_only_pcg64s_state():
    (state,) = seed_states([7])
    with pytest.raises(ValueError, match="4 uint64 words"):
        np.random.MT19937(state)  # asks for 624 uint32 words
    assert isinstance(state, SeedState)


# -- the runtime -------------------------------------------------------------


def test_sweep_hashes_once_per_graph_and_samples_from_generators(monkeypatch, capsys):
    batches = []
    rngs = []
    words, sample = qtask.seeding.seed_words, qtask.runtime.sample_shots

    def counted_words(seeds):
        batches.append(len(seeds))
        return words(seeds)

    def recorded_sample(dist, shots, seed, rng=None):
        rngs.append(rng)
        return sample(dist, shots, seed, rng)

    monkeypatch.setattr(qtask.seeding, "seed_words", counted_words)
    monkeypatch.setattr(qtask.runtime, "sample_shots", recorded_sample)
    assert main(["ghz-qpd", "--reps", "20", "--devices", "1", "--seed", "3"]) == 0
    assert capsys.readouterr().out.startswith("estimate ")
    assert batches == [80] * 20  # one pass per graph, over its 80 fragment tasks
    assert len(rngs) == 1600
    assert all(isinstance(rng, np.random.Generator) for rng in rngs)


def _bell() -> Circuit:
    return Circuit(2).extend([Gate.h(0), Gate.cnot(0, 1), Gate.mz(0, 0), Gate.mz(1, 1)])


def _run_one(kernel: CircuitKernel):
    runtime = make_runtime(qpu=1, host=0)
    try:
        graph = runtime.create_graph(seed=1)
        task_id = graph.create_task("t", kernel)
        return runtime.wait(runtime.submit(graph))[task_id]
    finally:
        runtime.shutdown()


def test_negative_kernel_seed_fails_its_task_at_run_time():
    result = _run_one(CircuitKernel(_bell(), shots=64, seed=-1))
    assert result.status is TaskState.FAILED
    assert result.error == "ValueError: expected non-negative integer"


def test_kernel_seed_past_64_bits_samples_as_default_rng_does():
    seed = 2**70
    result = _run_one(CircuitKernel(_bell(), shots=512, seed=seed))
    assert result.status is TaskState.COMPLETED
    expected = sample_shots(simulate(_bell())[1], 512, seed)
    assert result.payload == expected and result.payload.seed == seed
