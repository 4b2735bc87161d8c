import json
import math

import numpy as np
import pytest

from qtask.circuit import GateKind, Pauli, PrepLabel
from qtask.qpd import (
    REDUCE_TASK,
    InstanceResult,
    QpdTerm,
    WireCutDecomposition,
    build_ghz_qpd_instances,
    canonical_wire_cut,
    decomposition_from_json,
    decomposition_to_json,
    estimate_zzzz,
    ghz_circuit,
    importance_sampled_estimate,
    instances_to_graph,
    reconstruct_density,
    sign_function,
    validate_decomposition,
    validate_run,
    write_validation_csv,
)
from qtask.runtime import TaskState, make_runtime
from qtask.simulator import ShotHistogram, expectation_pauli, sample_shots, simulate


def exact_results(decomp, n_cuts=2):
    results = {}
    for inst in build_ghz_qpd_instances(decomp, n_cuts=n_cuts):
        dists = [simulate(f)[1] for f in inst.fragments]
        results[(inst.k, inst.s)] = InstanceResult(*dists)
    return results


# -- decomposition table ------------------------------------------------------


def test_canonical_table_shape():
    decomp = canonical_wire_cut()
    assert len(decomp.terms) == 8
    assert decomp.gamma == 4.0
    pair_sum = sum(
        abs(tk.coefficient * ts.coefficient)
        for tk in decomp.terms
        for ts in decomp.terms
    )
    assert pair_sum == 16.0  # gamma squared, exactly


def test_reconstruct_identity_on_basis_states():
    decomp = canonical_wire_cut()
    for ket in ([1, 0], [1 / math.sqrt(2), 1 / math.sqrt(2)]):
        rho = np.outer(ket, np.conj(ket))
        out = reconstruct_density(decomp, rho)
        assert np.abs(out - rho).max() <= 1e-12


def test_reconstruct_identity_on_random_pure_states():
    decomp = canonical_wire_cut()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        ket /= np.linalg.norm(ket)
        rho = np.outer(ket, ket.conj())
        worst = max(worst, np.abs(reconstruct_density(decomp, rho) - rho).max())
    assert worst <= 1e-12


def test_reconstruct_rejects_invalid_density():
    decomp = canonical_wire_cut()
    with pytest.raises(ValueError, match="Hermitian"):
        reconstruct_density(decomp, np.array([[1, 1], [0, 0]]))
    with pytest.raises(ValueError, match="trace"):
        reconstruct_density(decomp, np.eye(2))
    with pytest.raises(ValueError, match="positive"):
        reconstruct_density(decomp, np.array([[1.5, 0], [0, -0.5]]))


def test_json_roundtrip():
    decomp = canonical_wire_cut()
    again = decomposition_from_json(decomposition_to_json(decomp))
    assert again == decomp


def test_oracle_gates_loaded_tables():
    rows = (
        '[{"k": 1, "c": 0.9, "obs": "I", "prep": "0"},'
        ' {"k": 2, "c": 0.5, "obs": "Z", "prep": "1"}]'
    )
    with pytest.raises(ValueError, match="reconstruction"):
        decomposition_from_json(rows)
    # validation can be bypassed explicitly for inspection
    decomp = decomposition_from_json(rows, validate=False)
    assert len(decomp.terms) == 2
    with pytest.raises(ValueError, match="reconstruction"):
        validate_decomposition(decomp)


# -- instance batch -----------------------------------------------------------


def test_two_cut_batch_is_8x8_of_three_fragments():
    instances = build_ghz_qpd_instances(canonical_wire_cut(), n_cuts=2)
    assert len(instances) == 64
    assert all(len(inst.fragments) == 3 for inst in instances)
    assert all(f.num_qubits == 2 for inst in instances for f in inst.fragments)
    assert {(i.k, i.s) for i in instances} == {
        (k, s) for k in range(1, 9) for s in range(1, 9)
    }


def test_identity_observable_fragment_has_single_measurement():
    instances = build_ghz_qpd_instances(canonical_wire_cut(), n_cuts=2)
    inst = next(i for i in instances if i.k == 1)
    frag1 = inst.fragments[0]
    mzs = [g for g in frag1.ops if g.kind is GateKind.MZ]
    assert len(mzs) == 1 and mzs[0].qubits == (0,)
    assert all(g.kind in (GateKind.H, GateKind.CNOT, GateKind.MZ) for g in frag1.ops)


def test_fragment1_independent_of_s_and_fragment3_of_k():
    instances = {(i.k, i.s): i for i in build_ghz_qpd_instances(canonical_wire_cut())}
    assert instances[(3, 1)].fragments[0] == instances[(3, 8)].fragments[0]
    assert instances[(1, 5)].fragments[2] == instances[(8, 5)].fragments[2]


def test_one_cut_batch():
    instances = build_ghz_qpd_instances(canonical_wire_cut(), n_cuts=1)
    assert len(instances) == 8
    assert all(len(inst.fragments) == 2 for inst in instances)
    assert all(inst.s is None for inst in instances)


def test_unsupported_cut_count():
    with pytest.raises(ValueError, match="n_cuts"):
        build_ghz_qpd_instances(canonical_wire_cut(), n_cuts=3)


# -- sign function ------------------------------------------------------------


def test_sign_function_values():
    assert sign_function(0, 0, 0, 0) == 1
    assert sign_function(1, 0, 0, 0) == -1
    assert sign_function(0, 1, 1, 0) == 1
    with pytest.raises(ValueError):
        sign_function(2, 0, 0, 0)


# -- estimator ----------------------------------------------------------------


def test_exact_estimate_matches_direct_simulation():
    decomp = canonical_wire_cut()
    est = estimate_zzzz(exact_results(decomp), decomp, mode="exact")
    state, _ = simulate(ghz_circuit(4))
    direct = expectation_pauli(state, "ZZZZ")
    assert est.value == pytest.approx(direct, abs=1e-9)
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_one_cut_exact_estimate_matches_direct_simulation():
    # the dual route for the 3-qubit ladder: estimator == direct <ZZZ>
    decomp = canonical_wire_cut()
    est = estimate_zzzz(exact_results(decomp, n_cuts=1), decomp, mode="exact")
    state, _ = simulate(ghz_circuit(3))
    direct = expectation_pauli(state, "ZZZ")
    assert est.value == pytest.approx(direct, abs=1e-9)


def test_zeroed_middle_fragment_zeroes_estimate():
    decomp = canonical_wire_cut()
    results = exact_results(decomp)
    zeroed = {
        key: InstanceResult(r.p1, {"00": 0.0, "01": 0.0, "10": 0.0, "11": 0.0}, r.p3)
        for key, r in results.items()
    }
    est = estimate_zzzz(zeroed, decomp, mode="exact")
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_estimator_linear_in_fragment_distribution():
    decomp = canonical_wire_cut()
    results = exact_results(decomp)
    base = estimate_zzzz(results, decomp, mode="exact").value
    lam = 0.25
    scaled = {
        key: InstanceResult(
            r.p1, r.p2, {k: lam * v for k, v in r.p3.probabilities.items()}
        )
        for key, r in results.items()
    }
    assert estimate_zzzz(scaled, decomp, mode="exact").value == pytest.approx(
        lam * base, abs=1e-9
    )


def test_estimate_missing_instance():
    decomp = canonical_wire_cut()
    results = exact_results(decomp)
    results.pop((4, 5))
    with pytest.raises(ValueError, match="missing instance"):
        estimate_zzzz(results, decomp)


def test_estimate_rejects_zero_shot_histograms():
    decomp = canonical_wire_cut()
    results = exact_results(decomp)
    key = (1, 1)
    empty = ShotHistogram({}, 0, seed=0)
    results[key] = InstanceResult(empty, results[key].p2, results[key].p3)
    with pytest.raises(ValueError, match="zero shots"):
        estimate_zzzz(results, decomp, mode="sampled")


def test_estimate_rejects_an_outcome_that_is_not_fragment_bits():
    decomp = canonical_wire_cut()
    results = exact_results(decomp)
    key = (3, 3)
    results[key] = InstanceResult(results[key].p1, {"012": 1.0}, results[key].p3)
    with pytest.raises(ValueError, match="'012' is not"):
        estimate_zzzz(results, decomp)


def test_sampled_estimate_single_run_in_band():
    decomp = canonical_wire_cut()
    results = {}
    for inst in build_ghz_qpd_instances(decomp):
        dists = [
            sample_shots(simulate(f)[1], 1024, seed=hash((inst.k, inst.s, i)) % (2**31))
            for i, f in enumerate(inst.fragments)
        ]
        results[(inst.k, inst.s)] = InstanceResult(*dists)
    est = estimate_zzzz(results, decomp, mode="sampled")
    assert 0.7 <= est.value <= 1.3
    assert est.shots == 1024


# -- importance sampling ------------------------------------------------------


def test_importance_sampling_unbiased():
    decomp = canonical_wire_cut()
    values = [
        importance_sampled_estimate(decomp, n_samples=64, shots=1, seed=seed).value
        for seed in range(200)
    ]
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    assert abs(mean - 1.0) <= 3 * stderr


def test_importance_sampling_single_sample_bounded():
    decomp = canonical_wire_cut()
    for seed in range(24):
        est = importance_sampled_estimate(decomp, n_samples=1, shots=1, seed=seed)
        assert abs(est.value) <= 16.0 + 1e-12


def test_importance_sampling_deterministic():
    decomp = canonical_wire_cut()
    a = importance_sampled_estimate(decomp, n_samples=32, shots=4, seed=5)
    b = importance_sampled_estimate(decomp, n_samples=32, shots=4, seed=5)
    assert a.value == b.value


# float.hex values pin the estimators' bytes across refactors: summation order,
# coefficient products and the order of RNG draws all show in the last bit
IMPORTANCE_PINS = {
    (0, 1): "0x1.999999999999ap+2",
    (0, 4): "0x1.3333333333333p+1",
    (1, 1): "0x1.999999999999ap+2",
    (1, 4): "0x1.999999999999ap+1",
    (2, 1): "-0x1.3333333333333p+3",
    (2, 4): "-0x1.0000000000000p+1",
    (3, 1): "0x1.999999999999ap+2",
    (3, 4): "0x1.3333333333333p+0",
}
SAMPLED_PINS = {1: "-0x1.a9fbe76c8b440p-6", 2: "0x1.e3033a4723aafp-1"}


@pytest.mark.parametrize("seed, shots", sorted(IMPORTANCE_PINS))
def test_importance_sampling_bytes_pinned(seed, shots):
    est = importance_sampled_estimate(canonical_wire_cut(), n_samples=10, shots=shots, seed=seed)
    assert est.value.hex() == IMPORTANCE_PINS[(seed, shots)]


@pytest.mark.parametrize("n_cuts", [1, 2])
def test_sampled_estimate_bytes_pinned(n_cuts):
    decomp = canonical_wire_cut()
    results = {}
    for inst in build_ghz_qpd_instances(decomp, n_cuts=n_cuts):
        hists = [
            sample_shots(simulate(f)[1], 1000, seed=100 * inst.k + 10 * (inst.s or 0) + i)
            for i, f in enumerate(inst.fragments)
        ]
        results[(inst.k, inst.s)] = InstanceResult(*hists)
    assert estimate_zzzz(results, decomp, mode="sampled").value.hex() == SAMPLED_PINS[n_cuts]


def test_reversed_table_keeps_listed_order_and_estimate_bytes():
    # instances follow the table's listed order, while the estimator sums in
    # ascending (k, s), so reversing the rows leaves the estimate's bytes alone
    decomp = canonical_wire_cut()
    rows = json.loads(decomposition_to_json(decomp))
    reversed_decomp = decomposition_from_json(json.dumps(rows[::-1]))
    instances = build_ghz_qpd_instances(reversed_decomp)
    assert [(i.k, i.s) for i in instances[:3]] == [(8, 8), (8, 7), (8, 6)]
    canonical = estimate_zzzz(exact_results(decomp), decomp).value
    reversed_value = estimate_zzzz(exact_results(reversed_decomp), reversed_decomp).value
    assert reversed_value.hex() == canonical.hex() == "0x1.ffffffffffffep-1"


# -- runtime dispatch ---------------------------------------------------------


def test_instances_to_graph_dedup_task_count():
    decomp = canonical_wire_cut()
    instances = build_ghz_qpd_instances(decomp)
    with make_runtime(qpu=2, host=1) as runtime:
        graph = instances_to_graph(runtime, decomp, instances, shots=32)
        assert len(graph.tasks) == 8 + 64 + 8 + 1
        reduce_task = graph.tasks[graph.task_id_by_name(REDUCE_TASK)]
        assert len(reduce_task.deps) == 80

        full = instances_to_graph(runtime, decomp, instances, shots=32, dedup=False)
        assert len(full.tasks) == 64 * 3 + 1


def test_instances_to_graph_requires_qpu():
    decomp = canonical_wire_cut()
    instances = build_ghz_qpd_instances(decomp)
    with make_runtime(qpu=0, host=1) as runtime:
        with pytest.raises(ValueError, match="no qpu device"):
            instances_to_graph(runtime, decomp, instances)


def test_graph_execution_exact_mode():
    decomp = canonical_wire_cut()
    instances = build_ghz_qpd_instances(decomp)
    with make_runtime(qpu=4, host=1) as runtime:
        graph = instances_to_graph(runtime, decomp, instances, mode="exact", seed=2)
        results = runtime.wait(runtime.submit(graph, policy="roundrobin"))
        reduce_res = results[graph.task_id_by_name(REDUCE_TASK)]
        assert reduce_res.status is TaskState.COMPLETED
        assert reduce_res.payload.value == pytest.approx(1.0, abs=1e-9)


def test_graph_execution_without_dedup_matches():
    decomp = canonical_wire_cut()
    instances = build_ghz_qpd_instances(decomp)
    with make_runtime(qpu=3, host=1) as runtime:
        graph = instances_to_graph(
            runtime, decomp, instances, mode="exact", seed=2, dedup=False
        )
        results = runtime.wait(runtime.submit(graph))
        reduce_res = results[graph.task_id_by_name(REDUCE_TASK)]
        assert reduce_res.payload.value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("dedup", [True, False])
def test_one_cut_graph_execution_exact_mode(dedup):
    decomp = canonical_wire_cut()
    instances = build_ghz_qpd_instances(decomp, n_cuts=1)
    with make_runtime(qpu=2, host=1) as runtime:
        graph = instances_to_graph(runtime, decomp, instances, mode="exact", seed=4, dedup=dedup)
        assert len(graph.tasks) == 8 * 2 + 1
        results = runtime.wait(runtime.submit(graph))
    assert all(r.status is TaskState.COMPLETED for r in results.values())
    fragments = {
        f"{part}_k{inst.k}": fragment
        for inst in instances
        for part, fragment in zip(("cut1", "tail"), inst.fragments)
    }
    assert len(fragments) == 16
    for name, fragment in fragments.items():
        assert results[graph.task_id_by_name(name)].payload == simulate(fragment)[1]
    expected = estimate_zzzz(exact_results(decomp, n_cuts=1), decomp).value
    assert results[graph.task_id_by_name(REDUCE_TASK)].payload.value == expected


# -- validation runs ----------------------------------------------------------


def test_validate_run_exact_single_rep():
    est = validate_run(reps=1, shots=1024, seed=0, devices=2, mode="exact")
    assert est.mean == pytest.approx(1.0, abs=1e-9)
    assert est.std == 0.0
    assert est.values and len(est.values) == 1


def test_validate_run_sampled_small():
    est = validate_run(reps=8, shots=1024, seed=42, devices=4)
    assert len(est.values) == 8
    assert abs(est.mean - 1.0) <= 0.15
    assert est.std > 0


def test_validate_run_reproducible():
    a = validate_run(reps=3, shots=256, seed=9, devices=2)
    b = validate_run(reps=3, shots=256, seed=9, devices=5)
    assert a.values == b.values


def test_validation_csv_format(tmp_path):
    est = validate_run(reps=3, shots=128, seed=1, devices=2)
    path = tmp_path / "out.csv"
    write_validation_csv(path, est)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rep,value"
    assert len(lines) == 1 + 3 + 2
    assert lines[-2].startswith("mean,") and lines[-1].startswith("std,")
    assert [ln.split(",")[0] for ln in lines[1:4]] == ["0", "1", "2"]


def test_qpd_term_validation():
    with pytest.raises(ValueError, match="nonzero"):
        QpdTerm(1, 0.0, Pauli.I, PrepLabel.ZERO)
