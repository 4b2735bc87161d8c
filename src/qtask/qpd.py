"""Quasi-probability wire cutting for GHZ preparation.

A cut qubit wire (an identity channel) is replaced by a signed mixture of
eight measure-and-prepare channels: each term measures a Pauli observable on
the wire and re-prepares a fixed single-qubit state, with coefficient +-1/2.
Cutting the 4-qubit GHZ ladder twice yields a batch of 8 x 8 instances of
three 2-qubit fragments whose outcome distributions, recombined by a signed
and weighted estimator, reconstruct the uncut circuit's Z-string expectation.

The negative coefficients force a sampling overhead gamma = sum |c_k| = 4
per cut; the estimator carries weight c_k * c_s per instance pair and its
variance scales with gamma squared per cut.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .circuit import Circuit, Gate, Pauli, PrepLabel, basis_change, prep_circuit
from .seeding import derive_seed
from .simulator import ProbDist, ShotHistogram
from . import runtime as rt

REDUCE_TASK = "qpd_reduce"


@dataclass(frozen=True)
class QpdTerm:
    index: int
    coefficient: float
    observable: Pauli
    prep: PrepLabel

    def __post_init__(self):
        if self.coefficient == 0:
            raise ValueError("decomposition coefficients must be nonzero")

    @property
    def sign(self) -> int:
        return 1 if self.coefficient > 0 else -1


@dataclass(frozen=True)
class WireCutDecomposition:
    terms: tuple[QpdTerm, ...]

    @property
    def gamma(self) -> float:
        return sum(abs(t.coefficient) for t in self.terms)


def canonical_wire_cut() -> WireCutDecomposition:
    """The 8-term measure-and-prepare identity-channel decomposition.

    Correctness is gated by :func:`reconstruct_density`: summing
    c_k * Tr(O_k rho) |k><k| over the table returns rho for every input
    density matrix. gamma works out to 4 per cut.
    """
    table = [
        (1, 0.5, Pauli.I, PrepLabel.ZERO),
        (2, 0.5, Pauli.I, PrepLabel.ONE),
        (3, 0.5, Pauli.X, PrepLabel.PLUS),
        (4, -0.5, Pauli.X, PrepLabel.MINUS),
        (5, 0.5, Pauli.Y, PrepLabel.PLUS_I),
        (6, -0.5, Pauli.Y, PrepLabel.MINUS_I),
        (7, 0.5, Pauli.Z, PrepLabel.ZERO),
        (8, -0.5, Pauli.Z, PrepLabel.ONE),
    ]
    return WireCutDecomposition(
        tuple(QpdTerm(k, c, obs, prep) for k, c, obs, prep in table)
    )


_PAULI_MATS = {
    Pauli.I: np.eye(2, dtype=complex),
    Pauli.X: np.array([[0, 1], [1, 0]], dtype=complex),
    Pauli.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Pauli.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}

_SQ2 = 1 / np.sqrt(2)
_PREP_KETS = {
    PrepLabel.ZERO: np.array([1, 0], dtype=complex),
    PrepLabel.ONE: np.array([0, 1], dtype=complex),
    PrepLabel.PLUS: np.array([_SQ2, _SQ2], dtype=complex),
    PrepLabel.MINUS: np.array([_SQ2, -_SQ2], dtype=complex),
    PrepLabel.PLUS_I: np.array([_SQ2, 1j * _SQ2], dtype=complex),
    PrepLabel.MINUS_I: np.array([_SQ2, -1j * _SQ2], dtype=complex),
}


def reconstruct_density(decomp: WireCutDecomposition, rho: np.ndarray) -> np.ndarray:
    """Push a density matrix through the decomposed identity channel.

    This is the correctness oracle for any decomposition table: the output
    must equal the input.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("expected a single-qubit (2x2) density matrix")
    if not np.allclose(rho, rho.conj().T, atol=1e-9):
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValueError("density matrix must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        raise ValueError("density matrix must be positive semidefinite")

    out = np.zeros((2, 2), dtype=complex)
    for t in decomp.terms:
        weight = t.coefficient * np.trace(_PAULI_MATS[t.observable] @ rho).real
        ket = _PREP_KETS[t.prep]
        out += weight * np.outer(ket, ket.conj())
    return out


def validate_decomposition(decomp: WireCutDecomposition, atol: float = 1e-12) -> None:
    """Reject tables that do not reconstruct the identity channel.

    Checking on a spanning set of density matrices suffices by linearity.
    """
    probes = [PrepLabel.ZERO, PrepLabel.ONE, PrepLabel.PLUS, PrepLabel.PLUS_I]
    for label in probes:
        ket = _PREP_KETS[label]
        rho = np.outer(ket, ket.conj())
        err = np.abs(reconstruct_density(decomp, rho) - rho).max()
        if err > atol:
            raise ValueError(
                f"decomposition fails identity-channel reconstruction on |{label.value}> "
                f"(max error {err:.3g})"
            )


def decomposition_to_json(decomp: WireCutDecomposition) -> str:
    rows = [
        {"k": t.index, "c": t.coefficient, "obs": t.observable.value, "prep": t.prep.value}
        for t in decomp.terms
    ]
    return json.dumps(rows, indent=2)


def decomposition_from_json(text: str, validate: bool = True) -> WireCutDecomposition:
    """Load a decomposition table; the reconstruction oracle gates it by default."""
    rows = json.loads(text)
    terms = tuple(
        QpdTerm(
            int(row["k"]),
            float(row["c"]),
            Pauli.from_char(row["obs"]),
            PrepLabel.from_label(row["prep"]),
        )
        for row in rows
    )
    decomp = WireCutDecomposition(terms)
    if validate:
        validate_decomposition(decomp)
    return decomp


# --------------------------------------------------------------------------
# Fragment construction


def ghz_circuit(n: int) -> Circuit:
    """Unmeasured n-qubit GHZ ladder: H on qubit 0, then a CNOT chain."""
    circ = Circuit(n).append(Gate.h(0))
    for q in range(n - 1):
        circ.append(Gate.cnot(q, q + 1))
    return circ


@dataclass(frozen=True)
class QpdInstance:
    """One sampled channel combination: term k for cut 1, s for cut 2.

    Fragment 1 depends only on k (it measures O_k), fragment 3 only on s
    (it starts from |s>), and the middle fragment couples both.
    """

    k: int
    s: int | None
    fragments: tuple[Circuit, ...]


def _entangler_fragment(prep: PrepLabel | None, obs: Pauli | None) -> Circuit:
    """2-qubit fragment: state prep on q0, CNOT, measure q0, then measure
    obs on q1 (or both in Z when obs is None)."""
    circ = Circuit(2)
    if prep is None:
        circ.append(Gate.h(0))
    else:
        circ.extend(prep_circuit(prep).ops)
    circ.append(Gate.cnot(0, 1), Gate.mz(0, 0))
    if obs is None:
        circ.append(Gate.mz(1, 1))
    else:
        change = basis_change(obs)
        for g in change.gates:
            circ.append(Gate(g.kind, (1,)))
        if change.needs_measurement:
            circ.append(Gate.mz(1, 1))
    return circ


def _chain(terms: Sequence[QpdTerm]) -> Iterator[tuple[PrepLabel | None, Pauli | None]]:
    """(prep, observable) of each fragment along the cut ladder: fragment j starts
    in the state cut j-1 prepares and ends by measuring cut j's observable; the
    first fragment has no prep and the last no observable."""
    return zip([None] + [t.prep for t in terms], [t.observable for t in terms] + [None])


def _instance_key(terms: Sequence[QpdTerm]) -> tuple[int, int | None]:
    return terms[0].index, terms[1].index if len(terms) == 2 else None


def build_ghz_qpd_instances(
    decomp: WireCutDecomposition, n_cuts: int = 2
) -> list[QpdInstance]:
    """Instance batch for the cut GHZ ladder, in the table's listed order.

    Two cuts split the 4-qubit circuit into three 2-qubit fragments and
    yield one instance per (k, s) pair; one cut covers the 3-qubit case with
    two fragments per k. Each distinct (prep, observable) fragment is built
    once, and the instances that need it share its circuit.
    """
    if n_cuts not in (1, 2):
        raise ValueError(f"n_cuts must be 1 or 2, got {n_cuts}")
    fragment = functools.cache(_entangler_fragment)
    return [
        QpdInstance(*_instance_key(terms), tuple(fragment(*f) for f in _chain(terms)))
        for terms in itertools.product(decomp.terms, repeat=n_cuts)
    ]


# --------------------------------------------------------------------------
# Estimator


@dataclass(frozen=True)
class InstanceResult:
    """Outcome distributions of one instance's fragments (p3 None for one cut)."""

    p1: ProbDist | ShotHistogram | Mapping[str, float]
    p2: ProbDist | ShotHistogram | Mapping[str, float]
    p3: ProbDist | ShotHistogram | Mapping[str, float] | None = None


def sign_function(y1: int, y2: int, y3: int, y4: int) -> int:
    """Product (2*y1-1)(2*y2-1)(2*y3-1)(2*y4-1) over the end-measurement bits."""
    out = 1
    for b in (y1, y2, y3, y4):
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b}")
        out *= 2 * b - 1
    return out


# (2*y0-1) * w1 of each outcome a fragment reports, by ``second`` (see _moment)
_SIGNS = {
    -1: {"00": -1, "01": 1, "10": 1, "11": -1},
    0: {"0": -1, "1": 1, "00": -1, "01": -1, "10": 1, "11": 1},
    1: {"00": 1, "01": -1, "10": -1, "11": 1},
}


def _moment(dist, second: int) -> float:
    """Sum of P(key) * (2*y0-1) * w1 over a fragment's outcomes, where w1 is 1
    for ``second`` 0 (an identity observable leaves no second bit) and else
    ``second * (2*y1-1)``: -1 gives the observable's eigenvalue, +1 a parity.
    A histogram's P(key) is its count over its shots."""
    shots = 1
    if isinstance(dist, ShotHistogram):
        if dist.shots == 0:
            raise ValueError("histogram has zero shots; no frequencies available")
        dist, shots = dist.counts, dist.shots
    elif isinstance(dist, ProbDist):
        dist = dist.probabilities
    elif not isinstance(dist, Mapping):
        raise TypeError(f"not a distribution: {dist!r}")
    signs = _SIGNS[second]
    total = 0.0
    try:
        for key, p in dist.items():
            total += p / shots * signs[key]
    except KeyError:
        raise ValueError(f"outcome {key!r} is not a fragment's one or two bits") from None
    return total


def _instance_value(weights, terms: Sequence[QpdTerm], dists, moment=_moment) -> float:
    """The product of ``weights``, then of each fragment's ``moment``, left to right
    along the chain: the fragment ending at a cut gives the eigenvalue of the
    cut's observable, the last one its parity."""
    value = 1
    for weight in weights:
        value *= weight
    for term, dist in zip(terms, dists):
        value *= moment(dist, 0 if term.observable is Pauli.I else -1)
    return value * moment(dists[len(terms)], 1)


@functools.lru_cache(maxsize=16)
def _walk(terms: tuple[QpdTerm, ...], n_cuts: int):
    """estimate_zzzz's walk, which depends on the decomposition only: each (k, s)
    in ascending order, as its instance key, its terms and their coefficients."""
    products = itertools.product(sorted(terms, key=lambda t: t.index), repeat=n_cuts)
    return tuple((_instance_key(ts), ts, tuple(t.coefficient for t in ts)) for ts in products)


@dataclass
class QpdEstimate:
    value: float
    mode: str
    shots: int | None = None
    seed: int | None = None
    reps: int = 1
    mean: float | None = None
    std: float | None = None
    values: tuple[float, ...] = ()


def estimate_zzzz(
    results: Mapping[tuple[int, int | None], InstanceResult],
    decomp: WireCutDecomposition,
    mode: str = "exact",
) -> QpdEstimate:
    """Signed recombination of fragment distributions.

    value = sum over (k, s), in ascending order, of c_k c_s times the product
    of per-fragment signed moments; the per-cut importance weights and sign
    factors collapse to the plain coefficient product. In exact mode the
    distributions are analytic and the value matches direct simulation of the
    uncut circuit.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode must be exact or sampled, got {mode!r}")
    n_cuts = 1 if any(s is None for (_, s) in results) else 2
    walk = _walk(tuple(decomp.terms), n_cuts)
    missing = [key for key, _, _ in walk if key not in results]
    if missing:
        raise ValueError(f"missing instance results: {missing[:4]}...")

    moments: dict[tuple[int, int], float] = {}  # by (id of a payload, second): one per payload

    def moment(dist, second: int) -> float:
        key = id(dist), second
        found = moments.get(key)
        if found is None:
            found = moments[key] = _moment(dist, second)
        return found

    value = 0.0
    for key, terms, weights in walk:
        res = results[key]
        value += _instance_value(weights, terms, (res.p1, res.p2, res.p3), moment)

    shots = None
    first = next(iter(results.values()))
    if isinstance(first.p1, ShotHistogram):
        shots = first.p1.shots
    return QpdEstimate(value=value, mode=mode, shots=shots)


# --------------------------------------------------------------------------
# Runtime dispatch


def _fragment_task_names(k: int, s: int | None, dedup: bool) -> tuple[str, ...]:
    if s is None:
        return (f"cut1_k{k}", f"tail_k{k}")
    if dedup:
        return (f"cut1_k{k}", f"mid_k{k}_s{s}", f"tail_s{s}")
    return (f"cut1_k{k}_s{s}", f"mid_k{k}_s{s}", f"tail_k{k}_s{s}")


def _reduce_kernel(params, deps):
    decomp, mode, names_by_instance = params
    results = {
        key: InstanceResult(*map(deps.__getitem__, names)) for key, names in names_by_instance
    }
    return estimate_zzzz(results, decomp, mode)


def instances_to_graph(
    runtime: rt.Runtime,
    decomp: WireCutDecomposition,
    instances: Sequence[QpdInstance],
    shots: int = 1024,
    mode: str = "sampled",
    seed: int = 0,
    dedup: bool = True,
) -> rt.TaskGraph:
    """Build one circuit task per fragment plus a host reduction task.

    With deduplication (the default) the conditional-independence structure
    collapses the 2-cut batch to 8 + 64 + 8 fragment tasks; without it each
    instance submits its three fragments verbatim. The reduction task
    depends on every fragment task and runs the estimator; per-task seeds
    derive from the graph seed.
    """
    if not any(d.device_class == rt.QPU for d in runtime.devices):
        raise ValueError("no qpu device registered")
    if not any(d.device_class == rt.HOST for d in runtime.devices):
        raise ValueError("no host device registered for the reduction task")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode must be exact or sampled, got {mode!r}")

    graph = runtime.create_graph(seed=seed)
    task_ids: dict[str, int] = {}
    kernels: dict[int, rt.CircuitKernel] = {}  # by id of a fragment circuit: one per circuit
    names_by_instance = []
    for inst in instances:
        names = _fragment_task_names(inst.k, inst.s, dedup)
        names_by_instance.append(((inst.k, inst.s), names))
        for name, circuit in zip(names, inst.fragments):
            if name in task_ids:
                continue
            if id(circuit) not in kernels:
                kernels[id(circuit)] = rt.CircuitKernel(circuit, shots=shots, mode=mode)
            task_ids[name] = graph.create_task(name, kernels[id(circuit)], device_req=rt.QPU)
    if not runtime.has_host_kernel(REDUCE_TASK):
        runtime.register_host_kernel(REDUCE_TASK, _reduce_kernel)
    graph.create_task(
        REDUCE_TASK,
        rt.HostKernel(REDUCE_TASK, params=(decomp, mode, tuple(names_by_instance))),
        deps=tuple(task_ids.values()),
        device_req=rt.HOST,
    )
    return graph


# --------------------------------------------------------------------------
# Importance sampling and validation runs


def importance_sampled_estimate(
    decomp: WireCutDecomposition,
    n_samples: int,
    shots: int = 1,
    seed: int = 0,
) -> QpdEstimate:
    """Monte Carlo over (k, s) drawn with weights |c|/gamma per cut.

    Each sample scores gamma^2 sgn(c_k) sgn(c_s) times the product of
    per-fragment empirical moments from ``shots`` draws; the average is an
    unbiased estimate of the enumerated value. A single one-shot sample has
    magnitude at most gamma^2.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if shots < 1:
        raise ValueError("shots must be at least 1")

    terms = decomp.terms
    gamma = decomp.gamma
    weights = np.array([abs(t.coefficient) for t in terms]) / gamma

    @functools.cache  # one kernel per (prep, observable)
    def kernel(prep: PrepLabel | None, obs: Pauli | None) -> rt.CircuitKernel:
        return rt.CircuitKernel(_entangler_fragment(prep, obs), shots=shots)

    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(n_samples):
        drawn = [terms[rng.choice(len(terms), p=weights)] for _ in range(2)]
        observed = [rt.run_qir(kernel(prep, obs), seed, rng=rng) for prep, obs in _chain(drawn)]
        total += _instance_value([gamma * t.sign for t in drawn], drawn, observed)
    return QpdEstimate(
        value=total / n_samples, mode="importance", shots=shots, seed=seed
    )


def validate_run(
    reps: int,
    shots: int,
    seed: int = 0,
    devices: int = 4,
    mode: str = "sampled",
    dedup: bool = True,
) -> QpdEstimate:
    """Run the full two-cut graph ``reps`` times and report mean and std.

    The graph is built once and submitted again for each repetition with a
    seed derived from (seed, rep), so the whole sweep is reproducible for any
    device count.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if devices < 1:
        raise ValueError("need at least one qpu device")
    decomp = canonical_wire_cut()
    instances = build_ghz_qpd_instances(decomp, n_cuts=2)
    runtime = rt.make_runtime(qpu=devices, host=1)
    values: list[float] = []
    try:
        graph = instances_to_graph(runtime, decomp, instances, shots, mode, dedup=dedup)
        reduce_task = graph.tasks[graph.task_id_by_name(REDUCE_TASK)]
        for rep in range(reps):
            graph.seed = derive_seed(seed, "rep", rep)
            runtime.submit(graph, policy="roundrobin", sync=True)
            reduce_res = reduce_task.result
            if reduce_res.status is not rt.TaskState.COMPLETED:
                raise RuntimeError(f"reduction failed: {reduce_res.error}")
            values.append(reduce_res.payload.value)
    finally:
        runtime.shutdown()

    mean = statistics.fmean(values)
    std = statistics.stdev(values) if reps > 1 else 0.0
    return QpdEstimate(
        value=mean,
        mode=mode,
        shots=shots,
        seed=seed,
        reps=reps,
        mean=mean,
        std=std,
        values=tuple(values),
    )


def write_validation_csv(path, estimate: QpdEstimate) -> None:
    """CSV with one value per repetition plus trailing mean and std rows."""
    lines = ["rep,value"]
    lines.extend(f"{i},{v:.12g}" for i, v in enumerate(estimate.values))
    lines.append(f"mean,{estimate.mean:.12g}")
    lines.append(f"std,{estimate.std:.12g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
