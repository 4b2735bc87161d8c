"""Fuzz `qtask graph`: whatever the graph file holds, `main` returns 0, 1 or 2.

Graph JSON of random shape is written to a file and run through
``qtask.cli.main(["graph", path])``. Fields are valid or not, of the right
type or not: booleans, NaN, huge integers, nesting, non-string QIR `file`,
`source` and gate names, and QIR sources emitted from random circuits with
token-level mutations. The contract checked on every input:

- no exception escapes ``main``;
- exit 2 prints nothing to stdout and one ``error:`` line to stderr, and
  starts no thread (``threading.Thread.start`` is counted around ``main``);
- exit 0 or 1 prints one status line per task, in file order, and nothing
  to stderr; exit 1 exactly when a task failed at run time.

A device count is 0-4 or exactly ``MAX_DEVICES``: a device starts its
thread only once it is given a task, so unused devices cost no thread. A
count out of range is only ever one that ``parse_graph_spec`` rejects.
"""

import contextlib
import io
import json
import math
import os
import re
import threading
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qtask.circuit import Circuit, Gate, GateKind
from qtask.cli import main
from qtask.qir import emit_qir
from qtask.runtime import MAX_DEVICES
from qtask.simulator import MAX_SHOTS

TIER1_EXAMPLES = 150
FULL_SCALE_EXAMPLES = 10 * TIER1_EXAMPLES

# values of the wrong type for almost any field
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.just(math.nan),
    st.just(-math.inf),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from([-1, 2**64, -(10**30), 10**100]),
    st.text(max_size=4),
    st.just([]),
    st.just({}),
    st.just([["h", 0]]),
    st.just({"a": [1, {"b": None}]}),
)


def mostly(valid, invalid=JUNK):
    """``valid`` nine times in ten, else ``invalid``: an input reaches the
    later checks only if every field before it passes the earlier ones."""
    return st.integers(0, 9).flatmap(lambda r: valid if r < 9 else invalid)


# -- QIR sources --------------------------------------------------------------

_ONE_QUBIT = [Gate.h, Gate.x, Gate.y, Gate.z, Gate.s, Gate.sdg, Gate.t, Gate.tdg]
_ROTATIONS = [Gate.rx, Gate.ry, Gate.rz]


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 3))
    circuit = Circuit(n)
    qubit = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["one", "rotation", "two"] if n > 1 else ["one", "rotation"]))
        if kind == "one":
            circuit.append(draw(st.sampled_from(_ONE_QUBIT))(draw(qubit)))
        elif kind == "rotation":
            angle = draw(st.floats(-7, 7, allow_nan=False))
            circuit.append(draw(st.sampled_from(_ROTATIONS))(draw(qubit), angle))
        else:
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            circuit.append(draw(st.sampled_from([Gate.cnot, Gate.cz]))(a, b))
    for q in range(n):
        circuit.append(Gate.mz(q, q))
    return circuit


# tokens a mutation may put in; no qubit index between 10 and 24, so no
# mutated program simulates a wide register
_TOKENS = [
    "0", "1", "5", "-1", "99", "1e999", "nan", "0.5", "i64", "i8*", "double",
    "%Qubit*", "%Result*", "null", "inttoptr", "to", "call", "void", "define",
    "ret", "entry:", "{", "}", "(", ")", ",", "@__quantum__qis__h__body(",
    "@__quantum__qis__mz__body(", "@__quantum__qis__bogus__body(", "br", "label",
    '"required_num_qubits"="5"', "é", "",
]


@st.composite
def qir_sources(draw):
    tokens = re.split(r"(\s+|[(),])", emit_qir(draw(circuits())))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "replace", "swap"]))
        if op == "delete":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        elif op == "replace":
            tokens[i] = draw(st.sampled_from(_TOKENS))
        elif i + 1 < len(tokens):
            tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
        if not tokens:
            break
    return "".join(tokens)


# -- kernels ------------------------------------------------------------------

_TOO_LONG = "q" * 300 + ".ll"  # longer than a file name may be

qir_kernels = st.one_of(
    st.fixed_dictionaries(
        {"type": st.just("qir"), "file": st.sampled_from(["bell.ll", "ghz4.ll", "missing.ll", "", _TOO_LONG])}
    ),
    st.fixed_dictionaries({"type": st.just("qir"), "source": qir_sources()}),
    st.fixed_dictionaries({"type": st.just("qir"), "file": JUNK}),
    st.fixed_dictionaries({"type": st.just("qir"), "source": JUNK}),
    st.fixed_dictionaries(
        {"type": st.just("qir")}, optional={"file": st.just("bell.ll"), "source": qir_sources()}
    ),
)

host_kernels = st.fixed_dictionaries(
    {"type": st.just("host"), "name": mostly(st.sampled_from(["noop", "noop", "missing"]))},
    optional={"params": mostly(st.lists(JUNK, max_size=3))},
)

gate_names = mostly(st.sampled_from([k.value for k in GateKind]), st.one_of(JUNK, st.just("swap")))
operands = mostly(st.integers(0, 2), st.one_of(st.integers(), st.floats(-4, 4), JUNK))
gate_entries = mostly(
    st.tuples(gate_names, st.lists(operands, max_size=3)).map(lambda t: [t[0], *t[1]])
)

circuit_kernels = st.fixed_dictionaries(
    {
        "type": st.just("circuit"),
        "qubits": mostly(st.integers(1, 3), st.one_of(st.sampled_from([0, 25, 10**20]), JUNK)),
    },
    optional={
        "gates": mostly(st.lists(gate_entries, max_size=5)),
        "mode": mostly(st.sampled_from(["exact", "sampled"])),
    },
)

kernels = mostly(
    st.one_of(qir_kernels, host_kernels, circuit_kernels),
    st.one_of(st.fixed_dictionaries({"type": st.sampled_from(["quantum", "QIR"])}), JUNK),
)

# -- tasks and graphs ---------------------------------------------------------


def _with_extra(dicts):
    """``dicts``, one time in ten with a field that no format defines."""
    return mostly(dicts, dicts.map(lambda d: {**d, "extra": 1}))


@st.composite
def _tasks(draw, n: int):
    """``n`` task objects; names are distinct and dependencies point back
    in the file nine times in ten."""
    names = [f"t{i}" for i in range(n)]
    tasks = []
    for i, name in enumerate(names):
        task = {
            "name": draw(mostly(st.just(name), st.one_of(st.sampled_from(names), JUNK))),
            "kernel": draw(kernels),
        }
        if draw(st.booleans()):
            task["shots"] = draw(
                mostly(st.integers(0, 64), st.one_of(st.sampled_from([-1, MAX_SHOTS + 1]), JUNK))
            )
        if draw(st.booleans()):
            earlier = st.sampled_from(names[:i]) if i else st.sampled_from(names)
            task["depends"] = draw(
                mostly(st.lists(mostly(earlier, st.sampled_from([*names, "nobody"])), max_size=2))
            )
        if draw(st.booleans()):
            task["device"] = draw(mostly(st.sampled_from(["any", "qpu", "host", 0, 1, 2, 7])))
        tasks.append(draw(mostly(_with_extra(st.just(task)))))
    return tasks


# a count above 4 is MAX_DEVICES, or one that parse_graph_spec rejects
device_counts = mostly(
    st.one_of(st.integers(0, 4), st.just(MAX_DEVICES)),
    st.one_of(st.sampled_from([-1, MAX_DEVICES + 1, 10**30]), JUNK),
)

graphs = mostly(
    _with_extra(
        st.fixed_dictionaries(
            {
                "devices": mostly(
                    _with_extra(st.fixed_dictionaries({"qpu": device_counts, "host": device_counts}))
                ),
                "tasks": mostly(st.integers(0, 5).flatmap(_tasks)),
            },
            optional={
                "seed": mostly(st.one_of(st.integers(), st.sampled_from([2**70, -(2**70)]))),
                "policy": mostly(st.sampled_from(["default", "roundrobin", "fifo"])),
            },
        )
    )
)


def _render(graph, cut: int) -> str:
    """The graph as JSON text (NaN and Infinity as Python writes them); with
    ``cut`` > 0, that many characters are dropped from the end."""
    text = json.dumps(graph)
    return text[: len(text) - cut] if cut else text


def _check_contract(path, text: str):
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    real_start = threading.Thread.start
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.object(
        threading.Thread, "start", autospec=True, side_effect=real_start
    ) as start:
        code = main(["graph", str(path)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (code, text)
    if code == 2:
        assert out == "", text
        assert err.startswith("error: ") and err.count("\n") == 1, (err, text)
        assert start.call_count == 0, (start.call_count, text)
        return
    assert err == "", (err, text)
    statuses = [line.split() for line in out.splitlines() if not line.startswith(" ")]
    assert [s[0] for s in statuses] == [t["name"] for t in json.loads(text)["tasks"]], text
    assert (code == 1) == any(s[-1] == "failed" for s in statuses), (out, text)


def _fuzz(tmp_path_factory, examples: int):
    path = tmp_path_factory.mktemp("fuzz") / "graph.json"

    @settings(
        max_examples=examples,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(graph=graphs, cut=mostly(st.just(0), st.sampled_from([1, 7])))
    def run(graph, cut):
        _check_contract(path, _render(graph, cut))

    run()


def test_graph_exit_code_contract_fuzzed(tmp_path_factory):
    _fuzz(tmp_path_factory, TIER1_EXAMPLES)


@pytest.mark.fullscale
@pytest.mark.skipif(
    not os.environ.get("QTASK_FULL_SCALE"),
    reason="10x fuzz sweep; set QTASK_FULL_SCALE=1",
)
def test_graph_exit_code_contract_fuzzed_full_scale(tmp_path_factory):
    _fuzz(tmp_path_factory, FULL_SCALE_EXAMPLES)
