"""Fuzz `qtask exec` and `qtask ghz-qpd`: whatever the command line or the
QIR file, `main` returns 0, 1 or 2.

Two kinds of input run through ``qtask.cli.main``:

- argv for ``exec`` and ``ghz-qpd``, built from valid and invalid option
  values and then mutated token by token;
- QIR programs emitted from random circuits, with token-level mutations
  (``test_fuzz_graph.qir_sources``) and malformed numbers put in place of
  operands, written to a file and run by ``exec`` under both accelerators.

The contract checked on every input:

- no exception escapes ``main``;
- the exit code is 0, 1 or 2;
- exit 2 prints nothing to stdout and one ``error:`` line to stderr, after
  argparse's usage lines when argparse rejects the command line.

The domains stay small. A valid ``--devices`` is at most 4, so few threads
start; ``--reps`` is at most 3 and shots at most 64; qubit indices and
``required_num_qubits`` are at most 8 or above 24, and a width above 24 is
rejected before any state is allocated; ``--csv`` names a path under the
test's temporary directory. A mutation can move a value next to another
option, so an argv that parses to values outside these bounds is discarded.
"""

import contextlib
import io
import os
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from qtask.cli import ACCELERATORS, build_parser, main
from qtask.qir import find_kernel_file
from qtask.runtime import MAX_DEVICES
from qtask.simulator import MAX_SHOTS
from test_fuzz_graph import mostly, qir_sources

TIER1_EXAMPLES = 150
FULL_SCALE_EXAMPLES = 10 * TIER1_EXAMPLES

MAX_FUZZ_SHOTS = 64
MAX_FUZZ_REPS = 3
MAX_FUZZ_DEVICES = 4

# a usage error is argparse's "qtask <command>: error: ...", any other "error: ..."
_ERROR_LINE = re.compile(r"(qtask( [\w-]+)?: )?error: ")


def _check_contract(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (code, argv)
    if code == 2:
        assert out == "", (out, argv)
        lines = err.splitlines()
        assert sum(1 for line in lines if _ERROR_LINE.match(line)) == 1, (err, argv)
        assert _ERROR_LINE.match(lines[-1]), (err, argv)
        assert len(lines) == 1 or lines[0].startswith("usage: "), (err, argv)


def _settings(examples: int):
    return settings(
        max_examples=examples,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )


# -- mutated argv -------------------------------------------------------------

shots = mostly(
    st.integers(1, MAX_FUZZ_SHOTS).map(str),
    st.sampled_from(["0", "-1", str(MAX_SHOTS + 1), "1e3", "0x10", "x", "", " 5", "٣"]),
)
_BAD_SEEDS = st.sampled_from(["x", "1.5", "", "-", "9" * 5000])
exec_seeds = mostly(st.integers(0, 2**70).map(str), st.one_of(st.just("-1"), _BAD_SEEDS))
qpd_seeds = mostly(st.integers(-(2**70), 2**70).map(str), _BAD_SEEDS)

# tokens a mutation may put in; no number a bound would reject once parsed
_ARGV_TOKENS = [
    "-h", "--bogus", "-", "--", "--shots", "--shots=7", "--seed", "--devices",
    "--reps", "--mode", "--csv", "--probs", "--dedup", "--no-dedup", "-a",
    "trajectory", "exact", "2", "-1", "x", "é", "",
]


@st.composite
def _mutated(draw, argv: list[str]) -> list[str]:
    argv = list(argv)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):  # most argv run as built
        if not argv:
            break
        i = draw(st.integers(0, len(argv) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "replace", "insert", "swap"]))
        if op == "delete":
            del argv[i]
        elif op == "duplicate":
            argv.insert(i, argv[i])
        elif op == "replace":
            argv[i] = draw(st.sampled_from(_ARGV_TOKENS))
        elif op == "insert":
            argv.insert(i, draw(st.sampled_from(_ARGV_TOKENS)))
        elif i + 1 < len(argv):
            argv[i], argv[i + 1] = argv[i + 1], argv[i]
    return argv


def _flatten(options) -> list[str]:
    return [token for option in options for token in option]


def exec_argvs(work: Path):
    files = st.sampled_from(
        [str(work / "prog.ll"), "bell.ll", "ghz4.ll", "missing.ll", str(work), ""]
    )
    options = st.lists(
        st.one_of(
            st.tuples(
                st.sampled_from(["-a", "--accelerator"]),
                mostly(st.sampled_from(ACCELERATORS), st.sampled_from(["gpu", ""])),
            ),
            st.tuples(st.sampled_from(["-s", "--shots"]), shots),
            st.tuples(st.just("--seed"), exec_seeds),
            st.just(("--probs",)),
        ),
        max_size=4,
    )
    return st.tuples(files, options).map(lambda fo: ["exec", fo[0], *_flatten(fo[1])])


def ghz_qpd_argvs(work: Path):
    csv = st.sampled_from([work / "out.csv", work, work / "missing" / "out.csv"]).map(str)
    options = st.lists(
        st.one_of(
            st.tuples(st.just("--shots"), shots),
            st.tuples(
                st.just("--reps"),
                mostly(st.integers(1, MAX_FUZZ_REPS).map(str), st.sampled_from(["0", "-1", "x"])),
            ),
            st.tuples(
                st.just("--devices"),
                mostly(
                    st.integers(1, MAX_FUZZ_DEVICES).map(str),
                    st.sampled_from(["0", str(MAX_DEVICES + 1), "x"]),
                ),
            ),
            st.tuples(
                st.just("--mode"),
                mostly(st.sampled_from(["exact", "sampled"]), st.sampled_from(["", "EXACT"])),
            ),
            st.tuples(st.just("--seed"), qpd_seeds),
            st.tuples(st.just("--csv"), csv),
            st.sampled_from([("--dedup",), ("--no-dedup",)]),
        ),
        max_size=5,
    )
    return options.map(lambda o: ["ghz-qpd", *_flatten(o)])


def _in_bounds(argv: list[str], work: Path) -> bool:
    """Whether ``argv`` keeps to the fuzzed domain once parsed; one that does
    not parse runs nothing, so it does."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            return True
    csv = getattr(args, "csv", None)
    return (
        args.shots <= MAX_FUZZ_SHOTS
        and getattr(args, "reps", 1) <= MAX_FUZZ_REPS
        and getattr(args, "devices", 1) <= MAX_FUZZ_DEVICES
        and (not csv or Path(csv).resolve().is_relative_to(work))
    )


def _fuzz_argv(tmp_path_factory, examples: int):
    work = tmp_path_factory.mktemp("fuzz_argv").resolve()
    (work / "prog.ll").write_text(find_kernel_file("bell.ll").read_text())
    argvs = st.one_of(exec_argvs(work), ghz_qpd_argvs(work)).flatmap(_mutated)

    @_settings(examples)
    @given(argv=argvs)
    def run(argv):
        assume(_in_bounds(argv, work))
        _check_contract(argv)

    run()


# -- mutated QIR files ----------------------------------------------------------

_NUMERIC = re.compile(r"^[-+]?[0-9]|required_num_qubits")

# what a mutation may put in place of a number or the width attribute: no
# qubit index or width from 9 to 24
_NUMBERS = [
    "0", "1", "7", "8", "25", "99", "9" * 30, "-1", "+1", "01", "2.", "1.e3",
    "1.2.3", "1e5e5", "1e", "1e999", "0x1p3", ".5", "1_0",
    '"required_num_qubits"="0"', '"required_num_qubits"="8"',
    '"required_num_qubits"="30"',
]


@st.composite
def qir_programs(draw):
    """A mutated emitted program in which up to two numbers, qubit and result
    indices, angles or the width attribute, are replaced as well."""
    tokens = re.split(r"(\s+|[(),])", draw(qir_sources()))
    numbers = [i for i, token in enumerate(tokens) if _NUMERIC.search(token)]
    for _ in range(draw(st.integers(0, 2)) if numbers else 0):
        tokens[draw(st.sampled_from(numbers))] = draw(st.sampled_from(_NUMBERS))
    return "".join(tokens)


def _fuzz_qir(tmp_path_factory, examples: int):
    path = tmp_path_factory.mktemp("fuzz_qir") / "prog.ll"

    @_settings(examples)
    @given(
        text=qir_programs(),
        shots=st.integers(0, MAX_FUZZ_SHOTS),
        seed=st.integers(0, 2**64),
        probs=st.booleans(),
    )
    def run(text, shots, seed, probs):
        path.write_text(text, encoding="utf-8")
        common = [str(path), "--shots", str(shots), "--seed", str(seed)]
        _check_contract(["exec", *common, "-a", "statevector", *(["--probs"] if probs else [])])
        _check_contract(["exec", *common, "-a", "trajectory"])

    run()


def test_exec_and_ghz_qpd_argv_exit_code_contract_fuzzed(tmp_path_factory):
    _fuzz_argv(tmp_path_factory, TIER1_EXAMPLES)


def test_exec_qir_file_exit_code_contract_fuzzed(tmp_path_factory):
    _fuzz_qir(tmp_path_factory, TIER1_EXAMPLES)


_FULL_SCALE = pytest.mark.skipif(
    not os.environ.get("QTASK_FULL_SCALE"), reason="10x fuzz sweep; set QTASK_FULL_SCALE=1"
)


@pytest.mark.fullscale
@_FULL_SCALE
def test_exec_and_ghz_qpd_argv_exit_code_contract_fuzzed_full_scale(tmp_path_factory):
    _fuzz_argv(tmp_path_factory, FULL_SCALE_EXAMPLES)


@pytest.mark.fullscale
@_FULL_SCALE
def test_exec_qir_file_exit_code_contract_fuzzed_full_scale(tmp_path_factory):
    _fuzz_qir(tmp_path_factory, FULL_SCALE_EXAMPLES)
