"""The control-subspace kernels: hand-checked updates, bit-identity of the
compiled kernel with the NumPy kernel and the pair-index reference, the
compiled kernel's argument checks, and which kernel a build ends up with."""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import ryprep
from conftest import BINDINGS, build_ext, built_path, import_built
from dense_oracle import run_pairs
from ryprep import Circuit, RealState, apply_gate, run, ry, synth, x
from ryprep import _kernel, circuits, simulator
from ryprep.errors import DomainError
from ryprep.simulator import MAX_QUBITS, _run_gates_numpy
from test_state_json import _streamed

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _one_row(amps: np.ndarray, gate) -> tuple:
    """The gate's columns, as ``apply_gate`` hands them to a kernel."""
    return Circuit(amps.size.bit_length() - 1, (gate,)).columns


@pytest.fixture(params=["python", "c"])
def apply(request):
    """One gate applied in place: ``python`` is the NumPy kernel that runs
    when the extension is absent; ``c`` is the compiled kernel."""
    run_gates = _run_gates_numpy
    if request.param == "c":
        run_gates = request.getfixturevalue("simkernel").run_gates
    return lambda amps, gate: run_gates(amps, *_one_row(amps, gate))


def test_uncontrolled_ry_on_basis(apply):
    amps = np.zeros(4)
    amps[0] = 1.0
    theta = 1.234
    apply(amps, ry(theta, 0))
    np.testing.assert_allclose(amps, [math.cos(theta / 2), math.sin(theta / 2), 0, 0], atol=0)


def test_controlled_ry_skips_unset_control(apply):
    amps = np.array([1.0, 0.0, 0.0, 0.0])
    apply(amps, ry(0.8, 0, (1,)))
    np.testing.assert_array_equal(amps, [1.0, 0.0, 0.0, 0.0])


def test_controlled_ry_acts_when_control_set(apply):
    amps = np.array([0.0, 0.0, 1.0, 0.0])  # |10>: qubit 1 set
    h = 0.9 / 2
    apply(amps, ry(0.9, 0, (1,)))
    np.testing.assert_allclose(amps, [0.0, 0.0, math.cos(h), math.sin(h)], atol=0)


def test_x_swaps_pairs(apply):
    amps = np.array([0.1, 0.2, 0.3, 0.4])
    apply(amps, x(1))
    np.testing.assert_array_equal(amps, [0.3, 0.4, 0.1, 0.2])


def test_cnot(apply):
    amps = np.array([0.1, 0.2, 0.3, 0.4])
    apply(amps, x(0, (1,)))  # flip qubit 0 where qubit 1 is set
    np.testing.assert_array_equal(amps, [0.1, 0.2, 0.4, 0.3])


def _random_circuit(rng, n: int, count: int) -> Circuit:
    """Ry and X gates with 0..n-1 controls; every fifth gate is controlled
    on every qubit but its target."""
    gates = []
    for k in range(count):
        target = int(rng.integers(n))
        others = [q for q in range(n) if q != target]
        rng.shuffle(others)
        controls = others if k % 5 == 0 else others[: int(rng.integers(n))]
        if rng.random() < 0.5:
            gates.append(ry(float(rng.uniform(-2 * math.pi, 2 * math.pi)), target, controls))
        else:
            gates.append(x(target, controls))
    return Circuit(n, tuple(gates))


def _synthesized_circuit(rng, n: int, prune: bool) -> Circuit:
    """A circuit synthesized for a signed state whose last quarter is zero,
    like a padded image, so pruning has rotations to remove."""
    v = rng.normal(size=1 << n)
    v[(3 << n) // 4 :] = 0.0
    if not v.any():
        v[0] = 1.0
    v /= np.linalg.norm(v)
    return synth(RealState(n, tuple(v.tolist())), prune=prune)[0]


@pytest.fixture(params=["python", "c"])
def kernel(request, monkeypatch):
    """The kernel ``run`` and ``apply_gate`` dispatch to in this test."""
    run_gates = _run_gates_numpy
    if request.param == "c":
        run_gates = request.getfixturevalue("simkernel").run_gates
    monkeypatch.setattr(simulator, "_run_gates", run_gates)


def _numpy_run(circuit: Circuit) -> np.ndarray:
    amps = np.zeros(1 << circuit.n_qubits)
    amps[0] = 1.0
    for gate in circuit.gates:
        _run_gates_numpy(amps, *_one_row(amps, gate))
    return amps


def _assert_run_matches_references(circuit: Circuit) -> None:
    prepared = run(circuit).amplitudes
    np.testing.assert_array_equal(prepared, _numpy_run(circuit))
    np.testing.assert_array_equal(prepared, run_pairs(circuit))


def test_run_matches_pair_index_reference(kernel):
    rng = np.random.default_rng(2718)
    for n in range(1, 11):
        for _ in range(5):
            _assert_run_matches_references(_random_circuit(rng, n, 60))


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
def test_run_matches_references_on_synthesized_circuits(kernel, prune):
    rng = np.random.default_rng(1414 + prune)
    for n in range(1, 13):
        _assert_run_matches_references(_synthesized_circuit(rng, n, prune))


def test_dispatch_fallback_is_bit_identical(simkernel, monkeypatch):
    """``run`` and ``apply_gate`` give the same states through either kernel."""
    circuit = _random_circuit(np.random.default_rng(577), 6, 80)
    states = []
    for run_gates in (simkernel.run_gates, _run_gates_numpy):
        monkeypatch.setattr(simulator, "_run_gates", run_gates)
        steps = [run(circuit)]
        for gate in circuit.gates[:20]:
            steps.append(apply_gate(steps[-1], gate))
        states.append(steps)
    assert states[0] == states[1]


def test_kernel_backend_names_the_dispatched_kernel():
    if simulator._run_gates is _run_gates_numpy:
        assert ryprep.KERNEL_BACKEND == "numpy"
    else:
        assert ryprep.KERNEL_BACKEND == "c"
        assert simulator._run_gates.__module__ == "ryprep._simkernel"


def test_extension_constant_matches_simulator(simkernel):
    assert simkernel.MAX_QUBITS == MAX_QUBITS


def test_extension_mask_width_matches_circuits(simkernel):
    """The register width of the columns, one constant in each language."""
    assert simkernel.MASK_BITS == circuits._MASK_BITS


def test_qubit_cap_is_one_check_for_run_and_apply_gate(kernel, monkeypatch):
    """Past ``MAX_QUBITS`` both ``run`` and ``apply_gate`` raise the same
    ``DomainError`` on either kernel.  The real cap would need the memory it
    avoids, so it is lowered here."""
    state = RealState(4, np.full(16, 0.25))
    gate = ry(0.3, 3, (0,))
    monkeypatch.setattr(simulator, "MAX_QUBITS", 3)
    message = "^cannot simulate 4 qubits; the simulator holds at most 3$"
    with pytest.raises(DomainError, match=message):
        run(Circuit(4, (gate,)))
    with pytest.raises(DomainError, match=message):
        apply_gate(state, gate)
    monkeypatch.setattr(simulator, "MAX_QUBITS", 4)
    assert apply_gate(run(Circuit(4)), gate) == run(Circuit(4, (gate,)))


# The compiled kernel's argument checks: each bad call raises ValueError and
# leaves amps as it was.  Every call starts from three valid gates on two
# qubits, the first of which would change amps.


def _columns3():
    return (
        np.array([1, 0, 1], dtype=np.uint8),
        np.array([0, 1, 0], dtype=np.int32),
        np.array([0, 1, 2], dtype=np.uint64),
        np.array([0.0, 0.7, 0.0]),
    )


def _refused(simkernel, amps, *cols, match):
    before = np.array(amps, copy=True)
    with pytest.raises(ValueError, match=match):
        simkernel.run_gates(amps, *cols)
    np.testing.assert_array_equal(amps, before)


def test_valid_columns_are_accepted(simkernel):
    amps = np.array([0.1, 0.2, 0.3, 0.4])
    simkernel.run_gates(amps, *_columns3())
    expected = np.array([0.1, 0.2, 0.3, 0.4])
    for gate in (x(0), ry(0.7, 1, (0,)), x(0, (1,))):
        _run_gates_numpy(expected, *_one_row(expected, gate))
    np.testing.assert_array_equal(amps, expected)


@pytest.mark.parametrize(
    "column, dtype",
    [(0, np.float32), (1, np.int8), (1, np.bool_), (2, np.int64), (2, np.uint32)]
    + [(3, np.int64), (3, np.float64), (4, np.float32), (4, np.int64)],
)
def test_wrong_dtype_refused(simkernel, column, dtype):
    args = [np.array([0.1, 0.2, 0.3, 0.4]), *_columns3()]
    args[column] = args[column].astype(dtype)
    _refused(simkernel, *args, match="wrong item type")


@pytest.mark.parametrize("column", range(5))
def test_non_contiguous_buffer_refused(simkernel, column):
    args = [np.array([0.1, 0.2, 0.3, 0.4]), *_columns3()]
    spread = np.zeros(2 * len(args[column]), dtype=args[column].dtype)
    spread[::2] = args[column]
    args[column] = spread[::2]
    _refused(simkernel, *args, match="C-contiguous")
    args[column] = spread[::2].reshape(1, -1)  # contiguous, but two-dimensional
    _refused(simkernel, *args, match="one-dimensional")


def test_read_only_amps_refused(simkernel):
    amps = np.array([0.1, 0.2, 0.3, 0.4])
    amps.flags.writeable = False
    _refused(simkernel, amps, *_columns3(), match="writable")


@pytest.mark.parametrize("column", range(1, 5))
def test_unequal_column_lengths_refused(simkernel, column):
    args = [np.array([0.1, 0.2, 0.3, 0.4]), *_columns3()]
    args[column] = args[column][:2].copy()
    _refused(simkernel, *args, match="differ in length")


@pytest.mark.parametrize("column", range(1, 5))
def test_column_sharing_memory_with_amps_refused(simkernel, column):
    args = [np.array([0.1, 0.2, 0.3, 0.4]), *_columns3()]
    # the column is a view of the last bytes of amps
    args[column] = args[0].view(np.uint8)[-args[column].nbytes :].view(args[column].dtype)
    _refused(simkernel, *args, match="shares memory with amps")


@pytest.mark.parametrize("size", [0, 1, 3, 6, 1000, 1 << (MAX_QUBITS + 1)])
def test_amps_length_not_a_register_refused(simkernel, size):
    # np.empty does not touch its pages, so the largest size costs no memory
    amps = np.empty(size)
    with pytest.raises(ValueError, match="not 2\\*\\*n"):
        simkernel.run_gates(amps, *_columns3())


@pytest.mark.parametrize("target", [2, 3, 40, -1, -(2**31)])
def test_target_outside_register_refused(simkernel, target):
    kind, targets, cmask, angle = _columns3()
    targets[2] = target
    cmask[2] = 0
    amps = np.array([0.1, 0.2, 0.3, 0.4])
    _refused(simkernel, amps, kind, targets, cmask, angle, match="targets")


@pytest.mark.parametrize(
    "target, mask", [(0, 4), (0, 2**63), (0, 2**64 - 1), (1, 2), (0, 1), (0, 3)]
)
def test_control_mask_outside_register_or_on_target_refused(simkernel, target, mask):
    kind, targets, cmask, angle = _columns3()
    targets[2] = target
    cmask[2] = mask
    amps = np.array([0.1, 0.2, 0.3, 0.4])
    _refused(simkernel, amps, kind, targets, cmask, angle, match="control mask")


def test_unknown_kind_refused(simkernel):
    kind, targets, cmask, angle = _columns3()
    kind[2] = 2
    amps = np.array([0.1, 0.2, 0.3, 0.4])
    _refused(simkernel, amps, kind, targets, cmask, angle, match="kind")


# Which kernel a build ends up with, checked in a fresh interpreter on a copy
# of the package, so an in-tree build cannot leak into the answer.


def _package_copy(dest: pathlib.Path) -> pathlib.Path:
    shutil.copytree(
        ROOT / "src" / "ryprep",
        dest / "ryprep",
        ignore=shutil.ignore_patterns("*.so", "*.c", "__pycache__"),
    )
    return dest


# The probe's first line is the backend and, for each binding of BINDINGS,
# "numpy" where its twin is bound, or else the module of what is bound.  Then
# come the texts: a run state, then 8-bit and 16-bit PGMs encoded, in both
# of encode's forms: 5x7 images give states of their amplitudes, and the
# larger ones, with more amplitudes than maxval + 1, states that hand the
# writer their palette and pixel index; then a synthesized circuit's JSON
# and QASM, and whether its JSON, as the CLI writes it, reads back into its
# columns.
_BOUND = ", ".join(f"{m.__name__}.{a}" for m, a, _, _ in BINDINGS)
_TWINS = ", ".join(f"{m.__name__}.{t.__name__}" for m, _, t, _ in BINDINGS)
_PROBE = f"""
import numpy as np
import ryprep
from ryprep import Circuit, encode, export_qasm, load_pgm, run, ry, synth, x
bound = zip([{_BOUND}], [{_TWINS}])
print(ryprep.KERNEL_BACKEND, *["numpy" if b is t else b.__module__ for b, t in bound])
state = run(Circuit(3, (ry(0.3, 0), x(1, (0,)), ry(1.1, 2, (0, 1)))))
print(repr(state.amplitudes), state.to_json())
rng = np.random.default_rng(16)
for maxval, depth, rows, cols in (
    (255, "u1", 5, 7), (65535, ">u2", 5, 7), (255, "u1", 17, 19), (65535, ">u2", 256, 257)
):
    pixels = rng.integers(0, maxval + 1, (rows, cols)).astype(depth).tobytes()
    state = encode(load_pgm(b"P5 %d %d %d\\n" % (cols, rows, maxval) + pixels))
    print(state._palette is not None, state.to_json())
rows = " ".join(map(str, rng.integers(0, 100, 1024).tolist()))
circuit = synth(encode(load_pgm(b"P2 32 32 99 " + rows.encode())))[0]
print(circuit.to_json())
print(export_qasm(circuit), end="")
read = Circuit.from_json(circuit.to_json() + "\\n")
print(read.n_qubits == 10 and all(map(np.array_equal, read.columns, circuit.columns)))
"""


def _probe(lib: pathlib.Path) -> tuple[list[str], str, str]:
    """The probe's first line, split into its words, the rest of its output,
    and the package's ``--version`` line, run on the package copy lib."""
    env = {**os.environ, "PYTHONPATH": str(lib)}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, cwd=lib, check=True
    )
    version = subprocess.run(
        [sys.executable, "-m", "ryprep", "--version"],
        capture_output=True,
        text=True,
        env=env,
        cwd=lib,
        check=True,
    )
    sources, texts = out.stdout.split("\n", 1)
    return sources.split(), texts, version.stdout


_COMPILED = ["c"] + ["ryprep._simkernel"] * len(BINDINGS)
_TWINNED = ["numpy"] * (1 + len(BINDINGS))


def test_package_with_extension_runs_compiled_kernel(simkernel, tmp_path):
    lib = _package_copy(tmp_path)
    shutil.copy(simkernel.__file__, lib / "ryprep")
    with_c = _probe(lib)
    (lib / "ryprep" / pathlib.Path(simkernel.__file__).name).unlink()
    without = _probe(lib)
    assert with_c[0] == _COMPILED
    assert with_c[2] == f"ryprep {ryprep.__version__} (kernel: c)\n"
    assert without[0] == _TWINNED
    assert without[2] == f"ryprep {ryprep.__version__} (kernel: numpy)\n"
    # the run state's document and the four image states', of both forms,
    # then the circuit's JSON document and its QASM text
    lines = with_c[1].splitlines()
    assert with_c[1].count('"amplitudes"') == 5
    assert [line.split(" ", 1)[0] for line in lines[1:5]] == ["False", "False", "True", "True"]
    assert lines[5].startswith('{"n_qubits": 10, "gates": [{"kind": "ry"')
    assert lines[6] == "OPENQASM 3.0;" and len(lines) > 100
    assert lines[-1] == "True"
    assert with_c[1] == without[1]


# A stand-in for an extension built from older source: the helpers of the
# one built here that came before the circuit writers, and no others.  The
# built module is loaded under a top-level name, since loading it puts it
# in sys.modules under that name, where it would replace the stand-in.
_STALE = """
import importlib.util

spec = importlib.util.spec_from_file_location("_simkernel", {built!r})
_built = importlib.util.module_from_spec(spec)
spec.loader.exec_module(_built)
run_gates, state_json, p2_samples = _built.run_gates, _built.state_json, _built.p2_samples
"""


def test_stale_extension_runs_wholly_on_numpy(simkernel, tmp_path):
    """An extension that lacks one of the helpers is not used at all: every
    twin is bound, ``--version`` reports numpy, and the texts are those of
    the full build."""
    full = _package_copy(tmp_path / "full")
    shutil.copy(simkernel.__file__, full / "ryprep")
    stale = _package_copy(tmp_path / "stale")
    (stale / "ryprep" / "_simkernel.py").write_text(_STALE.format(built=simkernel.__file__))
    sources, texts, version = _probe(stale)
    assert sources == _TWINNED
    assert version == f"ryprep {ryprep.__version__} (kernel: numpy)\n"
    assert texts == _probe(full)[1]


def test_helpers_match_the_extension_methods(simkernel):
    """``_kernel._HELPERS`` names the extension's public functions, all its
    methods but the ``_short_repr`` hook for tests, and each one is bound in
    BINDINGS: a helper added on one side only fails here."""
    functions = {k for k, v in vars(simkernel).items() if isinstance(v, types.BuiltinFunctionType)}
    assert sorted(_kernel._HELPERS) == sorted(functions - {"_short_repr"})
    assert sorted(_kernel._HELPERS) == sorted(helper for *_, helper in BINDINGS)


def test_build_without_compiler_succeeds_on_numpy(tmp_path):
    """``setup.py build_ext`` with a compiler that always fails exits 0
    (the extension is optional), and the package then runs on NumPy."""
    lib = _package_copy(tmp_path / "lib")
    res = build_ext(lib, tmp_path / "temp", CC="false")
    assert res.returncode == 0, res.stdout + res.stderr
    assert not list((lib / "ryprep").glob("_simkernel*"))
    sources, _, version = _probe(lib)
    assert sources == _TWINNED
    assert version.endswith("(kernel: numpy)\n")


def test_build_with_all_warnings_as_errors(tmp_path):
    """The extension compiles under ``-Wall -Wextra -Werror``.  It is
    optional, so a failed compile still exits 0: the module must exist."""
    lib = tmp_path / "lib"
    res = build_ext(lib, tmp_path / "temp", CFLAGS="-Wall -Wextra -Werror")
    kernel = import_built(lib, res)
    doc = _streamed(kernel.state_json)(1, np.array([0.6, 0.8]), np.array([0, 1], np.uint32))
    assert doc == '{"n_qubits": 1, "amplitudes": [0.6, 0.8]}'


def test_build_without_int128_formats_every_value_with_dtoa(tmp_path):
    """Where the compiler has no 128-bit integers, the state-JSON writer's
    own formatter is compiled out: ``_short_repr`` answers None for every
    value, the values pass, which would only stage bits, never splits, and
    the documents are unchanged."""
    lib = tmp_path / "lib"
    kernel = import_built(lib, build_ext(lib, tmp_path / "temp", CFLAGS="-U__SIZEOF_INT128__"))
    assert kernel._SPLIT_AT == sys.maxsize
    amps = np.random.default_rng(8).random(1000)
    assert {kernel._short_repr(x) for x in amps.tolist() + [0.3, 1e-05]} == {None}
    expect = json.dumps({"n_qubits": 10, "amplitudes": amps.tolist()})
    assert _streamed(kernel.state_json)(10, amps, np.arange(1000, dtype=np.uint32)) == expect


# The sanitized build's corpus: tests of this suite that take the compiled
# module as simkernel (or patch it in through the kernel, writers or
# p2_decoders fixture), each called with the sanitized module over all its parametrized
# cases, and with calls set where the name ends in :calls; and test_value_sets
# on the named value sets.
_SANITIZED = """
import importlib.util, inspect, itertools, sys
from conftest import BINDINGS
import test_circuit_writers, test_circuits, test_encoding, test_fuzz, test_kernels
import test_state_json

spec = importlib.util.spec_from_file_location("ryprep._simkernel", sys.argv[1])
kernel = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel)
for module, name, _, helper in BINDINGS:
    setattr(module, name, getattr(kernel, helper))
writer = test_state_json._streamed(kernel.state_json)
fixtures = {
    "simkernel": kernel,
    "kernel": None,
    "writers": None,
    "p2_decoders": lambda: iter(["c"]),
}


def run(test, **given):
    marks = [m for m in getattr(test, "pytestmark", []) if m.name == "parametrize"]
    names = [[n.strip() for n in m.args[0].split(",")] for m in marks]
    wanted = inspect.signature(test).parameters
    given.update((k, v) for k, v in fixtures.items() if k in wanted)
    for values in itertools.product(*(m.args[1] for m in marks)):
        case = dict(given)
        for keys, value in zip(names, values):
            case.update(zip(keys, value if len(keys) > 1 else (value,)))
        test(**case)


for name in sys.argv[2:]:
    module, test, *calls = name.replace("::", " ").replace(":", " ").split()
    if module == "value_set":
        amps = test_state_json._value_set(test)
        test_state_json.test_value_sets(writer, (amps, test_state_json._dumps(20, amps)))
    else:
        run(getattr(sys.modules[module], test), **{"calls": int(c) for c in calls})
    print(name, flush=True)
"""

SANITIZED_CORPUS = [
    f"test_kernels::{name}"
    # not test_amps_length_not_a_register_refused: the sanitizer maps
    # shadow memory for its array of 2**27 values
    for name in [
        "test_run_matches_pair_index_reference",
        "test_valid_columns_are_accepted",
        "test_wrong_dtype_refused",
        "test_non_contiguous_buffer_refused",
        "test_read_only_amps_refused",
        "test_unequal_column_lengths_refused",
        "test_column_sharing_memory_with_amps_refused",
        "test_target_outside_register_refused",
        "test_control_mask_outside_register_or_on_target_refused",
        "test_unknown_kind_refused",
    ]
] + [
    f"test_state_json::{name}"
    for name in [
        "test_all_distinct_values",
        "test_read_only_buffer_and_empty_array",
        "test_palettes_around_the_split",
        "test_first_non_finite_value_of_a_split_pass",
        "test_deferred_values_in_the_upper_half",
        "test_no_thread_outlives_a_call",
        "test_pieces_are_memoryviews_of_at_most_64_kib",
        "test_pieces_are_released_when_write_returns",
        "test_write_error_propagates",
        "test_write_must_be_callable",
        "test_index_changed_during_a_write",
        "test_refused",
        "test_refused_n_qubits",
        # the races, with fewer calls: each document is checked in Python
        "test_index_changed_by_another_thread:3",
        "test_index_made_out_of_range_by_another_thread:20",
        "test_values_made_non_finite_by_another_thread:60",
        "test_values_made_non_finite_during_a_split_pass:60",
    ]
] + [
    f"test_circuit_writers::{name}"
    for name in [
        "test_compiled_writers_match_the_references",
        "test_files_and_strs_hold_the_reference_text",
        "test_pieces_are_memoryviews_of_at_most_64_kib",
        "test_write_error_propagates",
        "test_columns_changed_during_a_write",
        "test_refused_columns",
        "test_refused_arguments",
    ]
] + [
    # the circuit reader, on what the writers write, on the boundary
    # documents and on single-character edits of synthesized ones
    "test_circuits::test_reader_reads_what_to_json_writes",
    "test_circuits::test_reader_reads_what_synthesis_writes",
    "test_circuits::test_reader_reads_only_what_json_reads_alike",
    "test_fuzz::test_reader_on_documents_edited_by_one_character",
] + [
    f"value_set::{name}"
    for name in ["log-uniform", "bit-patterns", "powers-of-two", "exact-ties", "edges"]
] + [
    f"test_encoding::{name}"
    for name in [
        "test_truncated",
        "test_full_size_p2_matches_reference",
        "test_full_size_p2_control_byte_is_not_whitespace",
        "test_p2_token_across_the_scanned_bytes_is_read_whole",
        "test_p2_count_from_the_header_alone_sizes_nothing",
        "test_p2_samples_reads_the_last_sample_whole",
        "test_p2_samples_refuses_a_bad_out",
        "test_p2_samples_refuses_a_bad_rest",
    ]
]


def _runtime(name: str) -> str | None:
    """The path of gcc's shared sanitizer runtime name, or None."""
    path = subprocess.run(["gcc", f"-print-file-name={name}"], capture_output=True, text=True)
    return path.stdout.strip() if os.path.isabs(path.stdout.strip()) else None


def test_sanitized_build_runs_the_corpus_clean(tmp_path):
    """The extension built with AddressSanitizer and UndefinedBehaviorSanitizer
    runs SANITIZED_CORPUS in a subprocess, with both runtimes preloaded,
    since the interpreter is not built with them, and PyMem blocks taken
    from malloc, so that the sanitizer sees them: a bad read or write, or
    undefined behaviour, in any of its entry points or in the second thread
    of the state writer's values pass ends the run with a report.  Every
    helper is bound in the package too, as conftest's BINDINGS lists them,
    so that ``to_json``, ``export_qasm`` and the rest run them."""
    runtimes = [_runtime("libasan.so"), _runtime("libubsan.so")] if shutil.which("gcc") else []
    if not runtimes or None in runtimes:
        pytest.skip("no gcc with AddressSanitizer and UndefinedBehaviorSanitizer runtimes")
    flags = "-fsanitize=address,undefined"
    lib = tmp_path / "lib"
    res = build_ext(
        lib,
        tmp_path / "temp",
        CFLAGS=f"{flags} -fno-sanitize-recover=undefined -fno-omit-frame-pointer -g",
        LDFLAGS=flags,
    )
    # not imported here: it needs the sanitizer runtimes loaded first
    built = built_path(lib, res)
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
        "LD_PRELOAD": " ".join(runtimes),
        # a quarantine of freed blocks smaller than the default 256 MB: the
        # run peaks at about 240 MB, not 700
        "ASAN_OPTIONS": "detect_leaks=0:quarantine_size_mb=16",
        "PYTHONMALLOC": "malloc",
    }
    run = subprocess.run(
        [sys.executable, "-c", _SANITIZED, str(built), *SANITIZED_CORPUS],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert run.returncode == 0, run.stderr[-4000:]
    assert run.stdout.split() == SANITIZED_CORPUS
    assert "Sanitizer" not in run.stderr and "runtime error" not in run.stderr, run.stderr
