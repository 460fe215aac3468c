"""The circuit writers: the compiled ``_simkernel.circuit_json`` and
``circuit_qasm`` and their NumPy twins ``circuits._circuit_json_numpy`` and
``qasm._circuit_qasm_numpy`` against ``reference_circuits``, byte for byte;
``Circuit.write_json`` and ``write_qasm`` on both builds; the pieces that the
compiled writers hand to write; and their refusals of columns that do not
fit, each before write is first called."""

import io
import math

import numpy as np
import pytest

import reference_circuits
from ryprep import Circuit, RealState, circuits, qasm, ry, synth, write_qasm, x
from ryprep.qasm import export_qasm

# name: (the NumPy twin, the compiled writer's name, the reference)
WRITERS = {
    "json": (circuits._circuit_json_numpy, "circuit_json", reference_circuits.to_json),
    "qasm": (qasm._circuit_qasm_numpy, "circuit_qasm", reference_circuits.export_qasm),
}


def _streamed(writer, n_qubits: int, columns) -> str:
    """The text that writer hands to write for the columns."""
    out = io.BytesIO()
    assert writer(n_qubits, *columns, out.write) is None
    return out.getvalue().decode("ascii")


def _angles() -> list[float]:
    """Angles that short_repr formats and ones that it leaves to
    PyOS_double_to_string: zeros, powers of two, subnormals and extremes."""
    rng = np.random.default_rng(64)
    picked = [0.0, -0.0, 1.0, -2.0, 0.5, 2**-60, 5e-324, -2.2250738585072014e-308]
    picked += [1e300, -1.7976931348623157e308, math.pi, 2 * math.pi, 1e16, 1e-5, 123456789.0]
    return picked + (rng.normal(size=40) * 10.0 ** rng.integers(-20, 20, size=40)).tolist()


def _wide_circuit(gates: int) -> Circuit:
    """A 64-qubit circuit whose gates carry up to 63 controls, the longest
    rows either writer makes, with the angles of ``_angles``."""
    rng = np.random.default_rng(gates)
    angles = _angles()
    rows = []
    for k in range(gates):
        target = int(rng.integers(64))
        others = [q for q in range(64) if q != target]
        controls = others if k % 3 == 0 else others[: int(rng.integers(64))]
        if k % 4 == 1:
            rows.append(x(target, controls))
        else:
            rows.append(ry(angles[k % len(angles)], target, controls))
    return Circuit(64, tuple(rows))


def _synthesized(n: int, prune: bool) -> Circuit:
    rng = np.random.default_rng(90 + n)
    v = rng.normal(size=1 << n)
    v[(3 << n) // 4 :] = 0.0
    v /= np.linalg.norm(v)
    return synth(RealState(n, v), prune=prune)[0]


CIRCUITS = [
    Circuit(1),
    Circuit(3, (x(0), x(2), ry(0.5, 1), ry(-0.0, 2, (0, 1)))),
    _wide_circuit(40),
] + [_synthesized(n, prune) for n in (1, 2, 5, 9) for prune in (False, True)]


@pytest.mark.parametrize("name", sorted(WRITERS))
@pytest.mark.parametrize("case", range(len(CIRCUITS)))
def test_compiled_writers_match_the_references(simkernel, name, case):
    twin, compiled, reference = WRITERS[name]
    circuit = CIRCUITS[case]
    expect = reference(circuit)
    assert _streamed(getattr(simkernel, compiled), circuit.n_qubits, circuit.columns) == expect
    assert _streamed(twin, circuit.n_qubits, circuit.columns) == expect


@pytest.fixture(params=["numpy", "c"])
def writers(request, monkeypatch):
    """The circuit writers bound in the package: the NumPy twins (the
    extension absent) or the compiled writers built from source."""
    if request.param == "numpy":
        json_writer, qasm_writer = circuits._circuit_json_numpy, qasm._circuit_qasm_numpy
    else:
        kernel = request.getfixturevalue("simkernel")
        json_writer, qasm_writer = kernel.circuit_json, kernel.circuit_qasm
    monkeypatch.setattr(circuits, "_circuit_json", json_writer)
    monkeypatch.setattr(qasm, "_circuit_qasm", qasm_writer)


@pytest.mark.parametrize(
    "circuit",
    CIRCUITS + [Circuit(10**12, (x(3, (0,)), ry(2.5, 1), ry(0.25, 10**11, (10**10, 7))))],
)
def test_files_and_strs_hold_the_reference_text(writers, circuit):
    """``write_json`` and ``write_qasm`` write the text that ``to_json`` and
    ``export_qasm`` return, on either build; past 64 qubits the twin writes
    it from the gates."""
    json_file, qasm_file = io.BytesIO(), io.BytesIO()
    circuit.write_json(json_file)
    write_qasm(circuit, qasm_file)
    assert json_file.getvalue().decode("ascii") == circuit.to_json()
    assert circuit.to_json() == reference_circuits.to_json(circuit)
    assert qasm_file.getvalue().decode("ascii") == export_qasm(circuit)
    assert export_qasm(circuit) == reference_circuits.export_qasm(circuit)


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_pieces_are_memoryviews_of_at_most_64_kib(simkernel, name):
    """The text comes in pieces of at most 65,536 bytes, as memoryviews,
    each released when write returns; what write returns is ignored."""
    circuit = _wide_circuit(900)
    pieces, views = [], []

    def write(piece):
        views.append(piece)
        pieces.append((type(piece), bytes(piece)))
        return 0

    assert getattr(simkernel, WRITERS[name][1])(64, *circuit.columns, write) is None
    assert {kind for kind, _ in pieces} == {memoryview}
    sizes = [len(data) for _, data in pieces]
    assert len(sizes) > 3 and max(sizes) <= 65536 and min(sizes[:-1]) > 65536 - 1024
    assert b"".join(data for _, data in pieces).decode("ascii") == WRITERS[name][2](circuit)
    for view in views:
        with pytest.raises(ValueError, match="released memoryview"):
            bytes(view)


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_write_error_propagates(simkernel, name):
    """What write raises partway through the text is what the call raises,
    and nothing more is written."""
    calls = []

    def write(piece):
        calls.append(len(piece))
        if len(calls) == 2:
            raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match=r"^\[Errno 28\] No space left on device$"):
        getattr(simkernel, WRITERS[name][1])(64, *_wide_circuit(900).columns, write)
    assert len(calls) == 2


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_columns_changed_during_a_write(simkernel, name):
    """A write that changes the columns after the first piece makes the
    call refuse the changed row when it comes to it, as the first pass
    would have, rather than write what does not fit."""
    func = WRITERS[name][1]
    columns = [column.copy() for column in _wide_circuit(900).columns]
    calls = []

    def write(piece):
        calls.append(len(piece))
        columns[1][-1] = 100

    with pytest.raises(ValueError, match=f"^{func}: gate 899 targets qubit 100 of 64$"):
        getattr(simkernel, func)(64, *columns, write)
    assert len(calls) > 1


def _columns():
    """Three valid gates on two qubits."""
    return [
        np.array([1, 0, 1], dtype=np.uint8),
        np.array([0, 1, 0], dtype=np.int32),
        np.array([0, 1, 2], dtype=np.uint64),
        np.array([0.0, 0.7, 0.0]),
    ]


def _spread(column):
    spread = np.zeros(2 * len(column), dtype=column.dtype)
    spread[::2] = column
    return spread[::2]


def _set(column, row, value):
    def change(columns):
        columns[column][row] = value

    return change


def _replace(column, make):
    def change(columns):
        columns[column] = make(columns[column])

    return change


REFUSALS = [
    ("kind dtype", _replace(0, lambda c: c.astype(np.int8)), "kind has the wrong item type"),
    ("target dtype", _replace(1, lambda c: c.astype(np.int64)), "target has the wrong item"),
    ("mask dtype", _replace(2, lambda c: c.astype(np.int64)), "cmask has the wrong item type"),
    ("angle dtype", _replace(3, lambda c: c.astype(np.float32)), "angle has the wrong item"),
    ("spread", _replace(1, _spread), "target must be C-contiguous"),
    ("2-d", _replace(3, lambda c: c.reshape(1, -1)), "angle must be one-dimensional"),
    ("short", _replace(2, lambda c: c[:2].copy()), "differ in length"),
    ("kind", _set(0, 2, 2), "gate 2 has unknown kind 2"),
    ("target", _set(1, 1, 2), "gate 1 targets qubit 2 of 2"),
    ("negative target", _set(1, 0, -1), "gate 0 targets qubit -1 of 2"),
    ("mask outside", _set(2, 2, 4), "gate 2 has control mask 4, which does not fit"),
    ("mask on target", _set(2, 1, 2), "gate 1 has control mask 2, which does not fit"),
    ("nan", _set(3, 1, math.nan), "gate 1 has an angle that is not finite"),
    ("inf", _set(3, 1, -math.inf), "gate 1 has an angle that is not finite"),
]


@pytest.mark.parametrize("name", sorted(WRITERS))
@pytest.mark.parametrize("refusal", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_refused_columns(simkernel, name, refusal):
    """A column or a gate that does not fit a 2-qubit register is refused
    as ``run_gates`` refuses it, and a non-finite Ry angle too, before
    write is first called."""
    _, change, message = refusal
    func = WRITERS[name][1]
    columns = _columns()
    columns[3][0] = math.nan
    change(columns)
    calls = []
    with pytest.raises(ValueError, match=f"^{func}: .*{message}"):
        getattr(simkernel, func)(2, *columns, calls.append)
    assert calls == []


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_refused_arguments(simkernel, name):
    func = WRITERS[name][1]
    writer = getattr(simkernel, func)
    for n_qubits in (0, -1, 65):
        with pytest.raises(ValueError, match=f"^{func}: n_qubits is {n_qubits}, not in 1..64$"):
            writer(n_qubits, *_columns(), print)
    with pytest.raises(TypeError, match=f"^{func}: write must be callable, not int$"):
        writer(2, *_columns(), 1)
    with pytest.raises(TypeError, match=rf"^{func}\(\) takes exactly 6 arguments \(5 given\)$"):
        writer(2, *_columns())
    # an X row's angle is not read
    columns = _columns()
    columns[3][0] = math.nan
    expect = WRITERS[name][2](Circuit(2, (x(0), ry(0.7, 1, (0,)), x(0, (1,)))))
    assert _streamed(writer, 2, columns) == expect
