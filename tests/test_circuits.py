"""Gate and circuit value semantics, validation, and JSON round-trips."""

import copy
import math
import pickle
import re
import tracemalloc
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_circuits
from conftest import count_gates
from reference_circuits import ReferenceGate
from ryprep import Circuit, Gate, circuits, export_qasm, normalize, ry, synth, x
from ryprep._values import header, parse
from ryprep.errors import (
    ControlCollision,
    ControlEqualsTarget,
    DomainError,
    FormatError,
    IndexOutOfRange,
)


def test_ry_helper():
    g = ry(math.pi / 2, 0)
    assert (g.kind, g.target, g.controls, g.angle) == ("ry", 0, (), math.pi / 2)


def test_x_helper():
    g = x(1, (0,))
    assert (g.kind, g.target, g.controls, g.angle) == ("x", 1, (0,), None)


def test_controls_are_sorted():
    assert ry(1.0, 0, (3, 1, 2)).controls == (1, 2, 3)


def test_duplicate_control_rejected():
    with pytest.raises(ControlCollision):
        ry(1.0, 0, (1, 1))


def test_control_equals_target_rejected():
    with pytest.raises(ControlEqualsTarget):
        x(1, (1,))


def test_negative_indices_rejected():
    with pytest.raises(IndexOutOfRange):
        ry(1.0, -1)
    with pytest.raises(IndexOutOfRange):
        x(0, (-2,))


@pytest.mark.parametrize(
    "target, controls",
    [(True, ()), (1.0, ()), ("0", ()), (None, ()), (0, (1.5,)), (0, (False,)), (0, ("1",))],
)
def test_non_integer_indices_rejected(target, controls):
    with pytest.raises(IndexOutOfRange):
        Gate("x", target, controls)


def test_integer_like_indices_become_ints():
    gate = Gate("x", np.int64(1), (np.int32(0),))
    assert type(gate.target) is int and gate.controls == (0,) and type(gate.controls[0]) is int


@pytest.mark.parametrize(
    "angle",
    [math.nan, math.inf, -math.inf, None, "1.0", 10**400, -(10**400), True, False, Decimal(1)],
)
def test_bad_ry_angle_rejected(angle):
    with pytest.raises(DomainError):
        Gate("ry", 0, (), angle)


@pytest.mark.parametrize("angle", [2, np.float32(0.5), np.float64(0.25), Fraction(1, 3)])
def test_real_angles_become_floats(angle):
    gate = Gate("ry", 0, (), angle)
    assert type(gate.angle) is float and gate.angle == float(angle)


def test_x_with_angle_rejected():
    with pytest.raises(DomainError):
        Gate("x", 0, (), 1.0)


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        Gate("rz", 0, (), 1.0)


def test_with_control():
    g = ry(0.5, 0).with_control(2)
    assert g.controls == (2,)
    with pytest.raises(ControlCollision):
        g.with_control(2)
    with pytest.raises(ControlCollision):
        g.with_control(0)


HUGE = 10**5000  # more digits than str() prints


@pytest.mark.parametrize(
    "make,error,message",
    [
        (lambda: Gate("x", -HUGE), IndexOutOfRange, "got -<16610-bit integer>"),
        (lambda: Gate("x", 0, (-HUGE,)), IndexOutOfRange, "got (-<16610-bit integer>,)"),
        (lambda: Gate("x", 0, (HUGE, HUGE)), ControlCollision, "in (<16610-bit"),
        (lambda: Gate("x", HUGE, (HUGE,)), ControlEqualsTarget, "qubit <16610-bit integer> is"),
        (lambda: Gate("x", 1.5, [HUGE]), IndexOutOfRange, "controls [<16610-bit integer>]"),
        (lambda: Gate("x", 1.5, {HUGE}), IndexOutOfRange, "and controls <set>"),
        (lambda: Circuit(-HUGE), DomainError, "got -<16610-bit integer>"),
        (lambda: Circuit(1, (Gate("x", HUGE),)), IndexOutOfRange, "qubit <16610-bit integer> but"),
        (lambda: Circuit(2).add_control(HUGE), IndexOutOfRange, "control <16610-bit integer>"),
    ],
    ids=[
        "target",
        "control",
        "duplicate",
        "target-control",
        "list",
        "set",
        "n_qubits",
        "bound",
        "add",
    ],
)
def test_unprintable_integers_are_named_by_size(make, error, message):
    with pytest.raises(error, match=re.escape(message)):
        make()


class TestCircuit:
    def test_empty(self):
        c = Circuit(1)
        assert c.gate_count == 0
        assert c.gates == ()

    def test_append_returns_new(self):
        c0 = Circuit(1)
        c1 = c0.append(ry(math.pi / 2, 0))
        assert c0.gate_count == 0
        assert c1.gate_count == 1
        assert c1.gates[0].angle == math.pi / 2

    def test_append_range_checked(self):
        with pytest.raises(IndexOutOfRange):
            Circuit(2).append(ry(1.0, 2))
        with pytest.raises(IndexOutOfRange):
            Circuit(2).append(x(0, (5,)))

    @pytest.mark.parametrize(
        "gates,message",
        [
            ([1], "got 1"),
            (["x"], "got 'x'"),
            ((x(0), ry(0.5, 0), None), "got None"),
        ],
    )
    def test_gates_must_be_gates(self, gates, message):
        with pytest.raises(DomainError, match=re.escape(f"gates must be Gate values, {message}")):
            Circuit(1, gates)

    @pytest.mark.parametrize("gates", [None, 3, x(0)])
    def test_gates_must_be_iterable(self, gates):
        with pytest.raises(DomainError, match="gates must be an iterable of Gate"):
            Circuit(1, gates)

    def test_n_qubits_positive(self):
        with pytest.raises(DomainError):
            Circuit(0)

    @pytest.mark.parametrize("n_qubits", [True, False, 1.0])
    def test_n_qubits_must_be_int(self, n_qubits):
        with pytest.raises(DomainError):
            Circuit(n_qubits)

    @pytest.mark.parametrize("n_qubits", [np.int64(2), np.uint8(2), type("Count", (int,), {})(2)])
    def test_integer_like_n_qubits_become_ints(self, n_qubits):
        circuit = Circuit(n_qubits, (x(1),))
        assert type(circuit.n_qubits) is int and circuit == Circuit(2, (x(1),))
        assert circuit.to_json() == reference_circuits.to_json(Circuit(2, (x(1),)))

    def test_add_control(self):
        c = Circuit(3, (ry(0.7, 0),)).add_control(2)
        assert c.gates[0].controls == (2,)

    def test_add_control_keeps_count_and_order(self):
        base = Circuit(4, (ry(0.1, 0), x(1, (0,)), ry(0.2, 2, (0, 1))))
        lifted = base.add_control(3)
        assert lifted.gate_count == base.gate_count
        assert [g.target for g in lifted.gates] == [g.target for g in base.gates]
        assert all(3 in g.controls for g in lifted.gates)

    def test_add_control_collisions(self):
        with pytest.raises(ControlCollision):
            Circuit(3, (ry(0.7, 2),)).add_control(2)
        with pytest.raises(ControlCollision):
            Circuit(3, (ry(0.7, 0, (1,)),)).add_control(1)

    def test_add_control_range_checked(self):
        with pytest.raises(IndexOutOfRange):
            Circuit(2).add_control(2)
        with pytest.raises(IndexOutOfRange):
            Circuit(2).add_control(-1)

    GATES = (ry(0.5, 0), x(2, (0, 1)))
    REPR = (
        "Circuit(n_qubits=3, gates=(Gate(kind='ry', target=0, controls=(), angle=0.5), "
        "Gate(kind='x', target=2, controls=(0, 1), angle=None)))"
    )
    # a circuit built from gates, and one read from JSON into columns alone
    FORMS = {
        "gates": lambda: Circuit(3, TestCircuit.GATES),
        "columns": lambda: Circuit.from_json(Circuit(3, TestCircuit.GATES).to_json()),
    }

    @pytest.mark.parametrize("form", FORMS)
    def test_fields_cannot_be_set_or_deleted(self, form):
        circuit = self.FORMS[form]()
        assert ("columns" in vars(circuit)) is (form == "columns")
        for name in ("n_qubits", "gates", "columns"):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(circuit, name, None)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(circuit, name)
        assert circuit.n_qubits == 3 and circuit.gates == self.GATES
        assert all(map(np.array_equal, circuit.columns, Circuit(3, self.GATES).columns))

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
        ids=["copy", "deepcopy", "pickle"],
    )
    @pytest.mark.parametrize("form", FORMS)
    def test_copies_are_equal(self, form, clone):
        circuit = self.FORMS[form]()
        again = clone(circuit)
        assert type(again) is Circuit and again == circuit and circuit == again
        assert hash(again) == hash(circuit) == hash((3, self.GATES))
        assert repr(again) == repr(circuit) == self.REPR


class TestCircuitJson:
    def test_round_trip_is_exact(self):
        c = Circuit(
            3,
            (
                ry(math.pi, 0),
                ry(-2.3788532585982702, 1, (0,)),
                x(0, (2,)),
                ry(1e-300, 2, (0, 1)),
            ),
        )
        again = Circuit.from_json(c.to_json())
        assert again == c
        assert Circuit.from_json(again.to_json()).to_json() == c.to_json()

    def test_key_order_matches_schema(self):
        c = Circuit(2, (ry(1.0, 0), x(1, (0,))))
        assert c.to_json() == (
            '{"n_qubits": 2, "gates": ['
            '{"kind": "ry", "angle": 1.0, "target": 0, "controls": []}, '
            '{"kind": "x", "target": 1, "controls": [0]}]}'
        )

    @pytest.mark.parametrize(
        "text",
        [
            "nope",
            "[]",
            '{"n_qubits": 2}',
            '{"gates": []}',
            '{"n_qubits": 2, "gates": [{"kind": "ry"}]}',
            '{"n_qubits": 2, "gates": [{"kind": "ry", "angle": "x", "target": 0, "controls": []}]}',
            '{"n_qubits": 2, "gates": [{"kind": "x", "target": 0, "controls": [1.5]}]}',
            '{"n_qubits": 2, "gates": [{"kind": "x", "target": 0, "controls": ["1"]}]}',
            '{"n_qubits": 2, "gates": [{"kind": "x", "target": 0, "controls": [null]}]}',
            '{"n_qubits": 2, "gates": [{"kind": "x", "target": 0, "controls": [true]}]}',
            '{"n_qubits": 2, "gates": [{"kind": "x", "target": true, "controls": []}]}',
            '{"n_qubits": 2, "gates": [{"kind": "x", "target": 1.0, "controls": []}]}',
            '{"n_qubits": 1, "gates": [{"kind": "ry", "angle": true, "target": 0, "controls": []}]}',
            '{"n_qubits": 1, "gates": [{"kind": "ry", "angle": 1%s, "target": 0, "controls": []}]}'
            % ("0" * 400),
            '{"n_qubits": 1, "gates": [{"kind": "ry", "angle": 1%s, "target": 0, "controls": []}]}'
            % ("0" * 5000),
            "[" * 100_000,
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            Circuit.from_json(text)

    def test_content_errors_are_domain_errors(self):
        with pytest.raises(DomainError):
            Circuit.from_json('{"n_qubits": 1, "gates": [{"kind": "ry", "angle": 1.0, "target": 1, "controls": []}]}')


def _outcome(cls, kind, target, controls, angle):
    """Fields and their exact types, or the exception class and message."""
    try:
        g = cls(kind, target, controls, angle)
    except Exception as exc:
        return type(exc), str(exc)
    fields = (g.kind, g.target, g.controls, g.angle)
    return fields, tuple(map(type, fields)), tuple(map(type, g.controls))


_INDEX = st.integers(-2, 6)
INDEX_VALUES = st.one_of(
    _INDEX,
    _INDEX,
    _INDEX,
    _INDEX.map(np.int64),
    st.booleans(),
    st.sampled_from([0.0, 1.0, 1.5, -1.0]),
    st.sampled_from(["0", "1", ""]),
    st.none(),
)
CONTAINERS = {
    "tuple": tuple,
    "list": list,
    "generator": lambda values: (v for v in values),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["ry", "x"]),
    target=INDEX_VALUES,
    controls=st.lists(INDEX_VALUES, max_size=5),
    container=st.sampled_from(sorted(CONTAINERS)),
    angle=st.sampled_from([None, 0.5, -0.0, 2, np.float64(0.25), math.nan, "1.0"]),
)
def test_gate_validation_matches_reference(kind, target, controls, container, angle):
    make = CONTAINERS[container]
    got = _outcome(Gate, kind, target, make(controls), angle)
    expect = _outcome(ReferenceGate, kind, target, make(controls), angle)
    if container == "generator" and isinstance(expect[0], type):
        # the message shows the repr of its own generator object
        assert got[0] is expect[0]
    else:
        assert got == expect


def _random_circuit(rng, n, count):
    gates = []
    for _ in range(count):
        target = int(rng.integers(n))
        others = [q for q in range(n) if q != target]
        controls = [int(q) for q in rng.permutation(others)[: int(rng.integers(len(others) + 1))]]
        if rng.random() < 0.4:
            gates.append(x(target, controls))
        else:
            angle = float(rng.normal()) * 10.0 ** int(rng.integers(-300, 300))
            gates.append(ry(angle, target, controls))
    return Circuit(n, tuple(gates))


_rng = np.random.default_rng(2024)
TEXT_CIRCUITS = [
    Circuit(1),
    Circuit(3, (x(0), x(2), ry(0.5, 1))),
    Circuit(
        2,
        (ry(-0.0, 0), ry(5e-324, 1), ry(1e300, 0, (1,)), ry(math.pi, 1, (0,)), ry(-1e-300, 0)),
    ),
    Circuit(20, (ry(1.0, 19, tuple(range(19))), x(0, tuple(range(1, 20))), x(10))),
    # a register far wider than the qubits its gates touch
    Circuit(10**12, (x(3, (0,)), ry(2.5, 1))),
] + [_random_circuit(_rng, n, count) for n in (1, 2, 5, 12) for count in (1, 40)]


@pytest.mark.parametrize("circuit", TEXT_CIRCUITS)
def test_to_json_matches_json_dumps(circuit):
    assert circuit.to_json() == reference_circuits.to_json(circuit)
    assert Circuit.from_json(circuit.to_json()) == circuit


@pytest.mark.parametrize("circuit", TEXT_CIRCUITS)
def test_export_qasm_matches_reference(circuit):
    assert export_qasm(circuit) == reference_circuits.export_qasm(circuit)


def test_export_qasm_names_only_the_qubits_the_gates_touch():
    """A gate on qubit 10**6 costs one operand name, not one for every
    qubit below it: the export stays within 1 MiB of traced allocation."""
    circuit = Circuit(10**6 + 1, (x(10**6), ry(0.5, 3, (10**6,))))
    tracemalloc.start()
    try:
        text = export_qasm(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == reference_circuits.export_qasm(circuit)
    assert peak < 1 << 20


def _read(parse, text):
    """The circuit that parse reads from text, or its exception's class and
    message."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


def assert_reads_as_reference(text):
    """``Circuit.from_json`` gives the circuit that the gate-by-gate
    reference gives, equal to it in every way a value is compared, or the
    same refusal."""
    expect = _read(reference_circuits.from_json, text)
    got = _read(Circuit.from_json, text)
    if type(expect) is tuple:
        assert got == expect
        return
    assert type(got) is Circuit
    if got.n_qubits <= 64:
        # read into columns, and packed from the reference's gates
        packed = Circuit(expect.n_qubits, expect.gates).columns
        assert all(map(np.array_equal, got.columns, packed))
    assert got == expect and expect == got and got.gate_count == expect.gate_count
    assert hash(got) == hash(expect) and repr(got) == repr(expect)
    assert got.gates == expect.gates
    again = pickle.loads(pickle.dumps(got))
    assert again == got == expect and repr(again) == repr(expect)


def assert_reads_into_columns(monkeypatch, text):
    """``Circuit.from_json`` reads text, which ``to_json`` wrote for at most
    64 qubits, into columns: it builds no ``Gate``."""
    with monkeypatch.context() as patch:
        built = count_gates(patch)
        Circuit.from_json(text)
    assert built == []


def _gate(target, controls="[]", kind="x", angle=None):
    extra = "" if angle is None else f'"angle": {angle}, '
    return f'{{"kind": "{kind}", {extra}"target": {target}, "controls": {controls}}}'


def _doc(n_qubits, *gates):
    return f'{{"n_qubits": {n_qubits}, "gates": [{", ".join(gates)}]}}'


BIG = 10**12
PARITY_DOCS = [
    # registers at and past the width of a control mask
    _doc(64, _gate(63, "[0, 62]"), _gate(0, "[63, 1]", "ry", 0.5), _gate(63)),
    _doc(64, _gate(0, "[64]")),
    _doc(64, _gate(64)),
    _doc(65, _gate(64, "[0, 63]"), _gate(3, "[64]", "ry", -1.5)),
    _doc(65, _gate(0, "[65]")),
    _doc(BIG, _gate(3, "[0]"), _gate(BIG - 1, f"[{BIG - 2}, 5]", "ry", 2.5)),
    _doc(BIG, _gate(BIG)),
    # indices of the document past a small register
    _doc(3, _gate(0, f"[{BIG}]")),
    _doc(3, _gate(BIG)),
    _doc(3, _gate(0, f"[{BIG}, {BIG}]")),
    _doc(3, _gate(BIG, f"[{BIG}]")),
    # controls unsorted, repeated, negative or on the target
    _doc(4, _gate(0, "[3, 1, 2]"), _gate(3, "[2, 0]", "ry", 1.0)),
    _doc(4, _gate(0, "[1, 1]")),
    _doc(4, _gate(0, "[2, 1, 2]", "ry", 1.0)),
    _doc(4, _gate(1, "[1]")),
    _doc(4, _gate(1, "[0, 1]", "ry", 0.25)),
    _doc(4, _gate(-1)),
    _doc(4, _gate(0, "[-1]")),
    _doc(4, _gate(0, "[2, -3]")),
    _doc(4, _gate(-1, "[1, 1]")),
    # angles: ints, the non-finite names, other JSON values
    _doc(2, _gate(0, "[]", "ry", 2), _gate(1, "[0]", "ry", 0), _gate(0, "[1]", "ry", -0)),
    _doc(2, _gate(0, "[]", "ry", "-0.0"), _gate(1, "[]", "ry", 5e-324)),
    _doc(2, _gate(0, "[]", "ry", "Infinity")),
    _doc(2, _gate(0, "[]", "ry", "-Infinity")),
    _doc(2, _gate(0, "[]", "ry", "NaN")),
    _doc(2, _gate(0, "[]", "ry", "1" + "0" * 400)),
    _doc(2, _gate(0, "[]", "ry", "true")),
    _doc(2, _gate(0, "[]", "ry", '"1.0"')),
    _doc(2, _gate(0, "[]", "ry", "null")),
    _doc(2, _gate(0, "[]", "ry")),
    _doc(2, _gate(0, "[]", "ry", "[1.0]")),
    # bool indices
    _doc(2, _gate("true")),
    _doc(2, _gate(0, "[false]")),
    _doc(2, _gate(1, "[true]", "ry", 1.0)),
    # an x with an angle, or with a null one
    _doc(2, _gate(0, "[]", "x", 1.0)),
    _doc(2, _gate(0, "[]", "x", 0)),
    _doc(2, _gate(0, "[]", "x", "Infinity")),
    _doc(2, _gate(0, "[1]", "x", "null")),
    # kinds and entries outside the schema
    _doc(2, _gate(0, "[]", "rz", 1.0)),
    _doc(2, _gate(0, "[]", "RY", 1.0)),
    _doc(2, '{"kind": null, "target": 0}'),
    _doc(2, '{"kind": ["ry"], "angle": 1.0, "target": 0, "controls": []}'),
    _doc(2, '{"kind": "x", "target": 1}', '{"target": 0, "kind": "x", "extra": [1]}'),
    _doc(2, '{"kind": "x", "target": 1, "controls": 0}'),
    _doc(2, '{"kind": "x", "target": 1, "controls": {"0": 1}}'),
    _doc(2, '{"kind": "x", "controls": []}'),
    _doc(2, '{"target": 0}'),
    _doc(2, "1"),
    _doc(2, '"x"'),
    _doc(2, "null"),
    _doc(2, "[]"),
    _doc(2, _gate(1.0)),
    _doc(2, _gate(0, "[0.0]")),
    # canonical entries, then a valid one that is not: the whole document is
    # read again gate by gate
    _doc(3, _gate(2, "[0, 1]"), _gate(0, "[2]", "ry", 0.5), '{"kind": "x", "target": 1}'),
    _doc(3, _gate(2, "[0, 1]"), _gate(0, "[2]", "ry", 0.5), _gate(1, "[0]", "ry", 2)),
    _doc(3, _gate(2, "[0, 1]"), _gate(0, "[2]", "ry", 0.5), _gate(1, "[]", "ry", "-0")),
    _doc(3, _gate(2, "[0, 1]"), '{"kind": "x", "target": 1}', _gate(0, "[2]", "ry", 0.5)),
    # canonical entries, a gate past the register, then a malformed or refused entry
    _doc(3, _gate(2, "[0, 1]"), _gate(0, "[2]", "ry", 0.5), _gate(3), "{}"),
    _doc(3, _gate(2, "[0, 1]"), _gate(0, "[2]", "ry", 0.5), _gate(0, "[7]"), _gate(1, "[1]")),
    # canonical entries before an index of 64
    _doc(64, _gate(63, "[0, 62]"), _gate(0, "[63]", "ry", 0.5), _gate(1, "[64]")),
    _doc(64, _gate(63, "[0, 62]"), _gate(0, "[63]", "ry", 0.5), _gate(64, "[0]", "ry", 1.5)),
    # the bound is checked only once every gate has passed
    _doc(2, _gate(5), "7"),
    _doc(2, _gate(5), _gate(0, "[0]")),
    _doc(2, _gate(0, "[9]"), _gate(0, "[]", "ry")),
    _doc(2, _gate(5), _gate(7)),
    _doc(2, _gate(0), _gate(1, "[4, 3]"), _gate(6), _gate(1, "[0]")),
    _doc(0, _gate(0)),
    _doc(0, _gate(0, "[0]")),
    _doc(-1, _gate(0), "{}"),
    _doc(0),
    _doc(1),
    _doc(64),
    _doc(65),
    _doc("1.0", _gate(0)),
    _doc("true"),
    '{"n_qubits": 2, "gates": {}}',
    '{"n_qubits": 2}',
    # the layout that to_json writes, but for one detail that the compiled
    # reader declines, or refuses as json does: indices with a leading zero,
    # and n_qubits past its range
    _doc(3, _gate("01")),
    _doc(3, _gate(2, "[00]")),
    _doc(3, _gate(2, "[0, 01]", "ry", 0.5)),
    _doc("01", _gate(0)),
    _doc(65, _gate(0, "[1]")),
    _doc(65, _gate(64, "[63]", "ry", 0.5)),
    # angles that json reads as ints, refuses, or reads as floats of every
    # spelling, finite or not
    *(
        _doc(3, _gate(2, "[0, 1]"), _gate(0, "[1]", "ry", angle), _gate(1))
        for angle in ("1", "1.", "-0.0", "1E5", "1e+05", "1e-400", "1e400", "NaN", "Infinity")
    ),
    # controls unsorted, repeated or on the target; a target or a control at n
    _doc(4, _gate(3), _gate(0, "[2, 1]", "ry", 0.5)),
    _doc(4, _gate(3), _gate(0, "[1, 1]", "ry", 0.5)),
    _doc(4, _gate(3), _gate(2, "[0, 2]", "ry", 0.5)),
    _doc(4, _gate(3), _gate(4, "[0]", "ry", 0.5)),
    _doc(4, _gate(3), _gate(0, "[1, 4]")),
    # whitespace before and after the document, and trailing garbage
    " " + _doc(2, _gate(0, "[1]")),
    _doc(2, _gate(0, "[1]")) + "\n \t",
    _doc(2, _gate(0, "[1]")) + "\r\n",
    _doc(2, _gate(0, "[1]")) + "\x0b",
    _doc(2, _gate(0, "[1]")) + "\n}",
    _doc(2, _gate(0, "[1]")) + "x",
    _doc(2, _gate(0, "[1]"))[:-1],
    # keys reordered or added, in the header and in a gate
    '{"gates": [' + _gate(0, "[1]") + '], "n_qubits": 2}',
    _doc(2, '{"kind": "x", "controls": [1], "target": 0}'),
    _doc(2, '{"kind": "ry", "target": 0, "angle": 0.5, "controls": [1]}'),
    _doc(2, _gate(0, "[1]"))[:-1] + ', "extra": 1}',
    _doc(2, '{"kind": "x", "target": 0, "controls": [1], "extra": 1}'),
    # a string value that is not ASCII, and one spelled with an escape
    _doc(2, _gate(1), '{"kind": "x\u00e9", "target": 0, "controls": [1]}'),
    _doc(2, _gate(1), '{"kind": "\\u0078", "target": 0, "controls": [1]}'),
    # no gates, then whitespace
    _doc(3) + "\n",
]


def synthesized_texts(n):
    """The JSON of the circuits that synthesis makes, pruned and not, for a
    seeded state of n qubits with about 30% zero amplitudes."""
    rng = np.random.default_rng(700 + n)
    vec = rng.normal(size=1 << n)
    vec[rng.random(size=vec.size) < 0.3] = 0.0
    vec[0] = 1.0
    state = normalize(vec.tolist())
    return [synth(state, prune=prune)[0].to_json() for prune in (False, True)]


@pytest.mark.parametrize("text", PARITY_DOCS)
def test_from_json_reads_as_reference(text, build):
    assert_reads_as_reference(text)


@pytest.mark.parametrize("circuit", TEXT_CIRCUITS)
def test_from_json_reads_text_circuits_as_reference(circuit, monkeypatch, build):
    text = circuit.to_json()
    assert_reads_as_reference(text)
    if circuit.n_qubits <= 64:
        assert_reads_into_columns(monkeypatch, text)


@pytest.mark.parametrize("n", range(1, 9))
def test_from_json_reads_synthesized_circuits_as_reference(n, monkeypatch, build):
    for text in synthesized_texts(n):
        assert_reads_as_reference(text)
        assert_reads_into_columns(monkeypatch, text)


def reads_as_parsed(read, text):
    """Whether read, ``circuit_columns``, read columns from text; if it did,
    they are n_qubits and the four columns, as bytes, that ``parse``,
    ``header`` and ``_read_rows`` give for text, compared bit for bit, so
    that -0.0 counts."""
    got = read(text)
    if got is None:
        return False
    n, docs = header(parse(text, "circuit JSON"), "circuit JSON", "gates")
    expect = circuits._read_rows(n, docs)
    assert expect is not None
    assert got == (n, *(column.tobytes() for column in expect))
    return True


@pytest.mark.parametrize("circuit", [c for c in TEXT_CIRCUITS if c.n_qubits <= 64])
def test_reader_reads_what_to_json_writes(simkernel, circuit):
    text = circuit.to_json()
    for ending in ("", "\n", " \r\n\t"):
        assert reads_as_parsed(simkernel.circuit_columns, text + ending)
    # only a str is read
    assert simkernel.circuit_columns(text.encode()) is None


@pytest.mark.parametrize("n", range(1, 11))
def test_reader_reads_what_synthesis_writes(simkernel, n):
    for text in synthesized_texts(n):
        for ending in ("", "\n"):
            assert reads_as_parsed(simkernel.circuit_columns, text + ending)


@pytest.mark.parametrize("text", PARITY_DOCS)
def test_reader_reads_only_what_json_reads_alike(simkernel, text):
    reads_as_parsed(simkernel.circuit_columns, text)


@pytest.mark.parametrize(
    "text",
    [
        _doc(3, _gate(0, f"[{BIG}]")),
        _doc(3, _gate(BIG, f"[1, {BIG - 1}]", "ry", 1.0)),
        _doc(BIG, _gate(BIG - 1, f"[{BIG - 2}]")),
        # the layout that to_json writes, with a 13-digit index
        _doc(64, _gate(63, "[0, 62]"), _gate(BIG + 1, "[0]", "ry", 0.5)),
    ],
)
def test_no_document_index_sizes_an_allocation(text, build):
    """An index of 10**12 is compared, never shifted into a mask: reading
    the document, and asking its circuit for columns, stays within 1 MiB."""
    tracemalloc.start()
    try:
        circuit = _read(Circuit.from_json, text)
        if type(circuit) is Circuit:
            with pytest.raises(DomainError, match="has no columns"):
                circuit.columns
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_max_controls_counts_every_bit():
    rng = np.random.default_rng(64)
    masks = rng.integers(0, 2**64, 2000, dtype=np.uint64, endpoint=False)
    masks[:4] = [0, 1, 2**63, 2**64 - 1]
    for mask in (masks, masks[4:], masks[:1], masks[:0]):
        expect = max((bin(m).count("1") for m in mask.tolist()), default=0)
        assert circuits._max_controls(mask) == expect
    # past 64 qubits the rows hold each gate's controls as a tuple
    wide = Circuit(10**12, (x(0), ry(0.5, 3, (1, 5, 10**11)), x(64, range(64))))._rows()[2]
    assert wide.dtype == object and wide.tolist()[:2] == [(), (1, 5, 10**11)]
    for controls, expect in ((wide, 64), (wide[:2], 3), (wide[:1], 0), (wide[:0], 0)):
        assert circuits._max_controls(controls) == expect
    assert circuits._max_controls(Circuit(65)._rows()[2]) == 0
