"""Gate and circuit value semantics, validation, and JSON round-trips."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_circuits
from reference_circuits import ReferenceGate
from ryprep import Circuit, Gate, export_qasm, ry, x
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
