"""Simulator semantics against hand algebra and the dense-matrix oracle."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dense_oracle import circuit_matrix, gate_matrix, run_dense
from ryprep import Circuit, RealState, apply_gate, max_abs_diff, normalize, run, ry, x
from ryprep.errors import DimensionMismatch, DomainError, IndexOutOfRange


def test_ry_pi_flips_one_qubit():
    state = apply_gate(RealState(1, (1.0, 0.0)), ry(math.pi, 0))
    assert_allclose(state.amplitudes, (0.0, 1.0), rtol=0, atol=1e-15)


def test_ry_half_angle_convention():
    theta = 0.77
    state = apply_gate(RealState(1, (1.0, 0.0)), ry(theta, 0))
    assert state.amplitudes == (math.cos(theta / 2), math.sin(theta / 2))


def test_apply_gate_leaves_input_untouched():
    before = RealState(1, (1.0, 0.0))
    apply_gate(before, ry(1.0, 0))
    assert before.amplitudes == (1.0, 0.0)


def test_apply_gate_range_checked():
    with pytest.raises(IndexOutOfRange):
        apply_gate(RealState(1, (1.0, 0.0)), ry(1.0, 1))
    with pytest.raises(IndexOutOfRange):
        apply_gate(RealState(2, (1.0, 0.0, 0.0, 0.0)), x(0, (3,)))


def test_controlled_ry_matrix_on_control0_target1():
    # acts on indices 1 and 3 only: the pair where qubit 0 (low bit) is set
    theta2 = 1.1
    c, s = math.cos(theta2 / 2), math.sin(theta2 / 2)
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, c, 0, s],
            [0, 0, 1, 0],
            [0, -s, 0, c],
        ]
    )
    assert_allclose(gate_matrix(ry(-theta2, 1, (0,)), 2), expected, rtol=0, atol=1e-15)


def test_controlled_ry_matrix_on_control1_target0():
    theta3 = 0.6
    h = math.pi / 2 + theta3 / 2
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, math.cos(h), -math.sin(h)],
            [0, 0, math.sin(h), math.cos(h)],
        ]
    )
    assert_allclose(gate_matrix(ry(math.pi + theta3, 0, (1,)), 2), expected, rtol=0, atol=1e-15)


def test_two_qubit_preparation_stages():
    theta1, theta2, theta3 = 0.7, 1.1, 0.6
    c1, s1 = math.cos(theta1 / 2), math.sin(theta1 / 2)
    c2, s2 = math.cos(theta2 / 2), math.sin(theta2 / 2)
    c3, s3 = math.cos(theta3 / 2), math.sin(theta3 / 2)
    state = run(Circuit(2, (ry(theta1, 0),)))
    assert_allclose(state.amplitudes, (c1, s1, 0, 0), rtol=0, atol=1e-15)
    state = apply_gate(state, ry(-theta2, 1, (0,)))
    assert_allclose(state.amplitudes, (c1, s1 * c2, 0, -s1 * s2), rtol=0, atol=1e-15)
    state = apply_gate(state, ry(math.pi + theta3, 0, (1,)))
    assert_allclose(state.amplitudes, (c1, s1 * c2, s1 * s2 * c3, s1 * s2 * s3), rtol=0, atol=1e-15)


def test_run_empty_circuit():
    assert run(Circuit(3)).amplitudes == (1.0,) + (0.0,) * 7


@pytest.mark.parametrize("n_qubits", [40, 70])
def test_run_refuses_oversized_register(n_qubits):
    # 40 qubits would need 8 TiB; the cap must act before the allocation
    with pytest.raises(DomainError, match="at most 26"):
        run(Circuit(n_qubits))


def test_run_x_permutes_basis():
    # |000> -> |101>
    state = run(Circuit(3, (x(0), x(2, (0,)))))
    assert state.amplitudes.index(1.0) == 0b101


def test_ry_inverse_within_tolerance():
    rng = np.random.default_rng(5)
    state = normalize(rng.normal(size=8).tolist())
    theta = 2.345
    there = apply_gate(state, ry(theta, 1, (0,)))
    back = apply_gate(there, ry(-theta, 1, (0,)))
    assert max_abs_diff(back, state) <= 1e-12


def test_norm_preserved_over_long_random_circuit():
    rng = np.random.default_rng(6)
    gates = []
    for _ in range(500):
        target = int(rng.integers(4))
        controls = tuple(q for q in range(4) if q != target and rng.random() < 0.4)
        if rng.random() < 0.5:
            gates.append(ry(float(rng.uniform(-2 * math.pi, 2 * math.pi)), target, controls))
        else:
            gates.append(x(target, controls))
    state = run(Circuit(4, tuple(gates)))
    assert abs(math.fsum(a * a for a in state.amplitudes) - 1.0) <= 1e-12


def test_pairwise_updates_match_dense_oracle():
    rng = np.random.default_rng(7)
    for n in range(1, 5):
        for _ in range(10):
            gates = []
            for _ in range(int(rng.integers(1, 21))):
                target = int(rng.integers(n))
                controls = tuple(q for q in range(n) if q != target and rng.random() < 0.5)
                if rng.random() < 0.5:
                    gates.append(ry(float(rng.uniform(-2 * math.pi, 2 * math.pi)), target, controls))
                else:
                    gates.append(x(target, controls))
            circuit = Circuit(n, tuple(gates))
            assert_allclose(run(circuit).amplitudes, run_dense(circuit), rtol=0, atol=1e-12)


def test_gate_operators_are_orthogonal():
    for gate in (ry(1.3, 0), ry(-0.4, 2, (0, 1)), x(1, (2,)), x(0)):
        u = gate_matrix(gate, 3)
        assert_allclose(u.T @ u, np.eye(8), rtol=0, atol=1e-14)
    u = circuit_matrix(Circuit(3, (ry(0.3, 0), x(1, (0,)), ry(2.2, 2, (0, 1)))))
    assert_allclose(u.T @ u, np.eye(8), rtol=0, atol=1e-14)


def test_max_abs_diff_is_the_largest_difference_bit_for_bit():
    rng = np.random.default_rng(41)
    for n in (1, 3, 10):
        a, b = (normalize(rng.normal(size=1 << n).tolist()) for _ in range(2))
        got = max_abs_diff(a, b)
        assert type(got) is float
        assert got == max(abs(p - q) for p, q in zip(a.amplitudes, b.amplitudes))
    zero = max_abs_diff(RealState(1, (0.0, 1.0)), RealState(1, (-0.0, 1.0)))
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0


def test_run_and_apply_gate_give_read_only_states():
    state = run(Circuit(2, (ry(0.3, 0), x(1, (0,)))))
    again = apply_gate(state, ry(1.1, 1))
    for s in (state, again):
        assert s.array.dtype == np.float64 and not s.array.flags.writeable
    assert state == run(Circuit(2, (ry(0.3, 0), x(1, (0,)))))


def test_max_abs_diff():
    a = RealState(1, (1.0, 0.0))
    b = RealState(1, (0.0, 1.0))
    assert max_abs_diff(a, a) == 0.0
    assert max_abs_diff(a, b) == 1.0
    with pytest.raises(DimensionMismatch):
        max_abs_diff(a, RealState(2, (1.0, 0.0, 0.0, 0.0)))
