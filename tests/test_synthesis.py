"""Synthesis structure, gate counts, pruning, and preparation correctness."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import count_gates
from reference_synth import emit_lifted
from ryprep import (
    AngleList,
    Circuit,
    RealState,
    from_angles,
    max_abs_diff,
    normalize,
    prune,
    run,
    ry,
    synth,
    synth_1q,
    synth_2q,
    synth_angles,
    to_angles,
    x,
)
from ryprep import synthesis
from ryprep.errors import DomainError
from ryprep.synthesis import unpruned_gate_count

PI = math.pi

EXPECTED_COUNTS = {1: 1, 2: 3, 3: 9, 4: 22, 5: 49, 6: 104, 7: 215, 8: 438, 9: 885, 10: 1780}


def random_angles(rng, n):
    firsts = rng.uniform(0.0, 2 * PI, size=(1 << n) - 2)
    last = rng.uniform(-2 * PI + 1e-9, 2 * PI)
    return AngleList(tuple(firsts) + (float(last),))


class TestBaseCases:
    def test_synth_1q_structure(self):
        c = synth_1q(0.4)
        assert c.n_qubits == 1 and c.gate_count == 1
        g = c.gates[0]
        assert (g.kind, g.target, g.controls, g.angle) == ("ry", 0, (), 0.4)

    @pytest.mark.parametrize(
        "theta,expect",
        [(0.0, (1.0, 0.0)), (PI, (0.0, 1.0)), (PI / 2, (math.sqrt(0.5), math.sqrt(0.5)))],
    )
    def test_synth_1q_prepares(self, theta, expect):
        assert_allclose(run(synth_1q(theta)).amplitudes, expect, rtol=0, atol=1e-15)

    def test_synth_2q_structure(self):
        t1, t2, t3 = 0.7, 1.1, 0.6
        c = synth_2q(t1, t2, t3)
        assert c.n_qubits == 2
        kinds = [(g.kind, g.target, g.controls) for g in c.gates]
        assert kinds == [("ry", 0, ()), ("ry", 1, (0,)), ("ry", 0, (1,))]
        assert c.gates[0].angle == t1
        assert c.gates[1].angle == -t2
        assert c.gates[2].angle == PI + t3

    def test_synth_2q_prepares_product(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            t1, t2 = rng.uniform(0, 2 * PI, size=2)
            t3 = rng.uniform(-2 * PI, 2 * PI)
            c1, s1 = math.cos(t1 / 2), math.sin(t1 / 2)
            c2, s2 = math.cos(t2 / 2), math.sin(t2 / 2)
            c3, s3 = math.cos(t3 / 2), math.sin(t3 / 2)
            expect = (c1, s1 * c2, s1 * s2 * c3, s1 * s2 * s3)
            assert_allclose(run(synth_2q(t1, t2, t3)).amplitudes, expect, rtol=0, atol=1e-12)

    def test_synth_2q_zero_first_angle_parks_everything(self):
        state = run(synth_2q(0.0, 1.3, -2.1))
        assert_allclose(state.amplitudes, (1.0, 0.0, 0.0, 0.0), rtol=0, atol=1e-15)

    def test_synth_2q_worked_example(self):
        target = normalize([0, 128, 192, 255])
        angles = to_angles(target)
        circuit = synth_2q(*angles.angles)
        assert max_abs_diff(run(circuit), target) <= 1e-12


# A bad angle is refused as the rotation it becomes: synth_2q negates its
# second angle and adds pi to its third first, so a value with no negation
# or no sum fails there, with Python's own TypeError or OverflowError.
_FINITE = "ry needs a finite angle, got "
_TOO_LARGE = "ry angle is an integer too large for a float"
BAD_ANGLES = [
    ((math.nan,), DomainError, _FINITE + "nan"),
    ((math.inf,), DomainError, _FINITE + "inf"),
    ((-math.inf,), DomainError, _FINITE + "-inf"),
    ((1j,), DomainError, _FINITE + "1j"),
    (("a",), DomainError, _FINITE + "'a'"),
    ((None,), DomainError, _FINITE + "None"),
    ((True,), DomainError, _FINITE + "True"),
    ((2**1100,), DomainError, _TOO_LARGE),
    ((math.nan, 0.2, 0.3), DomainError, _FINITE + "nan"),
    ((0.1, math.nan, 0.3), DomainError, _FINITE + "nan"),
    ((0.1, 0.2, math.nan), DomainError, _FINITE + "nan"),
    ((math.inf, 0.2, 0.3), DomainError, _FINITE + "inf"),
    ((0.1, math.inf, 0.3), DomainError, _FINITE + "-inf"),
    ((0.1, -math.inf, 0.3), DomainError, _FINITE + "inf"),
    ((0.1, 0.2, math.inf), DomainError, _FINITE + "inf"),
    ((0.1, 0.2, -math.inf), DomainError, _FINITE + "-inf"),
    ((1j, 0.2, 0.3), DomainError, _FINITE + "1j"),
    ((0.1, 1j, 0.3), DomainError, _FINITE + "(-0-1j)"),
    ((0.1, 0.2, 1j), DomainError, _FINITE + "(3.141592653589793+1j)"),
    (("a", 0.2, 0.3), DomainError, _FINITE + "'a'"),
    ((0.1, "a", 0.3), TypeError, "bad operand type for unary -: 'str'"),
    ((0.1, 0.2, "a"), TypeError, "unsupported operand type(s) for +: 'float' and 'str'"),
    ((None, 0.2, 0.3), DomainError, _FINITE + "None"),
    ((0.1, None, 0.3), TypeError, "bad operand type for unary -: 'NoneType'"),
    ((0.1, 0.2, None), TypeError, "unsupported operand type(s) for +: 'float' and 'NoneType'"),
    ((True, 0.2, 0.3), DomainError, _FINITE + "True"),
    ((2**1100, 0.2, 0.3), DomainError, _TOO_LARGE),
    ((0.1, 2**1100, 0.3), DomainError, _TOO_LARGE),
    ((0.1, 0.2, 2**1100), OverflowError, "int too large to convert to float"),
    # the first bad rotation in gate order is named
    ((math.inf, math.nan, 0.3), DomainError, _FINITE + "inf"),
    ((0.1, math.nan, math.inf), DomainError, _FINITE + "nan"),
    ((math.nan, "a", 0.3), TypeError, "bad operand type for unary -: 'str'"),
]


@pytest.mark.parametrize("angles, error, message", BAD_ANGLES)
def test_bad_angle_refused(angles, error, message):
    call = synth_1q if len(angles) == 1 else synth_2q
    with pytest.raises(error) as info:
        call(*angles)
    assert type(info.value) is error and str(info.value) == message


def test_real_angles_become_the_rotations_they_name():
    """A bool or an int where the rule negates it or adds pi to it is a
    number there, as ``-True`` and ``math.pi + 1`` are."""
    assert [g.angle for g in synth_2q(0.1, True, 2).gates] == [0.1, -1.0, PI + 2]
    assert [g.angle for g in synth_2q(np.float64(0.5), 1, 0).gates] == [0.5, -1.0, PI]
    assert type(synth_1q(np.float64(0.25)).gates[0].angle) is float


class TestRecursion:
    def test_three_qubit_gate_sequence(self):
        angles = to_angles(normalize(range(1, 9)))
        circuit = synth_angles(angles)
        a = angles.angles
        shape = [(g.kind, g.target, g.controls) for g in circuit.gates]
        assert shape == [
            ("ry", 0, ()),
            ("ry", 1, (0,)),
            ("ry", 0, (1,)),
            ("ry", 2, (0, 1)),
            ("x", 0, (2,)),
            ("x", 1, (2,)),
            ("ry", 0, (2,)),
            ("ry", 1, (0, 2)),
            ("ry", 0, (1, 2)),
        ]
        got = [g.angle for g in circuit.gates if g.kind == "ry"]
        assert got == [a[0], -a[1], PI + a[2], a[3], a[4], -a[5], PI + a[6]]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_unpruned_gate_count(self, n):
        rng = np.random.default_rng(100 + n)
        state = normalize(rng.normal(size=1 << n).tolist())
        circuit, report = synth(state)
        assert circuit.gate_count == EXPECTED_COUNTS[n] == unpruned_gate_count(n)
        assert report.gate_count == EXPECTED_COUNTS[n]
        assert report.pruned_count == 0

    def test_count_recurrence(self):
        for n in range(3, 16):
            assert unpruned_gate_count(n) == 2 * unpruned_gate_count(n - 1) + n

    @pytest.mark.parametrize("n", [0, -1])
    def test_unpruned_gate_count_needs_a_qubit(self, n):
        with pytest.raises(DomainError, match=f"^n_qubits must be positive, got {n}$"):
            unpruned_gate_count(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_max_control_arity(self, n):
        rng = np.random.default_rng(200 + n)
        state = normalize(rng.normal(size=1 << n).tolist())
        circuit, report = synth(state)
        assert max(len(g.controls) for g in circuit.gates) == n - 1
        assert report.max_control_arity == n - 1

    def test_recursion_depth(self):
        for n, depth in [(1, 0), (2, 0), (3, 1), (4, 2), (7, 5)]:
            state = RealState(n, (1.0,) + (0.0,) * ((1 << n) - 1))
            _, report = synth(state)
            assert report.recursion_depth == depth

    def test_x_gate_count_is_recursive_load(self):
        # each split level contributes its qubit count minus one CNOTs
        angles = to_angles(normalize(range(1, 17)))
        circuit = synth_angles(angles)
        assert sum(1 for g in circuit.gates if g.kind == "x") == 3 + 2 * 2


class TestCorrectness:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_prepares_random_states(self, n):
        rng = np.random.default_rng(300 + n)
        for variant in range(3):
            vec = rng.normal(size=1 << n)
            if variant == 1:
                vec = np.abs(vec)
            if variant == 2:
                vec[rng.random(size=vec.size) < 0.4] = 0.0
                if not vec.any():
                    vec[0] = 1.0
            state = normalize(vec.tolist())
            circuit, _ = synth(state)
            assert max_abs_diff(run(circuit), state) <= 1e-9

    def test_arbitrary_angles_prepare_their_expansion(self):
        rng = np.random.default_rng(17)
        for n in range(1, 7):
            angles = random_angles(rng, n)
            assert max_abs_diff(run(synth_angles(angles)), from_angles(angles)) <= 1e-12

    def test_unpruned_basis_state_circuit_is_identity_on_zero(self):
        state = RealState(3, (1.0,) + (0.0,) * 7)
        circuit, _ = synth(state)
        assert circuit.gate_count == 9
        assert run(circuit).amplitudes == state.amplitudes


class TestPruning:
    def test_prune_drops_only_zero_rotations(self):
        circuit = Circuit(2, (ry(0.0, 0), x(1, (0,)), ry(1e-13, 1), ry(2 * PI, 0)))
        pruned, removed = prune(circuit, 1e-12)
        assert removed == 2
        kinds = [(g.kind, g.angle) for g in pruned.gates]
        assert kinds == [("x", None), ("ry", 2 * PI)]

    def test_full_rotation_never_pruned(self):
        circuit = Circuit(1, (ry(2 * PI, 0),))
        pruned, removed = prune(circuit, 1e-6)
        assert removed == 0 and pruned.gate_count == 1

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
    def test_non_finite_or_negative_tol_rejected(self, tol):
        angles = to_angles(normalize(range(1, 9)))
        for prune_on in (True, False):
            with pytest.raises(DomainError):
                synth_angles(angles, prune=prune_on, prune_tol=tol)
        with pytest.raises(DomainError):
            synth(normalize(range(1, 9)), prune=True, prune_tol=tol)
        with pytest.raises(DomainError):
            prune(synth_angles(angles), tol)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
    def test_synth_refuses_tol_before_any_work(self, monkeypatch, tol):
        """A bad prune_tol is refused before the qubit cap is checked and
        before any angle is extracted, pruning on or off."""

        def reached(*args):
            raise AssertionError("reached before prune_tol was checked")

        monkeypatch.setattr(synthesis, "_check_qubits", reached)
        monkeypatch.setattr(synthesis, "to_angles", reached)
        for prune_on in (True, False):
            with pytest.raises(DomainError, match=f"^prune_tol must be finite .*, got {tol}$"):
                synth(normalize(range(1, 9)), prune=prune_on, prune_tol=tol)

    def test_prune_rejects_negative_tol(self):
        with pytest.raises(DomainError):
            prune(Circuit(1), -1e-9)

    def test_untouched_circuit_preserved(self):
        circuit, _ = synth(normalize([0, 128, 192, 255]))
        pruned, removed = prune(circuit, 1e-12)
        assert removed == 0
        assert pruned == circuit

    @pytest.mark.parametrize("n", range(1, 7))
    def test_basis_state_prunes_to_empty(self, n):
        state = RealState(n, (1.0,) + (0.0,) * ((1 << n) - 1))
        circuit, report = synth(state, prune=True)
        assert circuit.gate_count == 0
        assert report.pruned_count == unpruned_gate_count(n)

    def test_padding_tail_shrinks_circuit(self):
        state = normalize([5, 3, 2, 0, 0, 0, 0, 0])
        full, _ = synth(state)
        lean, report = synth(state, prune=True)
        assert lean.gate_count < full.gate_count
        assert report.gate_count + report.pruned_count == unpruned_gate_count(3)
        assert max_abs_diff(run(lean), state) <= 1e-12

    def test_pruned_and_unpruned_agree(self):
        rng = np.random.default_rng(23)
        for n in range(1, 9):
            vec = rng.normal(size=1 << n)
            vec[rng.random(size=vec.size) < 0.5] = 0.0
            if not vec.any():
                vec[0] = 1.0
            state = normalize(vec.tolist())
            full, _ = synth(state)
            lean, report = synth(state, prune=True)
            assert max_abs_diff(run(full), run(lean)) <= 1e-12
            assert report.gate_count + report.pruned_count == unpruned_gate_count(n)

    def test_report_json(self):
        _, report = synth(normalize([0, 128, 192, 255]), prune=True)
        assert report.to_json() == (
            '{"n_qubits": 2, "gate_count": 3, "pruned_count": 0, '
            '"max_control_arity": 1, "recursion_depth": 0}'
        )


class TestBuildOnce:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_gates_equal_lifted_reference(self, n):
        rng = np.random.default_rng(400 + n)
        for variant in range(3):
            vec = rng.normal(size=1 << n)
            if variant == 1:
                vec[rng.random(size=vec.size) < 0.5] = 0.0
            if variant == 2:
                # whole zero blocks: the upper half and the second eighth
                vec[vec.size // 2 :] = 0.0
                vec[vec.size // 8 : vec.size // 4] = 0.0
            if not vec.any():
                vec[0] = 1.0
            angles = to_angles(normalize(vec.tolist()))
            for prune_on in (False, True):
                got = synth_angles(angles, prune=prune_on).gates
                expect = emit_lifted(angles.angles, n, 1e-12 if prune_on else None)
                assert got == tuple(expect)
        random = random_angles(rng, n)
        assert synth_angles(random).gates == tuple(emit_lifted(random.angles, n))

    def test_each_gate_is_built_once(self, monkeypatch):
        """Synthesis builds no ``Gate``: the circuit holds its columns, and
        its gates are built once, on first read."""
        angles = random_angles(np.random.default_rng(29), 10)
        expect = tuple(emit_lifted(angles.angles, 10))
        built = count_gates(monkeypatch)
        circuit = synth_angles(angles)
        assert circuit.gate_count == EXPECTED_COUNTS[10] == 1780
        assert built == []
        assert circuit.gates == circuit.gates == expect
        assert len(built) == 1780

    def test_from_json_builds_each_gate_once(self, monkeypatch):
        circuit = synth_angles(random_angles(np.random.default_rng(31), 8))
        text = circuit.to_json()
        # the synthesized circuit's own gates, built before the count
        circuit.gates
        built = count_gates(monkeypatch)
        # the document is read into columns, which run takes as they are;
        # the gates are built on first read
        read = Circuit.from_json(text)
        assert run(read) == run(circuit)
        assert built == []
        assert read.gates == circuit.gates and read.gates == circuit.gates
        assert len(built) == circuit.gate_count == EXPECTED_COUNTS[8]
        assert read == circuit

    def test_synth_angles_builds_no_angle_tuple(self):
        """Synthesis reads the angles' float64 array as it is."""
        angles = to_angles(normalize(np.random.default_rng(37).normal(size=64).tolist()))
        circuit = synth_angles(angles, prune=True)
        assert "angles" not in vars(angles)
        assert circuit.gates == tuple(emit_lifted(angles.angles, 6, 1e-12))


class TestQubitCap:
    """Past simulator.MAX_QUBITS (26) a circuit is refused before it is built.
    The real size would need the memory the cap avoids, so the cap is
    lowered here instead."""

    def test_cap_is_the_simulators(self):
        from ryprep import simulator

        assert synthesis.MAX_QUBITS == simulator.MAX_QUBITS == 26

    def test_synth_angles_refuses_before_building(self, monkeypatch):
        def template(n):
            raise AssertionError("a template was built")

        angles = random_angles(np.random.default_rng(3), 4)
        monkeypatch.setattr(synthesis, "MAX_QUBITS", 3)
        monkeypatch.setattr(synthesis, "_template", template)
        message = "^cannot synthesize 4 qubits; the simulator holds at most 3$"
        with pytest.raises(DomainError, match=message):
            synth_angles(angles)

    def test_synth_refuses_before_extracting_angles(self, monkeypatch):
        def extract(state):
            raise AssertionError("the angles were extracted")

        state = normalize(list(range(1, 17)))
        monkeypatch.setattr(synthesis, "MAX_QUBITS", 3)
        monkeypatch.setattr(synthesis, "to_angles", extract)
        with pytest.raises(DomainError, match="^cannot synthesize 4 qubits"):
            synth(state)

    def test_cap_itself_is_allowed(self, monkeypatch):
        monkeypatch.setattr(synthesis, "MAX_QUBITS", 4)
        state = normalize(list(range(1, 17)))
        circuit, report = synth(state)
        assert report.n_qubits == 4 and max_abs_diff(run(circuit), state) <= 1e-12
