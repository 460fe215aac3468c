"""Statevector type, normalization, and the spherical-angle codec."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ryprep import AngleList, RealState, from_angles, max_abs_diff, normalize, to_angles
from ryprep.errors import AllZeroInput, DomainError, FormatError, NotPowerOfTwo

TWO_PI = 2.0 * math.pi

# frozen from an extended-precision (60-digit) reference computation:
# [0,128,192,255] has squared norm 118273 exactly
PIXEL_AMPS = (0.0, 0.37219211070445407, 0.5582881660566811, 0.7414764705440295)
PIXEL_ANGLES = (3.141592653589793, 2.3788532585982702, 1.85083104193463)

# normalize([1..8]), squared norm 204 exactly
V8_AMPS = (
    0.07001400420140048,
    0.14002800840280097,
    0.21004201260420147,
    0.28005601680560194,
    0.35007002100700246,
    0.42008402520840293,
    0.4900980294098034,
    0.5601120336112039,
)
V8_ANGLES = (
    3.0014499901232594,
    2.8599174318688743,
    2.7129908751242504,
    2.552740857952141,
    2.3640558261012616,
    2.1138801018760933,
    1.7039326543465443,
)

# normalize([1,-2,3,-4]): exercises every sign case including the negative last angle
SIGNED_AMPS = (
    0.18257418583505536,
    -0.3651483716701107,
    0.5477225575051661,
    -0.7302967433402214,
)
SIGNED_ANGLES = (2.774384633031956, 3.902605407814523, -1.8545904360032244)


class TestNormalize:
    def test_worked_pixel_example(self):
        state = normalize([0, 128, 192, 255])
        assert state.n_qubits == 2
        assert_allclose(state.amplitudes, PIXEL_AMPS, rtol=0, atol=1e-15)

    def test_one_over_204_example(self):
        assert_allclose(normalize(range(1, 9)).amplitudes, V8_AMPS, rtol=0, atol=1e-15)

    def test_exact_small_cases(self):
        assert normalize([1, 0]).amplitudes == (1.0, 0.0)
        assert normalize([3, 4, 0, 0]).amplitudes == (0.6, 0.8, 0.0, 0.0)

    def test_signed(self):
        assert_allclose(normalize([1, -2, 3, -4]).amplitudes, SIGNED_AMPS, rtol=0, atol=1e-16)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroInput):
            normalize([0.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("length", [0, 1, 3, 5, 6, 7, 9, 1000])
    def test_non_power_of_two_rejected(self, length):
        with pytest.raises(NotPowerOfTwo):
            normalize([1.0] * length)

    def test_unit_norm_within_tolerance(self):
        rng = np.random.default_rng(1234)
        for n in range(1, 11):
            vec = rng.normal(size=1 << n)
            total = math.fsum(a * a for a in normalize(vec.tolist()).amplitudes)
            assert abs(total - 1.0) <= 1e-12


class TestRealState:
    def test_rejects_wrong_length(self):
        with pytest.raises(DomainError):
            RealState(2, (1.0, 0.0))

    def test_rejects_non_unit_norm(self):
        with pytest.raises(DomainError):
            RealState(1, (0.5, 0.5))

    def test_rejects_negative_qubits(self):
        with pytest.raises(DomainError):
            RealState(-1, (1.0,))

    @pytest.mark.parametrize("n_qubits", [True, 1.0])
    def test_rejects_non_int_qubits(self, n_qubits):
        with pytest.raises(DomainError):
            RealState(n_qubits, (0.0, 1.0))

    def test_huge_qubit_count_rejected_without_allocating(self):
        # 1 << n would need about 2**61 bytes
        with pytest.raises(DomainError):
            RealState(1 << 64, (0.0, 1.0))

    def test_amplitude_past_float_range_is_domain_error(self):
        with pytest.raises(DomainError):
            RealState(1, (10**400, 0.0))
        with pytest.raises(DomainError):
            normalize([10**400, 1])

    def test_zero_qubit_state_is_legal(self):
        assert RealState(0, (-1.0,)).amplitudes == (-1.0,)

    def test_json_round_trip_is_exact(self):
        state = normalize([0, 128, 192, 255])
        again = RealState.from_json(state.to_json())
        assert again.n_qubits == state.n_qubits
        assert again.amplitudes == state.amplitudes

    def test_json_key_order(self):
        assert normalize([1, 0]).to_json() == '{"n_qubits": 1, "amplitudes": [1.0, 0.0]}'

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 0]",
            '{"amplitudes": [1.0, 0.0]}',
            '{"n_qubits": "1", "amplitudes": [1.0, 0.0]}',
            '{"n_qubits": true, "amplitudes": [0.0, 1.0]}',
            '{"n_qubits": 1, "amplitudes": [true, 0]}',
            '{"n_qubits": 1, "amplitudes": [1%s, 0]}' % ("0" * 400),
            '{"n_qubits": 1, "amplitudes": [1%s, 0]}' % ("0" * 5000),
            '{"n_qubits": 1, "amplitudes": %s}' % ("[" * 100_000),
        ],
    )
    def test_from_json_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            RealState.from_json(text)


class TestAngleList:
    def test_length_must_be_pow2_minus_1(self):
        for bad in (0, 2, 4, 5, 6, 8):
            with pytest.raises(DomainError):
                AngleList((0.5,) * bad)
        for good in (1, 3, 7, 15):
            assert AngleList((0.5,) * good).n_qubits == (good + 1).bit_length() - 1

    def test_range_enforcement(self):
        AngleList((TWO_PI, 0.0, -TWO_PI + 1e-9))
        with pytest.raises(DomainError):
            AngleList((-0.1, 0.0, 0.0))
        with pytest.raises(DomainError):
            AngleList((TWO_PI + 0.1, 0.0, 0.0))
        with pytest.raises(DomainError):
            AngleList((0.0, 0.0, -TWO_PI))
        with pytest.raises(DomainError):
            AngleList((0.0, 0.0, math.nan))


class TestToAngles:
    def test_basis_pairs(self):
        assert to_angles(RealState(1, (1.0, 0.0))).angles == (0.0,)
        assert to_angles(RealState(1, (0.0, 1.0))).angles == (math.pi,)

    def test_worked_pixel_example(self):
        angles = to_angles(normalize([0, 128, 192, 255]))
        assert_allclose(angles.angles, PIXEL_ANGLES, rtol=0, atol=1e-14)

    def test_v8_example(self):
        assert_allclose(to_angles(normalize(range(1, 9))).angles, V8_ANGLES, rtol=0, atol=1e-14)

    def test_signed_example(self):
        angles = to_angles(normalize([1, -2, 3, -4]))
        assert_allclose(angles.angles, SIGNED_ANGLES, rtol=0, atol=1e-14)
        assert angles.angles[-1] < 0.0

    def test_zero_tail_gives_exact_zero_angles(self):
        state = RealState(3, (0.6, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        angles = to_angles(state).angles
        assert angles[1:] == (0.0,) * 6

    def test_negative_zero_tail_is_canonicalized(self):
        # atan2(0.0, -0.0) is pi, so a sign-carrying zero must not leak through
        state = RealState(2, (0.6, 0.8, -0.0, -0.0))
        assert to_angles(state).angles[1:] == (0.0, 0.0)

    def test_nonnegative_states_use_first_quadrant(self):
        rng = np.random.default_rng(99)
        for n in range(1, 8):
            state = normalize(np.abs(rng.normal(size=1 << n)).tolist())
            for a in to_angles(state).angles:
                assert 0.0 <= a <= math.pi + 1e-15

    def test_rejects_zero_qubit_state(self):
        with pytest.raises(DomainError):
            to_angles(RealState(0, (1.0,)))


class TestFromAngles:
    def test_single_zero(self):
        assert from_angles(AngleList((0.0,))).amplitudes == (1.0, 0.0)

    def test_all_pi_hits_last_basis_state(self):
        state = from_angles(AngleList((math.pi,) * 3))
        assert_allclose(state.amplitudes, (0.0, 0.0, 0.0, 1.0), rtol=0, atol=1e-12)

    def test_expands_worked_example(self):
        state = from_angles(AngleList(PIXEL_ANGLES))
        assert_allclose(state.amplitudes, PIXEL_AMPS, rtol=0, atol=1e-14)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=TWO_PI), min_size=6, max_size=6),
        st.floats(min_value=-TWO_PI + 1e-12, max_value=TWO_PI),
    )
    @settings(max_examples=200, deadline=None)
    def test_output_is_unit_norm(self, firsts, last):
        state = from_angles(AngleList(tuple(firsts) + (last,)))
        assert abs(math.fsum(a * a for a in state.amplitudes) - 1.0) <= 1e-12


class TestRoundTrip:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_random_states(self, n):
        rng = np.random.default_rng(42 + n)
        for trial in range(30):
            vec = rng.normal(size=1 << n)
            if trial % 3 == 1:
                vec = np.abs(vec)
            if trial % 3 == 2:
                vec[rng.random(size=vec.size) < 0.5] = 0.0
                if not vec.any():
                    vec[0] = 1.0
            state = normalize(vec.tolist())
            assert max_abs_diff(from_angles(to_angles(state)), state) <= 1e-12

    def test_degenerate_tails(self):
        for n in range(1, 9):
            size = 1 << n
            for keep in range(1, size):
                amps = [0.0] * size
                amps[keep - 1] = 1.0
                state = RealState(n, tuple(amps))
                assert max_abs_diff(from_angles(to_angles(state)), state) <= 1e-12

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_property_random(self, n, seed):
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=1 << n)
        state = normalize(vec.tolist())
        assert max_abs_diff(from_angles(to_angles(state)), state) <= 1e-12
