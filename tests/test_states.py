"""Statevector type, normalization, and the spherical-angle codec."""

import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import reference_states
from ryprep import (
    AngleList,
    GrayImage,
    RealState,
    encode,
    from_angles,
    max_abs_diff,
    normalize,
    to_angles,
)
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

    @given(
        st.sampled_from([2, 4, 8, 16, 64]).flatmap(
            lambda k: st.lists(
                st.floats(-1e150, 1e150).filter(lambda v: v == 0.0 or abs(v) >= 1e-150),
                min_size=k,
                max_size=k,
            )
        )
        | st.lists(st.integers(-65535, 65535), min_size=8, max_size=8)
    )
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_matches_reference_bit_for_bit(self, values):
        # squares and their sum stay in the normal range: the plain division
        if not any(values):
            return
        got = normalize(values).amplitudes
        assert list(map(float.hex, got)) == list(map(float.hex, reference_states.normalize(values)))

    @pytest.mark.parametrize(
        "values,expect",
        [
            ([3 * 2.0**-600, 4 * 2.0**-600], (0.6, 0.8)),  # squares underflow to zero
            # subnormal sum: the plain formula gives 1.0000000000000016
            ([1e-155, 0.0], (1.0, 0.0)),
        ],
    )
    def test_underflowing_squares_are_rescaled_exactly(self, values, expect):
        assert normalize(values).amplitudes == expect

    def test_overflowing_squares_are_rescaled_exactly(self):
        assert normalize([2.0**600, 2.0**600]) == normalize([1, 1])

    @pytest.mark.parametrize(
        "values,expect",
        [
            ([1e-200, 1e-200], [math.sqrt(0.5)] * 2),  # squares underflow to zero
            ([1e200, 1e200], [math.sqrt(0.5)] * 2),  # squares overflow to inf
            ([3e-162, 4e-162], [0.6, 0.8]),  # squares and their sum are subnormal
            ([1.3e154, 1.3e154], [math.sqrt(0.5)] * 2),  # finite squares, fsum overflows
            ([1e300, 1.0, 0.0, -1e300], [math.sqrt(0.5), 0.0, 0.0, -math.sqrt(0.5)]),
            ([5e-324, 0.0], [1.0, 0.0]),
            ([1e-155, 0.0], [1.0, 0.0]),
        ],
    )
    def test_squares_outside_the_normal_range(self, values, expect):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = normalize(values)
        assert_allclose(state.amplitudes, expect, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "values", [["3", "4"], [None, 1.0], [np.True_, np.False_], [True, 1.0], [b"3", 4.0]]
    )
    def test_non_reals_rejected(self, values):
        with pytest.raises(DomainError):
            normalize(values)

    def test_real_numbers_become_floats(self):
        state = normalize([Fraction(3), np.float32(4), np.int64(0), 0])
        assert state.amplitudes == (0.6, 0.8, 0.0, 0.0)
        assert {type(a) for a in state.amplitudes} == {float}

    @pytest.mark.parametrize("values", [[math.inf, 1.0], [math.nan, 1.0], [1e200, math.inf]])
    def test_inf_and_nan_stay_domain_errors_without_warnings(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="sum of squares = nan$"):
                normalize(values)


def _json_states():
    rng = np.random.default_rng(8)
    image8 = GrayImage(21, 30, tuple(rng.integers(0, 256, size=630).tolist()), 255)
    image16 = GrayImage(40, 50, tuple(rng.integers(0, 65536, size=2000).tolist()), 65535)
    distinct = rng.normal(size=256)

    class Count(int):
        def __repr__(self):
            return f"Count({int(self)})"

        __str__ = __repr__

    return {
        "8-bit image": encode(image8),
        "16-bit image": encode(image16),
        "all distinct": RealState(8, tuple((distinct / math.sqrt(distinct @ distinct)).tolist())),
        "signed zeros": RealState(3, (0.0, -0.0, 0.6, -0.0, 0.0, -0.8, -0.0, 0.0)),
        "smallest subnormal": RealState(1, (5e-324, 1.0)),
        "no qubits": RealState(0, (-1.0,)),
        "int subclass": RealState(Count(2), (0.5, -0.5, 0.5, -0.5)),
    }


JSON_STATES = _json_states()


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

    @pytest.mark.parametrize("n_qubits", [np.int64(1), np.uint8(1), type("Count", (int,), {})(1)])
    def test_integer_like_qubits_become_ints(self, n_qubits):
        state = RealState(n_qubits, (0.6, 0.8))
        assert type(state.n_qubits) is int and state == RealState(1, (0.6, 0.8))

    @pytest.mark.parametrize(
        "amplitudes",
        [("1", "0"), (b"1", b"0"), (True, False), (None, 1.0), (Decimal(1), 0.0), (np.True_, 0.0)],
    )
    def test_rejects_non_real_amplitudes(self, amplitudes):
        with pytest.raises(DomainError):
            RealState(1, amplitudes)

    def test_real_amplitudes_become_floats(self):
        state = RealState(2, (np.float32(0.5), Fraction(1, 2), np.float64(-0.5), Fraction(-1, 2)))
        assert state.amplitudes == (0.5, 0.5, -0.5, -0.5)
        assert {type(a) for a in state.amplitudes} == {float}

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

    @pytest.mark.parametrize("name", JSON_STATES)
    def test_to_json_matches_json_dumps(self, name):
        state = JSON_STATES[name]
        assert state.to_json() == reference_states.to_json(state)

    def test_sum_of_squares_past_float_range_is_domain_error(self):
        # each square is finite, their sum is not: fsum raises OverflowError
        with pytest.raises(DomainError, match="sum of squares = inf$"):
            RealState(1, (1.3e154, 1.3e154))

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

    @pytest.mark.parametrize(
        "angle", ["1.5", True, None, pytest.param(10**400, id="10**400"), Decimal("1.5")]
    )
    def test_rejects_non_real_angles(self, angle):
        with pytest.raises(DomainError):
            AngleList((angle,))

    def test_real_angles_become_floats(self):
        angles = AngleList((np.float32(0.5), Fraction(1, 2), 1)).angles
        assert angles == (0.5, 0.5, 1.0) and {type(a) for a in angles} == {float}

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

    @pytest.mark.parametrize(
        "amps", [(-1.0, -0.0), (-1.0, -1e-300), (0.6, 0.0, -0.8, -0.0), (0.0, -0.0, -1.0, -0.0)]
    )
    def test_final_angle_at_minus_2pi_becomes_2pi(self, amps):
        # atan2(-0.0, -1.0) is -pi, and -2*pi lies outside the last angle's range
        state = RealState(len(amps).bit_length() - 1, amps)
        angles = to_angles(state).angles
        assert angles[-1] == TWO_PI
        assert max_abs_diff(from_angles(AngleList(angles)), state) <= 1e-15

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
