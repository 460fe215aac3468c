"""Statevector type, normalization, and the spherical-angle codec."""

import copy
import math
import pickle
import re
import warnings
from dataclasses import FrozenInstanceError
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
    states,
    to_angles,
)
from ryprep.errors import AllZeroInput, DomainError, FormatError, NotPowerOfTwo
from ryprep.tolerances import NORM_ATOL

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

    @pytest.mark.parametrize(
        "n_qubits,message",
        [
            (10**5000, "<16610-bit integer> qubits need 2**<16610-bit integer> amplitudes"),
            (-(10**5000), "got -<16610-bit integer>"),
        ],
        ids=["positive", "negative"],
    )
    def test_unprintable_qubit_count_is_named_by_size(self, n_qubits, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            RealState(n_qubits, (1.0,))

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


class TestArrayBackedState:
    AMPS = (0.0, -0.0, 0.6, -0.8)

    def test_amplitudes_read_as_a_tuple_of_floats(self):
        state = RealState(2, np.array(self.AMPS))
        assert type(state.amplitudes) is tuple and state.amplitudes == self.AMPS
        assert {type(a) for a in state.amplitudes} == {float}
        assert list(map(math.copysign, [1.0] * 4, state.amplitudes)) == [1.0, -1.0, 1.0, -1.0]
        assert state.amplitudes is state.amplitudes

    def test_array_and_tuple_give_one_value(self):
        from_array = RealState(2, np.array(self.AMPS))
        from_tuple = RealState(2, self.AMPS)
        assert from_array == from_tuple and hash(from_array) == hash(from_tuple)
        assert repr(from_array) == repr(from_tuple) == (
            "RealState(n_qubits=2, amplitudes=(0.0, -0.0, 0.6, -0.8))"
        )
        assert from_array != RealState(2, (0.0, 0.0, 0.8, -0.6))
        assert from_array != (2, self.AMPS)

    def test_backing_array_refuses_writes(self):
        for state in (RealState(2, np.array(self.AMPS)), RealState(2, self.AMPS)):
            assert state.array.dtype == np.float64 and not state.array.flags.writeable
            with pytest.raises(ValueError):
                state.array[0] = 1.0

    def test_later_write_to_callers_array_does_not_reach_the_state(self):
        amps = np.array(self.AMPS)
        state = RealState(2, amps)
        amps[:] = 0.5
        assert state.amplitudes == self.AMPS and state.array[3] == -0.8

    def test_fields_cannot_be_set_or_deleted(self):
        state = RealState(2, np.array(self.AMPS))
        for name in ("n_qubits", "amplitudes", "array", "other"):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(state, name, None)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(state, name)

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))]
    )
    def test_copies_are_equal_and_read_only(self, clone):
        state = RealState(2, np.array(self.AMPS))
        again = clone(state)
        assert again == state and not again.array.flags.writeable

    @pytest.mark.parametrize(
        "amplitudes,message",
        [
            (np.array([True, False]), "must be real numbers that fit a float: a bool is not"),
            (np.array([Decimal(1), Decimal(0)], dtype=object), "a Decimal is not a real number"),
            (np.array(["1", "0"], dtype=object), "a str is not a real number"),
            (np.array([[1.0, 0.0]]), "a ndarray is not a real number"),
            (np.array([np.nan, 1.0]), "not unit norm: sum of squares = nan"),
            (np.array([np.inf, 0.0]), "not unit norm: sum of squares = inf"),
            (np.array([1.3e154, 1.3e154]), "not unit norm: sum of squares = inf"),
            (np.array([1e200, 0.0]), "not unit norm: sum of squares = inf"),
            (np.array([0.6, 0.8], np.float32), "sum of squares = 1.0000000476837165"),
            (np.array([np.nan] + [0.0] * 255), "not unit norm: sum of squares = nan"),
            (np.array([1e200] + [0.0] * 255), "not unit norm: sum of squares = inf"),
            (np.array([1.3e154] * 2 + [0.0] * 254), "not unit norm: sum of squares = inf"),
            (np.array([0.5] * 256), "not unit norm: sum of squares = 64.0"),
        ],
        ids=[
            *["bool", "decimal", "str", "2-d", "nan", "inf", "sum-overflow", "square-overflow"],
            *["f4", "nan-256", "square-overflow-256", "sum-overflow-256", "too-long-256"],
        ],
    )
    def test_refused_arrays_raise_as_before(self, amplitudes, message):
        n = len(amplitudes).bit_length() - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^amplitudes .*{re.escape(message)}"):
                RealState(n, amplitudes)


def _near_edge(sum_minus_one):
    """[x, y] whose fsum of squares is 1 + sum_minus_one, to about 1e-28."""
    if sum_minus_one > 0:
        return [1.0, math.sqrt(sum_minus_one)]
    # (1 - k u)**2 = 1 - 2 k u + k**2 u**2; the last term is far below an ulp
    k = round(-sum_minus_one / 2**-52)
    return [1.0 - k * 2**-53, 0.0]


ULP = 2**-52  # the float spacing above 1.0; below 1.0 it is half that

# fsum gives 1 + m * ULP rounded to the float grid, and 1e-12 = 4503.6 ULP
NORM_EDGE = {
    "inside above": (4502.9 * ULP, True),
    "exact inside, rounded outside": (4503.55 * ULP, False),
    "outside above": (4504.2 * ULP, False),
    "inside below": (-9006 * ULP / 2, True),
    "outside below": (-9008 * ULP / 2, False),
}


class TestUnitNormEdge:
    @pytest.mark.parametrize("length", [2, 1 << 16])
    @pytest.mark.parametrize("name", NORM_EDGE)
    def test_decided_as_fsum_decides(self, name, length):
        offset, inside = NORM_EDGE[name]
        amps = _near_edge(offset) + [0.0] * (length - 2)
        norm_sq = math.fsum(a * a for a in amps)
        assert (abs(norm_sq - 1.0) <= NORM_ATOL) is inside
        n = length.bit_length() - 1
        for given in (np.array(amps), tuple(amps)):
            if inside:
                assert RealState(n, given).amplitudes == tuple(amps)
            else:
                with pytest.raises(DomainError, match=re.escape(f"sum of squares = {norm_sq!r}")):
                    RealState(n, given)

    def test_exact_sum_inside_but_fsum_outside_is_refused(self):
        # the exact sum lies within NORM_ATOL of 1; only its rounding does not
        x, y = _near_edge(NORM_EDGE["exact inside, rounded outside"][0])
        assert abs(Fraction(x * x) + Fraction(y * y) - 1) <= Fraction(NORM_ATOL)
        assert abs(math.fsum([x * x, y * y]) - 1.0) > NORM_ATOL
        with pytest.raises(DomainError, match="not unit norm"):
            RealState(1, np.array([x, y]))


class TestUnitNormPastTwoToThe22:
    """At 2**23 amplitudes (64 MB), n * eps of one longdouble sum would be past
    NORM_ATOL / 2; the blocked sum keeps the check in NumPy."""

    SIZE = 1 << 23

    def test_unit_vector_is_settled_without_fsum(self, monkeypatch):
        def fsum(squares):
            raise AssertionError("fsum called")

        monkeypatch.setattr(states, "_fsum", fsum)
        amps = np.random.default_rng(23).random(self.SIZE)
        amps /= math.sqrt((amps * amps).sum())
        states._check_unit(amps)

    def test_just_outside_is_refused_as_before(self):
        x, y = _near_edge(NORM_EDGE["outside above"][0])
        amps = np.zeros(self.SIZE)
        amps[:2] = x, y
        norm_sq = math.fsum([x * x, y * y])
        assert abs(norm_sq - 1.0) > NORM_ATOL
        message = f"amplitudes are not unit norm: sum of squares = {norm_sq!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            states._check_unit(amps)


class TestAngleList:
    def test_length_must_be_pow2_minus_1(self):
        for bad in (0, 2, 4, 5, 6, 8):
            with pytest.raises(DomainError):
                AngleList((0.5,) * bad)
        for good in (1, 3, 7, 15):
            angles = AngleList((0.5,) * good)
            assert angles.n_qubits == (good + 1).bit_length() - 1
            assert len(angles) == good

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


class TestAngleListValue:
    """An AngleList behaves as the frozen dataclass of one field, ``angles``."""

    ANGLES = (0.0, -0.0, TWO_PI, 0.5, 1.0, math.pi, -1.5)

    def test_tuple_and_array_give_one_value(self):
        from_tuple = AngleList(self.ANGLES)
        from_array = AngleList(angles=np.array(self.ANGLES))
        assert from_tuple == from_array and from_array == from_tuple
        assert not from_tuple != from_array and not from_array != from_tuple
        other = AngleList(self.ANGLES[:-1] + (1.5,))
        assert from_array != other and other != from_array
        assert from_array != self.ANGLES and from_array != (self.ANGLES,)
        assert hash(from_array) == hash(from_tuple) == hash((self.ANGLES,))
        assert repr(from_array) == repr(from_tuple) == (
            "AngleList(angles=(0.0, -0.0, 6.283185307179586, 0.5, 1.0, "
            "3.141592653589793, -1.5))"
        )

    def test_angles_read_as_a_tuple_of_floats(self):
        for given in (self.ANGLES, np.array(self.ANGLES), np.array([0.5, 0.25, 1.0], np.float32)):
            angles = AngleList(given).angles
            assert type(angles) is tuple and {type(a) for a in angles} == {float}
        angles = AngleList(np.array(self.ANGLES)).angles
        assert angles == self.ANGLES
        assert [math.copysign(1.0, a) for a in angles[:2]] == [1.0, -1.0]
        assert AngleList(angles=self.ANGLES).n_qubits == 3 and len(AngleList(self.ANGLES)) == 7

    def test_later_write_to_callers_array_does_not_reach_the_value(self):
        given = np.array(self.ANGLES)
        angles = AngleList(given)
        given[:] = 0.25
        assert angles == AngleList(self.ANGLES) and angles.angles == self.ANGLES

    def test_field_cannot_be_set_or_deleted(self):
        angles = AngleList(self.ANGLES)
        for name in ("angles", "other"):
            with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                setattr(angles, name, ())
            with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                delattr(angles, name)
        assert angles.angles == self.ANGLES

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))]
    )
    def test_copies_are_equal(self, clone):
        for given in (self.ANGLES, np.array(self.ANGLES)):
            angles = AngleList(given)
            again = clone(angles)
            assert again == angles and hash(again) == hash(angles)
            assert repr(again) == repr(angles) and again.angles == self.ANGLES

    @pytest.mark.parametrize(
        "angles,message",
        [
            ((0.5,) * 2, "angle count must be 2**n - 1 with n >= 1, got 2"),
            ((), "angle count must be 2**n - 1 with n >= 1, got 0"),
            ((math.nan, 0.0, 0.0), "angle nan outside [0, 2*pi]"),
            ((0.1, -0.5, 7.0), "angle -0.5 outside [0, 2*pi]"),
            ((0.1, 7.0, -0.5), "angle 7.0 outside [0, 2*pi]"),
            ((0.1, 0.2, -TWO_PI), "final angle -6.283185307179586 outside (-2*pi, 2*pi]"),
            ((0.1, 0.2, math.nan), "final angle nan outside (-2*pi, 2*pi]"),
            ((0.1, 0.2, math.inf), "final angle inf outside (-2*pi, 2*pi]"),
            (("0.5",), "angles must be real numbers that fit a float: a str is not a real number"),
        ],
    )
    def test_refusals_name_the_first_bad_angle(self, angles, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            AngleList(angles)
        if all(type(a) is float for a in angles):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                    AngleList(np.array(angles, np.float64))

    def test_refused_arrays_go_through_the_real_rule(self):
        for given, kind in [(np.array([True]), "bool"), (np.array([[0.5]]), "ndarray")]:
            message = f"angles must be real numbers that fit a float: a {kind} is not"
            with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
                AngleList(given)


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


def _angle_states():
    """Ten seeded states of each of four kinds for n = 1..12: dense; zero
    tails of either sign; half the amplitudes zero; and amplitudes whose
    squares underflow to zero, scattered and as a tail."""
    rng = np.random.default_rng(1515)
    for n in range(1, 13):
        size = 1 << n
        for _ in range(10):
            dense = rng.normal(size=size)
            yield "dense", normalize(dense.tolist())
            tail = dense.copy()
            tail[rng.integers(1, size) :] = 0.0
            tail[rng.random(size) < 0.5] *= -1.0
            yield "zero tail", normalize(tail.tolist())
            half = dense.copy()
            half[rng.permutation(size)[: size // 2]] = 0.0
            half[0] = 1.0
            yield "half zeros", normalize((half * rng.choice([-1.0, 1.0], size)).tolist())
            tiny = dense.copy()
            tiny[rng.random(size) < 0.3] *= 1e-170
            tiny[rng.integers(1, size) :] *= 1e-170
            yield "underflowing squares", normalize(tiny.tolist())


def _photo_state():
    """An n = 14 state of a smooth 128x128 image with grain."""
    rng = np.random.default_rng(14)
    y, x = np.mgrid[0:128, 0:128] / 127.0
    field = 0.6 * x + 0.3 * y + 0.2 * np.cos(7 * x + 3 * y) + 0.03 * rng.standard_normal((128, 128))
    pixels = np.clip(1 + 254 * (field - field.min()) / np.ptp(field), 1, 255).astype(int)
    return encode(GrayImage(128, 128, pixels.ravel().tolist()))


def _signed_sparse_state():
    """An n = 9 state of mostly zeros, of either sign, among signed
    amplitudes, ending in -0.0."""
    rng = np.random.default_rng(909)
    amps = rng.normal(size=512) * (rng.random(512) < 0.2)
    amps[rng.random(512) < 0.5] *= -1.0
    amps[0], amps[-1] = 1.0, -0.0
    return normalize(amps.tolist())


def test_to_angles_matches_two_pass_reference():
    """The one backward loop gives the bits of the two-pass formulation
    (every tail's squared norm in a list first), the sign of each zero
    included, on 480 seeded states, a photo state, a signed sparse state
    and the edge pairs, the last of which turns -2*pi into 2*pi."""
    cases = list(_angle_states())
    assert len(cases) == 480
    cases.append(("photo", _photo_state()))
    cases.append(("signed sparse", _signed_sparse_state()))
    for amps in [(1.0, 0.0), (0.0, 1.0), (-1.0, -0.0), (1.0, -0.0)]:
        cases.append((str(amps), RealState(1, amps)))
    for kind, state in cases:
        got = np.array(to_angles(state).angles, np.float64).view(np.uint64)
        expect = np.array(reference_states.to_angles(state), np.float64).view(np.uint64)
        np.testing.assert_array_equal(got, expect, err_msg=kind)
    assert to_angles(RealState(1, (-1.0, -0.0))).angles == (TWO_PI,)
    (last,) = to_angles(RealState(1, (1.0, -0.0))).angles
    assert last == 0.0 and math.copysign(1.0, last) == -1.0


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
