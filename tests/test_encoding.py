"""PGM parsing, column-major unfolding, padding, and amplitude encoding."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import reference_pgm
from ryprep import GrayImage, encode, load_pgm, normalize, pad_pow2, unfold
from ryprep.encoding import _norm
from ryprep.errors import (
    AllZeroImage,
    BadMagic,
    DomainError,
    MaxvalOutOfRange,
    PgmError,
    PixelExceedsMaxval,
    TruncatedData,
)
from test_fuzz import FILLER, PGM_BYTES, WHITESPACE

WORKED = GrayImage(rows=2, cols=2, pixels=(0, 192, 128, 255))


def test_load_p2_minimal():
    img = load_pgm(b"P2\n1 1\n255\n7\n")
    assert (img.rows, img.cols, img.maxval) == (1, 1, 255)
    assert img.pixels == (7,)


def test_load_p2_with_comments_and_odd_whitespace():
    data = b"P2 # magic\n# full line comment\n 2\t2 # dims\n255\n0 192\n128\t255"
    img = load_pgm(data)
    assert img.pixels == (0, 192, 128, 255)
    assert img.pixel(0, 1) == 192
    assert img.pixel(1, 0) == 128


def test_load_p5_8bit():
    img = load_pgm(b"P5\n2 2\n255\n" + bytes([0, 192, 128, 255]))
    assert img.pixels == (0, 192, 128, 255)


def test_load_p5_16bit_big_endian():
    raster = (1000).to_bytes(2, "big") + (65535).to_bytes(2, "big")
    img = load_pgm(b"P5\n2 1\n65535\n" + raster)
    assert img.pixels == (1000, 65535)
    assert img.maxval == 65535


def test_load_p5_ignores_trailing_bytes():
    img = load_pgm(b"P5\n1 1\n255\n\x07extra")
    assert img.pixels == (7,)


@pytest.mark.parametrize("data", [b"", b"P3\n1 1\n255\n7\n", b"P6\n1 1\n255\n\x07", b"Q2\n1 1\n1\n0"])
def test_bad_magic(data):
    with pytest.raises(BadMagic):
        load_pgm(data)


@pytest.mark.parametrize(
    "data",
    [
        b"P2\n2 2\n255\n0 1 2\n",  # one sample short
        b"P2\n2 2\n",  # header cut off
        b"P5\n2 2\n255\n\x00\x01\x02",  # raster one byte short
        b"P5\n1 1\n65535\n\x01",  # 16-bit sample needs two bytes
        b"P5\n1 1\n255\n",  # no raster at all
    ],
)
def test_truncated(data):
    with pytest.raises(TruncatedData):
        load_pgm(data)


@pytest.mark.parametrize("maxval", [0, 65536, 100000])
def test_maxval_out_of_range(maxval):
    with pytest.raises(MaxvalOutOfRange):
        load_pgm(f"P2\n1 1\n{maxval}\n0\n".encode())


def test_pixel_exceeds_maxval_ascii():
    with pytest.raises(PixelExceedsMaxval):
        load_pgm(b"P2\n1 1\n15\n16\n")


def test_pixel_exceeds_maxval_binary():
    with pytest.raises(PixelExceedsMaxval):
        load_pgm(b"P5\n1 1\n300\x20" + (301).to_bytes(2, "big"))


@pytest.mark.parametrize("data", [b"P2\nx 1\n255\n0\n", b"P2\n1 1\n255\n-3\n", b"P2\n0 1\n255\n"])
def test_malformed_headers(data):
    with pytest.raises(PgmError):
        load_pgm(data)


HUGE = b"9" * 20  # past sys.maxsize
WIDE = b"9" * 3000  # two of them multiply past the digits str() prints


@pytest.mark.parametrize(
    "data,message",
    [
        (b"P2 " + HUGE + b" 1 255 0", "header ended early"),
        (b"P2 1 " + HUGE + b" 255 0 1 2", "header ended early"),
        (b"P2 " + HUGE + b" " + HUGE + b" 255 1 x", "malformed sample token b'x'"),
        (b"P5 " + HUGE + b" 1 255 \x00\x01", f"raster holds 2 of {10**20 - 1} samples"),
        (b"P5 1 " + WIDE + b" 255 \x00", f"raster holds 1 of {10**3000 - 1} samples"),
        (
            b"P5 " + WIDE + b" " + WIDE + b" 65535 \x00\x01",
            "raster holds 1 of <19932-bit integer> samples",
        ),
    ],
    ids=["p2-width", "p2-height", "p2-both", "p5-width", "p5-wide", "p5-unprintable"],
)
def test_huge_dimensions_are_pgm_errors(data, message):
    with pytest.raises(PgmError, match=f"^{re.escape(message)}$"):
        load_pgm(data)


LONG = b"9" * 5000  # more digits than int() converts


@pytest.mark.parametrize(
    "data,what",
    [
        (b"P2 " + LONG + b" 1 255 0", "width"),
        (b"P5 1 " + LONG + b" 255 \x00", "height"),
        (b"P2 1 1 " + LONG + b" 0", "maxval"),
        (b"P2 2 1 255 7 " + LONG, "sample"),
    ],
    ids=["width", "height", "maxval", "sample"],
)
def test_over_long_token_is_pgm_error(data, what):
    with pytest.raises(PgmError, match=f"^{what} token of 5000 digits is too long$"):
        load_pgm(data)


@pytest.mark.parametrize(
    "samples,message",
    [
        (LONG + b" x", "sample token of 5000 digits is too long"),
        (LONG, "sample token of 5000 digits is too long"),  # then the data ends
        (b"x " + LONG, "malformed sample token b'x'"),
    ],
    ids=["long-then-bad", "long-then-end", "bad-then-long"],
)
def test_first_bad_sample_decides(samples, message):
    with pytest.raises(PgmError, match=message):
        load_pgm(b"P2 4 1 255 1 " + samples)


@st.composite
def pgm_files(draw):
    """Well-formed P2 and P5 images, some cut short, some with trailing bytes."""
    binary = draw(st.booleans())
    maxval = draw(st.sampled_from([1, 15, 255, 256, 4095, 65535]) | st.integers(1, 65535))
    if binary and maxval < 256:
        top = 255  # a one-byte sample may still exceed a small maxval
    else:
        top = 65535 if draw(st.integers(0, 9)) == 0 else maxval
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pixels = draw(st.lists(st.integers(0, top), min_size=rows * cols, max_size=rows * cols))
    fields = [b"P5" if binary else b"P2", b"%d" % cols, b"%d" % rows, b"%d" % maxval]
    data = b"".join(field + draw(FILLER) for field in fields[:-1]) + fields[-1]
    if binary:
        # one whitespace byte before the raster, or now and then some other filler
        data += draw(st.just(b"\n") | st.sampled_from(WHITESPACE) | FILLER)
        data += np.array(pixels, "u1" if maxval < 256 else ">u2").tobytes()
    else:
        data += b"".join(draw(FILLER) + b"%d" % p for p in pixels)
    data = draw(FILLER) + data if draw(st.booleans()) else data
    if draw(st.integers(0, 3)) == 3:
        data = data[: draw(st.integers(0, len(data)))]
    if draw(st.booleans()):
        data += draw(st.sampled_from(WHITESPACE)) + draw(st.binary(max_size=8))
    return data


def parse(load, data):
    try:
        return load(data)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_matches_reference(data):
    expect = parse(reference_pgm.load_pgm, data)
    got = parse(load_pgm, data)
    if isinstance(expect, GrayImage):
        assert got == expect and type(got.pixels[0]) is int
    elif expect[0] is ValueError:  # the interpreter's limit on int() digits
        digits = re.search(r"value has (\d+) digits", expect[1])[1]
        assert got[0] is PgmError and got[1].endswith(f" token of {digits} digits is too long")
    elif expect[0] is PixelExceedsMaxval:  # the text is GrayImage's
        sample, maxval = re.fullmatch(r"sample (\d+) exceeds maxval (\d+)", expect[1]).groups()
        assert got == (PixelExceedsMaxval, f"pixel value {sample} outside [0, {maxval}]")
    else:
        assert got == expect


PARITY = settings(max_examples=400, deadline=None, derandomize=True, database=None)


@PARITY
@given(pgm_files())
def test_load_pgm_matches_reference(data):
    assert_matches_reference(data)


@PARITY
@given(PGM_BYTES)
def test_load_pgm_matches_reference_on_fuzz_bytes(data):
    assert_matches_reference(data)


class TestGrayImage:
    def test_pixel_bounds_checked(self):
        with pytest.raises(PixelExceedsMaxval):
            GrayImage(rows=1, cols=1, pixels=(256,), maxval=255)

    @pytest.mark.parametrize(
        "fields,error",
        [
            ({"maxval": 0}, MaxvalOutOfRange),
            ({"maxval": 65536}, MaxvalOutOfRange),
            ({"pixels": (1, 4)}, PixelExceedsMaxval),
            ({"pixels": (-1, 0)}, PixelExceedsMaxval),
        ],
    )
    def test_range_errors_are_domain_errors(self, fields, error):
        with pytest.raises(DomainError) as info:
            GrayImage(**{"rows": 1, "cols": 2, "pixels": (1, 2), "maxval": 3, **fields})
        assert type(info.value) is error

    def test_shape_checked(self):
        with pytest.raises(DomainError):
            GrayImage(rows=2, cols=2, pixels=(1, 2, 3))
        with pytest.raises(DomainError):
            GrayImage(rows=0, cols=1, pixels=())

    def test_pixel_accessor_bounds(self):
        with pytest.raises(DomainError):
            WORKED.pixel(2, 0)

    @pytest.mark.parametrize(
        "pixels",
        [(1.5, 2.7), ("7", "3"), (True, False), (1, None), (1, 2.0), (np.float64(1), 2), None, 5],
    )
    def test_pixels_must_be_exact_integers(self, pixels):
        with pytest.raises(DomainError, match="^pixels must be integers"):
            GrayImage(rows=1, cols=2, pixels=pixels)

    @pytest.mark.parametrize(
        "fields",
        [
            {"rows": 1.0},
            {"rows": "1"},
            {"rows": True},
            {"cols": 2.0},
            {"cols": None},
            {"cols": False},
            {"maxval": 255.0},
            {"maxval": True},
            {"maxval": "255"},
        ],
    )
    def test_sizes_must_be_exact_integers(self, fields):
        with pytest.raises(DomainError, match="^rows, cols, maxval must be integers"):
            GrayImage(**{"rows": 1, "cols": 2, "pixels": (1, 2), **fields})

    @pytest.mark.parametrize("index", [(0.5, 1), (0, 1.0), (True, 0), (0, "1"), (None, 0)])
    def test_pixel_indices_must_be_exact_integers(self, index):
        with pytest.raises(DomainError, match="^pixel indices must be integers"):
            WORKED.pixel(*index)

    def test_numpy_integers_become_ints(self):
        img = GrayImage(
            rows=np.int64(2), cols=np.uint8(2), pixels=np.array([0, 1, 2, 3]), maxval=np.int32(3)
        )
        assert img == GrayImage(rows=2, cols=2, pixels=(0, 1, 2, 3), maxval=3)
        assert {type(v) for v in (img.rows, img.cols, img.maxval, *img.pixels)} == {int}
        assert img.pixel(np.int64(1), np.int8(0)) == 2

    def test_pixels_from_any_iterable(self):
        img = GrayImage(rows=1, cols=3, pixels=(p for p in [4, 5, 6]), maxval=6)
        assert img.pixels == (4, 5, 6)

    @pytest.mark.parametrize(
        "fields,error,message",
        [
            ({"rows": -(10**5000)}, DomainError, "got -<16610-bit integer>x2"),
            ({"cols": 10**5000}, DomainError, "needs <16610-bit integer> pixels, got 2"),
            ({"maxval": 10**5000}, MaxvalOutOfRange, "got <16610-bit integer>"),
            ({"pixels": (1, 10**5000)}, PixelExceedsMaxval, "value <16610-bit integer> outside"),
        ],
    )
    def test_unprintable_values_are_named_by_size(self, fields, error, message):
        with pytest.raises(error, match=re.escape(message)):
            GrayImage(**{"rows": 1, "cols": 2, "pixels": (1, 2), **fields})

    def test_unprintable_pixel_index_is_named_by_size(self):
        with pytest.raises(DomainError, match=re.escape("pixel (-<16610-bit integer>, 0) outside")):
            WORKED.pixel(-(10**5000), 0)

    @pytest.mark.parametrize("pixels,bad", [((0, -1, 2), -1), ((0, 9, -1), 9)])
    def test_first_pixel_out_of_range_is_named(self, pixels, bad):
        with pytest.raises(PixelExceedsMaxval, match=rf"^pixel value {bad} outside \[0, 3\]$"):
            GrayImage(rows=1, cols=3, pixels=pixels, maxval=3)


class TestUnfold:
    def test_worked_2x2(self):
        # rows (0 192 / 128 255) read column by column
        assert unfold(WORKED) == [0.0, 128.0, 192.0, 255.0]

    def test_3x2(self):
        img = GrayImage(rows=3, cols=2, pixels=(1, 4, 2, 5, 3, 6))
        assert unfold(img) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_single_row_is_identity(self):
        img = GrayImage(rows=1, cols=5, pixels=(9, 8, 7, 6, 5))
        assert unfold(img) == [9.0, 8.0, 7.0, 6.0, 5.0]

    def test_single_column_is_identity(self):
        img = GrayImage(rows=4, cols=1, pixels=(1, 2, 3, 4))
        assert unfold(img) == [1.0, 2.0, 3.0, 4.0]

    def test_refold_inverts(self):
        img = GrayImage(rows=3, cols=4, pixels=tuple(range(12)))
        flat = unfold(img)
        refolded = [int(flat[j * img.rows + i]) for i in range(img.rows) for j in range(img.cols)]
        assert tuple(refolded) == img.pixels


class TestPadPow2:
    @pytest.mark.parametrize(
        "vals,expect",
        [
            ([5.0], [5.0, 0.0]),
            ([1.0, 2.0], [1.0, 2.0]),
            ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 0.0]),
            ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]),
            (list(range(5)), [0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0]),
        ],
    )
    def test_examples(self, vals, expect):
        assert pad_pow2(vals) == expect

    def test_every_length_up_to_1025(self):
        for length in range(1, 1026):
            vals = [float(k + 1) for k in range(length)]
            padded = pad_pow2(vals)
            size = len(padded)
            assert size >= 2 and size & (size - 1) == 0
            assert size < 2 * length or (length == 1 and size == 2)
            assert padded[:length] == vals
            assert all(v == 0.0 for v in padded[length:])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            pad_pow2([])


class TestEncode:
    def test_worked_example(self):
        state = encode(WORKED)
        assert state.n_qubits == 2
        assert_allclose(
            state.amplitudes,
            (0.0, 0.37219211070445407, 0.5582881660566811, 0.7414764705440295),
            rtol=0,
            atol=1e-15,
        )

    def test_uniform_image(self):
        state = encode(GrayImage(rows=2, cols=2, pixels=(9, 9, 9, 9)))
        assert_allclose(state.amplitudes, (0.5, 0.5, 0.5, 0.5), rtol=0, atol=0)

    def test_single_pixel_uses_one_qubit(self):
        state = encode(GrayImage(rows=1, cols=1, pixels=(7,)))
        assert state.n_qubits == 1
        assert state.amplitudes == (1.0, 0.0)

    def test_qubit_count_is_ceil_log2(self):
        img = GrayImage(rows=3, cols=2, pixels=(1, 4, 2, 5, 3, 6))
        state = encode(img)
        assert state.n_qubits == math.ceil(math.log2(6))
        assert state.amplitudes[6] == 0.0 and state.amplitudes[7] == 0.0

    def test_all_zero_image_rejected(self):
        with pytest.raises(AllZeroImage):
            encode(GrayImage(rows=2, cols=2, pixels=(0, 0, 0, 0)))

    def test_amplitudes_nonnegative_and_normalized(self):
        img = GrayImage(rows=5, cols=3, pixels=tuple(range(15)))
        state = encode(img)
        assert all(a >= 0.0 for a in state.amplitudes)
        assert abs(math.fsum(a * a for a in state.amplitudes) - 1.0) <= 1e-12


@st.composite
def images(draw):
    """8- and 16-bit images, some all zero and some all maxval."""
    maxval = draw(st.sampled_from([1, 255, 256, 65535]) | st.integers(1, 65535))
    rows, cols = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    fill = draw(st.sampled_from(["random", "random", "zero", "maxval"]))
    if fill == "random":
        pixels = draw(st.lists(st.integers(0, maxval), min_size=rows * cols, max_size=rows * cols))
    else:
        pixels = [0 if fill == "zero" else maxval] * (rows * cols)
    return GrayImage(rows, cols, tuple(pixels), maxval)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(images())
def test_encode_matches_normalize_of_unfold_and_pad(img):
    if not any(img.pixels):
        with pytest.raises(AllZeroImage):
            encode(img)
        return
    got = encode(img)
    want = normalize(pad_pow2(unfold(img)))
    assert got.n_qubits == want.n_qubits
    # float.hex tells the values and their signs apart
    assert list(map(float.hex, got.amplitudes)) == list(map(float.hex, want.amplitudes))
    # equal pixels share one float
    assert len(set(map(id, got.amplitudes))) <= img.maxval + 1


def test_norm_rounds_a_sum_past_2_to_the_53_like_fsum():
    # past 2**53 a float no longer holds every integer; the exact sum of the
    # squares is made odd there, so it must round
    target = (1 << 53) + 3
    pixels = [65535] * (target // 65535**2)
    rest = target - 65535**2 * len(pixels)
    while rest:
        root = math.isqrt(rest)
        pixels.append(root)
        rest -= root * root
    vec = np.array(pixels, np.int64)
    assert vec.max() <= 65535 and sum(p * p for p in pixels) == target != float(target)
    squares = (vec.astype(np.float64) ** 2).tolist()
    assert _norm(vec) == math.sqrt(math.fsum(squares))
