"""PGM parsing, column-major unfolding, padding, and amplitude encoding."""

import copy
import json
import math
import pickle
import re
import shutil
import tracemalloc
from dataclasses import FrozenInstanceError
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import reference_pgm
import reference_states
from ryprep import (
    GrayImage,
    RealState,
    encode,
    encoding,
    load_pgm,
    normalize,
    pad_pow2,
    states,
    unfold,
)
from ryprep.encoding import _BULK_P2, _norm
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


# p2_decoders patches each decoder in within every example, so that the
# fixture is function-scoped does not matter here
PARITY = settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture
def p2_decoders(request, monkeypatch):
    """Patches in, one after the other, each P2 raster decoder that
    ``load_pgm`` may run: the NumPy fallback (the extension absent) and,
    where gcc can build it, the compiled decoder built from source.  A test
    loops over it, so that its id is the same for both, and reads the name
    yielded (``-l`` shows it).  Without gcc only the fallback runs, which is
    then the decoder that ships, and the test is not skipped."""
    decoders = [("numpy", None)]
    if shutil.which("gcc") is not None:
        decoders.append(("c", request.getfixturevalue("simkernel").p2_samples))

    def each():
        for name, decode in decoders:
            monkeypatch.setattr(encoding, "_p2_decode", decode)
            yield name

    return each


@PARITY
@given(pgm_files())
def test_load_pgm_matches_reference(p2_decoders, data):
    for decoder in p2_decoders():
        assert_matches_reference(data)


@PARITY
@given(PGM_BYTES)
def test_load_pgm_matches_reference_on_fuzz_bytes(p2_decoders, data):
    for decoder in p2_decoders():
        assert_matches_reference(data)


def full_size_p2():
    """A seeded 180x360 P2 file split into its header, the samples with the
    filler before each, and a trailer past the raster."""
    rng = np.random.default_rng(180360)
    rows, cols = 180, 360
    pixels = rng.integers(0, 256, rows * cols).tolist()
    # '#' right after a token, and comments that end at LF, at CR and at CRLF
    filler = [b" ", b"\n", b"\t", b"\r\n", b"\x0b\x0c ", b"#c\n", b"# 1 x\r", b" #\n", b"#1#2\r\n"]
    picks = rng.integers(0, len(filler), rows * cols).tolist()
    pieces = [filler[k] + b"%d" % p for k, p in zip(picks, pixels)]
    head = b"P2\n# a 180x360 image\n%d %d\n255" % (cols, rows)
    trailer = b"\n# past the raster\n1 2 x -3 \x1c\x85 #4\r" + LONG + b" 5"
    return head, pieces, trailer, GrayImage(rows, cols, tuple(pixels), 255)


def test_full_size_p2_matches_reference(p2_decoders):
    head, pieces, trailer, image = full_size_p2()
    data = head + b"".join(pieces) + trailer
    for decoder in p2_decoders():
        assert load_pgm(data) == image
        assert_matches_reference(data)


@pytest.mark.parametrize("control", [b"\x1c", b"\x85"])
def test_full_size_p2_control_byte_is_not_whitespace(p2_decoders, control):
    head, pieces, trailer, image = full_size_p2()
    # the next piece starts with whitespace or '#', so the byte ends a token
    k = 40000
    pieces[k] += control
    token = b"%d" % image.pixels[k] + control
    data = head + b"".join(pieces) + trailer
    for decoder in p2_decoders():
        with pytest.raises(PgmError, match=re.escape(f"malformed sample token {token!r}")):
            load_pgm(data)
        assert_matches_reference(data)


@pytest.mark.parametrize(
    "raster",
    [
        b"-3 4",
        b"+3 4",
        b"3 -4",
        b"007 4",
        b"000255 4",
        b"3 000000000004",
        b"3 " + LONG,
        b"3\x00 4",
        b"\x003 4",
        b"3 \x1c4",
        b"3\x85 4",
        b"3#4 5\n4",
        b"3# c\r4#",
        b"3 4 past the raster: -1 \x85 \x00 000255 " + LONG,
        b"3 4" + b" " * 100 + b"x",
        b"3",
        b"3 # 4",
        b"",
        b" " * 50 + b"3" + b" " * 50 + b"4",
        b"99999 4",
        b"100000 4",
    ],
)
def test_irregular_p2_rasters_match_reference(p2_decoders, raster):
    # the same bytes at the end of a large raster, which is otherwise regular
    head, pieces, trailer, _ = full_size_p2()
    for decoder in p2_decoders():
        assert_matches_reference(b"P2 2 1 255 " + raster)
        assert_matches_reference(head + b"".join(pieces[:-2]) + b" " + raster)


# the P2 tokens that decide between the bulk decode and the token walk
RASTER_TOKENS = st.sampled_from(
    [b"0", b"7", b"007", b"65535", b"65536", b"99999", b"100000", b"000255", b"-3", b"+3"]
    + [b"3\x00", b"\x1c", b"\x855", b"#", b"x", LONG]
) | st.binary(min_size=1, max_size=3)


@PARITY
@given(st.lists(st.tuples(FILLER, RASTER_TOKENS), max_size=4), st.binary(max_size=8))
def test_bulk_p2_decode_matches_reference(p2_decoders, pairs, tail):
    # all but two samples plain, then the drawn ones: the raster is large
    # enough for the bulk decode, whose every outcome must be the reference's
    head = b"P2 %d 1 65535\n" % _BULK_P2
    data = head + b"7 " * (_BULK_P2 - 2) + b"".join(map(b"".join, pairs)) + tail
    for decoder in p2_decoders():
        assert_matches_reference(data)


def test_p2_token_across_the_scanned_bytes_is_read_whole(p2_decoders):
    # the NumPy decode reads the first 16 * count + 64 bytes of the raster,
    # and the last sample here starts two bytes before their end
    body = b" " + b"1 " * (_BULK_P2 - 1)
    data = b"P2 %d 1 65535" % _BULK_P2 + body + b" " * (16 * _BULK_P2 + 62 - len(body)) + b"456"
    for decoder in p2_decoders():
        assert load_pgm(data).pixels[-1] == 456
        assert_matches_reference(data)


@pytest.mark.parametrize("spacing", [b" " * 17, b"\r\n" * 9, b"#" + b"x" * 40 + b"\n"])
def test_widely_spaced_p2_raster_is_read_token_by_token(p2_decoders, spacing):
    rng = np.random.default_rng(17)
    # enough samples for the NumPy decode, spaced too widely for its bytes
    pixels = rng.integers(0, 65536, _BULK_P2).tolist()
    data = b"P2 %d 1 65535" % _BULK_P2 + b"".join(spacing + b"%d" % p for p in pixels)
    for decoder in p2_decoders():
        assert load_pgm(data) == GrayImage(1, _BULK_P2, tuple(pixels), 65535)
        assert_matches_reference(data)


@pytest.mark.parametrize(
    "data", [b"P2 100000 100000 255 1 2 3", b"P2 1048576 1048576 255 1 2 3"], ids=["1e10", "2**40"]
)
def test_p2_count_from_the_header_alone_sizes_nothing(p2_decoders, data):
    for decoder in p2_decoders():
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedData, match="^header ended early$"):
                load_pgm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.mark.parametrize("count", [2, _BULK_P2])
@pytest.mark.parametrize("sample", [99999, 70000])
def test_p2_sample_past_16_bits_exceeds_maxval(p2_decoders, count, sample):
    data = b"P2 %d 1 65535 " % count + b"7 " * (count - 1) + b"%d" % sample
    message = re.escape(f"pixel value {sample} outside [0, 65535]")
    for decoder in p2_decoders():
        with pytest.raises(PixelExceedsMaxval, match=f"^{message}$"):
            load_pgm(data)


def _read_only(array):
    array.setflags(write=False)
    return array


@pytest.mark.parametrize(
    "out,why",
    [
        (np.zeros(3, np.int64), "has the wrong item type"),
        (np.zeros(3, np.uint32), "has the wrong item type"),
        (np.zeros(3, np.float32), "has the wrong item type"),
        (np.zeros((3, 1), np.int32), "must be one-dimensional"),
        (np.zeros(6, np.int32)[::2], "must be C-contiguous"),
        (_read_only(np.zeros(3, np.int32)), "must be writable"),
    ],
    ids=["int64", "uint32", "float32", "2d", "strided", "read-only"],
)
def test_p2_samples_refuses_a_bad_out(simkernel, out, why):
    with pytest.raises(ValueError, match=f"^p2_samples: out {why} "):
        simkernel.p2_samples(b"1 2 3", out)


def test_p2_samples_refuses_a_bad_rest(simkernel):
    out = np.zeros(3, np.int32)
    with pytest.raises(ValueError, match="^p2_samples: rest has the wrong item type "):
        simkernel.p2_samples(np.zeros(3, np.int32), out)
    with pytest.raises(TypeError):
        simkernel.p2_samples("1 2 3", out)


@pytest.mark.parametrize(
    "rest,samples",
    [
        (b"1 23 456", [1, 23, 456]),
        (b" 1\t23\r\n99999", [1, 23, 99999]),
        (bytearray(b"1 23 00456"), [1, 23, 456]),
        (memoryview(b"1 23 4567")[:-1], [1, 23, 456]),  # the byte past rest is a digit
        (b"1 23 456 x -1 " + b"9" * 10, [1, 23, 456]),  # what follows is not read
        (b"1 23 100000", None),
        (b"1 23 456x", None),
        (b"1 x 456", None),
        (b"1 23", None),
        (b"1 23 ", None),
    ],
)
def test_p2_samples_reads_the_last_sample_whole(simkernel, rest, samples):
    out = np.full(3, -1, np.int32)
    assert simkernel.p2_samples(rest, out) is (samples is not None)
    if samples is not None:
        assert out.tolist() == samples


def _pgm_bytes(fmt, pixels, maxval):
    """A PGM file written the plain way, for the images below."""
    rows, cols = pixels.shape
    head = b"%s\n%d %d\n%d\n" % (fmt, cols, rows, maxval)
    if fmt == b"P5":
        return head + pixels.astype("u1" if maxval < 256 else ">u2").tobytes()
    return head + b"\n".join(b" ".join(b"%d" % p for p in row) for row in pixels.tolist())


@pytest.mark.parametrize(
    "fmt,rows,cols,maxval",
    [(b"P2", 180, 360, 255), (b"P5", 330, 400, 255), (b"P5", 300, 340, 65535)],
    ids=["p2-n16", "p5-8bit-n18", "p5-16bit-n17"],
)
def test_full_size_state_json_is_byte_equal_to_reference(fmt, rows, cols, maxval):
    rng = np.random.default_rng([rows, cols, maxval])
    pixels = rng.integers(0, maxval + 1, (rows, cols))
    pixels[rng.random((rows, cols)) < 0.1] = 0
    image = load_pgm(_pgm_bytes(fmt, pixels, maxval))
    assert image == GrayImage(rows, cols, tuple(pixels.ravel().tolist()), maxval)
    state = encode(image)
    column_major = pixels.T.ravel().tolist()
    size = 1 << (len(column_major) - 1).bit_length()
    amplitudes = reference_states.normalize(column_major + [0] * (size - len(column_major)))
    expect = json.dumps({"n_qubits": size.bit_length() - 1, "amplitudes": list(amplitudes)})
    assert state.to_json() == expect == reference_states.to_json(state)


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

    @pytest.mark.parametrize("dtype", ["u1", ">u2", "<u2", "i1", "i8", "u8"])
    def test_integer_arrays_are_taken_in_bulk(self, dtype):
        img = GrayImage(2, 2, np.array([0, 1, 126, 127], dtype), 127)
        assert type(img.pixels) is tuple and img.pixels == (0, 1, 126, 127)
        assert {type(p) for p in img.pixels} == {int} and type(img.pixel(1, 1)) is int
        assert img == GrayImage(2, 2, (0, 1, 126, 127), 127)
        assert hash(img) == hash(GrayImage(2, 2, (0, 1, 126, 127), 127))
        assert img != GrayImage(1, 4, (0, 1, 126, 127), 127)
        assert img != GrayImage(2, 2, (0, 1, 126, 127), 128)
        assert repr(img) == "GrayImage(rows=2, cols=2, pixels=(0, 1, 126, 127), maxval=127)"

    def test_backing_array_refuses_writes(self):
        for img in (WORKED, GrayImage(2, 2, np.array(WORKED.pixels))):
            assert img.array.dtype == np.uint16 and not img.array.flags.writeable
            with pytest.raises(ValueError):
                img.array[0] = 1

    def test_later_write_to_callers_array_does_not_reach_the_image(self):
        pixels = np.array([0, 192, 128, 255], np.uint16)
        img = GrayImage(2, 2, pixels)
        pixels[:] = 7
        assert img == WORKED and img.pixel(0, 1) == 192

    def test_fields_cannot_be_set_or_deleted(self):
        img = GrayImage(2, 2, np.array(WORKED.pixels))
        for name in ("rows", "cols", "pixels", "maxval", "array"):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(img, name, 1)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(img, name)

    @pytest.mark.parametrize(
        "pixels,message",
        [
            (np.array([True, False]), "'numpy.bool' object cannot be"),
            (np.array([Decimal(1), Decimal(2)], dtype=object), "'decimal.Decimal' object cannot"),
            (np.array(["1", "2"], dtype=object), "'str' object cannot be interpreted"),
            (np.array([1.0, 2.0]), "'numpy.float64' object cannot be interpreted"),
            (np.array([[1, 2]]), "only integer scalar arrays can be converted"),
        ],
        ids=["bool", "decimal", "str", "float", "2-d"],
    )
    def test_refused_arrays_raise_as_before(self, pixels, message):
        with pytest.raises(DomainError, match=f"^pixels must be integers: {re.escape(message)}"):
            GrayImage(rows=1, cols=2, pixels=pixels)

    @pytest.mark.parametrize(
        "pixels,bad",
        [(np.array([0, -1, 300]), -1), (np.array([0, 2**64 - 1, 7], np.uint64), 2**64 - 1)],
    )
    def test_first_array_pixel_out_of_range_is_named(self, pixels, bad):
        with pytest.raises(PixelExceedsMaxval, match=rf"^pixel value {bad} outside \[0, 255\]$"):
            GrayImage(rows=1, cols=3, pixels=pixels)

    def test_object_array_of_ints_takes_the_integer_rule(self):
        assert GrayImage(2, 2, np.array(WORKED.pixels, dtype=object)) == WORKED


@pytest.mark.parametrize("maxval", [255, 65535])
def test_p5_to_state_json_builds_no_tuple(monkeypatch, maxval):
    """PGM bytes become state JSON without a tuple of every value, and, for
    an image of more pixels than maxval + 1, without the float64 amplitude
    array: the writer takes the palette."""

    def built(self):
        raise AssertionError("a tuple of every value, or the amplitude array, was built")

    monkeypatch.setattr(GrayImage, "pixels", property(built))
    monkeypatch.setattr(RealState, "amplitudes", property(built))
    monkeypatch.setattr(RealState, "array", property(built))
    pixels = np.arange(1, 12 + (maxval + 1) * 2) % (maxval + 1)
    data = _pgm_bytes(b"P5", pixels.reshape(1, -1), maxval)
    text = encode(load_pgm(data)).to_json()
    norm = math.sqrt(sum(p * p for p in pixels.tolist()))
    assert json.loads(text)["amplitudes"][4] == 5 / norm


def _palette_images():
    """Seeded images at the edges of the palette: one pixel, maxval 1,
    maxval 65535 with a 65535 pixel, one lit pixel (whose amplitude 1.0 is
    a power of two), three distinct 16-bit values, and plain 8-bit ones.
    The maxval-1 image and the last have more amplitudes than palette
    entries, so their states hold the palette and gather the amplitudes at
    the first read of array; the others are made by the constructor from
    their amplitudes and hold them."""
    rng = np.random.default_rng(16)
    yield "1x1", GrayImage(1, 1, (7,), 255)
    bits = rng.integers(0, 2, 15)
    bits[4] = 1
    yield "maxval-1", GrayImage(3, 5, bits, 1)
    deep = rng.integers(0, 65536, 24)
    deep[7] = 65535
    yield "maxval-65535", GrayImage(4, 6, deep, 65535)
    lit = np.zeros(15, np.int64)
    lit[9] = 200
    yield "one-lit-pixel", GrayImage(5, 3, lit, 255)
    yield "three-16-bit-values", GrayImage(6, 6, rng.choice([0, 1000, 65535], 36), 65535)
    for rows, cols in ((1, 9), (7, 5), (16, 16), (20, 30)):
        yield f"8-bit-{rows}x{cols}", GrayImage(rows, cols, rng.integers(0, 256, rows * cols))


PALETTE_IMAGES = dict(_palette_images())


@pytest.mark.parametrize("name", PALETTE_IMAGES)
def test_palette_state_is_the_value_of_its_amplitudes(simkernel, monkeypatch, name):
    """A state that encode makes, whether it holds its palette or its
    gathered amplitudes, behaves as the state of those amplitudes does from
    the constructor: in ==, hash, repr,
    .amplitudes, pickle, deepcopy and JSON from either writer, and in
    refusing to set or delete array before its first read and after."""
    image = PALETTE_IMAGES[name]
    state = encode(image)
    assert (state._palette is not None) is (image.maxval + 1 < 1 << state.n_qubits)
    for field in ("array", "amplitudes"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{field}'"):
            setattr(state, field, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{field}'"):
            delattr(state, field)
    want = normalize(pad_pow2(unfold(image)))
    assert state.array.dtype == np.float64 and not state.array.flags.writeable
    assert np.array_equal(state.array.view(np.int64), want.array.view(np.int64))
    plain = RealState(state.n_qubits, encode(image).array)
    for other in (plain, copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert state == other and other == state and hash(state) == hash(other)
        assert repr(state) == repr(other) and state.amplitudes == other.amplitudes
        assert not other.array.flags.writeable and other._palette is None
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'array'"):
        state.array = plain.array
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'array'"):
        del state.array
    assert state.array.flags.writeable is False and state == plain
    for writer in (None, simkernel.state_json):
        monkeypatch.setattr(states, "_state_json", writer)
        assert state.to_json() == plain.to_json() == reference_states.to_json(plain)


def _seeded_image(seed, family):
    """A seeded image of 1x1..63x63 pixels and maxval 1..65535: random
    pixels, every pixel at maxval, one pixel at maxval among dim ones, or a
    single lit pixel among zeros."""
    rng = np.random.default_rng([seed, 17])
    maxval = int(rng.choice([1, 2, 255, 256, 65535, rng.integers(1, 65536)]))
    rows, cols = (int(k) for k in rng.integers(1, 64, 2))
    count = rows * cols
    if family == "random":
        pixels = rng.integers(0, maxval + 1, count)
    else:
        fill = {"all-maxval": maxval, "bright-among-dim": 1, "one-lit-pixel": 0}[family]
        pixels = np.full(count, fill)
    # one pixel at maxval, so that no image is all zero
    pixels[rng.integers(count)] = maxval
    return GrayImage(rows, cols, pixels, maxval)


# the fsum of the squares of an encoded state is 1 * (1 +- u)**7, u = 2**-53
# (RealState._from_palette); this allows 16 u
UNIT_MARGIN = 8 * 2**-52


def _unit_margin_holds(state):
    amps = state.array
    return abs(math.fsum((amps * amps).tolist()) - 1) <= UNIT_MARGIN


@pytest.mark.parametrize("name", PALETTE_IMAGES)
def test_encoded_state_is_unit_norm_by_construction(name):
    assert _unit_margin_holds(encode(PALETTE_IMAGES[name]))


SEEDED_FAMILIES = ["random", "all-maxval", "bright-among-dim", "one-lit-pixel"]
SEEDS = range(60)


@pytest.mark.parametrize("family", SEEDED_FAMILIES)
def test_seeded_images_cover_both_forms_of_encode(family):
    encoded = [encode(_seeded_image(seed, family)) for seed in SEEDS]
    assert {state._palette is None for state in encoded} == {True, False}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", SEEDED_FAMILIES)
def test_seeded_encoded_states_are_unit_norm_by_construction(family, seed):
    assert _unit_margin_holds(encode(_seeded_image(seed, family)))


@pytest.mark.parametrize("side", [512, 1024])
@pytest.mark.parametrize("maxval", [255, 65535])
def test_large_encoded_states_are_unit_norm_by_construction(side, maxval):
    pixels = np.random.default_rng([side, maxval]).integers(0, maxval + 1, side * side)
    state = encode(GrayImage(side, side, pixels, maxval))
    assert state._palette is not None and _unit_margin_holds(state)


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
    # equal pixels get one float: at most maxval + 1 distinct amplitudes
    assert len(np.unique(got.array)) <= img.maxval + 1


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
    assert max(pixels) <= 65535 and sum(p * p for p in pixels) == target != float(target)
    vec = np.array(pixels, np.uint16)
    squares = (vec.astype(np.float64) ** 2).tolist()
    assert _norm(vec) == math.sqrt(math.fsum(squares))
