"""Grayscale image ingestion and amplitude encoding.

An M x L image unfolds column by column (f11, f21, ..., fM1, f12, ...),
is zero-padded to the next power of two, and normalized, so the pixel data
becomes the amplitudes of a ceil(log2(M*L))-qubit state.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Iterable, Sequence

import numpy as np

from ._kernel import compiled
from ._values import Value, integers, is_vector, num
from .errors import (
    AllZeroImage,
    BadMagic,
    DomainError,
    MaxvalOutOfRange,
    PgmError,
    PixelExceedsMaxval,
    TruncatedData,
)
from .states import RealState

__all__ = ["GrayImage", "load_pgm", "unfold", "pad_pow2", "encode"]

# Whitespace and '#' comments (up to LF or CR), which PGM skips before a
# header token.
_SKIP = rb"(?:[ \t\n\r\x0b\x0c]+|#[^\n\r]*)*"
# Skips as _SKIP does, then captures the next header token, which is empty
# only at the end of the data.
_TOKEN = re.compile(_SKIP + rb"([^ \t\n\r\x0b\x0c#]*)")
# _SKIP alone: it always matches, so it ends where the next token starts
# without reading that token.
_LEAD = re.compile(_SKIP)
# A comment in the P2 raster, which _TOKEN would skip like whitespace.
_COMMENT = re.compile(rb"#[^\n\r]*")


def _exact_ints(values: Iterable, what: str) -> tuple[int, ...]:
    try:
        return integers(values)
    except TypeError as exc:
        raise DomainError(f"{what} must be integers: {exc}") from None


class GrayImage(Value):
    """Row-major grayscale pixels with the bit depth declared by maxval.

    The pixels are held in ``array``, a read-only uint16 array, and
    ``pixels`` reads them as a tuple of ints.  A one-dimensional NumPy
    integer array is taken as it is, copied; any other iterable goes
    through the integer rule.
    """

    _FIELDS = ("rows", "cols", "pixels", "maxval")
    _SEQUENCE = "pixels"
    rows: int
    cols: int
    maxval: int

    def __init__(self, rows: int, cols: int, pixels: Iterable[int], maxval: int = 255) -> None:
        rows, cols, maxval = _exact_ints((rows, cols, maxval), "rows, cols, maxval")
        if is_vector(pixels) and pixels.dtype.kind in "iu":
            values = pixels
        else:
            values = _exact_ints(pixels, "pixels")
        for name, value in zip(("rows", "cols", "maxval"), (rows, cols, maxval)):
            object.__setattr__(self, name, value)
        if rows < 1 or cols < 1:
            raise DomainError(f"image dimensions must be positive, got {num(rows)}x{num(cols)}")
        if not 1 <= maxval <= 65535:
            raise MaxvalOutOfRange(f"maxval must lie in [1, 65535], got {num(maxval)}")
        if len(values) != rows * cols:
            size = f"{num(rows)}x{num(cols)}"
            raise DomainError(f"{size} image needs {num(rows * cols)} pixels, got {len(values)}")
        if isinstance(values, np.ndarray):
            lo, hi = values.min(), values.max()
        else:
            lo, hi = min(values), max(values)
        if lo < 0 or hi > maxval:
            p = next(int(p) for p in values if not 0 <= p <= maxval)
            raise PixelExceedsMaxval(f"pixel value {num(p)} outside [0, {maxval}]")
        # a copy, which no later write to the caller's array reaches
        array = np.array(values, np.uint16)
        array.setflags(write=False)
        object.__setattr__(self, "array", array)

    @functools.cached_property
    def pixels(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    def pixel(self, i: int, j: int) -> int:
        """Value at row i, column j (0-based)."""
        i, j = _exact_ints((i, j), "pixel indices")
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise DomainError(f"pixel ({num(i)}, {num(j)}) outside {self.rows}x{self.cols} image")
        return int(self.array[i * self.cols + j])


def _int(token: bytes, what: str) -> int:
    if not token:
        raise TruncatedData("header ended early")
    if not token.isdigit():
        raise PgmError(f"malformed {what} token {token!r}")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise PgmError(f"{what} token of {len(token)} digits is too long") from None


# the bytes bytes.split takes for whitespace, and those that are neither
# whitespace nor a digit
_SPACE = np.zeros(256, bool)
_SPACE[list(b" \t\n\r\x0b\x0c")] = True
_OTHER = ~_SPACE
_OTHER[list(b"0123456789")] = False


# The bulk decode, which load_pgm runs only without the compiled decoder,
# makes about twenty NumPy calls, a fixed cost.  Timed inside whole CLI synth
# and verify runs, it overtakes the split and map(int) below at about 640-700
# samples (in a hot loop of load_pgm calls alone, already at 130-190: a NumPy
# call costs several times more inside a CLI run).
_BULK_P2 = 640


def _p2_samples(rest: bytes, out: np.ndarray) -> bool:
    """Fill the int32 array out with the first len(out) samples of a P2
    raster whose comments are blanked, decoded together, and return True;
    return False below _BULK_P2 samples, or unless there are len(out) of
    them within the first 16 * len(out) + 64 bytes, each a run of one to
    five ASCII digits.  The NumPy fallback of ``_simkernel.p2_samples``, and
    its reference.

    The byte limit keeps a long trailer past the raster from being scanned;
    a raster spaced wider than that is left to the token walk.
    """
    count = len(out)
    if count < _BULK_P2:
        return False
    raw = np.frombuffer(rest, np.uint8, min(len(rest), 16 * count + 64))
    # whitespace with one more byte of it at each end, so that its edges
    # alternate: where a token starts, where it ends, where the next starts
    space = np.ones(len(raw) + 2, bool)
    _SPACE.take(raw, out=space[1:-1])
    edges = np.flatnonzero(space[1:] != space[:-1])
    starts, ends = edges[0 : 2 * count : 2], edges[1 : 2 * count : 2]
    # a last token that reaches the end of the bytes read may go on past them
    if len(ends) < count or ends[-1] == len(raw) < len(rest):
        return False
    lengths = ends - starts
    longest = int(lengths.max())
    if longest > 5 or _OTHER[raw[: ends[-1]]].any():
        return False
    # Horner's rule over the digits, the last of each token in the last pass
    out[:] = 0
    for place in range(longest, 0, -1):
        digit = raw.take(ends - place, mode="clip") - 48
        out *= 10
        out += np.where(lengths >= place, digit, 0)
    return True


_p2_decode = _p2_samples if compiled is None else compiled.p2_samples


def looks_like_pgm(data: bytes) -> bool:
    """Whether the first token of data, past the whitespace and '#' comments
    that load_pgm skips, starts with P and a digit, as a PGM magic does."""
    start = _LEAD.match(data).end()
    return data[start : start + 1] == b"P" and data[start + 1 : start + 2].isdigit()


def load_pgm(data: bytes) -> GrayImage:
    """Parse PGM bytes, ASCII (P2) or binary (P5), 8- or 16-bit.

    Binary 16-bit samples are big-endian per the Netpbm convention.  Bytes
    past the declared raster are ignored.
    """
    tokens = _TOKEN.finditer(data)
    magic = next(tokens)[1]
    if not magic:
        raise BadMagic("empty input")
    if magic not in (b"P2", b"P5"):
        raise BadMagic(f"expected P2 or P5, got {magic!r}")
    width = _int(next(tokens)[1], "width")
    height = _int(next(tokens)[1], "height")
    match = next(tokens)
    maxval = _int(match[1], "maxval")
    if not 1 <= maxval <= 65535:
        raise MaxvalOutOfRange(f"maxval must lie in [1, 65535], got {maxval}")
    if width < 1 or height < 1:
        raise PgmError(f"image dimensions must be positive, got {width}x{height}")
    count = width * height

    if magic == b"P2":
        # bytes for any bytes-like data, so that tokens and messages are too
        rest = bytes(data[match.end() :])
        if b"#" in rest:
            rest = _COMMENT.sub(b" ", rest)
        pixels = None
        # count samples take at least 2 * count - 1 bytes, so a count that a
        # header alone declares never sizes this array
        if 2 * count - 1 <= len(rest):
            pixels = np.empty(count, np.int32)
            if not _p2_decode(rest, pixels):
                pixels = None
        if pixels is None:
            # With the comments blanked, bytes.split's whitespace is _TOKEN's
            # six bytes.  The rest holds at most len(rest) tokens, and whatever
            # lies past the raster stays one unsplit chunk, which is dropped.
            samples = rest.split(None, min(count, len(rest)))[:count]
            # one digit test and one conversion for the whole raster; only a bad
            # sample sends the walk through _int, so that the first one names the error
            try:
                if not b"".join(samples).isdigit():
                    raise ValueError
                pixels = list(map(int, samples))
            except ValueError:
                pixels = [_int(token, "sample") for token in samples]
            if len(pixels) < count:
                raise TruncatedData("header ended early")
    else:
        # exactly one whitespace byte separates the maxval token from the raster
        start = match.end() + 1
        if start > len(data):
            raise TruncatedData("no raster after header")
        if not data[start - 1 : start].isspace():
            raise PgmError("maxval must be followed by a single whitespace byte")
        depth = 1 if maxval < 256 else 2
        raster = data[start : start + depth * count]
        if len(raster) < depth * count:
            raise TruncatedData(f"raster holds {len(raster) // depth} of {num(count)} samples")
        pixels = np.frombuffer(raster, "u1" if depth == 1 else ">u2")
    return GrayImage(rows=height, cols=width, pixels=pixels, maxval=maxval)


def unfold(image: GrayImage) -> list[float]:
    """Flatten column-major: column 0 top to bottom, then column 1, and so on."""
    return image.array.reshape(image.rows, image.cols).T.astype(float).ravel().tolist()


def _pow2_size(length: int) -> int:
    """The next power of two at or above length, never below 2."""
    return 1 << max(1, (length - 1).bit_length())


def pad_pow2(values: Sequence[float] | Iterable[float]) -> list[float]:
    """Append zeros up to the next power of two, never below length 2."""
    vals = [float(v) for v in values]
    if not vals:
        raise DomainError("cannot pad an empty sequence")
    return vals + [0.0] * (_pow2_size(len(vals)) - len(vals))


def _norm(pixels: np.ndarray) -> float:
    """``math.sqrt(math.fsum(float(p) ** 2 for p in pixels))``, bit for bit.

    The uint64 sum of squares is exact below 2**32 pixels, since each
    square is below 2**32 (the uint16 raster of a larger image would alone
    take 8 GiB).  ``float()`` of an int rounds the exact sum half to even,
    and so does fsum of the float squares, which are exact.
    """
    wide = pixels.astype(np.uint64)
    return math.sqrt(float(int(np.dot(wide, wide))))


def encode(image: GrayImage) -> RealState:
    """Unfold, pad, and normalize an image into a statevector.

    Gives the same state as ``normalize(pad_pow2(unfold(image)))``, bit for
    bit, unit-norm by construction below 2**32 pixels (see
    ``RealState._from_palette``).  Where there are more amplitudes than
    palette entries, the state holds the values 0..maxval divided by the
    norm, with the padded column-major pixels as its index: its JSON is
    written from them, and ``array`` is gathered only at its first read.
    """
    rows, cols = image.rows, image.cols
    count = rows * cols
    size = _pow2_size(count)
    norm = _norm(image.array)
    if norm == 0.0:
        raise AllZeroImage("every pixel is zero; the image encodes no state")
    index = np.zeros(size, np.uint32)
    # the column-major order is the transpose of the row-major raster
    index[:count].reshape(cols, rows)[...] = image.array.reshape(rows, cols).T
    n_qubits = size.bit_length() - 1
    if image.maxval + 1 < size:
        return RealState._from_palette(n_qubits, np.arange(image.maxval + 1) / norm, index)
    # index / norm is bit-equal to the palette entry of each pixel
    return RealState(n_qubits, index / norm)
