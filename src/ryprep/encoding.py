"""Grayscale image ingestion and amplitude encoding.

An M x L image unfolds column by column (f11, f21, ..., fM1, f12, ...),
is zero-padded to the next power of two, and normalized, so the pixel data
becomes the amplitudes of a ceil(log2(M*L))-qubit state.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from ._values import integers
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

# Skips whitespace and '#' comments (up to LF or CR), then captures the next
# token, which is empty only at the end of the data.
_TOKEN = re.compile(rb"(?:[ \t\n\r\x0b\x0c]+|#[^\n\r]*)*([^ \t\n\r\x0b\x0c#]*)")


def _num(n: int) -> str:
    """``str(n)``, or n's size when it has more digits than the interpreter
    will print."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' * (n < 0)}<{n.bit_length()}-bit integer>"


def _exact_ints(values: Iterable, what: str) -> tuple[int, ...]:
    try:
        return integers(values)
    except TypeError as exc:
        raise DomainError(f"{what} must be integers: {exc}") from None


@dataclass(frozen=True)
class GrayImage:
    """Row-major grayscale pixels with the bit depth declared by maxval."""

    rows: int
    cols: int
    pixels: tuple[int, ...]
    maxval: int = 255

    def __post_init__(self) -> None:
        rows, cols, maxval = _exact_ints((self.rows, self.cols, self.maxval), "rows, cols, maxval")
        pixels = _exact_ints(self.pixels, "pixels")
        for name, value in zip(("rows", "cols", "maxval", "pixels"), (rows, cols, maxval, pixels)):
            object.__setattr__(self, name, value)
        if rows < 1 or cols < 1:
            raise DomainError(f"image dimensions must be positive, got {_num(rows)}x{_num(cols)}")
        if not 1 <= maxval <= 65535:
            raise MaxvalOutOfRange(f"maxval must lie in [1, 65535], got {_num(maxval)}")
        if len(pixels) != rows * cols:
            size = f"{_num(rows)}x{_num(cols)}"
            raise DomainError(f"{size} image needs {_num(rows * cols)} pixels, got {len(pixels)}")
        if min(pixels) < 0 or max(pixels) > maxval:
            p = next(p for p in pixels if not 0 <= p <= maxval)
            raise PixelExceedsMaxval(f"pixel value {_num(p)} outside [0, {maxval}]")

    def pixel(self, i: int, j: int) -> int:
        """Value at row i, column j (0-based)."""
        i, j = _exact_ints((i, j), "pixel indices")
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise DomainError(f"pixel ({_num(i)}, {_num(j)}) outside {self.rows}x{self.cols} image")
        return self.pixels[i * self.cols + j]


def _int(token: bytes, what: str) -> int:
    if not token:
        raise TruncatedData("header ended early")
    if not token.isdigit():
        raise PgmError(f"malformed {what} token {token!r}")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise PgmError(f"{what} token of {len(token)} digits is too long") from None


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
        # the data holds at most len(data) tokens before the empty one at its end
        pixels = [_int(m[1], "sample") for m in islice(tokens, min(count, len(data) + 1))]
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
            raise TruncatedData(f"raster holds {len(raster) // depth} of {_num(count)} samples")
        pixels = np.frombuffer(raster, "u1" if depth == 1 else ">u2").tolist()
    return GrayImage(rows=height, cols=width, pixels=pixels, maxval=maxval)


def unfold(image: GrayImage) -> list[float]:
    """Flatten column-major: column 0 top to bottom, then column 1, and so on."""
    cols, px = image.cols, image.pixels
    return [float(p) for j in range(cols) for p in px[j::cols]]


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

    The int64 sum of the squares is exact below 2**31 pixels, since each
    square is below 2**32 (the pixel tuple of a larger image would alone
    take 16 GiB).  ``float()`` of an int rounds the exact sum half to even,
    and so does fsum of the float squares, which are exact.
    """
    return math.sqrt(float(int(np.dot(pixels, pixels))))


def encode(image: GrayImage) -> RealState:
    """Unfold, pad, and normalize an image into a statevector.

    Gives the same state as ``normalize(pad_pow2(unfold(image)))``, bit for
    bit, with one float per pixel value: the values 0..maxval are divided by
    the norm once, and every amplitude is the float of its pixel's value, so
    equal pixels share one float object.
    """
    rows, cols, count = image.rows, image.cols, len(image.pixels)
    size = _pow2_size(count)
    vec = np.zeros(size, np.int64)
    # the column-major order is the transpose of the row-major raster
    raster = np.fromiter(image.pixels, np.int64, count).reshape(rows, cols)
    vec[:count].reshape(cols, rows)[...] = raster.T
    norm = _norm(vec)
    if norm == 0.0:
        raise AllZeroImage("every pixel is zero; the image encodes no state")
    table = (np.arange(image.maxval + 1) / norm).astype(object)
    return RealState(size.bit_length() - 1, table[vec].tolist())
