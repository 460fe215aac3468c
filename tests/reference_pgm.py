"""Reference PGM parser, written the plain way: a byte-at-a-time token
scanner for the header and the P2 samples, separate 8-bit and 16-bit P5
decoders, and its own per-sample range check before ``GrayImage`` is built.
``ryprep.load_pgm`` must agree with it image for image and exception for
exception; only the text of ``PixelExceedsMaxval`` differs, and an over-long
decimal token escapes here as the interpreter's own ``ValueError``.
"""

from ryprep import GrayImage
from ryprep.errors import BadMagic, MaxvalOutOfRange, PgmError, PixelExceedsMaxval, TruncatedData

_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")


class _Scanner:
    """Token scanner over PGM header bytes; '#' starts a comment to end of line."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def _skip_filler(self):
        data, n = self.data, len(self.data)
        while self.pos < n:
            byte = data[self.pos]
            if byte in _WHITESPACE:
                self.pos += 1
            elif byte == 0x23:  # '#'
                while self.pos < n and data[self.pos] not in (0x0A, 0x0D):
                    self.pos += 1
            else:
                return

    def next_token(self):
        self._skip_filler()
        if self.pos >= len(self.data):
            raise TruncatedData("header ended early")
        start = self.pos
        data, n = self.data, len(self.data)
        while self.pos < n and data[self.pos] not in _WHITESPACE and data[self.pos] != 0x23:
            self.pos += 1
        return data[start : self.pos]

    def next_int(self, what):
        token = self.next_token()
        if not token.isdigit():
            raise PgmError(f"malformed {what} token {token!r}")
        return int(token)


def load_pgm(data):
    scanner = _Scanner(data)
    try:
        magic = scanner.next_token()
    except TruncatedData:
        raise BadMagic("empty input") from None
    if magic not in (b"P2", b"P5"):
        raise BadMagic(f"expected P2 or P5, got {magic!r}")
    width = scanner.next_int("width")
    height = scanner.next_int("height")
    maxval = scanner.next_int("maxval")
    if not 1 <= maxval <= 65535:
        raise MaxvalOutOfRange(f"maxval must lie in [1, 65535], got {maxval}")
    if width < 1 or height < 1:
        raise PgmError(f"image dimensions must be positive, got {width}x{height}")
    count = width * height

    if magic == b"P2":
        pixels = [scanner.next_int("sample") for _ in range(count)]
    else:
        if scanner.pos >= len(data):
            raise TruncatedData("no raster after header")
        if data[scanner.pos] not in _WHITESPACE:
            raise PgmError("maxval must be followed by a single whitespace byte")
        start = scanner.pos + 1
        if maxval < 256:
            raster = data[start : start + count]
            if len(raster) < count:
                raise TruncatedData(f"raster holds {len(raster)} of {count} samples")
            pixels = list(raster)
        else:
            raster = data[start : start + 2 * count]
            if len(raster) < 2 * count:
                raise TruncatedData(f"raster holds {len(raster) // 2} of {count} samples")
            pixels = [raster[2 * k] << 8 | raster[2 * k + 1] for k in range(count)]

    for p in pixels:
        if p > maxval:
            raise PixelExceedsMaxval(f"sample {p} exceeds maxval {maxval}")
    return GrayImage(rows=height, cols=width, pixels=tuple(pixels), maxval=maxval)
