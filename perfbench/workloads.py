"""Seeded input images for the three workloads.

Every image is drawn from ``numpy.random.default_rng([seed, workload, stream,
index])``, so one seed always yields the same images, no two images of a run
are alike, and the warm-up image (stream 1) never equals a timed one
(stream 0).  Shapes and formats cycle in a fixed order, so every run has the
same mix to within one cycle; runs stop at a cycle boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# the paper's worked 4-pixel example, row-major: [[0, 192], [128, 255]]
WORKED_EXAMPLE = np.array([[0, 192], [128, 255]], dtype=np.int64)

# (format, maxval, rows, cols): 2x2 up to 32x32, square and not, n = 2..10
THUMB_CYCLE = (
    ("P5", 255, 2, 2),
    ("P2", 255, 2, 3),
    ("P5", 255, 3, 3),
    ("P2", 255, 4, 4),
    ("P5", 255, 3, 5),
    ("P2", 255, 5, 6),
    ("P5", 255, 4, 8),
    ("P2", 255, 6, 7),
    ("P5", 255, 8, 8),
    ("P2", 255, 7, 10),
    ("P5", 255, 11, 11),
    ("P2", 255, 12, 16),
    ("P5", 255, 16, 16),
    ("P2", 255, 13, 20),
    ("P5", 255, 20, 25),
    ("P2", 255, 24, 32),
    ("P5", 255, 32, 32),
)

PHOTO_CYCLE = (("P5", 255, 128, 128),)

# three formats, n = 16..18, non-power-of-two shapes of about equal cost
# (P2 parses slowest, 8-bit P5 fastest, so P2 gets the fewest pixels): the
# median image then stands for the whole cycle, not for one shape.
INGEST_CYCLE = (
    ("P2", 255, 180, 360),
    ("P5", 255, 300, 400),
    ("P5", 65535, 300, 340),
    ("P2", 255, 200, 330),
    ("P5", 255, 330, 400),
    ("P5", 65535, 330, 400),
)

WORKLOADS = {
    "thumbs": (1, THUMB_CYCLE),
    "photo14": (2, PHOTO_CYCLE),
    "ingest": (3, INGEST_CYCLE),
}

# pipeline each workload times per image
COMMANDS = {"thumbs": "synth+verify", "photo14": "synth+verify", "ingest": "encode"}

_ASCII = [b"%d" % v for v in range(256)]


@dataclass(frozen=True)
class Image:
    """One input: row-major pixels and the PGM flavour to write them in."""

    fmt: str
    maxval: int
    pixels: np.ndarray

    @property
    def label(self) -> str:
        rows, cols = self.pixels.shape
        depth = 16 if self.maxval > 255 else 8
        return f"{self.fmt}/{depth} {rows}x{cols}"

    def pgm(self) -> bytes:
        rows, cols = self.pixels.shape
        header = b"%s\n%d %d\n%d\n" % (self.fmt.encode(), cols, rows, self.maxval)
        if self.fmt == "P5":
            dtype = ">u2" if self.maxval > 255 else "u1"
            return header + self.pixels.astype(dtype).tobytes()
        if self.maxval > 255:
            raise ValueError("ASCII images here are 8-bit")
        lines = (b" ".join([_ASCII[v] for v in row]) for row in self.pixels.tolist())
        return header + b"\n".join(lines) + b"\n"


def photo_like(rng: np.random.Generator, rows: int, cols: int, lo: int, hi: int) -> np.ndarray:
    """Smooth gradients and waves plus grain, given a fixed histogram: the
    pixel values are always lo..hi spread evenly, only their places differ.
    So every image of one shape costs the same to parse and to print, and a
    run's figures do not depend on how bright its seed's images came out."""
    y = np.linspace(0.0, 1.0, rows)[:, None]
    x = np.linspace(0.0, 1.0, cols)[None, :]
    field = rng.uniform(-1, 1) * x + rng.uniform(-1, 1) * y
    for _ in range(6):
        fx, fy = rng.uniform(0.3, 5.0, size=2)
        phase = rng.uniform(0.0, 2 * math.pi)
        field = field + rng.uniform(0.2, 1.0) / (1 + fx + fy) * np.cos(
            2 * math.pi * (fx * x + fy * y) + phase
        )
    field = field + 0.03 * rng.standard_normal((rows, cols))
    count = rows * cols
    pixels = np.empty(count, dtype=np.int64)
    ramp = lo + np.arange(count) * (hi - lo + 1) // count
    pixels[np.argsort(field, axis=None, kind="stable")] = ramp
    return pixels.reshape(rows, cols)


def _make(workload: str, shape: tuple, rng: np.random.Generator) -> Image:
    fmt, maxval, rows, cols = shape
    if workload == "thumbs":
        pixels = rng.integers(0, maxval + 1, size=(rows, cols))
        if not pixels.any():
            pixels[0, 0] = 1
    elif workload == "photo14":
        # no zero pixel, so nothing prunes and the gate count is exact
        pixels = photo_like(rng, rows, cols, 1, maxval)
    else:
        pixels = photo_like(rng, rows, cols, 0, maxval)
    return Image(fmt, maxval, pixels)


def cycle_length(workload: str) -> int:
    return len(WORKLOADS[workload][1])


def images(workload: str, seed: int) -> Iterator[Image]:
    """The endless sequence of timed images of one workload and seed."""
    wid, cycle = WORKLOADS[workload]
    index = 0
    while True:
        rng = np.random.default_rng([seed, wid, 0, index])
        yield _make(workload, cycle[index % len(cycle)], rng)
        index += 1


def warmup_image(workload: str, seed: int) -> Image:
    """Image processed once before timing: the worked example for thumbs,
    otherwise a fresh image of the workload's first shape."""
    if workload == "thumbs":
        return Image("P5", 255, WORKED_EXAMPLE.copy())
    wid, cycle = WORKLOADS[workload]
    return _make(workload, cycle[0], np.random.default_rng([seed, wid, 1, 0]))
