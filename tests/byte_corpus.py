"""A fixed corpus of CLI runs whose output bytes are pinned by SHA-256.

The images come from one seeded generator: the seventeen ``thumbs`` shapes
(2x2 to 32x32, P5 and P2, n = 2..10), one 128x128 photo-like P5 image
(n = 14), the six ``ingest`` shapes (8-bit and 16-bit P5 and P2, n = 16..18)
and a small P2 file with comments in its header and raster.  Every image but
the ``ingest`` ones runs through ``synth`` to stdout, ``synth --out --qasm
--report`` with and without pruning, ``verify`` and ``stats`` of both
circuits, a ``verify`` whose tolerance no circuit meets, and ``encode``; the
``ingest`` images, whose circuits have 114k to 459k gates, run through
``encode`` alone.  Each run is recorded as the digest of its stdout, its
stderr and each file it writes, and its exit code, with LOG_LEVEL=info so
that the info lines are pinned too.

``DIGESTS`` holds the record of the code that added the corpus.  A change
that means to change output bytes rewrites it with

    PYTHONPATH=src python tests/byte_corpus.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

import numpy as np

DIGESTS = pathlib.Path(__file__).resolve().parent / "golden" / "byte_corpus.json"

THUMB_SHAPES = (
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
PHOTO_SHAPE = ("P5", 255, 128, 128)
INGEST_SHAPES = (
    ("P2", 255, 180, 360),
    ("P5", 255, 300, 400),
    ("P5", 65535, 300, 340),
    ("P2", 255, 200, 330),
    ("P5", 255, 330, 400),
    ("P5", 65535, 330, 400),
)
# header and raster comments, and a row split over two lines
COMMENTED_P2 = (
    b"P2\n# a comment in the header\n4 3 # width and height\n# maxval next\n255\n"
    b"0 17 34 51 # first row\n68 85\n102 119\n# a whole-line comment\n136 153 170 187\n"
)


def pgm(fmt: str, maxval: int, pixels: np.ndarray) -> bytes:
    rows, cols = pixels.shape
    header = b"%s\n%d %d\n%d\n" % (fmt.encode(), cols, rows, maxval)
    if fmt == "P5":
        return header + pixels.astype(">u2" if maxval > 255 else "u1").tobytes()
    lines = (b" ".join(b"%d" % v for v in row) for row in pixels.tolist())
    return header + b"\n".join(lines) + b"\n"


def photo_like(rng: np.random.Generator, rows: int, cols: int, maxval: int) -> np.ndarray:
    """Smooth waves over a gradient, plus grain, in 0..maxval with no zero
    region, so that nothing of its circuit is pruned."""
    y = np.linspace(0.0, 1.0, rows)[:, None]
    x = np.linspace(0.0, 1.0, cols)[None, :]
    field = rng.uniform(-1, 1) * x + rng.uniform(-1, 1) * y
    for _ in range(5):
        fx, fy = rng.uniform(0.3, 5.0, size=2)
        field = field + np.cos(2 * np.pi * (fx * x + fy * y) + rng.uniform(0, 2 * np.pi)) / 4
    field = field + 0.03 * rng.standard_normal((rows, cols))
    field = (field - field.min()) / (field.max() - field.min())
    return 1 + np.rint(field * (maxval - 1)).astype(np.int64)


def images() -> list[tuple[str, bytes, bool]]:
    """(name, PGM bytes, whether it is synthesized) for every input."""
    out = []
    for k, (fmt, maxval, rows, cols) in enumerate(THUMB_SHAPES):
        rng = np.random.default_rng([26, 1, k])
        pixels = rng.integers(0, maxval + 1, size=(rows, cols))
        pixels[0, 0] = max(pixels[0, 0], 1)
        out.append((f"thumb{k:02d}-{fmt}-{rows}x{cols}", pgm(fmt, maxval, pixels), True))
    fmt, maxval, rows, cols = PHOTO_SHAPE
    photo = photo_like(np.random.default_rng([26, 2]), rows, cols, maxval)
    out.append((f"photo-{fmt}-{rows}x{cols}", pgm(fmt, maxval, photo), True))
    for k, (fmt, maxval, rows, cols) in enumerate(INGEST_SHAPES):
        pixels = photo_like(np.random.default_rng([26, 3, k]), rows, cols, maxval)
        out.append((f"ingest{k}-{fmt}-{maxval}-{rows}x{cols}", pgm(fmt, maxval, pixels), False))
    out.append(("commented-P2", COMMENTED_P2, True))
    return out


def commands(name: str, synthesized: bool) -> list[tuple[str, list[str], list[str]]]:
    """(label, argv, files written) of the runs of one input, in order;
    later runs read what earlier ones wrote."""
    image = f"{name}.pgm"
    runs = [("encode", ["encode", image, f"{name}.state.json"], [f"{name}.state.json"])]
    if not synthesized:
        return runs
    runs.append(("synth-stdout", ["synth", image], []))
    for prune in ("--prune", "--no-prune"):
        stem = f"{name}{prune}"
        made = [f"{stem}.json", f"{stem}.qasm", f"{stem}.report.json"]
        qasm, report = ["--qasm", made[1]], ["--report", made[2]]
        runs += [
            (f"synth{prune}", ["synth", image, prune, "--out", made[0], *qasm, *report], made),
            (f"verify{prune}", ["verify", image, made[0]], []),
            (f"stats{prune}", ["stats", made[0]], []),
        ]
    runs.append(("verify-tol", ["verify", image, f"{name}--prune.json", "--tol", "0"], []))
    return runs


def run(argv: list[str]) -> tuple[int, bytes, bytes]:
    """``cli.main(argv)`` in this process: its exit code and the bytes it
    wrote to stdout and stderr."""
    from ryprep import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(directory: pathlib.Path, only: tuple[str, ...] = ()) -> dict[str, object]:
    """The digest record of the corpus, run with directory as the working
    directory, or of the runs whose label starts with one of only."""
    digests: dict[str, object] = {}
    cwd, level = os.getcwd(), os.environ.get("LOG_LEVEL")
    os.chdir(directory)
    os.environ["LOG_LEVEL"] = "info"
    try:
        for name, data, synthesized in images():
            pathlib.Path(f"{name}.pgm").write_bytes(data)
            for label, argv, made in commands(name, synthesized):
                if only and not label.startswith(only):
                    continue
                code, out, err = run(argv)
                key = f"{name} {label}"
                digests[f"{key} exit"] = code
                digests[f"{key} stdout"] = sha(out)
                digests[f"{key} stderr"] = sha(err)
                for path in made:
                    digests[f"{key} {path}"] = sha(pathlib.Path(path).read_bytes())
    finally:
        os.chdir(cwd)
        if level is None:
            del os.environ["LOG_LEVEL"]
        else:
            os.environ["LOG_LEVEL"] = level
    return digests


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = record(pathlib.Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
