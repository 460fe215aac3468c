"""State JSON: the compiled writer ``_simkernel.state_json`` and its NumPy
fallback ``states._state_json_numpy`` against ``json.dumps``, byte for byte,
on palettes from ``np.unique`` and from ``encode``; ``RealState.to_json`` and
``RealState.write_json`` on both, each bound as ``states._state_json``; the
compiled writer's own formatter ``_short_repr`` against ``repr``; its values
pass in two halves on two threads from ``_SPLIT_AT`` values on; and the
compiled writer's argument checks and its calls of ``write``."""

import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ryprep
from ryprep import RealState, encode, load_pgm, normalize, states


def _dumps(n_qubits, amps):
    return json.dumps({"n_qubits": n_qubits, "amplitudes": np.asarray(amps).tolist()})


def _assert_same(doc, expect):
    """doc == expect, naming the first amplitude that differs: pytest's own
    diff of two documents of many megabytes runs for minutes."""
    if doc != expect:
        got, want = doc.split(", "), expect.split(", ")
        at = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), len(want))
        pytest.fail(f"item {at}: {got[at : at + 1]} != {want[at : at + 1]}")


@pytest.fixture(params=["numpy", "c"])
def to_json(request, monkeypatch):
    """``RealState.to_json`` with the NumPy fallback (the extension absent)
    or with the compiled writer built from source."""
    if request.param == "numpy":
        writer = states._state_json_numpy
    else:
        writer = request.getfixturevalue("simkernel").state_json
    monkeypatch.setattr(states, "_state_json", writer)
    return RealState.to_json


def _streamed(state_json):
    """``state_json`` with a ``write`` argument: the document that it hands to
    write, gathered in a BytesIO and decoded."""

    def call(n_qubits, values, index):
        out = io.BytesIO()
        assert state_json(n_qubits, values, index, out.write) is None
        return out.getvalue().decode("ascii")

    return call


@pytest.fixture(params=["numpy", "c"])
def writer(request):
    """``state_json``'s NumPy fallback, or the compiled writer built from
    source, each through ``_streamed``."""
    if request.param == "numpy":
        return _streamed(states._state_json_numpy)
    return _streamed(request.getfixturevalue("simkernel").state_json)


# repr switches to exponent form below 1e-4 and from 1e16 on
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-05, 0.0001, 9.999999999999999e-05, 1e16]
EDGES += [9999999999999998.0, 1e22, -1e22, 2.2250738585072014e-308, 1.7976931348623157e308]
EDGES += [-0.1, 1 / 3, 0.5, 1.0]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        # few values, many repeats, as in an image state
        st.lists(st.sampled_from(EDGES) | FINITE, min_size=1, max_size=6).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=400)
        ),
        st.lists(FINITE, min_size=1, max_size=200, unique=True),
        st.lists(st.sampled_from(EDGES), min_size=1, max_size=50),
    ),
    st.integers(0, 64),
)
def test_compiled_and_numpy_writers_match_json_dumps(simkernel, values, n_qubits):
    amps = np.array(values, dtype=np.float64)
    expect = _dumps(n_qubits, amps)
    palette = states._palette_of(amps)
    assert _streamed(simkernel.state_json)(n_qubits, *palette) == expect
    assert _streamed(states._state_json_numpy)(n_qubits, *palette) == expect


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.sampled_from(EDGES) | FINITE, min_size=1, max_size=20).flatmap(
        lambda pool: st.tuples(
            st.just(pool), st.lists(st.integers(0, len(pool) - 1), max_size=300)
        )
    )
)
def test_palettes_with_repeated_and_unused_values(simkernel, palette):
    """A palette as encode makes it may hold values that no amplitude uses,
    and any palette may hold one value twice."""
    values, index = np.array(palette[0]), np.array(palette[1], np.uint32)
    expect = _dumps(5, values[index])
    assert _streamed(simkernel.state_json)(5, values, index) == expect
    assert _streamed(states._state_json_numpy)(5, values, index) == expect


def test_all_distinct_values(simkernel):
    amps = np.random.default_rng(5).normal(size=5000)
    expect = _dumps(12, amps)
    palette = states._palette_of(amps)
    compiled, fallback = _streamed(simkernel.state_json), _streamed(states._state_json_numpy)
    assert compiled(12, *palette) == expect == fallback(12, *palette)


def test_read_only_buffer_and_empty_array(simkernel):
    values, index = np.array([-0.8, 0.6]), np.array([1, 0], np.uint32)
    values.setflags(write=False)
    index.setflags(write=False)
    doc = '{"n_qubits": 1, "amplitudes": [0.6, -0.8]}'
    compiled, fallback = _streamed(simkernel.state_json), _streamed(states._state_json_numpy)
    assert compiled(1, values, index) == doc
    empty = np.array([], np.uint32)
    for values in (np.array([]), np.array([0.5, math.inf])[:1]):
        assert compiled(0, values, empty) == '{"n_qubits": 0, "amplitudes": []}'
        assert fallback(0, values, empty) == _dumps(0, [])


@pytest.mark.parametrize(
    "state",
    [
        RealState(0, (1.0,)),
        RealState(0, (-1.0,)),
        RealState(1, (0.6, 0.8)),
        RealState(1, (-0.0, 1.0)),
        RealState(1, (5e-324, -1.0)),
    ],
    ids=repr,
)
def test_sizes_one_and_two(to_json, state):
    assert to_json(state) == _dumps(state.n_qubits, state.array)


def _image_state(fmt: bytes, rows: int, cols: int, maxval: int) -> RealState:
    """The state of a seeded image with smooth regions, runs of equal pixels
    and zeros, read from its PGM bytes; it has the zero padding up to the
    next power of two."""
    rng = np.random.default_rng([rows, cols, maxval, 13])
    y, x = np.mgrid[0:rows, 0:cols]
    smooth = (np.sin(x / 17.0) * np.cos(y / 23.0) + 1) / 2 * maxval
    pixels = np.clip(smooth + rng.normal(0, maxval / 50, (rows, cols)), 0, maxval).astype(int)
    pixels[:, : cols // 8] = pixels[0, 0]
    pixels[rng.random((rows, cols)) < 0.05] = 0
    head = b"%s\n%d %d\n%d\n" % (fmt, cols, rows, maxval)
    if fmt == b"P5":
        data = head + pixels.astype("u1" if maxval < 256 else ">u2").tobytes()
    else:
        data = head + b"\n".join(b" ".join(b"%d" % p for p in row) for row in pixels.tolist())
    state = encode(load_pgm(data))
    assert state.n_qubits == (rows * cols - 1).bit_length()
    return state


IMAGES = {
    "p2-n16": (b"P2", 180, 360, 255),
    "p2-n17": (b"P2", 200, 330, 255),
    "p5-8bit-n16": (b"P5", 180, 360, 255),
    "p5-8bit-n18": (b"P5", 330, 400, 255),
    "p5-16bit-n17": (b"P5", 300, 340, 65535),
    "p5-16bit-n18": (b"P5", 330, 400, 65535),
}


@pytest.mark.parametrize("image", ["p2-n16", "p2-n17", "p5-8bit-n18", "p5-16bit-n17", "p5-16bit-n18"])
def test_image_states(to_json, image):
    state = _image_state(*IMAGES[image])
    _assert_same(to_json(state), _dumps(state.n_qubits, state.array))


def _p5_state(pixels: np.ndarray, maxval: int) -> RealState:
    rows, cols = pixels.shape
    head = b"P5\n%d %d\n%d\n" % (cols, rows, maxval)
    return encode(load_pgm(head + pixels.astype("u1" if maxval < 256 else ">u2").tobytes()))


def _all_16_bit_values() -> RealState:
    """A 300x340 image that uses every one of the 65,536 16-bit values."""
    rng = np.random.default_rng(65536)
    pixels = np.concatenate([np.arange(65536), rng.integers(0, 65536, 300 * 340 - 65536)])
    return _p5_state(rng.permutation(pixels).reshape(300, 340), 65535)


def _few_16_bit_values() -> RealState:
    """A 300x340 16-bit image that uses 5 of its palette's 65,536 values."""
    rng = np.random.default_rng(5)
    pixels = rng.choice([0, 1, 7, 40000, 65535], (300, 340))
    return _p5_state(pixels, 65535)


# state, and whether it holds encode's palette rather than its amplitudes
WRITTEN = {
    "p2-8bit": (lambda: _image_state(b"P2", 120, 150, 255), True),
    "p5-8bit": (lambda: _image_state(b"P5", 130, 170, 255), True),
    "p5-16bit-every-value": (_all_16_bit_values, True),
    "p5-16bit-five-values": (_few_16_bit_values, True),
    "thumbnail": (lambda: _image_state(b"P5", 5, 7, 255), False),
    "constructed": (lambda: normalize(np.random.default_rng(12).normal(size=4096)), False),
}


@pytest.mark.parametrize("state, palette", WRITTEN.values(), ids=WRITTEN.keys())
def test_write_json_writes_what_to_json_returns(to_json, tmp_path, state, palette):
    """``write_json`` and then a newline, as ``ryprep encode`` writes them
    to a file, make the bytes of ``to_json() + "\\n"``, for each kind of
    state: encode's palette and pixel index, whole or barely used, a state
    of the amplitudes themselves, and one whose values ``np.unique`` finds."""
    state = state()
    assert (state._palette is not None) == palette
    path = tmp_path / "state.json"
    with open(path, "wb") as fh:
        assert state.write_json(fh) is None
        fh.write(b"\n")
    _assert_same(path.read_bytes().decode("ascii"), to_json(state) + "\n")


@pytest.mark.parametrize("image", ["p5-8bit-n16", "p5-8bit-n18", "p5-16bit-n17", "p5-16bit-n18"])
def test_own_formatter_answers_for_image_amplitudes(simkernel, image):
    """The compiled writer's own formatter, not PyOS_double_to_string,
    writes every nonzero amplitude of an 8- or 16-bit image state, and
    writes what repr does."""
    amps = _image_state(*IMAGES[image]).array
    values = np.unique(amps[amps != 0]).tolist()
    assert list(map(simkernel._short_repr, values)) == list(map(repr, values))


def _near_short_decimals() -> np.ndarray:
    """d * 10**k for d in 1..9999 and k in -20..20, and the floats 1 and 2
    ulps above and below each; every other one negated."""
    base = np.array([float(f"{d}e{k}") for k in range(-20, 21) for d in range(1, 10000)])
    near = [base]
    for way in (math.inf, -math.inf):
        one = np.nextafter(base, way)
        near += [one, np.nextafter(one, way)]
    values = np.concatenate(near)
    values[1::2] *= -1
    return values


def _exact_ties() -> list[float]:
    """Floats whose exact decimal expansion has 16, 17 or 18 significant
    digits, the last a 5, so that rounding them to one digit fewer is a tie:
    m / 2**b, for m odd and below 2**53, has b decimals and ends in 5."""
    rng = np.random.default_rng(14)
    ties = []
    for b in range(1, 60):
        for digits in (16, 17, 18):
            lo, hi = -(-(10 ** (digits - 1)) // 5**b), min(10**digits // 5**b, 2**53)
            if lo < hi:
                ties += [math.ldexp(m | 1, -b) for m in rng.integers(lo, hi, 64).tolist()]
    return ties


def _value_set(name: str) -> np.ndarray:
    rng = np.random.default_rng(list(name.encode()))
    if name == "uniform":
        return rng.random(1_000_000)
    if name == "log-uniform":
        return 10.0 ** rng.uniform(-20, 20, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    if name == "bit-patterns":
        values = rng.integers(0, 2**64, 300_000, dtype=np.uint64, endpoint=False).view(np.float64)
        return values[np.isfinite(values)]
    if name == "near-short-decimals":
        return _near_short_decimals()
    if name == "powers-of-two":
        powers = [math.ldexp(1.0, k) for k in range(-60, 61)]
        return np.array(powers + [-p for p in powers])
    if name == "exact-ties":
        ties = _exact_ties()
        return np.array(ties + [-t for t in ties])
    assert name == "edges"
    return np.array(EDGES + [-x for x in EDGES])


VALUE_SETS = [
    "uniform",
    "log-uniform",
    "bit-patterns",
    "near-short-decimals",
    "powers-of-two",
    "exact-ties",
    "edges",
]


@pytest.fixture(scope="module", params=VALUE_SETS)
def value_set(request):
    amps = _value_set(request.param)
    return amps, _dumps(20, amps)


def test_value_sets(writer, value_set):
    """Sets of distinct values that reach each branch of the compiled
    writer's formatter and each of its reasons to defer: 10**6 uniform in
    [0, 1), log-uniform over 1e-20..1e20, random finite bit patterns, the
    neighbours of short decimals, powers of two (whose rounding interval is
    not symmetric), exact decimal ties, and the edges of repr's two forms."""
    amps, expect = value_set
    _assert_same(writer(20, *states._palette_of(amps)), expect)


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(FINITE)
def test_own_formatter_is_repr_or_defers(simkernel, x):
    text = simkernel._short_repr(x)
    assert text is None or (text == repr(x) and len(text) <= 23)
    doc = _streamed(simkernel.state_json)(0, np.array([x]), np.zeros(1, np.uint32))
    assert doc == _dumps(0, [x])


@pytest.mark.parametrize(
    "x",
    [0.0, -0.0, 5e-324, 2.2250738585072011e-308, 0.5, 0.125, -2.0**-40, 2.0**40, 1e-16, 3e15]
    + [1e22, 1234567890123456.5, 1000000000000000.25, math.inf, -math.inf, math.nan],
)
def test_own_formatter_defers(simkernel, x):
    """Zero, subnormals, powers of two, values outside the fast path's range
    (below 2**-53 or from 2**51 on), exact ties and non-finite values are
    left to PyOS_double_to_string."""
    assert simkernel._short_repr(x) is None


def test_to_json_calls_the_compiled_writer_when_it_imports(simkernel, monkeypatch):
    """A state from the constructor hands the writer its distinct values and
    their index; a state from encode of more pixels than palette entries,
    its palette as it is."""
    calls = []

    def writer(n_qubits, values, index, write):
        calls.append((n_qubits, values, index))
        return simkernel.state_json(n_qubits, values, index, write)

    monkeypatch.setattr(states, "_state_json", writer)
    state = normalize([0, 3, 0, 4])
    assert state.to_json() == '{"n_qubits": 2, "amplitudes": [0.0, 0.6, 0.0, 0.8]}'
    ((n_qubits, values, index),) = calls
    assert n_qubits == 2 and values.tolist() == [0.0, 0.6, 0.8]
    assert index.dtype == np.uint32 and index.tolist() == [0, 1, 0, 2]
    # more pixels than palette entries, so that the state holds its palette
    image = encode(load_pgm(b"P2 2 4 1 0 0 1 0 0 1 1 1"))
    assert image.to_json() == '{"n_qubits": 3, "amplitudes": [%s]}' % ", ".join(
        [repr(p / math.sqrt(4)) for p in (0, 1, 0, 1, 0, 0, 1, 1)]
    )
    assert calls[1][1:] == image._palette and calls[1][1].tolist() == [0.0, 0.5]


def test_kernel_backend_c_means_the_compiled_writer():
    """Both helpers come from one module: ``KERNEL_BACKEND`` is ``"c"``
    exactly when the compiled writer, not its fallback, is bound as
    ``states._state_json``.  (The in-process answer depends on the build;
    tests/test_kernels.py checks both answers on a copy of the package.)"""
    compiled = states._state_json is not states._state_json_numpy
    assert (ryprep.KERNEL_BACKEND == "c") == compiled
    if compiled:
        assert states._state_json.__module__ == "ryprep._simkernel"


def _distinct_state(n_qubits: int, count: int):
    """n_qubits and random values and index, all values used."""
    rng = np.random.default_rng([n_qubits, count])
    values = rng.normal(size=count)
    index = rng.permutation(np.resize(np.arange(count, dtype=np.uint32), 1 << n_qubits))
    return n_qubits, values, index


def test_pieces_are_memoryviews_of_at_most_64_kib(simkernel):
    """The streamed document comes in pieces of at most 65,536 bytes, each
    full but for the last, as memoryviews; what write returns is ignored."""
    args = _distinct_state(15, 5000)
    pieces = []

    def write(piece):
        pieces.append((type(piece), bytes(piece)))
        return 0

    assert simkernel.state_json(*args, write) is None
    assert {kind for kind, _ in pieces} == {memoryview}
    sizes = [len(data) for _, data in pieces]
    assert len(sizes) > 5 and max(sizes) <= 65536 and min(sizes[:-1]) > 65536 - 32
    doc = b"".join(data for _, data in pieces).decode("ascii")
    n_qubits, values, index = args
    assert doc == _dumps(n_qubits, values[index])


def test_pieces_are_released_when_write_returns(simkernel):
    """Each piece is a view of a chunk that is refilled for the next one, so
    it is released when write returns: a write that keeps it cannot read
    other bytes through it later."""
    pieces = []
    assert simkernel.state_json(*_distinct_state(15, 5000), pieces.append) is None
    assert len(pieces) > 5
    for piece in pieces:
        with pytest.raises(ValueError, match="released memoryview"):
            bytes(piece)


def test_write_error_propagates(simkernel):
    """What write raises partway through the document is what the call
    raises, and nothing more is written."""
    pieces = []

    def write(piece):
        pieces.append(len(piece))
        if len(pieces) == 2:
            raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match=r"^\[Errno 28\] No space left on device$"):
        simkernel.state_json(*_distinct_state(15, 5000), write)
    assert len(pieces) == 2


def test_write_must_be_callable(simkernel):
    with pytest.raises(TypeError, match="^state_json: write must be callable, not int$"):
        simkernel.state_json(*_distinct_state(2, 2), 1)


def test_write_is_required(simkernel):
    """There is one call form: without write, or with None for it, the
    writer is refused rather than returning a str."""
    args = _distinct_state(2, 2)
    with pytest.raises(TypeError, match=r"^state_json\(\) takes exactly 4 arguments \(3 given\)$"):
        simkernel.state_json(*args)
    with pytest.raises(TypeError, match="^state_json: write must be callable, not NoneType$"):
        simkernel.state_json(*args, None)


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
def test_palettes_around_the_split(simkernel, offset):
    """From ``_SPLIT_AT`` values on, the values pass runs in two halves, the
    upper on a thread of its own: one value below, at and above that count,
    with zeros and powers of two on both sides of the middle and a few values
    unused, the document is json.dumps's."""
    count = simkernel._SPLIT_AT + offset
    rng = np.random.default_rng(count)
    values = 10.0 ** rng.uniform(-9, 0, count) * rng.choice([-1.0, 1.0], count)
    values[rng.integers(0, count, 40)] = [0.0, -0.0, 0.5, 2.0**-20] * 10
    index = rng.integers(0, count, 1 << 15).astype(np.uint32)
    expect = _dumps(15, values[index])
    _assert_same(_streamed(simkernel.state_json)(15, values, index), expect)
    assert _streamed(states._state_json_numpy)(15, values, index) == expect


SPLIT_FAILURES = {
    # the non-finite values' positions, given the middle of the palette
    "lower": lambda mid: [100],
    "lower-last": lambda mid: [mid - 1],
    "upper-first": lambda mid: [mid],
    "upper": lambda mid: [mid + 900, 2 * mid - 1],
    "both": lambda mid: [2 * mid - 3, 7],
    "both-at-the-middle": lambda mid: [mid, mid - 1],
}


@pytest.mark.parametrize("positions", SPLIT_FAILURES.values(), ids=SPLIT_FAILURES.keys())
def test_first_non_finite_value_of_a_split_pass(simkernel, positions):
    """Each half stops at its first value that is not finite, and the call
    names the lowest of all, the lower half's before the upper half's, as a
    pass on one thread does."""
    mid = simkernel._SPLIT_AT
    values = np.random.default_rng(mid).normal(size=2 * mid)
    at = positions(mid)
    values[at] = [math.nan, math.inf, -math.inf][: len(at)]
    index = np.arange(2 * mid, dtype=np.uint32)
    with pytest.raises(ValueError, match=rf"^state_json: values\[{min(at)}\] is not finite$"):
        _streamed(simkernel.state_json)(14, values, index)


def test_deferred_values_in_the_upper_half(simkernel):
    """The thread that reads the upper half calls no Python API, so the
    values its formatter leaves to PyOS_double_to_string (zeros, powers of
    two and exact ties) are staged there and formatted by the emitting pass:
    placed after the middle of the palette, each comes out as its repr."""
    powers = [math.ldexp(1.0, k) for k in range(-60, 61)]
    candidates = [0.0, -0.0] + powers + [-p for p in powers] + _exact_ties()
    deferred = [x for x in candidates if simkernel._short_repr(x) is None]
    assert len(deferred) > 3000
    count = max(2 * len(deferred), simkernel._SPLIT_AT)
    values = np.random.default_rng(count).random(count)
    values[count - len(deferred) :] = deferred
    index = np.random.default_rng(1).permutation(count).astype(np.uint32)
    expect = _dumps(13, values[index])
    _assert_same(_streamed(simkernel.state_json)(13, values, index), expect)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_no_thread_outlives_a_call(simkernel):
    """A call makes at most one thread, for the upper half of the values
    pass, and joins it before the emitting pass: the process has as many
    threads when write is called, and after the call, as before it."""

    def threads():
        return len(os.listdir("/proc/self/task"))

    before, seen = threads(), []
    for count in (256, simkernel._SPLIT_AT, 1 << 16):
        args = _distinct_state(16, count)
        assert simkernel.state_json(*args, lambda piece: seen.append(threads())) is None
    assert threads() == before and set(seen) == {before}


def test_index_changed_during_a_write(simkernel):
    """The emitting pass reads each index entry as it is when it comes to
    it: an entry that a write call sets to a value the hint pass did not
    mark has that value formatted then, from the bits that the values pass
    read, and an entry set past the values is refused."""
    values = (np.arange(4096) + 0.5) / 4096
    for last in (7, 4096):
        index = np.zeros(1 << 16, np.uint32)
        changed = index.copy()
        changed[-3:] = [7, 9, last]
        pieces = []

        def write(piece):
            if not pieces:
                index[:] = changed
                values[7] = math.nan
            pieces.append(bytes(piece))

        if last == 7:
            expect = _dumps(16, values[changed])
            simkernel.state_json(16, values, index, write)
            assert b"".join(pieces).decode("ascii") == expect
        else:
            with pytest.raises(ValueError, match=r"^state_json: index\[65535\] is 4096, past"):
                simkernel.state_json(16, values, index, write)
        values[7] = 7.5 / 4096


PAIR = np.array([0.6, 0.8])
ZERO_ONE = np.array([0, 1], np.uint32)


@pytest.mark.parametrize(
    "values, index, error, match",
    [
        (np.array([math.nan, 0.8]), ZERO_ONE, ValueError, r"^state_json: values\[0\] is not fin"),
        (np.array([0.6, 0.8, math.inf]), ZERO_ONE, ValueError, r"values\[2\] is not finite"),
        (np.array([0.6, -math.inf]), ZERO_ONE, ValueError, r"values\[1\] is not finite"),
        (np.array([0.6, 0.8], np.float32), ZERO_ONE, ValueError, "values has the wrong item type"),
        (np.array([1, 0]), ZERO_ONE, ValueError, "values has the wrong item type"),
        (np.array([[0.6, 0.8]]), ZERO_ONE, ValueError, "values must be one-dimensional"),
        (np.array([0.6, 0.0, 0.8, 0.0])[::2], ZERO_ONE, ValueError, "values must be C-contiguous"),
        ([0.6, 0.8], ZERO_ONE, TypeError, "bytes-like object"),
        (None, ZERO_ONE, TypeError, "bytes-like object"),
        (PAIR, ZERO_ONE.astype(np.int64), ValueError, "index has the wrong item type"),
        (PAIR, ZERO_ONE.astype(np.uint16), ValueError, "index has the wrong item type"),
        (PAIR, ZERO_ONE.astype(np.int32), ValueError, "index has the wrong item type"),
        (PAIR, np.array([0, 7, 1, 7], np.uint32)[::2], ValueError, "index must be C-contiguous"),
        (PAIR, ZERO_ONE.reshape(1, 2), ValueError, "index must be one-dimensional"),
        (PAIR, [0, 1], TypeError, "bytes-like object"),
        (PAIR, np.array([0, 1, 2], np.uint32), ValueError, r"^state_json: index\[2\] is 2, past"),
        (PAIR, np.array([2**32 - 1], np.uint32), ValueError, r"index\[0\] is 4294967295, past"),
        (PAIR[:0], np.array([0], np.uint32), ValueError, r"index\[0\] is 0, past the 0 values"),
    ],
    ids=["nan", "unused-inf", "-inf", "float32", "int64", "2-d", "strided", "list", "none"]
    + ["index-int64", "index-uint16", "index-int32", "index-strided", "index-2-d", "index-list"]
    + ["index-past-end", "index-max", "no-values"],
)
def test_refused(simkernel, values, index, error, match):
    with pytest.raises(error, match=match):
        _streamed(simkernel.state_json)(1, values, index)


def _race(simkernel, values, index, buffer, mask, refusal=None, calls=120):
    """Back-to-back calls of the writer, calls times streaming its document
    to a BytesIO, while another thread xors every entry of buffer with mask
    in a loop.  NumPy ufuncs run without the GIL, so they can change values
    or index while the writer reads them; each is the tail of its buffer,
    which is swept front to back and is long enough that the tail changes
    late in a sweep, while a call is under way.  Each call
    gives a document or, where refusal is a pattern, raises a ValueError
    whose message matches it.  Each document is parsed as it comes and then
    dropped, and must hold one value of the palette per index entry.
    Whether a change overlaps a call at all is up to the scheduler, so this
    can miss a fault but not invent one."""
    interval = sys.getswitchinterval()
    n_qubits = len(index).bit_length() - 1
    palette = set(values.tolist())
    stop = threading.Event()

    def loop():
        while not stop.is_set():
            np.bitwise_xor(buffer, mask, out=buffer)

    def write(call):
        try:
            doc = call(n_qubits, values, index)
        except ValueError as exc:
            if refusal is None or not re.fullmatch(refusal, str(exc)):
                raise
            return
        doc = json.loads(doc)
        assert doc["n_qubits"] == n_qubits and len(doc["amplitudes"]) == len(index)
        assert set(doc["amplitudes"]) <= palette

    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=loop)
    thread.start()
    try:
        for _ in range(calls):
            write(_streamed(simkernel.state_json))
    finally:
        stop.set()
        thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()


# Two palettes for 2**18 index entries, each with a buffer of 8 * 2**18
# entries below its length whose last 2**18 are the index.  256 values are
# too few for the hint pass, so each is formatted before the emitting pass.
# 8,192 values are enough for it to run: short texts at even positions and
# long ones at odd positions, the entries all even, so that xor with 1 turns
# each to a value that the hint pass may not have marked, formatted late,
# with a text of another length.  The values pass reads the 256 values on
# one thread, and the 8,192 in two halves on two threads.
HINTED = np.empty(8192)
HINTED[0::2] = np.arange(4096) / 4.0
HINTED[1::2] = np.random.default_rng(8192).normal(size=4096)
PALETTES = [
    (np.arange(256) / 4.0, lambda: np.random.default_rng(3).integers(0, 256, 8 << 18)),
    (HINTED, lambda: 2 * np.random.default_rng(4).integers(0, 4096, 8 << 18)),
]


def test_index_changed_by_another_thread(simkernel, calls=120):
    """The writer reads each index entry once and copies the records by its
    own copy of them, so every document is whole: JSON of 2**18 values, each
    one of the palette's.  (A second read could find a value with no text.)"""
    assert len(HINTED) >= simkernel._SPLIT_AT > 256
    for values, entries in PALETTES:
        buffer = entries().astype(np.uint32)
        _race(simkernel, values, buffer[-1 << 18 :], buffer, 1, calls=calls)


def test_index_made_out_of_range_by_another_thread(simkernel, calls=120):
    """An entry set past the palette during the call is refused with
    ValueError, naming its position, by the hint pass or the emitting pass,
    or the call returns a whole document from before the change; it never
    reads past the records."""
    assert len(HINTED) >= simkernel._SPLIT_AT > 256
    for values, entries in PALETTES:
        buffer = entries().astype(np.uint32)
        refusal = rf"state_json: index\[\d+\] is \d+, past the {len(values)} values"
        _race(simkernel, values, buffer[-1 << 18 :], buffer, 1 << 20, refusal, calls)


def _values_race(simkernel, count, calls):
    """_race on count values at the end of a buffer of 2**20, each used only
    at the end of an index of 2**18 entries but the first."""
    # all in [1, 2), so that flipping the top exponent bit makes each
    # non-finite and flipping it again restores it
    buffer = np.ones(1 << 20)
    values = buffer[-count:]
    values += np.arange(count) / count
    index = np.zeros(1 << 18, np.uint32)
    index[-count:] = np.arange(count)
    mask = np.uint64(0x400 << 52)
    refusal = r"state_json: values\[\d+\] is not finite"
    _race(simkernel, values, index, buffer.view(np.uint64), mask, refusal, calls=calls)


def test_values_made_non_finite_by_another_thread(simkernel, calls=12000):
    """The writer reads each value once, refusing it if it is not finite,
    and formats it from that read: a value that another thread turns into
    NaN or inf and back is refused, or the document holds it as it was.
    Every value but the first is used only at the end of the index, long
    after the values were read."""
    # most calls are refused at once, so many more are made, to spread them
    # over a few dozen sweeps
    _values_race(simkernel, 256, calls)


def test_values_made_non_finite_during_a_split_pass(simkernel, calls=600):
    """As above, with a palette of 16,384 values, whose two halves are read
    on two threads: each value is still read once, by one of them."""
    assert 16384 >= simkernel._SPLIT_AT
    _values_race(simkernel, 16384, calls)


_HUGE = """
import importlib.util, mmap, resource, sys

path, built = sys.argv[1:]
size = 4 << 32
with open(path, "wb") as f:
    f.truncate(size)
with open(path, "rb") as f:
    index = memoryview(mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)).cast("I")
values = memoryview(bytes(8)).cast("d")
spec = importlib.util.spec_from_file_location("ryprep._simkernel", built)
kernel = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel)
with open("/proc/self/statm") as f:
    mapped = int(f.read().split()[0]) * mmap.PAGESIZE
# room for 1 GiB more, not for a document of 2**32 amplitudes
resource.setrlimit(resource.RLIMIT_AS, (mapped + (1 << 30), resource.RLIM_INFINITY))
pieces = []
try:
    kernel.state_json(32, values, index, pieces.append)
except ValueError as exc:
    print(exc, len(pieces))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/statm")
def test_refused_at_2_to_the_32_values(simkernel, tmp_path):
    """An index of 2**32 entries, a sparse file mapped read-only, is refused
    before anything is allocated, read or written, in a process without the
    address space for the document."""
    res = subprocess.run(
        [sys.executable, "-c", _HUGE, str(tmp_path / "huge"), simkernel.__file__],
        capture_output=True,
        text=True,
    )
    refusal = "state_json: index holds 4294967296 entries, 2**32 or more 0\n"
    assert res.stdout == refusal, res.stderr


class _WriteError(Exception):
    pass


class _FailSecond:
    """A write that takes the first piece and raises at the second."""

    def __init__(self):
        self.calls = 0

    def __call__(self, piece):
        self.calls += 1
        if self.calls == 2:
            raise _WriteError("disk full")


@pytest.mark.parametrize("where", ["none", "last", "index", "emit", "write"])
def test_no_memory_is_kept(simkernel, monkeypatch, where):
    """The records, the hint array and the chunk are PyMem blocks or Python
    objects, which tracemalloc sees, and no call keeps any of them: not a
    document, streamed or returned by ``RealState.to_json``; not a refusal
    of the last of 4,096 values, or of the last index entry, by the hint
    pass before anything is formatted ("index") or by the emitting pass
    after the first piece is written ("emit", 64 values over 4,096 entries,
    too few for the hint pass); and not a write that raises at the second
    piece."""
    values = np.random.default_rng(9).normal(size=4096)
    index = np.arange(4096, dtype=np.uint32)
    if where == "last":
        values[-1] = math.nan
    elif where == "index":
        index[-1] = 4096
    elif where == "emit":
        values = values[:64]
        index %= 64
        index[-1] = 64
    monkeypatch.setattr(states, "_state_json", simkernel.state_json)
    # a state that holds values and index as its palette, which is not checked
    state = RealState._from_palette(12, values.copy(), index.copy())

    def write():
        # the document has about 90 kB of text: two pieces
        sink = _FailSecond() if where == "write" else lambda piece: None
        calls = [lambda: simkernel.state_json(12, values, index, sink)]
        if where != "write":
            calls.append(state.to_json)
        for call in calls:
            try:
                call()
            except ValueError:
                assert where in ("last", "index", "emit")
            except _WriteError:
                assert where == "write" and sink.calls == 2

    tracemalloc.start()
    try:
        write()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            write()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # one call's records, hint array and chunk, or to_json's document, take
    # 150-230 kB
    assert kept < 10_000


def test_refused_n_qubits(simkernel):
    values, index = np.array([1.0]), np.zeros(1, np.uint32)
    with pytest.raises(TypeError):
        _streamed(simkernel.state_json)("1", values, index)
    with pytest.raises(OverflowError):
        _streamed(simkernel.state_json)(2**70, values, index)
