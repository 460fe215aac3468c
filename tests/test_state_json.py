"""State JSON: the compiled writer ``_simkernel.state_json`` and its NumPy
fallback ``states._state_json_numpy`` against ``json.dumps``, byte for byte,
on palettes from ``np.unique`` and from ``encode``; ``RealState.to_json`` on
both through its dispatch; the compiled writer's own formatter
``_short_repr`` against ``repr``; and the compiled writer's argument
checks."""

import json
import math
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
    writer = None if request.param == "numpy" else request.getfixturevalue("simkernel").state_json
    monkeypatch.setattr(states, "_state_json", writer)
    return RealState.to_json


@pytest.fixture(params=["numpy", "c"])
def writer(request):
    """``state_json``'s NumPy fallback, or the compiled writer built from
    source."""
    if request.param == "numpy":
        return states._state_json_numpy
    return request.getfixturevalue("simkernel").state_json


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
    assert simkernel.state_json(n_qubits, *palette) == expect
    assert states._state_json_numpy(n_qubits, *palette) == expect


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
    assert simkernel.state_json(5, values, index) == expect
    assert states._state_json_numpy(5, values, index) == expect


def test_all_distinct_values(simkernel):
    amps = np.random.default_rng(5).normal(size=5000)
    expect = _dumps(12, amps)
    palette = states._palette_of(amps)
    assert simkernel.state_json(12, *palette) == expect == states._state_json_numpy(12, *palette)


def test_read_only_buffer_and_empty_array(simkernel):
    values, index = np.array([-0.8, 0.6]), np.array([1, 0], np.uint32)
    values.setflags(write=False)
    index.setflags(write=False)
    doc = '{"n_qubits": 1, "amplitudes": [0.6, -0.8]}'
    assert simkernel.state_json(1, values, index) == doc
    empty = np.array([], np.uint32)
    for values in (np.array([]), np.array([0.5, math.inf])[:1]):
        assert simkernel.state_json(0, values, empty) == '{"n_qubits": 0, "amplitudes": []}'
        assert states._state_json_numpy(0, values, empty) == _dumps(0, [])


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


@pytest.fixture(
    scope="module",
    params=[
        "uniform",
        "log-uniform",
        "bit-patterns",
        "near-short-decimals",
        "powers-of-two",
        "exact-ties",
        "edges",
    ],
)
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
    assert simkernel.state_json(0, np.array([x]), np.zeros(1, np.uint32)) == _dumps(0, [x])


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

    def writer(n_qubits, values, index):
        calls.append((n_qubits, values, index))
        return simkernel.state_json(n_qubits, values, index)

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
    exactly when ``to_json`` dispatches to the compiled writer.  (The
    in-process answer depends on the build; tests/test_kernels.py checks
    both answers on a copy of the package.)"""
    assert (ryprep.KERNEL_BACKEND == "c") == (states._state_json is not None)
    if states._state_json is not None:
        assert states._state_json.__module__ == "ryprep._simkernel"


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
        simkernel.state_json(1, values, index)


def _race(simkernel, values, index, buffer, mask, refusal=None, calls=60):
    """Back-to-back calls of the writer, while another thread xors every
    entry of buffer with mask in a loop.  NumPy ufuncs run without the GIL,
    so they can change values or index while the writer reads them; each is
    the tail of its buffer, which is swept front to back and is long enough
    that the tail changes late in a sweep, while a call is under way.  Each
    call returns a document or, where refusal is a pattern, raises a
    ValueError whose message matches it.  The documents are parsed only
    after the last call, and each must hold one value of the palette per
    index entry.  Whether a change overlaps a call at all is up to the
    scheduler, so this can miss a fault but not invent one."""
    interval = sys.getswitchinterval()
    n_qubits = len(index).bit_length() - 1
    palette = set(values.tolist())
    stop = threading.Event()

    def loop():
        while not stop.is_set():
            np.bitwise_xor(buffer, mask, out=buffer)

    def write():
        try:
            return simkernel.state_json(n_qubits, values, index)
        except ValueError as exc:
            if refusal is None or not re.fullmatch(refusal, str(exc)):
                raise
            return None

    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=loop)
    thread.start()
    try:
        docs = [write() for _ in range(calls)]
    finally:
        stop.set()
        thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    for doc in filter(None, docs):
        doc = json.loads(doc)
        assert doc["n_qubits"] == n_qubits and len(doc["amplitudes"]) == len(index)
        assert set(doc["amplitudes"]) <= palette


# short texts, so that the 60 documents take about 100 MB together
QUARTERS = np.arange(256) / 4.0


def _index_buffer():
    """8 * 2**18 random entries below 256, the last 2**18 of them the index."""
    return np.random.default_rng(3).integers(0, 256, 8 << 18).astype(np.uint32)


def test_index_changed_by_another_thread(simkernel):
    """The writer reads each index entry once and copies the records by its
    own copy of them, so every document is whole: JSON of 2**18 values, each
    one of the palette's.  (A second read could find a value with no text,
    or texts that no longer fit the str.)"""
    buffer = _index_buffer()
    _race(simkernel, QUARTERS, buffer[-1 << 18 :], buffer, 1)


def test_index_made_out_of_range_by_another_thread(simkernel):
    """An entry set past the palette during the call is refused with
    ValueError, naming its position, or the call returns a whole document
    from before the change; it never reads past the records."""
    buffer = _index_buffer()
    refusal = r"state_json: index\[\d+\] is \d+, past the 256 values"
    _race(simkernel, QUARTERS, buffer[-1 << 18 :], buffer, 1 << 20, refusal)


def test_values_made_non_finite_by_another_thread(simkernel):
    """The writer reads each value once, refusing it if it is not finite,
    and formats it from that read: a value that another thread turns into
    NaN or inf and back is refused, or the document holds it as it was.
    Every value but the first is used only at the end of the index, long
    after the values were read."""
    # all in [1, 2), so that flipping the top exponent bit makes each
    # non-finite and flipping it again restores it
    buffer = np.ones(1 << 20)
    values = buffer[-256:]
    values += np.arange(256) / 256.0
    index = np.zeros(1 << 18, np.uint32)
    index[-256:] = np.arange(256)
    mask = np.uint64(0x400 << 52)
    refusal = r"state_json: values\[\d+\] is not finite"
    # most calls are refused at once, so many more are made, to spread them
    # over a few dozen sweeps
    _race(simkernel, values, index, buffer.view(np.uint64), mask, refusal, calls=6000)


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
# room for 1 GiB more, not for the 16 GiB of record numbers
resource.setrlimit(resource.RLIMIT_AS, (mapped + (1 << 30), resource.RLIM_INFINITY))
try:
    kernel.state_json(32, values, index)
except ValueError as exc:
    print(exc)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/statm")
def test_refused_at_2_to_the_32_values(simkernel, tmp_path):
    """An index of 2**32 entries, a sparse file mapped read-only, is refused
    before anything is allocated or read, in a process without the address
    space for the 16 GiB of record numbers."""
    res = subprocess.run(
        [sys.executable, "-c", _HUGE, str(tmp_path / "huge"), simkernel.__file__],
        capture_output=True,
        text=True,
    )
    assert res.stdout == "state_json: index holds 4294967296 entries, 2**32 or more\n", res.stderr


@pytest.mark.parametrize("where", ["none", "last", "index"])
def test_no_memory_is_kept(simkernel, where):
    """The records and the record numbers are PyMem blocks, which tracemalloc
    sees: neither a written document nor a refusal, of the last of 4,096
    values or of the last index entry after 4,095 values were formatted,
    keeps any of them."""
    values = np.random.default_rng(9).normal(size=4096)
    index = np.arange(4096, dtype=np.uint32)
    if where == "last":
        values[-1] = math.nan
    elif where == "index":
        index[-1] = 4096

    def write():
        try:
            simkernel.state_json(12, values, index)
        except ValueError:
            assert where != "none"

    tracemalloc.start()
    try:
        write()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            write()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # one call's records and record numbers take about 150 kB
    assert kept < 10_000


def test_refused_n_qubits(simkernel):
    values, index = np.array([1.0]), np.zeros(1, np.uint32)
    with pytest.raises(TypeError):
        simkernel.state_json("1", values, index)
    with pytest.raises(OverflowError):
        simkernel.state_json(2**70, values, index)
