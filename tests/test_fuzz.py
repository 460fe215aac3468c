"""Fuzzing of every input read from outside the program: PGM bytes, state
JSON, bare amplitude arrays and circuit JSON, through the library parsers
and through ``cli.main``; and of the values given to the library's
constructors in code.

Only ``RyprepError`` may leave the library, and the CLI returns 0, 1 or 2
without raising.  Generated states hold at most 2**6 amplitudes, so nothing
large is simulated.  Examples are derandomized, which keeps tier-1
deterministic.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ryprep import AngleList, Circuit, Gate, GrayImage, RealState, normalize
from ryprep.cli import main
from ryprep.errors import RyprepError

FUZZ = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# integers around the edge of the float range: 2**1024 overflows, 2**1023 fits
BIG_INTS = st.sampled_from([2**1023, 2**1024, -(2**1024), 10**400])
NUMBERS = st.integers(-3, 3) | st.floats() | BIG_INTS
SCALARS = st.none() | st.booleans() | NUMBERS | st.text(max_size=4)
VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)
# mostly numbers, so that one odd element decides the outcome
ELEMENTS = st.one_of(NUMBERS, NUMBERS, NUMBERS, VALUES)
AMPLITUDES = st.sampled_from([1, 2, 4, 8, 16, 32, 64]).flatmap(
    lambda k: st.lists(ELEMENTS, min_size=k, max_size=k)
) | st.lists(ELEMENTS, max_size=64)
# magnitudes whose squares, or the sum of the squares, leave the normal range
EXTREME = st.builds(
    lambda m, scale: m * scale,
    st.floats(-4.0, 4.0),
    st.sampled_from([1e300, 1e-300, 1e160, 1e-160, 1e154]),
)
BARE_ARRAYS = AMPLITUDES | st.sampled_from([1, 2, 4, 8, 16, 32, 64]).flatmap(
    lambda k: st.lists(EXTREME | st.sampled_from([0.0, 1.0]), min_size=k, max_size=k)
)
STATE_DOCS = st.fixed_dictionaries(
    {"n_qubits": st.integers(-1, 6) | VALUES, "amplitudes": AMPLITUDES | VALUES}
)
# mostly well-formed, so that the checks after the index checks are reached
INDICES = st.one_of(st.integers(-1, 6), st.integers(0, 6), VALUES)
GATE_DOCS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["ry", "ry", "x"]) | VALUES, "target": INDICES},
    optional={"controls": st.lists(INDICES, max_size=3) | VALUES, "angle": NUMBERS | VALUES},
)
CIRCUIT_DOCS = st.fixed_dictionaries(
    {"n_qubits": st.integers(1, 6) | VALUES, "gates": st.lists(GATE_DOCS, max_size=6) | VALUES}
)
MAGIC = st.sampled_from([b"P2", b"P5", b"P6", b""])
# now and then a 20-digit field, whose products pass sys.maxsize
SMALL = st.integers(0, 70000)
HEADER_INT = st.one_of(SMALL, SMALL, SMALL, st.integers(10**19, 10**20 - 1))
HEADER = st.lists(HEADER_INT, max_size=4)
# what the tokenizer skips: runs of whitespace bytes and '#' comments, which
# may follow a token directly and end at LF or CR
WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]
COMMENTS = [b"#\n", b"# note\r", b"#x\r\n", b"##\x0c\n"]
FILLER = st.lists(st.sampled_from(WHITESPACE + COMMENTS), min_size=1, max_size=3).map(b"".join)
# more digits than int() converts; b"%d" % 10**5000 would itself raise
LONG_TOKEN = b"1" + b"0" * 5000
DECIMAL = HEADER_INT.map(b"%d".__mod__)
FIELD = st.one_of(DECIMAL, DECIMAL, DECIMAL, st.just(LONG_TOKEN))
TOKENS = st.lists(st.tuples(FILLER, FIELD), max_size=4).map(
    lambda pairs: b"".join(map(b"".join, pairs))
)
PGM_BYTES = st.binary(max_size=64) | st.builds(
    lambda magic, fields, body: magic + b" " + b" ".join(b"%d" % f for f in fields) + b"\n" + body,
    MAGIC,
    HEADER,
    st.binary(max_size=64),
) | st.builds(
    lambda magic, header, filler, body: magic + header + filler + body,
    MAGIC,
    TOKENS,
    FILLER,
    st.binary(max_size=64) | TOKENS,
)


def is_json_number(value):
    """True for a JSON number that fits a float; JSON true/false are not numbers."""
    if type(value) is float:
        return True
    if type(value) is not int:
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    states = {}
    for n in range(1, 7):
        path = root / f"state{n}.json"
        path.write_text(normalize(range(1, (1 << n) + 1)).to_json())
        states[n] = str(path)
    return root, states


def run_cli(argv):
    code = main(argv)
    assert code in (0, 1, 2)
    return code


@FUZZ
@given(PGM_BYTES)
def test_pgm_bytes_through_cli(files, data):
    root, _ = files
    image = root / "image.pgm"
    image.write_bytes(data)
    circuit = root / "from_image.json"
    if run_cli(["synth", str(image), "--out", str(circuit)]) == 0:
        assert run_cli(["verify", str(image), str(circuit)]) == 0


@FUZZ
@given(BARE_ARRAYS)
def test_bare_array_through_cli(files, values):
    root, _ = files
    vec = root / "vec.json"
    vec.write_text(json.dumps(values))
    circuit = str(root / "from_vec.json")
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = run_cli(["synth", str(vec), "--out", circuit])
        if not all(is_json_number(v) for v in values):
            assert code == 2
        elif len(values) in (2, 4, 8, 16, 32, 64) and any(values):
            if all(map(math.isfinite, map(float, values))):
                # any finite nonzero vector normalizes, whatever its scale
                assert code == 0
                assert run_cli(["verify", str(vec), circuit]) == 0
                assert err.getvalue() == ""
    assert "Warning" not in err.getvalue()


@FUZZ
@given(STATE_DOCS)
def test_state_json_through_cli(files, doc):
    root, _ = files
    path = root / "state.json"
    path.write_text(json.dumps(doc))
    code = run_cli(["synth", str(path), "--out", str(root / "from_state.json")])
    amplitudes = doc["amplitudes"]
    if type(doc["n_qubits"]) is int and isinstance(amplitudes, list):
        if not all(is_json_number(a) for a in amplitudes):
            assert code == 2


@FUZZ
@given(CIRCUIT_DOCS | VALUES, st.integers(1, 6))
def test_circuit_json_through_cli(files, doc, n):
    root, states = files
    path = root / "circuit.json"
    path.write_text(json.dumps(doc))
    run_cli(["stats", str(path)])
    run_cli(["verify", states[n], str(path)])


@FUZZ
@given(st.text(max_size=40) | st.builds(json.dumps, STATE_DOCS | CIRCUIT_DOCS | VALUES))
def test_from_json_raises_only_package_errors(text):
    for parser in (RealState.from_json, Circuit.from_json):
        try:
            parser(text)
        except RyprepError:
            pass


@FUZZ
@given(
    VALUES,
    VALUES,
    VALUES,
    st.lists(SCALARS, max_size=4),
    st.sampled_from(["ry", "x"]),
)
def test_constructors_raise_only_package_errors(a, b, c, seq, kind):
    image = GrayImage(2, 2, (0, 1, 2, 3), 3)
    calls = [
        lambda: RealState(a, seq),
        lambda: RealState(1, b),
        lambda: AngleList(seq),
        lambda: normalize(seq),
        lambda: Gate(kind, a, seq, b),
        lambda: Gate(kind, 0, b, c),
        lambda: Circuit(a),
        lambda: GrayImage(a, b, seq, c),
        lambda: GrayImage(1, len(seq), seq, 3),
        lambda: image.pixel(a, b),
    ]
    for call in calls:
        try:
            call()
        except RyprepError:
            pass
