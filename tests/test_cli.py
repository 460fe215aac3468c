"""CLI behavior: pipelines, exit codes, output formats, logging."""

import inspect
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import ryprep
from ryprep import Circuit, cli, encode, load_pgm, normalize, ry, states, synth, synthesis, x
from ryprep.cli import main
from ryprep.errors import BadMagic, FormatError
from ryprep.tolerances import PRUNE_ATOL
from test_encoding import parse, pgm_files
from test_fuzz import FILLER

WORKED_PGM = b"P2\n2 2\n255\n0 192\n128 255\n"


@pytest.fixture()
def worked_pgm(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(WORKED_PGM)
    return path


def test_encode_writes_state_json(worked_pgm, tmp_path):
    out = tmp_path / "state.json"
    assert main(["encode", str(worked_pgm), str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n_qubits"] == 2
    assert doc["amplitudes"] == list(encode(load_pgm(WORKED_PGM)).amplitudes)
    # the document and then one newline, byte for byte
    assert out.read_bytes() == (encode(load_pgm(WORKED_PGM)).to_json() + "\n").encode()


def test_encode_all_zero_image_is_domain_error(tmp_path, capsys):
    img = tmp_path / "zero.pgm"
    img.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    assert main(["encode", str(img), str(tmp_path / "out.json")]) == 1
    assert "AllZeroImage" in capsys.readouterr().err


def test_encode_bad_magic_is_format_error(tmp_path, capsys):
    img = tmp_path / "bad.pgm"
    img.write_bytes(b"P3\n1 1\n255\n0\n")
    assert main(["encode", str(img), str(tmp_path / "out.json")]) == 2
    assert "BadMagic" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["encode", "synth"])
@pytest.mark.parametrize(
    "data",
    [
        b"P2 1 1 " + b"9" * 5000 + b" 0",
        b"P2 " + b"9" * 4301 + b" 1 255 0",
        b"P2 2 1 255 7 " + b"1" * 5000,
    ],
    ids=["maxval", "width", "sample"],
)
def test_over_long_token_is_format_error(tmp_path, capsys, command, data):
    img = tmp_path / "long.pgm"
    img.write_bytes(data)
    out = tmp_path / "out.json"
    argv = [command, str(img), str(out)] if command == "encode" else [command, str(img)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: PgmError: ") and "digits is too long" in captured.err


@pytest.mark.parametrize("command", ["encode", "synth"])
@pytest.mark.parametrize(
    "data,message",
    [
        (b"P2 99999999999999999999 1 255 0", "header ended early"),
        (b"P5 " + b"9" * 3000 + b" " + b"9" * 3000 + b" 255 \x00", "raster holds 1 of <19932-bit"),
    ],
    ids=["p2", "p5-unprintable"],
)
def test_huge_dimensions_are_format_error(tmp_path, capsys, command, data, message):
    img = tmp_path / "huge.pgm"
    img.write_bytes(data)
    out = tmp_path / "out.json"
    argv = [command, str(img), str(out)] if command == "encode" else [command, str(img)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith(f"error: TruncatedData: {message}")


@pytest.mark.parametrize("command", ["encode", "synth"])
@pytest.mark.parametrize(
    "data,error",
    [
        (b"P2 1 1 0 0", "MaxvalOutOfRange"),
        (b"P2 1 1 3 4", "PixelExceedsMaxval"),
        (b"P5 1 1 3 \x04", "PixelExceedsMaxval"),
    ],
)
def test_pgm_range_errors_are_format_errors(tmp_path, capsys, command, data, error):
    # these classes are domain errors too; in a file they are format errors
    img = tmp_path / "range.pgm"
    img.write_bytes(data)
    out = tmp_path / "out.json"
    argv = [command, str(img), str(out)] if command == "encode" else [command, str(img)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith(f"error: {error}: ")


def test_encode_missing_file_is_io_error(tmp_path):
    assert main(["encode", str(tmp_path / "nope.pgm"), str(tmp_path / "out.json")]) == 2


@pytest.fixture(params=["numpy", "c"])
def backend(request, monkeypatch):
    """The state writer ``encode`` runs: the NumPy fallback (the extension
    absent) or the compiled writer built from source."""
    if request.param == "numpy":
        writer = states._state_json_numpy
    else:
        writer = request.getfixturevalue("simkernel").state_json
    monkeypatch.setattr(states, "_state_json", writer)


def _p5(rows: int, cols: int, maxval: int) -> bytes:
    pixels = np.random.default_rng([rows, cols]).integers(0, maxval + 1, (rows, cols))
    head = b"P5\n%d %d\n%d\n" % (cols, rows, maxval)
    return head + pixels.astype("u1" if maxval < 256 else ">u2").tobytes()


# the worked example's state is one short piece; the others take several
ENCODED = {"worked": WORKED_PGM, "8-bit": _p5(200, 300, 255), "16-bit": _p5(150, 170, 65535)}


@pytest.mark.parametrize("image", ENCODED.values(), ids=ENCODED.keys())
def test_encode_writes_json_dumps_on_both_backends(backend, tmp_path, image):
    img, out = tmp_path / "img.pgm", tmp_path / "state.json"
    img.write_bytes(image)
    assert main(["encode", str(img), str(out)]) == 0
    state = encode(load_pgm(image))
    doc = {"n_qubits": state.n_qubits, "amplitudes": state.array.tolist()}
    assert out.read_bytes() == (json.dumps(doc) + "\n").encode()


@pytest.mark.parametrize("image", ENCODED.values(), ids=ENCODED.keys())
@pytest.mark.parametrize("target", ["dev-full", "directory"])
def test_encode_unwritable_output_is_io_error(backend, tmp_path, capsys, image, target):
    """A full device or a directory as the output is an I/O error, exit 2,
    told in one line; a full device fails at the first piece or, for a
    document shorter than the file's buffer, when the file is closed."""
    if target == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    img = tmp_path / "img.pgm"
    img.write_bytes(image)
    out = "/dev/full" if target == "dev-full" else str(tmp_path)
    assert main(["encode", str(img), out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = "OSError: [Errno 28] No space" if target == "dev-full" else "IsADirectoryError: "
    assert re.fullmatch(rf"error: {re.escape(error)}[^\n]*\n", captured.err), captured.err


def test_synth_from_image_writes_everything(worked_pgm, tmp_path):
    circ = tmp_path / "c.json"
    qasm = tmp_path / "c.qasm"
    rep = tmp_path / "r.json"
    code = main(
        ["synth", str(worked_pgm), "--out", str(circ), "--qasm", str(qasm), "--report", str(rep)]
    )
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["gate_count"] == 3
    assert report["n_qubits"] == 2
    circuit = Circuit.from_json(circ.read_text())
    assert circuit.gate_count == 3
    assert qasm.read_text().startswith("OPENQASM 3.0;\n")


def test_synth_defaults_to_stdout(worked_pgm, capsys):
    assert main(["synth", str(worked_pgm)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_qubits"] == 2 and len(doc["gates"]) == 3


@pytest.mark.parametrize("command", ["synth", "verify"])
def test_pgm_after_a_leading_comment_is_an_image(tmp_path, capsys, command):
    img = tmp_path / "img.pgm"
    img.write_bytes(b"# leading comment\nP2 2 2 255\n0 192 128 255\n")
    circ = tmp_path / "c.json"
    circ.write_text(synth(encode(load_pgm(WORKED_PGM)))[0].to_json() + "\n")
    argv = ["synth", str(img)] if command == "synth" else ["verify", str(img), str(circ)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if command == "synth":
        assert out == circ.read_text()
    else:
        assert json.loads(out)["ok"] is True


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(FILLER, pgm_files())
def test_load_state_reads_a_pgm_as_encode_does(tmp_path, prefix, data):
    data = prefix + data
    # the file is rewritten for each example, so one tmp_path serves them all
    path = tmp_path / "in.pgm"
    path.write_bytes(data)
    expect = parse(lambda data: encode(load_pgm(data)), data)
    got = parse(cli._load_state, str(path))
    if isinstance(expect, tuple) and expect[0] is BadMagic:
        # the data was cut before its magic: the file is neither PGM nor JSON
        assert isinstance(got, tuple) and issubclass(got[0], FormatError)
    else:
        assert got == expect


def test_synth_vector_json_no_prune_gate_count(tmp_path):
    vec = tmp_path / "v.json"
    vec.write_text("[1, 2, 3, 4, 5, 6, 7, 8]")
    rep = tmp_path / "r.json"
    out = tmp_path / "c.json"
    assert main(["synth", str(vec), "--no-prune", "--out", str(out), "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["gate_count"] == 9


def test_synth_non_power_of_two_vector(tmp_path, capsys):
    vec = tmp_path / "v.json"
    vec.write_text("[1, 2, 3, 4, 5]")
    assert main(["synth", str(vec)]) == 1
    assert "NotPowerOfTwo" in capsys.readouterr().err


def test_synth_malformed_json_is_format_error(tmp_path):
    doc = tmp_path / "v.json"
    doc.write_text("{broken")
    assert main(["synth", str(doc)]) == 2


@pytest.mark.parametrize(
    "text",
    [
        '["a", 1]',
        "[null, 1]",
        "[[1], 1]",
        "[true, 1]",
        "[1%s, 1]" % ("0" * 400),
        '{"n_qubits": 1, "amplitudes": [1%s, 0]}' % ("0" * 400),
        "[1%s, 1]" % ("0" * 5000),
    ],
)
@pytest.mark.parametrize("command", ["synth", "verify"])
def test_non_number_amplitude_is_format_error(tmp_path, capsys, text, command):
    vec = tmp_path / "v.json"
    vec.write_text(text)
    circ = tmp_path / "c.json"
    circ.write_text(Circuit(1).to_json())
    argv = [command, str(vec)] + ([str(circ)] if command == "verify" else [])
    assert main(argv) == 2
    assert "FormatError" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["42", '"x"', "null", "true"])
@pytest.mark.parametrize("command", ["synth", "verify"])
def test_state_file_holding_a_scalar_is_format_error(tmp_path, capsys, text, command):
    state = tmp_path / "s.json"
    state.write_text(text)
    circ = tmp_path / "c.json"
    circ.write_text(Circuit(1).to_json())
    argv = [command, str(state)] + ([str(circ)] if command == "verify" else [])
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: FormatError: {state}: expected a JSON object or array\n")


@pytest.mark.parametrize(
    "vector", ["[1e-200, 1e-200]", "[1e200, 1e200]", "[3e-162, 4e-162]", "[1.3e154, 1.3e154]"]
)
def test_vector_with_squares_outside_float_range_synthesizes(tmp_path, capsys, vector):
    vec = tmp_path / "vec.json"
    vec.write_text(vector)
    circuit = str(tmp_path / "c.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["synth", str(vec), "--out", circuit]) == 0
        assert main(["verify", str(vec), circuit]) == 0
    assert capsys.readouterr().err == ""


def test_synth_accepts_state_json(tmp_path):
    state = normalize([3, 4])
    path = tmp_path / "s.json"
    path.write_text(state.to_json())
    out = tmp_path / "c.json"
    assert main(["synth", str(path), "--out", str(out)]) == 0
    assert Circuit.from_json(out.read_text()).gate_count == 1


def test_prune_tol_defaults_are_prune_atol():
    """``synth``, ``synth_angles`` and ``--prune-tol`` share one default."""
    for func in (synth, synthesis.synth_angles):
        assert inspect.signature(func).parameters["prune_tol"].default is PRUNE_ATOL
    args = cli.build_parser().parse_args(["synth", "in.pgm"])
    assert args.prune_tol is PRUNE_ATOL == 1e-12


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3"])
def test_synth_bad_prune_tol_is_domain_error(tmp_path, capsys, tol):
    vec = tmp_path / "v.json"
    vec.write_text("[1, 2, 3, 4, 5, 6, 7, 8]")
    out = tmp_path / "c.json"
    assert main(["synth", str(vec), f"--prune-tol={tol}", "--out", str(out)]) == 1
    assert "DomainError" in capsys.readouterr().err
    assert not out.exists()


def test_state_file_is_parsed_once(tmp_path, monkeypatch, build):
    state = tmp_path / "s.json"
    state.write_text(normalize([1, 2, 3, 4]).to_json())
    circ = tmp_path / "c.json"
    assert main(["synth", str(state), "--out", str(circ)]) == 0
    parsed = []
    loads = json.loads

    def counting(text, *args, **kwargs):
        parsed.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    assert main(["synth", str(state), "--out", str(circ)]) == 0
    assert parsed == [state.read_text()]
    parsed.clear()
    assert main(["verify", str(state), str(circ)]) == 0
    # the compiled build reads the circuit, as synth wrote it, without json
    circuit_texts = [circ.read_text()] if build == "numpy" else []
    assert parsed == [state.read_text(), *circuit_texts]


def test_synth_prune_flag_matters(tmp_path):
    vec = tmp_path / "v.json"
    vec.write_text("[1, 0, 0, 0, 0, 0, 0, 0]")
    rep = tmp_path / "r.json"
    assert main(["synth", str(vec), "--report", str(rep), "--out", str(tmp_path / "a.json")]) == 0
    assert json.loads(rep.read_text())["gate_count"] == 0
    assert main(
        ["synth", str(vec), "--no-prune", "--report", str(rep), "--out", str(tmp_path / "b.json")]
    ) == 0
    assert json.loads(rep.read_text())["gate_count"] == 9


def test_verify_round_trip(worked_pgm, tmp_path, capsys):
    state = tmp_path / "s.json"
    circ = tmp_path / "c.json"
    assert main(["encode", str(worked_pgm), str(state)]) == 0
    assert main(["synth", str(state), "--out", str(circ)]) == 0
    assert main(["verify", str(state), str(circ)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["max_abs_diff"] <= 1e-9


def test_verify_against_image_input(worked_pgm, tmp_path):
    circ = tmp_path / "c.json"
    assert main(["synth", str(worked_pgm), "--out", str(circ)]) == 0
    assert main(["verify", str(worked_pgm), str(circ)]) == 0


def test_verify_wrong_state_fails(worked_pgm, tmp_path, capsys):
    circ = tmp_path / "c.json"
    assert main(["synth", str(worked_pgm), "--out", str(circ)]) == 0
    other = tmp_path / "other.json"
    other.write_text(normalize([255, 1, 1, 1]).to_json())
    assert main(["verify", str(other), str(circ)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["max_abs_diff"] > 1e-9


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_verify_bad_tol_is_domain_error(worked_pgm, tmp_path, monkeypatch, capsys, tol):
    circ = tmp_path / "c.json"
    assert main(["synth", str(worked_pgm), "--out", str(circ)]) == 0
    capsys.readouterr()
    touched = []
    monkeypatch.setattr(cli, "_read_bytes", lambda path: touched.append(path))
    monkeypatch.setattr(cli, "run", lambda circuit: touched.append(circuit))
    assert main(["verify", str(worked_pgm), str(circ), f"--tol={tol}"]) == 1
    assert touched == []
    captured = capsys.readouterr()
    assert captured.out == "" and "DomainError" in captured.err


def test_verify_dimension_mismatch_is_domain_error(worked_pgm, tmp_path, monkeypatch, capsys):
    circ = tmp_path / "c.json"
    state = tmp_path / "s.json"
    assert main(["synth", str(worked_pgm), "--out", str(circ)]) == 0
    state.write_text(normalize([1, 1]).to_json())
    simulated = []
    monkeypatch.setattr(cli, "run", simulated.append)
    assert main(["verify", str(state), str(circ)]) == 1
    assert simulated == []
    assert "DimensionMismatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "circuit_json",
    [
        '{"n_qubits": 1, "gates": [{"kind": "x", "target": 0, "controls": [1.5]}]}',
        '{"n_qubits": 2, "gates": [{"kind": "x", "target": 0, "controls": [1.5]}]}',
        '{"n_qubits": 2, "gates": [{"kind": "x", "target": 0, "controls": ["1"]}]}',
        '{"n_qubits": 2, "gates": [{"kind": "x", "target": 0, "controls": [null]}]}',
        '{"n_qubits": 1, "gates": [{"kind": "x", "target": true, "controls": []}]}',
        '{"n_qubits": 40, "gates": []}',
        '{"n_qubits": 70, "gates": []}',
        '{"n_qubits": 1, "gates": [{"kind": "x", "target": 0, "controls": [99]}]}',
    ],
)
def test_verify_bad_circuit_exits_cleanly(tmp_path, circuit_json):
    state = tmp_path / "s.json"
    state.write_text(normalize([3, 4]).to_json())
    circ = tmp_path / "c.json"
    circ.write_text(circuit_json)
    assert main(["verify", str(state), str(circ)]) in (1, 2)


@pytest.mark.parametrize("command", ["verify", "stats"])
@pytest.mark.parametrize(
    "data",
    [
        b'{"n_qubits": 1, "gates": [{"kind": "ry", "angle": 1%s, "target": 0, "controls": []}]}'
        % (b"0" * 400),
        b"\xff\xfe{}",
    ],
)
def test_unreadable_circuit_is_format_error(tmp_path, capsys, command, data):
    state = tmp_path / "s.json"
    state.write_text(normalize([3, 4]).to_json())
    circ = tmp_path / "c.json"
    circ.write_bytes(data)
    argv = [command] + ([str(state)] if command == "verify" else []) + [str(circ)]
    assert main(argv) == 2
    assert "FormatError" in capsys.readouterr().err


def test_stats_exact_output(worked_pgm, tmp_path, capsys):
    circ = tmp_path / "c.json"
    assert main(["synth", str(worked_pgm), "--out", str(circ)]) == 0
    capsys.readouterr()
    assert main(["stats", str(circ)]) == 0
    assert capsys.readouterr().out == '{"gate_count":3,"ry":3,"x":0,"max_controls":1}\n'


def test_stats_counts_x_gates(tmp_path, capsys):
    circuit, _ = synth(normalize(range(1, 9)))
    circ = tmp_path / "c.json"
    circ.write_text(circuit.to_json())
    assert main(["stats", str(circ)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"gate_count": 9, "ry": 7, "x": 2, "max_controls": 2}


def test_stats_empty_circuit(tmp_path, capsys):
    circ = tmp_path / "c.json"
    circ.write_text(Circuit(1).to_json())
    assert main(["stats", str(circ)]) == 0
    assert capsys.readouterr().out == '{"gate_count":0,"ry":0,"x":0,"max_controls":0}\n'


@pytest.mark.parametrize(
    "text, expect",
    [
        # past 64 qubits, where the controls are tuples rather than masks
        (
            Circuit(10**12, (x(3, (0,)), ry(0.5, 10**11 - 1, (10**10, 7)))).to_json(),
            '{"gate_count":2,"ry":1,"x":1,"max_controls":2}\n',
        ),
        (
            Circuit(65, (x(64, range(64)),)).to_json(),
            '{"gate_count":1,"ry":0,"x":1,"max_controls":64}\n',
        ),
        (Circuit(65).to_json(), '{"gate_count":0,"ry":0,"x":0,"max_controls":0}\n'),
        # read gate by gate: unsorted controls, an int angle, no controls key
        (
            '{"n_qubits": 4, "gates": [{"kind": "x", "target": 0, "controls": [3, 1, 2]}, '
            '{"kind": "ry", "angle": 1, "target": 3, "controls": [2, 0]}, '
            '{"kind": "x", "target": 2}]}',
            '{"gate_count":3,"ry":1,"x":2,"max_controls":3}\n',
        ),
    ],
    ids=["10**12-qubits", "65-qubits-64-controls", "65-qubits-empty", "gate-by-gate"],
)
def test_stats_of_circuits_without_canonical_columns(tmp_path, capsys, text, expect):
    circ = tmp_path / "c.json"
    circ.write_text(text)
    assert main(["stats", str(circ)]) == 0
    assert capsys.readouterr().out == expect


@pytest.mark.parametrize("prune", ["--prune", "--no-prune"])
@pytest.mark.parametrize("n", range(1, 11))
def test_report_and_stats_agree(tmp_path, capsys, n, prune):
    """The report's gate count and control arity are what ``stats`` prints
    for the circuit written beside it, pruned or not."""
    rng = np.random.default_rng(700 + n)
    vec = rng.normal(size=1 << n)
    # zeros, and the top half or three quarters zero, so that pruning
    # drops single gates and whole blocks, and with them the widest gates
    vec[rng.random(size=vec.size) < 0.4] = 0.0
    vec[(1 << n) >> (n % 2 + 1) :] = 0.0
    vec[0] = 1.0
    src, circ, rep = (tmp_path / name for name in ("v.json", "c.json", "r.json"))
    src.write_text(json.dumps(vec.tolist()))
    assert main(["synth", str(src), prune, "--out", str(circ), "--report", str(rep)]) == 0
    assert main(["stats", str(circ)]) == 0
    stats = json.loads(capsys.readouterr().out)
    report = json.loads(rep.read_text())
    assert report["gate_count"] == stats["gate_count"]
    assert report["max_control_arity"] == stats["max_controls"]


def test_log_level_info_adds_chatter(worked_pgm, tmp_path, capsys, monkeypatch):
    out = tmp_path / "s.json"
    monkeypatch.setenv("LOG_LEVEL", "info")
    assert main(["encode", str(worked_pgm), str(out)]) == 0
    assert "encoded" in capsys.readouterr().err
    monkeypatch.setenv("LOG_LEVEL", "error")
    assert main(["encode", str(worked_pgm), str(out)]) == 0
    assert capsys.readouterr().err == ""


def _run_module(*args):
    """``python -m ryprep`` in a child that imports the same package as this
    process, installed or not."""
    package_root = str(pathlib.Path(ryprep.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ryprep", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point(worked_pgm, tmp_path):
    out = tmp_path / "s.json"
    proc = _run_module("encode", str(worked_pgm), str(out))
    assert proc.returncode == 0
    assert json.loads(out.read_text())["n_qubits"] == 2


def test_version_names_kernel_backend(capsys):
    expect = f"ryprep {ryprep.__version__} (kernel: {ryprep.KERNEL_BACKEND})\n"
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == expect
    proc = _run_module("--version")
    assert (proc.returncode, proc.stdout) == (0, expect)


@pytest.fixture()
def parser_builds(monkeypatch):
    """Counts the parsers ``main`` builds, starting from none built."""
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    yield builds
    cli._parser.cache_clear()


def test_main_builds_the_parser_once(worked_pgm, tmp_path, parser_builds):
    for k in range(3):
        assert main(["encode", str(worked_pgm), str(tmp_path / f"s{k}.json")]) == 0
    assert main(["synth", str(worked_pgm), "--out", str(tmp_path / "c.json")]) == 0
    assert len(parser_builds) == 1


def test_argparse_failure_leaves_the_parser_usable(worked_pgm, tmp_path, parser_builds, capsys):
    out = tmp_path / "s.json"
    for argv in (["encode", str(worked_pgm)], ["synth", str(worked_pgm), "--bogus"], ["nope"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "usage: ryprep" in capsys.readouterr().err
    assert main(["synth", str(worked_pgm), "--out", str(out)]) == 0
    assert main(["synth", str(worked_pgm), "--no-prune", "--out", str(out)]) == 0
    assert main(["encode", str(worked_pgm), str(out)]) == 0
    assert json.loads(out.read_text())["n_qubits"] == 2
    assert len(parser_builds) == 1


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["synth", "--help"]])
def test_shared_parser_prints_what_a_fresh_one_prints(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    printed = []
    for parse in (cli.build_parser().parse_args, main, main):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        printed.append(capsys.readouterr().out)
    assert printed[0].startswith(("ryprep ", "usage: ryprep"))
    assert printed[1] == printed[0] and printed[2] == printed[0]


def test_synth_past_the_qubit_cap_is_domain_error(tmp_path, capsys, monkeypatch):
    # a 4x4 image needs 4 qubits; the cap is lowered so that nothing large is built
    img = tmp_path / "img.pgm"
    img.write_bytes(b"P2 4 4 255 " + b" ".join(b"%d" % p for p in range(1, 17)))
    monkeypatch.setattr(synthesis, "MAX_QUBITS", 3)
    out = tmp_path / "c.json"
    assert main(["synth", str(img), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: DomainError: cannot synthesize 4 qubits; the simulator holds at most 3\n"
    assert not out.exists()
