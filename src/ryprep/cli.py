"""Command-line interface: encode, synth, verify, stats.

Results go to stdout (or files named by flags); diagnostics go to stderr,
gated by the LOG_LEVEL environment variable (error, warn, info, debug).
Exit codes: 0 success, 1 domain error (bad values), 2 format or I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable

from . import KERNEL_BACKEND, __version__
from ._values import json_reals, parse
from .circuits import Circuit
from .encoding import encode, load_pgm, looks_like_pgm
from .errors import DimensionMismatch, DomainError, FormatError
from .qasm import write_qasm
from .simulator import max_abs_diff, run
from .states import RealState, normalize
from .synthesis import synth
from .tolerances import PRUNE_ATOL, VERIFY_ATOL, check_tol

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_FORMAT = 2

_LEVELS = {"error": 0, "warn": 1, "info": 2, "debug": 3}


def _verbosity() -> int:
    return _LEVELS.get(os.environ.get("LOG_LEVEL", "warn").strip().lower(), 1)


def _say(level: str, message: str) -> None:
    if _LEVELS[level] <= _verbosity():
        print(f"{level}: {message}", file=sys.stderr)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _read_text(path: str) -> str:
    try:
        return _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text") from exc


def _load_state(path: str) -> RealState:
    """Load a state from a PGM image, a state JSON object, or a bare JSON
    array of reals (normalized on the way in)."""
    data = _read_bytes(path)
    if looks_like_pgm(data):
        return encode(load_pgm(data))
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: neither a PGM image nor JSON") from exc
    doc = parse(text, f"JSON in {path}")
    if isinstance(doc, list):
        return normalize(json_reals(doc, "amplitudes"))
    if isinstance(doc, dict):
        return RealState.from_doc(doc)
    raise FormatError(f"{path}: expected a JSON object or array")


def cmd_encode(args: argparse.Namespace) -> int:
    state = encode(load_pgm(_read_bytes(args.image)))
    with open(args.out, "wb") as fh:
        state.write_json(fh)
        fh.write(b"\n")
    _say("info", f"encoded {args.image} into {state.n_qubits} qubits -> {args.out}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    check_tol(args.prune_tol, "--prune-tol")
    state = _load_state(args.input)
    circuit, report = synth(state, prune=args.prune, prune_tol=args.prune_tol)
    if args.out:
        with open(args.out, "wb") as fh:
            circuit.write_json(fh)
            fh.write(b"\n")
    else:
        sys.stdout.write(circuit.to_json())
        sys.stdout.write("\n")
    if args.qasm:
        with open(args.qasm, "wb") as fh:
            write_qasm(circuit, fh)
    if args.report:
        with open(args.report, "wb") as fh:
            fh.write(f"{report.to_json()}\n".encode("ascii"))
    _say(
        "info",
        f"synthesized {report.gate_count} gates on {report.n_qubits} qubits "
        f"({report.pruned_count} pruned)",
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    check_tol(args.tol, "--tol")
    state = _load_state(args.input)
    circuit = Circuit.from_json(_read_text(args.circuit))
    if circuit.n_qubits != state.n_qubits:
        raise DimensionMismatch(
            f"circuit has {circuit.n_qubits} qubits but the state has {state.n_qubits}"
        )
    diff = max_abs_diff(run(circuit), state)
    ok = diff <= args.tol
    print(json.dumps({"max_abs_diff": diff, "tol": args.tol, "ok": ok}))
    if not ok:
        _say("error", f"verification failed: max_abs_diff {diff:.3e} exceeds tol {args.tol:.3e}")
    return EXIT_OK if ok else EXIT_DOMAIN


def cmd_stats(args: argparse.Namespace) -> int:
    circuit = Circuit.from_json(_read_text(args.circuit))
    ry, x, max_controls = circuit._counts()
    stats = {"gate_count": ry + x, "ry": ry, "x": x, "max_controls": max_controls}
    print(json.dumps(stats, separators=(",", ":")))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ryprep",
        description="Encode grayscale images as real statevectors and synthesize "
        "Ry/X preparation circuits.",
    )
    parser.add_argument(
        "--version", action="version", version=f"ryprep {__version__} (kernel: {KERNEL_BACKEND})"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enc = sub.add_parser("encode", help="PGM image -> state JSON")
    p_enc.add_argument("image", help="PGM file (P2 or P5)")
    p_enc.add_argument("out", help="output path for the state JSON")
    p_enc.set_defaults(func=cmd_encode)

    p_syn = sub.add_parser("synth", help="image or state -> preparation circuit")
    p_syn.add_argument("input", help="PGM file, state JSON, or bare JSON array")
    p_syn.add_argument(
        "--prune",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="drop numerically-zero rotations (default: on)",
    )
    p_syn.add_argument(
        "--prune-tol", type=float, default=PRUNE_ATOL, metavar="RADIANS", help="pruning threshold"
    )
    p_syn.add_argument("--out", metavar="PATH", help="write circuit JSON here instead of stdout")
    p_syn.add_argument("--qasm", metavar="PATH", help="also write OpenQASM 3 text")
    p_syn.add_argument("--report", metavar="PATH", help="also write the synthesis report JSON")
    p_syn.set_defaults(func=cmd_synth)

    p_ver = sub.add_parser("verify", help="simulate a circuit and compare against a state")
    p_ver.add_argument("input", help="PGM file, state JSON, or bare JSON array")
    p_ver.add_argument("circuit", help="circuit JSON file")
    p_ver.add_argument("--tol", type=float, default=VERIFY_ATOL, help="max allowed |difference|")
    p_ver.set_defaults(func=cmd_verify)

    p_st = sub.add_parser("stats", help="gate counts of a circuit JSON")
    p_st.add_argument("circuit", help="circuit JSON file")
    p_st.set_defaults(func=cmd_stats)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: argparse formats
    help text when it prints it, so a shared parser prints what a fresh one
    would, and ``parse_args`` keeps no state between calls."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    func: Callable[[argparse.Namespace], int] = args.func
    try:
        return func(args)
    # first: a pixel or maxval out of range is both, and a format error in a file
    except (FormatError, OSError) as exc:
        _say("error", f"{type(exc).__name__}: {exc}")
        return EXIT_FORMAT
    except DomainError as exc:
        _say("error", f"{type(exc).__name__}: {exc}")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
