"""One image through ``ryprep.cli.main``, in-process.

Imports nothing heavy, so that the set-up probe can import ryprep (and with
it NumPy) first and time that import as a user would pay it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os


class Files:
    """Input and output paths of one image inside a private directory."""

    def __init__(self, root: str) -> None:
        os.makedirs(root, exist_ok=True)
        self.pgm = os.path.join(root, "image.pgm")
        self.circuit = os.path.join(root, "circuit.json")
        self.qasm = os.path.join(root, "circuit.qasm")
        self.report = os.path.join(root, "report.json")
        self.state = os.path.join(root, "state.json")
        self.outputs = (self.circuit, self.qasm, self.report, self.state)

    def prepare(self, pgm: bytes) -> None:
        """Write the input and delete old outputs, so that none can pass for
        the next operation's."""
        with open(self.pgm, "wb") as fh:
            fh.write(pgm)
        for path in self.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def written(self) -> dict[str, bytes]:
        out = {}
        for path in self.outputs:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    out[os.path.basename(path)] = fh.read()
        return out


def cli_calls(command: str, f: Files) -> list[list[str]]:
    """``encode``, or ``synth`` then ``verify``: the CLI calls of one image."""
    if command == "encode":
        return [["encode", f.pgm, f.state]]
    synth = ["synth", f.pgm, "--out", f.circuit, "--qasm", f.qasm, "--report", f.report]
    return [synth, ["verify", f.pgm, f.circuit]]


def _quiet(cli_main, argv: list[str], out: io.StringIO) -> int:
    with contextlib.redirect_stdout(out):
        return cli_main(argv)


def run_image(cli_main, command: str, f: Files, clock, reps_before: int = 1) -> dict:
    """One image through the CLI, each call timed between two samples of
    the speed reference.  Returns the exit code, the last call's stdout,
    and raw and scaled seconds summed over the calls.  Stdout is captured so
    that nothing the program prints can follow the benchmark's result line.
    """
    ref = clock.measure(reps_before)
    res = {"rc": 0, "stdout": "", "raw": 0.0, "scaled": 0.0, "longest": 0.0}
    for argv in cli_calls(command, f):
        out = io.StringIO()
        rc, raw, scaled, ref = clock.timed(functools.partial(_quiet, cli_main, argv, out), ref)
        res.update(rc=rc, stdout=out.getvalue())
        res["raw"] += raw
        res["scaled"] += scaled
        res["longest"] = max(res["longest"], raw)
        if rc != 0:
            break
    return res
