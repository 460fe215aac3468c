"""OpenQASM 3 export.

Controls become stacked ``ctrl @`` modifiers; operands list the controls in
ascending order followed by the target.  Angles are printed with Python's
shortest round-trip float representation, so re-parsing recovers the exact
double and identical circuits always yield identical text.

The text is written from the circuit's columns by
``_simkernel.circuit_qasm``, or by its NumPy twin ``_circuit_qasm_numpy``
where the extension is absent or stale, as ``Circuit.to_json`` writes its
JSON.
"""

from __future__ import annotations

from typing import BinaryIO, Callable

import numpy as np

from ._kernel import compiled
from ._values import joined
from .circuits import Circuit, control_texts, joined_rows, ry_texts

__all__ = ["export_qasm", "write_qasm"]

# the gate call around an Ry row's angle, by kind, up to the operands
_CALLS = np.array(["ry(", "x"], object)
_CLOSES = np.array([") ", " "], object)


def _circuit_qasm_numpy(
    n_qubits: int,
    kind: np.ndarray,
    target: np.ndarray,
    mask: np.ndarray,
    angle: np.ndarray,
    write: Callable[[bytes], object],
) -> None:
    """Hand write, in one call, the ASCII bytes of the QASM text of the rows
    in the four columns, which ``Circuit`` has checked:
    ``_simkernel.circuit_qasm`` in NumPy, its fallback and its reference.
    Each piece of the text is made for all rows at once."""
    body = joined_rows(
        len(kind),
        control_texts(mask, "ctrl @ "),
        _CALLS[kind],
        ry_texts(kind, angle),
        _CLOSES[kind],
        control_texts(mask, "q[{}], "),
        "q[",
        np.array(list(map(str, target.tolist())), object),
        "];\n",
    )
    write(f'OPENQASM 3.0;\ninclude "stdgates.inc";\nqubit[{n_qubits}] q;\n{body}'.encode("ascii"))


_circuit_qasm = _circuit_qasm_numpy if compiled is None else compiled.circuit_qasm


def write_qasm(circuit: Circuit, fh: BinaryIO) -> None:
    """Write ``export_qasm(circuit)`` as ASCII bytes to the buffered binary
    file fh, as ``Circuit.write_json`` writes the circuit's JSON."""
    circuit._write_rows(_circuit_qasm, _circuit_qasm_numpy, fh.write)


def export_qasm(circuit: Circuit) -> str:
    return joined(lambda write: circuit._write_rows(_circuit_qasm, _circuit_qasm_numpy, write))
