"""OpenQASM 3 export.

Controls become stacked ``ctrl @`` modifiers; operands list the controls in
ascending order followed by the target.  Angles are printed with Python's
shortest round-trip float representation, so re-parsing recovers the exact
double and identical circuits always yield identical text.
"""

from __future__ import annotations

import functools

from .circuits import RY, Circuit

__all__ = ["export_qasm"]


def export_qasm(circuit: Circuit) -> str:
    # operands formatted on first use, for only the qubits the gates touch
    names = functools.cache("q[{}]".format)
    lines = ["OPENQASM 3.0;", 'include "stdgates.inc";', f"qubit[{circuit.n_qubits}] q;"]
    for gate in circuit.gates:
        controls = gate.controls
        call = f"ry({gate.angle!r})" if gate.kind == RY else "x"
        operands = ", ".join(map(names, (*controls, gate.target)))
        lines.append(f"{'ctrl @ ' * len(controls)}{call} {operands};")
    return "\n".join(lines) + "\n"
