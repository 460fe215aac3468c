"""References for gate validation and the two circuit text formats, written
the plain way: every qubit index passes ``_qubit_index`` one by one, circuit
JSON goes through ``json.dumps`` of one dict per gate and is read back one
gate at a time, and each QASM operand is formatted on its own.
``ryprep.circuits`` and ``ryprep.qasm`` must agree with them byte for byte
and exception for exception.
"""

import json
import math
import operator
from dataclasses import dataclass

from ryprep._values import header, json_reals, parse
from ryprep.circuits import RY, X, Circuit, Gate
from ryprep.errors import (
    ControlCollision,
    ControlEqualsTarget,
    DomainError,
    FormatError,
    IndexOutOfRange,
)


def _qubit_index(value):
    if type(value) is bool:
        raise TypeError(f"{value!r} is not a qubit index")
    return operator.index(value)


@dataclass(frozen=True)
class ReferenceGate:
    kind: str
    target: int
    controls: tuple = ()
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in (RY, X):
            raise DomainError(f"unknown gate kind {self.kind!r}")
        try:
            target = _qubit_index(self.target)
            controls = tuple(sorted(map(_qubit_index, self.controls)))
        except TypeError:
            raise IndexOutOfRange(
                f"qubit indices must be integers, got target {self.target!r} "
                f"and controls {self.controls!r}"
            ) from None
        if target < 0:
            raise IndexOutOfRange(f"target must be nonnegative, got {target}")
        if any(c < 0 for c in controls):
            raise IndexOutOfRange(f"controls must be nonnegative, got {controls}")
        if len(set(controls)) != len(controls):
            raise ControlCollision(f"duplicate control in {controls}")
        if target in controls:
            raise ControlEqualsTarget(f"qubit {target} is both target and control")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "controls", controls)
        if self.kind == RY:
            try:
                finite = math.isfinite(self.angle)
            except TypeError:
                finite = False
            except OverflowError:
                raise DomainError("ry angle is an integer too large for a float") from None
            if not finite:
                raise DomainError(f"ry needs a finite angle, got {self.angle!r}")
            object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise DomainError("x takes no angle")


def to_json(circuit):
    gates = []
    for g in circuit.gates:
        doc = {"kind": g.kind}
        if g.kind == RY:
            doc["angle"] = g.angle
        doc["target"] = g.target
        doc["controls"] = list(g.controls)
        gates.append(doc)
    return json.dumps({"n_qubits": circuit.n_qubits, "gates": gates})


def from_json(text):
    """Circuit JSON read one gate at a time: each entry's keys and JSON
    types are checked and a ``ReferenceGate`` is built from it, in entry
    order, and only then does ``Circuit`` check n_qubits and the register
    bound, over the gates."""
    n_qubits, gate_docs = header(parse(text, "circuit JSON"), "circuit JSON", "gates")
    gates = []
    for gd in gate_docs:
        if not isinstance(gd, dict) or "kind" not in gd or "target" not in gd:
            raise FormatError(f"malformed gate entry {gd!r}")
        target = gd["target"]
        controls = gd.get("controls", [])
        if not isinstance(controls, list):
            raise FormatError(f"malformed gate entry {gd!r}")
        if type(target) is not int or not all(type(c) is int for c in controls):
            raise FormatError(f"gate qubit indices must be integers, got {gd!r}")
        angle = gd.get("angle")
        if angle is not None and type(angle) is not float:
            (angle,) = json_reals((angle,), "gate angles")
        gate = ReferenceGate(gd["kind"], target, controls, angle)
        gates.append(Gate(gate.kind, gate.target, gate.controls, gate.angle))
    return Circuit(n_qubits, tuple(gates))


def export_qasm(circuit):
    lines = ["OPENQASM 3.0;", 'include "stdgates.inc";', f"qubit[{circuit.n_qubits}] q;"]
    for gate in circuit.gates:
        call = f"ry({gate.angle!r})" if gate.kind == RY else "x"
        mods = "ctrl @ " * len(gate.controls)
        operands = ", ".join(f"q[{q}]" for q in (*gate.controls, gate.target))
        lines.append(f"{mods}{call} {operands};")
    return "\n".join(lines) + "\n"
