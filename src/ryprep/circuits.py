"""Immutable gate and circuit values over the real gate family.

Two gate kinds suffice for real statevector preparation: Ry rotations and X,
each optionally conditioned on any set of positive-polarity controls.
Circuits are value objects; every operation returns a new circuit.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Iterable

from ._jsondoc import number, parse
from .errors import (
    ControlCollision,
    ControlEqualsTarget,
    DomainError,
    FormatError,
    IndexOutOfRange,
)

__all__ = ["RY", "X", "Gate", "Circuit", "ry", "x"]

RY = "ry"
X = "x"


def _qubit_index(value) -> int:
    """``operator.index`` without bools: qubit indices select array axes in
    the simulator, so floats, strings, None and bools are all refused."""
    if type(value) is bool:
        raise TypeError(f"{value!r} is not a qubit index")
    return operator.index(value)


@dataclass(frozen=True)
class Gate:
    kind: str
    target: int
    controls: tuple[int, ...] = ()
    angle: float | None = None

    def __post_init__(self) -> None:
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

    @property
    def max_index(self) -> int:
        return max(self.controls + (self.target,))

    def with_control(self, control: int) -> "Gate":
        """Copy of this gate conditioned on one more qubit."""
        if control == self.target or control in self.controls:
            raise ControlCollision(f"qubit {control} already used by this gate")
        return Gate(self.kind, self.target, self.controls + (control,), self.angle)


def ry(angle: float, target: int, controls: Iterable[int] = ()) -> Gate:
    return Gate(RY, target, tuple(controls), angle)


def x(target: int, controls: Iterable[int] = ()) -> Gate:
    return Gate(X, target, tuple(controls))


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        if type(self.n_qubits) is bool or not isinstance(self.n_qubits, int) or self.n_qubits < 1:
            raise DomainError(f"n_qubits must be a positive integer, got {self.n_qubits!r}")
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        for gate in gates:
            if gate.max_index >= self.n_qubits:
                raise IndexOutOfRange(
                    f"gate touches qubit {gate.max_index} but the circuit has "
                    f"{self.n_qubits} qubits"
                )

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def append(self, gate: Gate) -> "Circuit":
        """New circuit with the gate added at the end."""
        return Circuit(self.n_qubits, self.gates + (gate,))

    def add_control(self, control: int) -> "Circuit":
        """New circuit with every gate conditioned on one extra qubit."""
        if not 0 <= control < self.n_qubits:
            raise IndexOutOfRange(f"control {control} outside 0..{self.n_qubits - 1}")
        return Circuit(self.n_qubits, tuple(g.with_control(control) for g in self.gates))

    def to_json(self) -> str:
        gates = []
        for g in self.gates:
            doc: dict = {"kind": g.kind}
            if g.kind == RY:
                doc["angle"] = g.angle
            doc["target"] = g.target
            doc["controls"] = list(g.controls)
            gates.append(doc)
        return json.dumps({"n_qubits": self.n_qubits, "gates": gates})

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        doc = parse(text, "circuit JSON")
        if not isinstance(doc, dict):
            raise FormatError("circuit JSON must be an object")
        try:
            n_qubits = doc["n_qubits"]
            gate_docs = doc["gates"]
        except KeyError as exc:
            raise FormatError(f"circuit JSON missing key {exc}") from exc
        if not isinstance(n_qubits, int) or isinstance(n_qubits, bool):
            raise FormatError("n_qubits must be an integer")
        if not isinstance(gate_docs, list):
            raise FormatError("gates must be a list")
        gates = []
        for gd in gate_docs:
            if not isinstance(gd, dict) or "kind" not in gd or "target" not in gd:
                raise FormatError(f"malformed gate entry {gd!r}")
            kind = gd["kind"]
            target = gd["target"]
            controls = gd.get("controls", [])
            if not isinstance(controls, list):
                raise FormatError(f"malformed gate entry {gd!r}")
            # type() rather than isinstance(): JSON true/false parse as bool
            if type(target) is not int or any(type(c) is not int for c in controls):
                raise FormatError(f"gate qubit indices must be integers, got {gd!r}")
            angle = gd.get("angle")
            if angle is not None:
                angle = number(angle, "gate angle")
            gates.append(Gate(kind, target, tuple(controls), angle))
        return cls(n_qubits, tuple(gates))
