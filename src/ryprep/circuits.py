"""Immutable gate and circuit values over the real gate family.

Two gate kinds suffice for real statevector preparation: Ry rotations and X,
each optionally conditioned on any set of positive-polarity controls.
Circuits are value objects; every operation returns a new circuit.
"""

from __future__ import annotations

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

_SEQUENCES = (tuple, list)
_INTS = frozenset((int,))


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
        target = self.target
        controls = self.controls
        # Plain ints in a tuple or list, the common case, need no Python-level
        # call per control.  Other containers take the indexing path, since
        # the type test would use up a generator.
        if (
            type(target) is int
            and type(controls) in _SEQUENCES
            and _INTS.issuperset(map(type, controls))
        ):
            ordered = tuple(sorted(controls))
            changed = ordered != controls
        else:
            try:
                target = _qubit_index(target)
                ordered = tuple(sorted(map(_qubit_index, controls)))
            except TypeError:
                raise IndexOutOfRange(
                    f"qubit indices must be integers, got target {self.target!r} "
                    f"and controls {self.controls!r}"
                ) from None
            object.__setattr__(self, "target", target)
            changed = True
        if target < 0:
            raise IndexOutOfRange(f"target must be nonnegative, got {target}")
        if ordered and ordered[0] < 0:
            raise IndexOutOfRange(f"controls must be nonnegative, got {ordered}")
        if len(set(ordered)) != len(ordered):
            raise ControlCollision(f"duplicate control in {ordered}")
        if target in ordered:
            raise ControlEqualsTarget(f"qubit {target} is both target and control")
        if changed:
            object.__setattr__(self, "controls", ordered)
        if self.kind == RY:
            try:
                finite = math.isfinite(self.angle)
            except TypeError:
                finite = False
            except OverflowError:
                raise DomainError("ry angle is an integer too large for a float") from None
            if not finite:
                raise DomainError(f"ry needs a finite angle, got {self.angle!r}")
            if type(self.angle) is not float:
                object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise DomainError("x takes no angle")

    @property
    def max_index(self) -> int:
        # controls are sorted, so the last one is the largest
        controls = self.controls
        return max(controls[-1], self.target) if controls else self.target

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
        n = self.n_qubits
        for gate in gates:
            if gate.max_index >= n:
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
        """The circuit as JSON text, byte for byte what ``json.dumps`` writes
        for the schema's dicts: angles are finite floats and qubit indices
        exact ints, which json prints with their ``__repr__``, as it prints
        an int subclass n_qubits with ``int.__repr__``."""
        docs = []
        for g in self.gates:
            controls = ", ".join(map(str, g.controls))
            if g.kind == RY:
                docs.append(
                    f'{{"kind": "ry", "angle": {g.angle!r}, "target": {g.target}, '
                    f'"controls": [{controls}]}}'
                )
            else:
                docs.append(f'{{"kind": "x", "target": {g.target}, "controls": [{controls}]}}')
        return f'{{"n_qubits": {int.__repr__(self.n_qubits)}, "gates": [{", ".join(docs)}]}}'

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
        for i, gd in enumerate(gate_docs):
            if not isinstance(gd, dict) or "kind" not in gd or "target" not in gd:
                raise FormatError(f"malformed gate entry {gd!r}")
            target = gd["target"]
            controls = gd.get("controls", [])
            if not isinstance(controls, list):
                raise FormatError(f"malformed gate entry {gd!r}")
            # type() rather than isinstance(): JSON true/false parse as bool
            if type(target) is not int or not _INTS.issuperset(map(type, controls)):
                raise FormatError(f"gate qubit indices must be integers, got {gd!r}")
            angle = gd.get("angle")
            if angle is not None and type(angle) is not float:
                angle = number(angle, "gate angle")
            gates.append(Gate(gd["kind"], target, controls, angle))
            # hold each gate as a dict or as a Gate, never both
            gate_docs[i] = None
        return cls(n_qubits, tuple(gates))
