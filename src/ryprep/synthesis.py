"""State-preparation circuit synthesis from spherical angles.

The construction is recursive.  One qubit is a single Ry.  Two qubits take
three gates: Ry(t1) on qubit 0, Ry(-t2) on qubit 1 controlled by qubit 0,
then Ry(pi + t3) on qubit 0 controlled by qubit 1; the pi offset un-rotates
the lower pair while the sign flip plants the correct upper pair.  For n
qubits: prepare the first 2**(n-1) - 1 angles on the low n - 1 qubits,
rotate the residual amplitude onto the top qubit with one (n-1)-controlled
Ry, relocate it from index 2**n - 1 down to index 2**(n-1) with n - 1
CNOTs off the top qubit, then recurse on the remaining angles with every
gate controlled by the top qubit.

So the gate list for n qubits has the same shape for every state, and
only its angles change.  ``_template(n)`` builds that shape once per n as
columns, one row per unpruned gate: kind, target, control mask, the index
of the angle the gate takes, the rule that turns the angle into the gate's
(itself, negated, or pi plus it), and the slice of the angle list of the
recursion level that emits the gate, its block.  T(1) and T(2) are the
base cases; T(n) is T(n-1), the hinge Ry and the n - 1 X rows, then T(n-1)
again with the top qubit added to every mask and 2**(n-1) to every angle
index and block, built bottom up by ``np.concatenate``.

Synthesis is one gather over the template: the angles by index, the rules
by negation, and with pruning a row mask.  Pruning drops a block whose
angles are all within the tolerance of zero, being the identity on the
|0...0> input it receives, and an Ry whose own angle is; an enclosing
block holds the angles of every block inside it, so a row needs only its
own block tested, read from a cumulative count of nonzero angles.  The
circuit holds the four columns that the simulator and the text writers
read, and builds no ``Gate`` until its ``gates`` are read.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .circuits import RY, Circuit, checked_angle
from .errors import DomainError
from .simulator import MAX_QUBITS
from .states import AngleList, RealState, to_angles
from .tolerances import PRUNE_ATOL, check_tol

__all__ = [
    "SynthReport",
    "unpruned_gate_count",
    "synth_1q",
    "synth_2q",
    "synth_angles",
    "synth",
    "prune",
]

_PI = math.pi
# the rule that turns a row's angle into its gate's
_SAME, _NEGATED, _PI_PLUS = 0, 1, 2


@dataclass(frozen=True)
class SynthReport:
    """Synthesis statistics for one circuit."""

    n_qubits: int
    gate_count: int
    pruned_count: int
    max_control_arity: int
    recursion_depth: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def unpruned_gate_count(n_qubits: int) -> int:
    """Closed form of the recurrence T(1) = 1, T(2) = 3, T(n) = 2*T(n-1) + n."""
    if n_qubits < 1:
        raise DomainError(f"n_qubits must be positive, got {n_qubits}")
    if n_qubits == 1:
        return 1
    return 7 * (1 << (n_qubits - 2)) - n_qubits - 2


def synth_1q(theta: float) -> Circuit:
    """Single Ry taking |0> to [cos(theta/2), sin(theta/2)]."""
    return _gather(1, _as_given((theta,)), None)


def synth_2q(theta1: float, theta2: float, theta3: float) -> Circuit:
    """Three gates taking |00> to the nested cos/sin product of the angles."""
    return _gather(2, _as_given((theta1, theta2, theta3)), None)


def _as_given(values: tuple) -> np.ndarray:
    """values in an object array, so that the rules negate each and add pi
    to it by its own type's arithmetic, as ``-t`` and ``math.pi + t`` do,
    and ``checked_angle`` then refuses what ``Gate`` would."""
    column = np.empty(len(values), object)
    for k, value in enumerate(values):
        column[k] = value
    return column


# kind, target, control mask, angle index, rule, block start and stop
_ROW_TYPES = (np.uint8, np.int32, np.uint64, np.int32, np.uint8, np.int32, np.int32)


def _rows(*columns) -> tuple[np.ndarray, ...]:
    """The template columns, of their types and read-only."""
    rows = tuple(map(np.asarray, columns, _ROW_TYPES))
    for row in rows:
        row.flags.writeable = False
    return rows


@functools.cache
def _template(n: int) -> tuple[np.ndarray, ...]:
    """The rows of the unpruned n-qubit circuit: kind, target, control
    mask, angle index (not read for X), rule, and block start and stop.
    The smaller templates it is built from are not kept."""
    if n == 1:
        return _rows([0], [0], [0], [0], [_SAME], [0], [1])
    # Ry(t1) on qubit 0, Ry(-t2) on 1 controlled by 0, Ry(pi + t3) on 0
    # controlled by 1
    rule = [_SAME, _NEGATED, _PI_PLUS]
    rows = _rows([0, 0, 0], [0, 1, 0], [0, 1, 2], [0, 1, 2], rule, [0, 0, 0], [3, 3, 3])
    for m in range(3, n + 1):
        half, top = 1 << (m - 1), m - 1
        # the hinge Ry, controlled on every lower qubit, and the X rows
        # controlled on the top one, all in the m-qubit block
        middle = _rows(
            [0] + [1] * top,
            [top, *range(top)],
            [half - 1] + [half] * top,
            [half - 1] + [0] * top,
            [_SAME] * m,
            [0] * m,
            [2 * half - 1] * m,
        )
        kind, target, mask, index, rule, start, stop = rows
        high = (kind, target, mask | half, index + half, rule, start + half, stop + half)
        rows = _rows(*map(np.concatenate, zip(rows, middle, high)))
    return rows


def _gather(n: int, angles: np.ndarray, tol: float | None) -> Circuit:
    """The circuit of the 2**n - 1 angles, float64 or, from ``_as_given``,
    objects that are checked here; pruned with tol set.  A row is kept
    where its block holds an angle past tol and, for an Ry, its own angle
    is past tol."""
    kind, target, mask, index, rule, start, stop = _template(n)
    angle = angles[index]
    negated, pi_plus = rule == _NEGATED, rule == _PI_PLUS
    # negated as -t is, since a product with -1.0 plus an offset of 0.0
    # would turn -0.0 into 0.0; and each rule only on its own rows, which
    # np.where would not do for the objects of _as_given
    angle[negated] = -angle[negated]
    angle[pi_plus] = _PI + angle[pi_plus]
    if angle.dtype == object:
        angle = np.array(list(map(checked_angle, angle.tolist())), np.float64)
    angle[kind == 1] = 0.0
    columns = (kind.view(), target.view(), mask.view(), angle)
    if tol is not None:
        nonzero = np.concatenate(([0], np.cumsum(np.abs(angles) > tol)))
        keep = (nonzero[stop] > nonzero[start]) & ((kind == 1) | (np.abs(angle) > tol))
        columns = tuple(column[keep] for column in columns)
    for column in columns:
        column.flags.writeable = False
    return Circuit._of_columns(n, columns)


def _check_qubits(n_qubits: int) -> None:
    """Refuse a circuit too wide to verify, before any gate is built: past
    ``MAX_QUBITS`` its 7 * 2**(n-2) gates would take tens of GB."""
    if n_qubits > MAX_QUBITS:
        raise DomainError(
            f"cannot synthesize {n_qubits} qubits; the simulator holds at most {MAX_QUBITS}"
        )


def synth_angles(
    angles: AngleList, *, prune: bool = False, prune_tol: float = PRUNE_ATOL
) -> Circuit:
    """Build the preparation circuit directly from an angle list.

    Raises ``DomainError`` for more than ``MAX_QUBITS`` qubits.
    """
    check_tol(prune_tol, "prune_tol")
    n = angles.n_qubits
    _check_qubits(n)
    return _gather(n, np.array(angles.angles, np.float64), prune_tol if prune else None)


def synth(
    state: RealState, *, prune: bool = False, prune_tol: float = PRUNE_ATOL
) -> tuple[Circuit, SynthReport]:
    """Synthesize a circuit preparing the state from |0...0>.

    Without pruning the circuit has exactly ``unpruned_gate_count(n)`` gates.
    With pruning, rotations within prune_tol of zero are dropped (a bare
    Ry(2*pi) is a sign flip and is never dropped) and fully degenerate
    blocks are elided; the report accounts for every removed gate.  More
    than ``MAX_QUBITS`` qubits raise ``DomainError`` before the angles are
    extracted.
    """
    _check_qubits(state.n_qubits)
    angles = to_angles(state)
    circuit = synth_angles(angles, prune=prune, prune_tol=prune_tol)
    n = state.n_qubits
    total = unpruned_gate_count(n)
    report = SynthReport(
        n_qubits=n,
        gate_count=circuit.gate_count,
        pruned_count=total - circuit.gate_count,
        max_control_arity=circuit._counts()[2],
        recursion_depth=max(0, n - 2),
    )
    return circuit, report


def prune(circuit: Circuit, tol: float) -> tuple[Circuit, int]:
    """Drop Ry gates with |angle| <= tol; X gates and everything else stay.

    Returns the new circuit and the number of gates removed.  Only angles
    numerically indistinguishable from zero qualify; a 2*pi rotation flips
    the sign of half its subspace and is kept.
    """
    check_tol(tol, "tol")
    kept = tuple(g for g in circuit.gates if g.kind != RY or abs(g.angle) > tol)
    return Circuit(circuit.n_qubits, kept), circuit.gate_count - len(kept)
