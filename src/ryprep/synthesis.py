"""State-preparation circuit synthesis from spherical angles.

The construction is recursive.  One qubit is a single Ry.  Two qubits take
three gates: Ry(t1) on qubit 0, Ry(-t2) on qubit 1 controlled by qubit 0,
then Ry(pi + t3) on qubit 0 controlled by qubit 1; the pi offset un-rotates
the lower pair while the sign flip plants the correct upper pair.  For n
qubits: prepare the first 2**(n-1) - 1 angles on the low n - 1 qubits,
rotate the residual amplitude onto the top qubit with one (n-1)-controlled
Ry, relocate it from index 2**n - 1 down to index 2**(n-1) with n - 1
CNOTs off the top qubit, then recurse on the remaining angles with every
emitted gate controlled by the top qubit.

Controls are passed down the recursion as a prefix: each level hands its
top qubit, together with the controls it received, to the second
recursion, so every gate is built once with its full control set.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .circuits import RY, Circuit, Gate, ry, x
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
    return Circuit(1, tuple(_emit((theta,), 1, None)))


def synth_2q(theta1: float, theta2: float, theta3: float) -> Circuit:
    """Three gates taking |00> to the nested cos/sin product of the angles."""
    return Circuit(2, tuple(_emit((theta1, theta2, theta3), 2, None)))


def _emit(
    angles: tuple[float, ...], n: int, tol: float | None, controls: tuple[int, ...] = ()
) -> list[Gate]:
    """Gate list preparing the state with the given 2**n - 1 angles on
    qubits 0..n-1, every gate also conditioned on ``controls`` (qubits n
    and above, added by the enclosing recursion levels).

    With tol set, Ry gates whose angle is within tol of zero are dropped,
    and a block whose angle slice is entirely zero is elided outright: such
    a block is the identity on the |0...0> input it receives here, because
    every rotation is trivial and every control sits on an unexcited qubit.
    """
    if tol is not None and all(abs(a) <= tol for a in angles):
        return []
    if n == 1:
        return [ry(angles[0], 0, controls)]
    if n == 2:
        t1, t2, t3 = angles
        rules = ((t1, 0, controls), (-t2, 1, (0,) + controls), (_PI + t3, 0, (1,) + controls))
        return [ry(a, t, c) for a, t, c in rules if tol is None or abs(a) > tol]
    half = 1 << (n - 1)
    top = n - 1
    gates = _emit(angles[: half - 1], n - 1, tol, controls)
    hinge = angles[half - 1]
    if tol is None or abs(hinge) > tol:
        gates.append(ry(hinge, top, tuple(range(top)) + controls))
    lifted = (top,) + controls
    gates.extend(x(q, lifted) for q in range(top))
    gates.extend(_emit(angles[half:], n - 1, tol, lifted))
    return gates


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
    gates = _emit(angles.angles, n, prune_tol if prune else None)
    return Circuit(n, tuple(gates))


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
        max_control_arity=max((len(g.controls) for g in circuit.gates), default=0),
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
