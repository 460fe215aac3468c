"""Dense real-statevector simulation of Ry/X circuits.

A gate on target t pairs index i (bit t clear) with i + 2**t and rotates or
swaps the two amplitudes whenever every control bit of i is set.  The update
touches only that control subspace: the statevector is viewed as a tensor of
shape (2,) * n, where qubit q is axis n - 1 - q, each control axis is fixed
to 1, and the target axis is fixed to 0 for one strided view and to 1 for
the other.  This is the verification oracle for synthesized circuits.
"""

from __future__ import annotations

import math

import numpy as np

from .circuits import RY, Circuit, Gate
from .errors import DimensionMismatch, DomainError, IndexOutOfRange
from .states import RealState

__all__ = ["MAX_QUBITS", "apply_gate", "run", "max_abs_diff"]

# 2**26 float64 amplitudes take 512 MiB.  The cap also keeps the
# (2,) * n view within NumPy 1.x's limit of 32 array dimensions.
MAX_QUBITS = 26


def _apply_inplace(amps: np.ndarray, gate: Gate) -> None:
    n = amps.size.bit_length() - 1
    index: list = [slice(None)] * n
    for c in gate.controls:
        index[n - 1 - c] = 1
    axis = n - 1 - gate.target
    tensor = amps.reshape((2,) * n)
    # Ellipsis keeps a fully fixed index a 0-d view rather than a scalar copy
    index[axis] = 0
    v0 = tensor[(*index, Ellipsis)]
    index[axis] = 1
    v1 = tensor[(*index, Ellipsis)]
    a0 = v0.copy()
    if gate.kind == RY:
        half = 0.5 * gate.angle
        c, s = math.cos(half), math.sin(half)
        a1 = v1.copy()
        v0[...] = c * a0 - s * a1
        v1[...] = s * a0 + c * a1
    else:
        v0[...] = v1
        v1[...] = a0


def apply_gate(state: RealState, gate: Gate) -> RealState:
    """One gate applied to one state; the state itself is untouched."""
    if gate.max_index >= state.n_qubits:
        raise IndexOutOfRange(
            f"gate touches qubit {gate.max_index} but the state has {state.n_qubits} qubits"
        )
    amps = np.array(state.amplitudes, dtype=np.float64)
    _apply_inplace(amps, gate)
    return RealState(state.n_qubits, tuple(amps.tolist()))


def run(circuit: Circuit) -> RealState:
    """Apply every gate in order to |0...0> and return the prepared state.

    Raises ``DomainError``, before allocating, when the circuit has more than
    ``MAX_QUBITS`` qubits.
    """
    if circuit.n_qubits > MAX_QUBITS:
        raise DomainError(
            f"cannot simulate {circuit.n_qubits} qubits; the simulator holds at most {MAX_QUBITS}"
        )
    amps = np.zeros(1 << circuit.n_qubits, dtype=np.float64)
    amps[0] = 1.0
    for gate in circuit.gates:
        _apply_inplace(amps, gate)
    return RealState(circuit.n_qubits, tuple(amps.tolist()))


def max_abs_diff(a: RealState, b: RealState) -> float:
    """L-infinity distance between two states on the same qubit count."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatch(f"cannot compare {a.n_qubits}-qubit and {b.n_qubits}-qubit states")
    return max(abs(p - q) for p, q in zip(a.amplitudes, b.amplitudes))
