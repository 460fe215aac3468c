"""Dense real-statevector simulation of Ry/X circuits.

A gate on target t pairs index i (bit t clear) with i + 2**t and rotates or
swaps the two amplitudes whenever every control bit of i is set; only that
control subspace is touched.  This is the verification oracle for
synthesized circuits.

Two kernels implement the update, with the same floating-point operations
in the same order, so they agree bit for bit.  ``ryprep._simkernel``, a C
extension, runs a whole circuit in one call over four packed gate columns
and enumerates each gate's control subspace as submasks.  When it cannot
be imported (no compiler at install time), the NumPy kernel
``_apply_inplace`` runs gate by gate: the statevector is viewed as a tensor
of shape (2,) * n, where qubit q is axis n - 1 - q, each control axis is
fixed to 1, and the target axis is fixed to 0 for one strided view and to 1
for the other.  It is also the reference the compiled kernel is tested
against.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .circuits import RY, Circuit, Gate
from .errors import DimensionMismatch, DomainError, IndexOutOfRange
from .states import RealState

try:
    from ._simkernel import run_gates as _run_gates
except ImportError:
    _run_gates = None

__all__ = ["KERNEL_BACKEND", "MAX_QUBITS", "apply_gate", "run", "max_abs_diff"]

# The kernel that ``run`` and ``apply_gate`` use: "c" or "numpy".
KERNEL_BACKEND = "numpy" if _run_gates is None else "c"

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


def _columns(gates) -> tuple:
    """``run_gates``' columns: kind (0 for Ry, 1 for X), target, control
    mask and angle (0.0 for X), written straight into typed arrays."""
    kinds, targets, masks, angles = bytearray(), array("i"), array("Q"), array("d")
    for gate in gates:
        mask = 0
        for c in gate.controls:
            mask |= 1 << c
        if gate.kind == RY:
            kinds.append(0)
            angles.append(gate.angle)
        else:
            kinds.append(1)
            angles.append(0.0)
        targets.append(gate.target)
        masks.append(mask)
    return kinds, targets, masks, angles


def _apply_all(amps: np.ndarray, gates) -> None:
    if _run_gates is None:
        for gate in gates:
            _apply_inplace(amps, gate)
    else:
        _run_gates(amps, *_columns(gates))


def apply_gate(state: RealState, gate: Gate) -> RealState:
    """One gate applied to one state; the state itself is untouched."""
    if gate.max_index >= state.n_qubits:
        raise IndexOutOfRange(
            f"gate touches qubit {gate.max_index} but the state has {state.n_qubits} qubits"
        )
    amps = np.array(state.amplitudes, dtype=np.float64)
    _apply_all(amps, (gate,))
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
    _apply_all(amps, circuit.gates)
    return RealState(circuit.n_qubits, tuple(amps.tolist()))


def max_abs_diff(a: RealState, b: RealState) -> float:
    """L-infinity distance between two states on the same qubit count."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatch(f"cannot compare {a.n_qubits}-qubit and {b.n_qubits}-qubit states")
    return max(abs(p - q) for p, q in zip(a.amplitudes, b.amplitudes))
