"""Dense real-statevector simulation of Ry/X circuits.

A gate on target t pairs index i (bit t clear) with i + 2**t and rotates or
swaps the two amplitudes whenever every control bit of i is set; only that
control subspace is touched.  This is the verification oracle for
synthesized circuits.

Two kernels implement the update, with the same floating-point operations
in the same order, so they agree bit for bit.  Both take a whole circuit as
its four columns (``Circuit.columns``: kind, target, control mask, angle)
in one call.  ``ryprep._simkernel.run_gates``, a C extension, enumerates
each gate's control subspace as submasks.  Where ``ryprep._kernel`` finds
no extension, or a stale one, ``_run_gates_numpy`` runs in its place: the
statevector is viewed as a tensor of shape (2,) * n, where qubit q is axis
n - 1 - q, each control axis is fixed to 1, and the target axis is fixed to
0 for one strided view and to 1 for the other.  It is also the reference
the compiled kernel is tested against.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernel import KERNEL_BACKEND, compiled
from .circuits import Circuit, Gate
from .errors import DimensionMismatch, DomainError, IndexOutOfRange
from .states import RealState

__all__ = ["KERNEL_BACKEND", "MAX_QUBITS", "apply_gate", "run", "max_abs_diff"]

# 2**26 float64 amplitudes take 512 MiB.  The cap also keeps the
# (2,) * n view within NumPy 1.x's limit of 32 array dimensions.
MAX_QUBITS = 26


def _run_gates_numpy(
    amps: np.ndarray, kind: np.ndarray, target: np.ndarray, mask: np.ndarray, angle: np.ndarray
) -> None:
    """``run_gates`` in NumPy, on columns that ``Circuit`` has checked: each
    row's controls are the set bits of its mask."""
    n = amps.size.bit_length() - 1
    tensor = amps.reshape((2,) * n)
    free = [slice(None)] * n
    for k, t, m, a in zip(kind.tolist(), target.tolist(), mask.tolist(), angle.tolist()):
        index = free.copy()
        while m:
            low = m & -m
            # control qubit q = low.bit_length() - 1 is axis n - 1 - q
            index[n - low.bit_length()] = 1
            m ^= low
        axis = n - 1 - t
        # Ellipsis keeps a fully fixed index a 0-d view rather than a scalar copy
        index[axis] = 0
        v0 = tensor[(*index, Ellipsis)]
        index[axis] = 1
        v1 = tensor[(*index, Ellipsis)]
        a0 = v0.copy()
        if k == 0:
            half = 0.5 * a
            c, s = math.cos(half), math.sin(half)
            a1 = v1.copy()
            v0[...] = c * a0 - s * a1
            v1[...] = s * a0 + c * a1
        else:
            v0[...] = v1
            v1[...] = a0


_run_gates = _run_gates_numpy if compiled is None else compiled.run_gates


def _check_qubits(n_qubits: int) -> None:
    """Refuse more than ``MAX_QUBITS`` qubits, on either kernel."""
    if n_qubits > MAX_QUBITS:
        raise DomainError(
            f"cannot simulate {n_qubits} qubits; the simulator holds at most {MAX_QUBITS}"
        )


def apply_gate(state: RealState, gate: Gate) -> RealState:
    """One gate applied to one state; the state itself is untouched.

    Raises ``DomainError`` when the state has more than ``MAX_QUBITS`` qubits.
    """
    _check_qubits(state.n_qubits)
    if gate.max_index >= state.n_qubits:
        raise IndexOutOfRange(
            f"gate touches qubit {gate.max_index} but the state has {state.n_qubits} qubits"
        )
    # state.array is read-only; RealState copies this array once more, a
    # second transient of the state's size, kept for its single constructor
    amps = state.array.copy()
    _run_gates(amps, *Circuit(state.n_qubits, (gate,)).columns)
    return RealState(state.n_qubits, amps)


def run(circuit: Circuit) -> RealState:
    """Apply every gate in order to |0...0> and return the prepared state.

    Raises ``DomainError``, before allocating, when the circuit has more than
    ``MAX_QUBITS`` qubits.
    """
    _check_qubits(circuit.n_qubits)
    amps = np.zeros(1 << circuit.n_qubits, dtype=np.float64)
    amps[0] = 1.0
    _run_gates(amps, *circuit.columns)
    # RealState copies amps: 8 * 2**n more bytes for a moment (512 MB at
    # n = 26), against the Python float per amplitude a tuple would take
    return RealState(circuit.n_qubits, amps)


def max_abs_diff(a: RealState, b: RealState) -> float:
    """L-infinity distance between two states on the same qubit count."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatch(f"cannot compare {a.n_qubits}-qubit and {b.n_qubits}-qubit states")
    return float(abs(a.array - b.array).max())
