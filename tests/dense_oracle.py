"""References for gate semantics, built independently of the simulator's
strided-view updates.

The full operator of a controlled gate is assembled by Kronecker products:
with P the projector onto the all-controls-set subspace and K the product
that applies the 2x2 gate matrix on the target inside that subspace, the
operator is I - P + K.  Factors are ordered from qubit n-1 down to qubit 0
so that bit k of a statevector index is qubit k.

``run_pairs`` is the pair-index algorithm: it lists every index with the
target bit clear, keeps those with every control bit set, and updates each
pair (i, i + 2**target) with the same floating-point operations as the
simulator, so the two must agree bit for bit.
"""

import math

import numpy as np

_I2 = np.eye(2)
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _ry_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]])


def gate_matrix(gate, n_qubits: int) -> np.ndarray:
    """Full 2**n x 2**n operator of one gate."""
    local = _ry_matrix(gate.angle) if gate.kind == "ry" else _X
    proj = np.ones((1, 1))
    kept = np.ones((1, 1))
    for q in range(n_qubits - 1, -1, -1):
        if q in gate.controls:
            proj = np.kron(proj, _P1)
            kept = np.kron(kept, _P1)
        elif q == gate.target:
            proj = np.kron(proj, _I2)
            kept = np.kron(kept, local)
        else:
            proj = np.kron(proj, _I2)
            kept = np.kron(kept, _I2)
    return np.eye(1 << n_qubits) - proj + kept


def circuit_matrix(circuit) -> np.ndarray:
    """Product of all gate operators, first gate applied first."""
    u = np.eye(1 << circuit.n_qubits)
    for gate in circuit.gates:
        u = gate_matrix(gate, circuit.n_qubits) @ u
    return u


def run_dense(circuit) -> np.ndarray:
    """Prepared statevector per the dense operator product."""
    return circuit_matrix(circuit)[:, 0].copy()


def run_pairs(circuit) -> np.ndarray:
    """Prepared statevector by explicit pair indices, gate by gate."""
    amps = np.zeros(1 << circuit.n_qubits)
    amps[0] = 1.0
    for gate in circuit.gates:
        t = gate.target
        g = np.arange(amps.size >> 1, dtype=np.intp)
        i0 = ((g >> t) << (t + 1)) | (g & ((1 << t) - 1))
        cmask = sum(1 << c for c in gate.controls)
        i0 = i0[(i0 & cmask) == cmask]
        i1 = i0 + (1 << t)
        a0, a1 = amps[i0], amps[i1]
        if gate.kind == "ry":
            c, s = math.cos(0.5 * gate.angle), math.sin(0.5 * gate.angle)
            amps[i0], amps[i1] = c * a0 - s * a1, s * a0 + c * a1
        else:
            amps[i0], amps[i1] = a1, a0
    return amps
