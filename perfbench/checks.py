"""Output checks computed apart from ryprep.

Expected amplitudes come straight from the generated pixels with NumPy;
circuits are re-run from their QASM text by a small simulator written here,
which updates only the control subspace of each gate through tensor views
(a different algorithm from ryprep's). Gate counts are checked against the
closed form of the construction, never against stored outputs.

No check calls BLAS: OpenBLAS worker threads spin after a call and would
trip the busy-thread guard of the speed reference.
"""

from __future__ import annotations

import json
import re
from array import array
from typing import NamedTuple

import numpy as np

AMP_ATOL = 1e-12  # state JSON against the NumPy encoding
SIM_ATOL = 1e-9  # simulated circuit against the NumPy encoding

_QASM_HEADER = 'OPENQASM 3.0;\ninclude "stdgates.inc";\n'
_QASM_DECL = re.compile(r"qubit\[(\d+)\] q;\n")
_QASM_GATE = re.compile(
    r"^((?:ctrl @ )*)(?:ry\(([^)]+)\)|(x)) (q\[\d+\](?:, q\[\d+\])*);$", re.MULTILINE
)
_OPERAND = re.compile(r"q\[(\d+)\]")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def n_qubits_for(count: int) -> int:
    """Qubits of a zero-padded vector of ``count`` entries (at least one)."""
    return max(1, (count - 1).bit_length())


def expected_amplitudes(pixels: np.ndarray) -> np.ndarray:
    """Column-major pixels, zero-padded to a power of two >= 2, unit norm."""
    flat = np.asarray(pixels, dtype=np.float64).ravel(order="F")
    vec = np.zeros(1 << n_qubits_for(flat.size))
    vec[: flat.size] = flat
    return vec / np.sqrt(np.sum(vec * vec))


def full_gate_count(n: int) -> int:
    """Gates of the unpruned n-qubit construction: T(1)=1, T(n)=2T(n-1)+n."""
    return 1 if n == 1 else 7 * (1 << (n - 2)) - n - 2


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Gates(NamedTuple):
    """A gate sequence in columns; an X gate has angle 0.0.  Compact, so
    that checking a large circuit needs less memory than making it."""

    ry: array  # 1 for Ry, 0 for X
    target: array
    cmask: array  # bit q set when qubit q is a control
    angle: array

    @classmethod
    def empty(cls) -> "Gates":
        return cls(array("b"), array("q"), array("q"), array("d"))

    def add(self, is_ry: bool, target: int, controls, angle: float) -> None:
        mask = 0
        for c in controls:
            _expect(not mask >> c & 1 and c != target, "repeated qubit in a gate")
            mask |= 1 << c
        self.ry.append(int(is_ry))
        self.target.append(target)
        self.cmask.append(mask)
        self.angle.append(angle)

    def __len__(self) -> int:
        return len(self.ry)


def parse_circuit_json(text: str) -> tuple[int, Gates]:
    doc = json.loads(text)
    gates = Gates.empty()
    for g in doc["gates"]:
        is_ry = g["kind"] == "ry"
        _expect(is_ry or (g["kind"] == "x" and "angle" not in g), f"bad gate {g!r}")
        gates.add(is_ry, g["target"], g["controls"], g["angle"] if is_ry else 0.0)
    return doc["n_qubits"], gates


def parse_qasm(text: str) -> tuple[int, Gates]:
    _expect(text.startswith(_QASM_HEADER), "QASM header differs")
    decl = _QASM_DECL.match(text, len(_QASM_HEADER))
    _expect(decl is not None, "QASM has no qubit declaration")
    gates = Gates.empty()
    for m in _QASM_GATE.finditer(text, decl.end()):
        qubits = [int(q) for q in _OPERAND.findall(m.group(4))]
        _expect(len(qubits) == m.group(1).count("ctrl") + 1, f"operand count in {m.group(0)!r}")
        is_ry = m.group(3) is None
        gates.add(is_ry, qubits[-1], qubits[:-1], float(m.group(2)) if is_ry else 0.0)
    # every line after the declaration must have been a gate
    _expect(text.count("\n") == 3 + len(gates), "QASM holds lines that are not gates")
    _expect(text.endswith("\n"), "QASM does not end with a newline")
    return int(decl.group(1)), gates


def simulate(n: int, gates: Gates) -> np.ndarray:
    """Apply the gates to |0...0>; bit k of an amplitude index is qubit k."""
    psi = np.zeros((2,) * n)
    psi[(0,) * n] = 1.0
    for is_ry, target, mask, angle in zip(*gates):
        index = [slice(None)] * n
        for c in range(n):
            if mask >> c & 1:
                index[n - 1 - c] = 1
        # the trailing Ellipsis keeps a fully indexed amplitude a 0-d view
        index[n - 1 - target] = 0
        a0 = psi[(*index, Ellipsis)]
        index[n - 1 - target] = 1
        a1 = psi[(*index, Ellipsis)]
        if is_ry:
            c, s = np.cos(0.5 * angle), np.sin(0.5 * angle)
            new0 = c * a0 - s * a1
            a1[...] = s * a0 + c * a1
            a0[...] = new0
        else:
            saved = a0.copy()
            a0[...] = a1
            a1[...] = saved
    return psi.reshape(-1)


def check_circuit(
    pixels: np.ndarray, circuit_text: str, qasm_text: str, report_text: str, *, run_sim: bool
) -> int:
    """Check one synthesized circuit against the image; returns its gate count."""
    n = n_qubits_for(pixels.size)
    expected = expected_amplitudes(pixels)
    nj, gates = parse_circuit_json(circuit_text)
    nq, qgates = parse_qasm(qasm_text)
    report = json.loads(report_text)
    _expect(nj == n and nq == n and report["n_qubits"] == n, f"qubit count is not {n}")
    _expect(gates == qgates, "QASM gate sequence differs from the circuit JSON")
    _expect(report["gate_count"] == len(gates), "report gate_count differs from the circuit")
    total = full_gate_count(n)
    _expect(
        report["gate_count"] + report["pruned_count"] == total,
        f"gate_count + pruned_count != {total}",
    )
    _expect(report["recursion_depth"] == max(0, n - 2), "wrong recursion depth")
    if np.all(expected != 0.0):
        # no zero amplitude means no zero angle: nothing may be pruned
        _expect(len(gates) == total, f"unpruned circuit has {len(gates)} gates, not {total}")
        _expect(report["max_control_arity"] == n - 1, "wrong max control arity")
    if run_sim:
        got = simulate(n, qgates)
        diff = float(np.max(np.abs(got - expected)))
        _expect(diff <= SIM_ATOL, f"QASM prepares a state {diff:.3e} away from the image")
    return len(gates)


def check_verify(stdout_text: str) -> None:
    doc = json.loads(stdout_text)
    _expect(doc["ok"] is True, "verify reported a mismatch")
    _expect(0.0 <= doc["max_abs_diff"] <= SIM_ATOL, "verify max_abs_diff out of tolerance")


def check_state(pixels: np.ndarray, state_text: str) -> None:
    doc = json.loads(state_text)
    expected = expected_amplitudes(pixels)
    _expect(doc["n_qubits"] == n_qubits_for(pixels.size), "state has the wrong qubit count")
    got = np.array(doc["amplitudes"], dtype=np.float64)
    _expect(got.shape == expected.shape, "state has the wrong length")
    diff = float(np.max(np.abs(got - expected)))
    _expect(diff <= AMP_ATOL, f"state amplitudes {diff:.3e} away from the image")


def _flip_first_angle(circuit_text: str, qasm_text: str) -> tuple[str, str]:
    doc = json.loads(circuit_text)
    k = next(i for i, g in enumerate(doc["gates"]) if g["kind"] == "ry" and g["angle"] != 0.0)
    angle = doc["gates"][k]["angle"]
    doc["gates"][k]["angle"] = -angle
    lines = qasm_text.split("\n")
    lines[3 + k] = lines[3 + k].replace(f"ry({angle!r})", f"ry({-angle!r})", 1)
    return json.dumps(doc), "\n".join(lines)


def self_test(pixels: np.ndarray, circuit: str, qasm: str, report: str, state: str) -> None:
    """Hand the checks corrupted copies of good outputs; each must be rejected."""
    check_circuit(pixels, circuit, qasm, report, run_sim=True)
    check_state(pixels, state)
    flipped_json, flipped_qasm = _flip_first_angle(circuit, qasm)
    qasm_lines = qasm.split("\n")
    doc = json.loads(state)
    k = int(np.argmax(np.abs(doc["amplitudes"])))
    doc["amplitudes"][k] += 1e-6
    corrupted = {
        "flipped angle sign (JSON and QASM alike)": lambda: check_circuit(
            pixels, flipped_json, flipped_qasm, report, run_sim=True
        ),
        "flipped angle sign (JSON only)": lambda: check_circuit(
            pixels, flipped_json, qasm, report, run_sim=False
        ),
        "dropped QASM line": lambda: check_circuit(
            pixels, circuit, "\n".join(qasm_lines[:-2] + qasm_lines[-1:]), report, run_sim=True
        ),
        "amplitude off by 1e-6": lambda: check_state(pixels, json.dumps(doc)),
    }
    for name, check in corrupted.items():
        try:
            check()
        except CheckFailed:
            continue
        raise CheckFailed(f"self-test: the checks accepted a corrupted output ({name})")
