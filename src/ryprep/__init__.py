"""Amplitude encoding of grayscale images and synthesis of real
state-preparation circuits over Ry, controlled-Ry, and X gates, with a
dense statevector simulator for verification."""

from .circuits import RY, X, Circuit, Gate, ry, x
from .encoding import GrayImage, encode, load_pgm, pad_pow2, unfold
from .qasm import export_qasm, write_qasm
from .simulator import KERNEL_BACKEND, apply_gate, max_abs_diff, run
from .states import AngleList, RealState, from_angles, normalize, to_angles
from .synthesis import (
    SynthReport,
    prune,
    synth,
    synth_1q,
    synth_2q,
    synth_angles,
    unpruned_gate_count,
)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "RY",
    "X",
    "Circuit",
    "Gate",
    "ry",
    "x",
    "GrayImage",
    "encode",
    "load_pgm",
    "pad_pow2",
    "unfold",
    "export_qasm",
    "write_qasm",
    "apply_gate",
    "max_abs_diff",
    "run",
    "AngleList",
    "RealState",
    "from_angles",
    "normalize",
    "to_angles",
    "SynthReport",
    "prune",
    "synth",
    "synth_1q",
    "synth_2q",
    "synth_angles",
    "unpruned_gate_count",
    "__version__",
]
