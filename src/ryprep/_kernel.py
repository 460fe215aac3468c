"""The build: the compiled helpers of ``ryprep._simkernel``, bound whole or
not at all.  An extension built from older source, without one of them,
leaves every module on its NumPy twin, so no build runs in part compiled."""

_HELPERS = (
    "run_gates",
    "state_json",
    "p2_samples",
    "circuit_json",
    "circuit_qasm",
    "circuit_columns",
)

try:
    from . import _simkernel as compiled
except ImportError:
    compiled = None
if not all(hasattr(compiled, name) for name in _HELPERS):
    compiled = None

# The helpers' backend, which ``ryprep --version`` reports: "c" or "numpy".
KERNEL_BACKEND = "numpy" if compiled is None else "c"
