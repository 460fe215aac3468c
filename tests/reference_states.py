"""References for state normalization, state JSON and angle extraction,
written the plain way: every amplitude is divided by the norm on its own,
state JSON is ``json.dumps`` of the state's dict, and the angles are read
from a list of every tail's squared norm, built first.  ``ryprep.states``
must agree with them bit for bit and byte for byte.
"""

import json
import math


def normalize(values):
    """The amplitudes ``v / norm`` of a vector whose squares and their sum
    stay in the normal float range."""
    vals = [float(v) for v in values]
    norm = math.sqrt(math.fsum(v * v for v in vals))
    return tuple(v / norm for v in vals)


def to_json(state):
    return json.dumps({"n_qubits": state.n_qubits, "amplitudes": list(state.amplitudes)})


def _suffix_norms_sq(amps):
    """Running sums of squared amplitudes from each index to the end,
    accumulated back to front with Neumaier compensation."""
    n = len(amps)
    sums = [0.0] * (n + 1)
    total = 0.0
    comp = 0.0
    for k in range(n - 1, -1, -1):
        x = amps[k] * amps[k]
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
        sums[k] = total + comp
    return sums


def to_angles(state):
    """The angle tuple of ``states.to_angles``, in two passes: every tail's
    squared norm first, then the angles front to back, stopping at the
    first tail whose squared norm is zero."""
    c = list(state.amplitudes)
    n = len(c)
    suffix = _suffix_norms_sq(c)
    angles = [0.0] * (n - 1)
    for k in range(n - 1):
        if suffix[k] == 0.0:
            break
        if k < n - 2:
            angles[k] = 2.0 * math.atan2(math.sqrt(suffix[k + 1]), c[k])
        else:
            last = 2.0 * math.atan2(c[n - 1], c[n - 2])
            angles[k] = 2.0 * math.pi if last == -2.0 * math.pi else last
    return tuple(angles)
