"""References for state normalization and state JSON, written the plain way:
every amplitude is divided by the norm on its own, and state JSON is
``json.dumps`` of the state's dict.  ``ryprep.states`` must agree with them
bit for bit and byte for byte.
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
