"""Reference for the synthesized gate list, built independently of the
control-prefix recursion in ``ryprep.synthesis``.

``emit_lifted`` is the construction in its most literal form: each level
synthesizes its second (n-1)-qubit block as a free-standing gate list and
then lifts every gate onto the top qubit through ``Gate.with_control``, so
a gate is rebuilt once per enclosing level.  The synthesizer must produce
the same gates in the same order.
"""

import math

from ryprep import ry, x

_PI = math.pi


def emit_lifted(angles, n, tol=None):
    """Gate list for 2**n - 1 angles; with tol set, zero rotations and
    all-zero blocks are dropped."""
    if tol is not None and all(abs(a) <= tol for a in angles):
        return []
    if n == 1:
        return [ry(angles[0], 0)]
    if n == 2:
        t1, t2, t3 = angles
        gates = [ry(t1, 0), ry(-t2, 1, (0,)), ry(_PI + t3, 0, (1,))]
        if tol is not None:
            gates = [g for g in gates if abs(g.angle) > tol]
        return gates
    half = 1 << (n - 1)
    top = n - 1
    gates = emit_lifted(angles[: half - 1], n - 1, tol)
    hinge = angles[half - 1]
    if tol is None or abs(hinge) > tol:
        gates.append(ry(hinge, top, tuple(range(top))))
    gates.extend(x(q, (top,)) for q in range(top))
    gates.extend(g.with_control(top) for g in emit_lifted(angles[half:], n - 1, tol))
    return gates
