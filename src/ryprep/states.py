"""Real unit statevectors and the nested spherical-angle codec.

A real unit vector of length 2**n factors into 2**n - 1 angles: entry k is
``prod(sin(a_j / 2) for j < k) * cos(a_k / 2)`` and the final entry is the
full sine product.  ``to_angles`` and ``from_angles`` invert each other up
to floating-point roundoff, which is what makes circuit synthesis exact.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._values import header, integers, json_reals, parse, reals
from .errors import AllZeroInput, DomainError, NotPowerOfTwo
from .tolerances import NORM_ATOL

__all__ = ["RealState", "AngleList", "normalize", "to_angles", "from_angles"]

_TWO_PI = 2.0 * math.pi


def _is_pow2(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


def _floats(values: Iterable[float], what: str) -> tuple[float, ...]:
    try:
        return reals(values)
    except (TypeError, OverflowError) as exc:
        raise DomainError(f"{what} must be real numbers that fit a float: {exc}") from None


def _fsum(squares: Iterable[float]) -> float:
    """``math.fsum`` of nonnegative terms, inf where their sum passes the float
    range (fsum raises instead when every term is finite)."""
    try:
        return math.fsum(squares)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class RealState:
    """Unit-norm real amplitudes; bit k of the index is qubit k (little-endian)."""

    n_qubits: int
    amplitudes: tuple[float, ...]

    def __post_init__(self) -> None:
        amps = _floats(self.amplitudes, "amplitudes")
        try:
            (n,) = integers((self.n_qubits,))
        except TypeError:
            n = -1
        if n < 0:
            raise DomainError(f"n_qubits must be a nonnegative integer, got {self.n_qubits!r}")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", amps)
        # compared through the bit length: 1 << n for an outside n could be huge
        if not _is_pow2(len(amps)) or len(amps).bit_length() - 1 != n:
            raise DomainError(f"{n} qubits need 2**{n} amplitudes, got {len(amps)}")
        norm_sq = _fsum(map(operator.mul, amps, amps))
        if not abs(norm_sq - 1.0) <= NORM_ATOL:
            raise DomainError(f"amplitudes are not unit norm: sum of squares = {norm_sq!r}")

    def to_json(self) -> str:
        """``json.dumps({"n_qubits": ..., "amplitudes": [...]})``, byte for byte,
        with each distinct amplitude formatted once: an image state holds at
        most maxval + 1 of them, however many pixels it has.  Amplitudes are
        finite, since the norm check refuses inf and NaN."""
        amps = np.fromiter(self.amplitudes, np.float64, len(self.amplitudes))
        # keyed on the bits, so that 0.0 and -0.0 keep their own text
        bits, where = np.unique(amps.view(np.int64), return_inverse=True)
        texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
        body = ", ".join(texts[where].tolist())
        return f'{{"n_qubits": {self.n_qubits}, "amplitudes": [{body}]}}'

    @classmethod
    def from_json(cls, text: str) -> "RealState":
        return cls.from_doc(parse(text, "state JSON"))

    @classmethod
    def from_doc(cls, doc: object) -> "RealState":
        """The state in a parsed state-JSON document."""
        n_qubits, amplitudes = header(doc, "state JSON", "amplitudes")
        return cls(n_qubits, json_reals(amplitudes, "amplitudes"))


@dataclass(frozen=True)
class AngleList:
    """Spherical angles of a real unit vector; length is 2**n - 1 for n >= 1.

    Every angle except the last lies in [0, 2*pi]; the last lies in
    (-2*pi, 2*pi] because it alone carries the sign of the final amplitude
    pair.
    """

    angles: tuple[float, ...]

    def __post_init__(self) -> None:
        angles = _floats(self.angles, "angles")
        object.__setattr__(self, "angles", angles)
        if not angles or not _is_pow2(len(angles) + 1):
            raise DomainError(f"angle count must be 2**n - 1 with n >= 1, got {len(angles)}")
        for a in angles[:-1]:
            if not 0.0 <= a <= _TWO_PI:
                raise DomainError(f"angle {a!r} outside [0, 2*pi]")
        last = angles[-1]
        if not -_TWO_PI < last <= _TWO_PI:
            raise DomainError(f"final angle {last!r} outside (-2*pi, 2*pi]")

    @property
    def n_qubits(self) -> int:
        return (len(self.angles) + 1).bit_length() - 1

    def __len__(self) -> int:
        return len(self.angles)


def normalize(values: Iterable[float]) -> RealState:
    """Scale a nonzero vector of power-of-two length onto the unit sphere.

    Each amplitude is ``v / math.sqrt(math.fsum(v * v for v in values))``.
    Where the squares underflow or overflow, so that their sum is zero,
    subnormal or infinite, the vector is first scaled by a power of two that
    brings its largest magnitude into [0.5, 1).  That scales the sum by a
    power of four and its root by the same power of two, so each quotient
    is what the plain formula gives without the underflow or overflow.  A
    vector whose plain sum is a normal float keeps its bits; one whose sum
    is subnormal but nonzero gets the rescaled, more accurate result, e.g.
    exactly ``(1.0, 0.0)`` for ``[1e-155, 0.0]``.
    """
    vals = _floats(values, "vector entries")
    if len(vals) < 2 or not _is_pow2(len(vals)):
        raise NotPowerOfTwo(f"vector length must be a power of two >= 2, got {len(vals)}")
    norm_sq = _fsum(v * v for v in vals)
    if norm_sq < sys.float_info.min or norm_sq == math.inf:
        peak = max(map(abs, vals))
        if 0.0 < peak < math.inf:
            shift = -math.frexp(peak)[1]
            vals = tuple(math.ldexp(v, shift) for v in vals)
            norm_sq = _fsum(v * v for v in vals)
    if norm_sq == 0.0:
        raise AllZeroInput("all-zero vector cannot be normalized")
    norm = math.sqrt(norm_sq)
    return RealState(len(vals).bit_length() - 1, tuple(v / norm for v in vals))


def _suffix_norms_sq(amps: tuple[float, ...]) -> list[float]:
    """Running sums of squared amplitudes from each index to the end.

    Accumulated back to front with Neumaier compensation so the result is
    accurate to one ulp regardless of vector length; terms are nonnegative,
    so a sum of exactly 0.0 means every remaining amplitude squares to zero.
    """
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


def to_angles(state: RealState) -> AngleList:
    """Extract the 2**n - 1 spherical angles of a state.

    Angle k is ``2 * atan2(r_{k+1}, c_k)`` where r is the norm of the
    remaining tail, except the last angle, which is ``2 * atan2(c_last,
    c_secondlast)`` so it can carry a sign.  Once the tail norm hits exactly
    zero the remaining angles are emitted as exact zeros; this canonical
    form avoids atan2's branch cut at (0, -0.0) and makes pruning reliable.
    """
    if state.n_qubits < 1:
        raise DomainError("angle extraction needs at least one qubit")
    c = state.amplitudes
    n = len(c)
    suffix = _suffix_norms_sq(c)
    angles = [0.0] * (n - 1)
    for k in range(n - 1):
        if suffix[k] == 0.0:
            break
        if k < n - 2:
            angles[k] = 2.0 * math.atan2(math.sqrt(suffix[k + 1]), c[k])
        else:
            # atan2 is -pi for a negative c_secondlast when c_last is -0.0 or
            # too small to move it; 2*pi is the same rotation and in range
            last = 2.0 * math.atan2(c[n - 1], c[n - 2])
            angles[k] = _TWO_PI if last == -_TWO_PI else last
    return AngleList(tuple(angles))


def from_angles(angles: AngleList) -> RealState:
    """Expand angles back into amplitudes via the running sine product."""
    a = angles.angles
    amps = [0.0] * (len(a) + 1)
    prod = 1.0
    for k, angle in enumerate(a):
        half = 0.5 * angle
        amps[k] = prod * math.cos(half)
        prod *= math.sin(half)
    amps[-1] = prod
    return RealState(angles.n_qubits, tuple(amps))
