"""Real unit statevectors and the nested spherical-angle codec.

A real unit vector of length 2**n factors into 2**n - 1 angles: entry k is
``prod(sin(a_j / 2) for j < k) * cos(a_k / 2)`` and the final entry is the
full sine product.  ``to_angles`` and ``from_angles`` invert each other up
to floating-point roundoff, which is what makes circuit synthesis exact.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from typing import BinaryIO, Callable, Iterable

import numpy as np

from ._kernel import compiled
from ._values import Value, header, integers, is_vector, joined, json_reals, num, parse, reals
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


def _float64s(values: Iterable[float], what: str) -> np.ndarray:
    """values in a new read-only float64 array: a one-dimensional float64
    array is copied, and anything else goes through the real rule."""
    if is_vector(values) and values.dtype == np.float64:
        array = values.copy()
    else:
        array = np.array(_floats(values, what), np.float64)
    array.setflags(write=False)
    return array


def _fsum(squares: Iterable[float]) -> float:
    """``math.fsum`` of nonnegative terms, inf where their sum passes the float
    range (fsum raises instead when every term is finite)."""
    try:
        return math.fsum(squares)
    except OverflowError:
        return math.inf


# A sum of n nonnegative floats, added in any order, lies within n * eps of
# the exact sum, relative to it (eps of the type the sum is taken in).
_SUM_EPS = float(np.finfo(np.longdouble).eps)
# Timed inside whole CLI synth and verify runs, the longdouble test takes
# longer than fsum alone at 256 amplitudes and less at 512 (in a hot loop of
# calls alone it wins from about 70-120: a NumPy call costs several times
# more inside a CLI run).
_BULK_NORM = 512


def _check_unit(amps: np.ndarray) -> None:
    """Refuse amplitudes unless the ``math.fsum`` of their float64 squares
    lies within NORM_ATOL of 1.

    For a large state, a longdouble sum of the squares settles the question
    when it lies, with its error bound, within NORM_ATOL / 2 of 1: fsum, the
    exact sum rounded, then lies within NORM_ATOL of 1 as well.  Every other
    sum, including inf and NaN, is decided by fsum itself, which also names
    it.

    The squares are summed in blocks: each row of a (k, block) reshape on
    its own, then the k row sums.  That bounds the error by (block + k) *
    eps * total, under 2e-15 at 2**26 amplitudes, where the n * eps * total
    of one plain sum would pass NORM_ATOL / 2 from about 2**22 amplitudes
    on.  amps.size is a power of two, so block divides it.
    """
    if amps.size >= _BULK_NORM:
        block = 1 << (amps.size.bit_length() // 2)
        with np.errstate(over="ignore"):
            rows = (amps * amps).reshape(-1, block).sum(axis=1, dtype=np.longdouble)
        total = rows.sum()
        if abs(total - 1) + (block + rows.size) * _SUM_EPS * total <= NORM_ATOL / 2:
            return
    values = amps.tolist()
    norm_sq = _fsum(map(operator.mul, values, values))
    if not abs(norm_sq - 1.0) <= NORM_ATOL:
        raise DomainError(f"amplitudes are not unit norm: sum of squares = {norm_sq!r}")


def _palette_of(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of amps and the uint32 index of each amplitude
    among them; keyed on the bits, so that 0.0 and -0.0 stay apart."""
    bits, index = np.unique(amps.view(np.int64), return_inverse=True)
    return bits.view(np.float64), index.astype(np.uint32)


def _state_json_numpy(
    n_qubits: int, values: np.ndarray, index: np.ndarray, write: Callable[[bytes], object]
) -> None:
    """Hand write, in one call, the ASCII bytes of the state document of
    n_qubits and the amplitudes values[index], for finite float64 values,
    each used one formatted once: ``_simkernel.state_json`` in NumPy, its
    fallback and its reference."""
    # a palette of maxval + 1 values may hold far more than a small image uses
    seen = np.zeros(len(values), bool)
    seen[index] = True
    used = np.flatnonzero(seen)
    texts = np.empty(len(values), dtype=object)
    texts[used] = list(map(float.__repr__, values[used].tolist()))
    body = ", ".join(texts[index].tolist())
    write(f'{{"n_qubits": {n_qubits}, "amplitudes": [{body}]}}'.encode("ascii"))


_state_json = _state_json_numpy if compiled is None else compiled.state_json


class RealState(Value):
    """Unit-norm real amplitudes; bit k of the index is qubit k (little-endian).

    The amplitudes are held in ``array``, a read-only float64 array, and
    ``amplitudes`` reads them as a tuple of floats.  A one-dimensional
    float64 array is taken as it is, copied; any other iterable goes through
    the real-number rule.  A state that ``encode`` makes of more pixels than
    palette entries holds its palette instead, unit-norm by construction for
    images below 2**32 pixels, and gathers ``array`` from it at its first
    read.
    """

    _FIELDS = ("n_qubits", "amplitudes")
    _SEQUENCE = "amplitudes"
    n_qubits: int
    # (values, index) of a state from _from_palette, its amplitudes being
    # values[index]; None for every other
    _palette: tuple[np.ndarray, np.ndarray] | None = None

    def __init__(self, n_qubits: int, amplitudes: Iterable[float]) -> None:
        amps = _float64s(amplitudes, "amplitudes")
        object.__setattr__(self, "array", amps)
        try:
            (n,) = integers((n_qubits,))
        except TypeError:
            n = -1
        if n < 0:
            raise DomainError(f"n_qubits must be a nonnegative integer, got {num(n_qubits)}")
        object.__setattr__(self, "n_qubits", n)
        # compared through the bit length: 1 << n for an outside n could be huge
        if not _is_pow2(amps.size) or amps.size.bit_length() - 1 != n:
            raise DomainError(f"{num(n)} qubits need 2**{num(n)} amplitudes, got {amps.size}")
        _check_unit(amps)

    @classmethod
    def _from_palette(cls, n_qubits: int, values: np.ndarray, index: np.ndarray) -> "RealState":
        """The n_qubits state of the amplitudes values[index], for the values
        v / r, v = 0..maxval, that encode makes and its uint32 index of
        length 2**n_qubits, both taken as they are and made read-only.

        They are unit-norm by construction, so they are not checked.  Let S
        be the exact integer sum of the squares of the pixels, below 2**64
        for fewer than 2**32 pixels, and r = fl(sqrt(fl(S))).  The float64
        square of each amplitude fl(v / r) is v**2 / S times six rounding
        factors (1 + d)**(+-1), |d| <= u = 2**-53: three in r**2, two in
        the quotient squared, one in the square.  So the fsum of the squares,
        one rounding more, is 1 * (1 +- u)**7, within about 8e-16 of 1 and
        far inside NORM_ATOL.  r is at most 2**32, so every nonzero
        amplitude is at least 2**-32 and none is subnormal.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "n_qubits", n_qubits)
        values.setflags(write=False)
        index.setflags(write=False)
        object.__setattr__(state, "_palette", (values, index))
        return state

    @functools.cached_property
    def array(self) -> np.ndarray:
        # reached only by a state that holds its palette: every other state
        # sets array when it is made
        values, index = self._palette
        amps = values[index]
        amps.setflags(write=False)
        return amps

    @functools.cached_property
    def amplitudes(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    def _values_and_index(self) -> tuple[np.ndarray, np.ndarray]:
        return _palette_of(self.array) if self._palette is None else self._palette

    def to_json(self) -> str:
        """``json.dumps({"n_qubits": ..., "amplitudes": [...]})``, byte for byte:
        the text that ``write_json`` writes, gathered piece by piece."""
        values, index = self._values_and_index()
        return joined(lambda write: _state_json(self.n_qubits, values, index, write))

    def write_json(self, fh: BinaryIO) -> None:
        """Write the state document, ``to_json()``'s text, as ASCII bytes to
        the buffered binary file fh, such as ``open(path, "wb")`` or a
        BytesIO, with each distinct amplitude formatted once: an image state
        holds at most maxval + 1 of them, however many pixels it has.
        Amplitudes are finite, since the norm check refuses inf and NaN.

        The compiled writer hands the text to ``fh.write`` in pieces of at
        most 64 KiB, so that no str or bytes of the whole document is built;
        its NumPy fallback writes it as one bytes object.  A buffered file's
        write takes each piece whole or raises; a raw file (``buffering=0``)
        may take part of one, and is not supported.  What ``fh.write``
        raises propagates, leaving part of the document written."""
        values, index = self._values_and_index()
        _state_json(self.n_qubits, values, index, fh.write)

    @classmethod
    def from_json(cls, text: str) -> "RealState":
        return cls.from_doc(parse(text, "state JSON"))

    @classmethod
    def from_doc(cls, doc: object) -> "RealState":
        """The state in a parsed state-JSON document."""
        n_qubits, amplitudes = header(doc, "state JSON", "amplitudes")
        return cls(n_qubits, json_reals(amplitudes, "amplitudes"))


class AngleList(Value):
    """Spherical angles of a real unit vector; length is 2**n - 1 for n >= 1.

    Every angle except the last lies in [0, 2*pi]; the last lies in
    (-2*pi, 2*pi] because it alone carries the sign of the final amplitude
    pair.  The angles are held in ``array``, a read-only float64 array, and
    ``angles`` reads them as a tuple of floats; they are taken in as
    ``RealState`` takes its amplitudes.
    """

    _FIELDS = ("angles",)
    _SEQUENCE = "angles"

    def __init__(self, angles: Iterable[float]) -> None:
        array = _float64s(angles, "angles")
        object.__setattr__(self, "array", array)
        if not array.size or not _is_pow2(array.size + 1):
            raise DomainError(f"angle count must be 2**n - 1 with n >= 1, got {array.size}")
        inner = array[:-1]
        # NaN compares false, so it is refused with the angles out of range
        inside = (inner >= 0.0) & (inner <= _TWO_PI)
        if not inside.all():
            raise DomainError(f"angle {inner[inside.argmin()].item()!r} outside [0, 2*pi]")
        last = array[-1].item()
        if not -_TWO_PI < last <= _TWO_PI:
            raise DomainError(f"final angle {last!r} outside (-2*pi, 2*pi]")

    @functools.cached_property
    def angles(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    @property
    def n_qubits(self) -> int:
        return (self.array.size + 1).bit_length() - 1

    def __len__(self) -> int:
        return self.array.size


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


def to_angles(state: RealState) -> AngleList:
    """Extract the 2**n - 1 spherical angles of a state.

    Angle k is ``2 * atan2(r_{k+1}, c_k)`` where r is the norm of the
    remaining tail, except the last angle, which is ``2 * atan2(c_last,
    c_secondlast)`` so it can carry a sign.  Once the tail norm hits exactly
    zero the remaining angles are emitted as exact zeros; this canonical
    form avoids atan2's branch cut at (0, -0.0) and makes pruning reliable.

    One loop, back to front, sums the squares with Neumaier compensation,
    so each tail's squared norm is accurate to one ulp at any length; the
    terms are nonnegative, so it is exactly 0.0 only when every remaining
    amplitude squares to zero.  Angle k is set as soon as the sum from k
    is known, and only where that sum is nonzero.
    """
    if state.n_qubits < 1:
        raise DomainError("angle extraction needs at least one qubit")
    c = state.array.tolist()
    n = len(c)
    angles = [0.0] * (n - 1)
    total = comp = tail = 0.0
    for k in range(n - 1, -1, -1):
        x = c[k] * c[k]
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
        norm_sq = total + comp
        if norm_sq != 0.0:
            if k < n - 2:
                angles[k] = 2.0 * math.atan2(math.sqrt(tail), c[k])
            elif k == n - 2:
                # atan2 is -pi for a negative c_secondlast when c_last is -0.0
                # or too small to move it; 2*pi is the same rotation and in range
                last = 2.0 * math.atan2(c[n - 1], c[k])
                angles[k] = _TWO_PI if last == -_TWO_PI else last
        tail = norm_sq
    return AngleList(np.array(angles))


def from_angles(angles: AngleList) -> RealState:
    """Expand angles back into amplitudes via the running sine product."""
    a = angles.array.tolist()
    amps = [0.0] * (len(a) + 1)
    prod = 1.0
    for k, angle in enumerate(a):
        half = 0.5 * angle
        amps[k] = prod * math.cos(half)
        prod *= math.sin(half)
    amps[-1] = prod
    return RealState(angles.n_qubits, tuple(amps))
