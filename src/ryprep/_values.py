"""The two rules for the values that enter ryprep, the base of the value
types, and the reading of JSON.

ryprep takes in integers (image sizes, pixels, qubit indices) and reals
(amplitudes and angles).  An integer is anything ``operator.index`` accepts
except a bool, stored as an ``int``; a real is any ``numbers.Real`` except a
bool, stored as a ``float``.  A rule raises ``TypeError`` for a refused value
(``OverflowError`` for an integer past the float range), which each caller
turns into its own ``DomainError``, or ``FormatError`` for a value read from
JSON.  Values that already have the stored type cost one C-level type scan.
``num`` names a value in an error message, however many digits it has.
``Value`` gives ``GrayImage``, ``RealState``, ``AngleList`` and ``Circuit``
the behaviour of a frozen dataclass, and ``joined`` gathers a streamed
document into a str.
"""

from __future__ import annotations

import json
import numbers
import operator
from dataclasses import FrozenInstanceError
from typing import Callable, Iterable

import numpy as np

from .errors import FormatError


class Value:
    """An immutable value of the fields ``_FIELDS``, in order.

    It behaves as a frozen dataclass over them does: no attribute can be
    set or deleted, and ``==``, ``hash``, ``repr`` and pickling go by the
    fields.  The field named by ``_SEQUENCE``, if any, is held in ``array``,
    a read-only NumPy array, and read as a tuple built on first use; the
    array stands in for it in ``==`` and in pickling, so only ``hash`` and
    ``repr`` build the tuple.
    """

    _FIELDS: tuple[str, ...]
    _SEQUENCE: str | None = None
    array: np.ndarray

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # the fields but the sequence, read by one C call; none for a value
        # whose one field is its sequence
        scalars = [name for name in cls._FIELDS if name != cls._SEQUENCE]
        cls._scalars = operator.attrgetter(*scalars) if scalars else staticmethod(lambda value: ())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # a tuple compares its items by identity first, so that two circuits
        # sharing one gate tuple compare without reading their gates
        if self._scalars(self) != other._scalars(other):
            return False
        return self._SEQUENCE is None or np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, name) for name in self._FIELDS))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # rebuilt by the constructor, so that a copy is checked and read-only too
        args = (getattr(self, "array" if name == self._SEQUENCE else name) for name in self._FIELDS)
        return type(self), tuple(args)


def joined(text: Callable[[Callable[[memoryview], object]], None]) -> str:
    """The ASCII pieces that text hands to its write argument, as one str."""
    # one str per piece and one join, which copy the document twice, where
    # a BytesIO's growth and getvalue copy it more often
    parts: list[str] = []
    text(lambda piece: parts.append(str(piece, "ascii")))
    return "".join(parts)


def is_vector(values: object) -> bool:
    """Whether values is a plain one-dimensional NumPy array."""
    return type(values) is np.ndarray and values.ndim == 1


def integers(values: Iterable) -> tuple[int, ...]:
    """The values under the integer rule."""
    values = tuple(values)
    kinds = set(map(type, values))
    if kinds <= {int}:
        return values
    # bool is an int subclass, which operator.index passes
    if bool in kinds:
        raise TypeError("a bool is not an integer")
    return tuple(map(operator.index, values))


def reals(values: Iterable) -> tuple[float, ...]:
    """The values under the real rule."""
    values = tuple(values)
    if set(map(type, values)) <= {float}:
        return values
    # in order of first appearance, so that the message is the same every run
    for kind in dict.fromkeys(map(type, values)):
        if kind is bool or not issubclass(kind, numbers.Real):
            raise TypeError(f"a {kind.__name__} is not a real number")
    return tuple(map(float, values))


def num(value: object) -> str:
    """``repr(value)`` for an error message, with an integer of more digits
    than the interpreter will print, alone or in a tuple or list, named by
    its size instead; any other value that cannot be printed, by its type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"{'-' * (value < 0)}<{value.bit_length()}-bit integer>"
        if isinstance(value, list):
            return f"[{', '.join(map(num, value))}]"
        if isinstance(value, tuple):
            return f"({', '.join(map(num, value))}{',' * (len(value) == 1)})"
        return f"<{type(value).__name__}>"


def parse(text: str, what: str) -> object:
    """The document in text; ``what`` names it in the error message."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past the
        # interpreter's digit limit; RecursionError, nesting too deep to decode
        raise FormatError(f"invalid {what}: {exc}") from exc


def header(doc: object, what: str, key: str) -> tuple[int, list]:
    """n_qubits and the list under key in the parsed ``{"n_qubits": ..., key: [...]}``."""
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be an object")
    try:
        n_qubits, items = doc["n_qubits"], doc[key]
    except KeyError as exc:
        raise FormatError(f"{what} missing key {exc}") from exc
    try:
        (n_qubits,) = integers((n_qubits,))
    except TypeError:
        raise FormatError("n_qubits must be an integer") from None
    if not isinstance(items, list):
        raise FormatError(f"{key} must be a list")
    return n_qubits, items


def json_reals(values: Iterable, what: str) -> tuple[float, ...]:
    """The real rule on numbers read from JSON, refusals as ``FormatError``."""
    try:
        return reals(values)
    except (TypeError, OverflowError) as exc:
        raise FormatError(f"{what} must be numbers that fit a float: {exc}") from None
