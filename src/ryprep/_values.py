"""The two rules for the values that enter ryprep, and the reading of JSON.

ryprep takes in integers (image sizes, pixels, qubit indices) and reals
(amplitudes and angles).  An integer is anything ``operator.index`` accepts
except a bool, stored as an ``int``; a real is any ``numbers.Real`` except a
bool, stored as a ``float``.  A rule raises ``TypeError`` for a refused value
(``OverflowError`` for an integer past the float range), which each caller
turns into its own ``DomainError``, or ``FormatError`` for a value read from
JSON.  Values that already have the stored type cost one C-level type scan.
"""

from __future__ import annotations

import json
import numbers
import operator
from typing import Iterable

from .errors import FormatError


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
