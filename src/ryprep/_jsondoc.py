"""Parsing of JSON input documents and the rule for numbers inside them.

State files, bare amplitude arrays and circuit files all pass through here,
so text the json module cannot turn into a document, and values that are
not JSON numbers, end in ``FormatError`` the same way on every path.
"""

from __future__ import annotations

import json

from .errors import FormatError


def parse(text: str, what: str) -> object:
    """The document in text; ``what`` names it in the error message."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past the
        # interpreter's digit limit; RecursionError, nesting too deep to decode
        raise FormatError(f"invalid {what}: {exc}") from exc


def number(value: object, what: str) -> float:
    """A JSON number as a float.

    JSON true/false parse as bool, which is an int subclass, so the type is
    tested exactly; an integer beyond the float range is refused, not
    left to overflow later.
    """
    if type(value) is float:
        return value
    if type(value) is not int:
        raise FormatError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise FormatError(f"{what} is an integer too large for a float") from None
