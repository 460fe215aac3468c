"""Immutable gate and circuit values over the real gate family.

Two gate kinds suffice for real statevector preparation: Ry rotations and X,
each optionally conditioned on any set of positive-polarity controls.
Circuits are value objects; every operation returns a new circuit.

A circuit of at most 64 qubits can also be held as the four columns that
``ryprep._simkernel.run_gates`` reads: kind (0 for Ry, 1 for X), target,
control bit mask and angle (0.0 for X).  A synthesized circuit holds only
its columns, and so does one that ``Circuit.from_json`` reads from a
document as ``to_json`` writes it; either builds ``Circuit.gates`` on first
read.  Such a document is read straight into the columns by
``_simkernel.circuit_columns``, without ``json``; one that it declines, or
every document where the extension is absent or stale, is parsed by
``json`` and read by ``_read_rows``.  Any other document is read gate by
gate, and a circuit built from gates packs its columns when something
first reads them.

This is the one module that knows how controls are held: a ``uint64``
mask per gate up to 64 qubits, a tuple per gate past 64, where a circuit
has no columns.  ``Circuit._rows`` gives either.  The counts that ``ryprep
stats`` and the synthesis report print are read from them
(``Circuit._counts``), and so is the text: ``to_json``, ``write_json`` and
the QASM of ``ryprep.qasm``, by ``_simkernel``'s writers, or by their NumPy
twins where the extension is absent or stale or the controls are tuples.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import BinaryIO, Callable, Iterable

import numpy as np

from ._kernel import compiled
from ._values import Value, header, integers, joined, json_reals, num, parse, reals
from .errors import (
    ControlCollision,
    ControlEqualsTarget,
    DomainError,
    FormatError,
    IndexOutOfRange,
)

__all__ = ["RY", "X", "Gate", "Circuit", "ry", "x"]

RY = "ry"
X = "x"

_SEQUENCES = (tuple, list)
_INTS = frozenset((int,))
# A control mask is a uint64, so only a circuit of at most this many qubits
# has columns.
_MASK_BITS = 64
_BITS = tuple(1 << q for q in range(_MASK_BITS))
# the start of a row of circuit JSON, by kind
_JSON_HEADS = np.array(['{"kind": "ry", "angle": ', '{"kind": "x"'], object)
_DTYPES = (np.uint8, np.int32, np.uint64, np.float64)


def checked_angle(angle: object) -> float:
    """An Ry angle under the real rule, as a float, which must be finite;
    a refused angle raises ``DomainError``."""
    value = angle
    try:
        if type(value) is not float:
            (value,) = reals((value,))
        finite = math.isfinite(value)
    except TypeError:
        finite = False
    except OverflowError:
        raise DomainError("ry angle is an integer too large for a float") from None
    if not finite:
        raise DomainError(f"ry needs a finite angle, got {num(angle)}")
    return value


@dataclass(frozen=True)
class Gate:
    kind: str
    target: int
    controls: tuple[int, ...] = ()
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (RY, X):
            raise DomainError(f"unknown gate kind {num(self.kind)}")
        target = self.target
        controls = self.controls
        # Qubit indices select array axes.  Plain ints in a tuple or list, the
        # common case, skip the integer rule; other containers take it, since
        # the type test would use up a generator.
        if not (
            type(target) is int
            and type(controls) in _SEQUENCES
            and _INTS.issuperset(map(type, controls))
        ):
            try:
                target, *controls = integers((target, *controls))
            except TypeError:
                raise IndexOutOfRange(
                    f"qubit indices must be integers, got target {num(self.target)} "
                    f"and controls {num(self.controls)}"
                ) from None
            object.__setattr__(self, "target", target)
        ordered = tuple(sorted(controls))
        if target < 0:
            raise IndexOutOfRange(f"target must be nonnegative, got {num(target)}")
        if ordered and ordered[0] < 0:
            raise IndexOutOfRange(f"controls must be nonnegative, got {num(ordered)}")
        if len(set(ordered)) != len(ordered):
            raise ControlCollision(f"duplicate control in {num(ordered)}")
        if target in ordered:
            raise ControlEqualsTarget(f"qubit {num(target)} is both target and control")
        # a list, as callers and the rule's path give, never equals the tuple
        if ordered != controls:
            object.__setattr__(self, "controls", ordered)
        if self.kind == RY:
            angle = checked_angle(self.angle)
            if angle is not self.angle:
                object.__setattr__(self, "angle", angle)
        elif self.angle is not None:
            raise DomainError("x takes no angle")

    @property
    def max_index(self) -> int:
        # controls are sorted, so the last one is the largest
        controls = self.controls
        return max(controls[-1], self.target) if controls else self.target

    def with_control(self, control: int) -> "Gate":
        """Copy of this gate conditioned on one more qubit."""
        if control == self.target or control in self.controls:
            raise ControlCollision(f"qubit {num(control)} already used by this gate")
        return Gate(self.kind, self.target, self.controls + (control,), self.angle)


def ry(angle: float, target: int, controls: Iterable[int] = ()) -> Gate:
    return Gate(RY, target, tuple(controls), angle)


def x(target: int, controls: Iterable[int] = ()) -> Gate:
    return Gate(X, target, tuple(controls))


def _frozen(*buffers: bytes | bytearray | array) -> tuple:
    """The four typed buffers of kinds, targets, masks and angles as
    read-only NumPy arrays over their memory."""
    columns = tuple(map(np.frombuffer, buffers, _DTYPES))
    for column in columns:
        column.flags.writeable = False
    return columns


def _read_rows(n: int, docs: list) -> tuple | None:
    """The columns of docs, the gate entries of a circuit on n <= 64 qubits,
    if every entry is one that ``to_json`` writes for a gate inside the
    register; otherwise None, at the first entry that is not.

    Of the documents that ``_simkernel.circuit_columns`` declines, it reads
    those whose entries hold what ``to_json`` writes, spelled otherwise:
    with other spacing, key order or string escapes, extra keys, controls
    out of order, or an angle of 32 characters or more.  It reads every
    document on the NumPy build.  It declines an int angle, as the compiled
    reader does, and ``from_json`` then reads that document gate by gate.
    An entry costs a few dict lookups and C-level scans: a missing key or a
    negative or too large index fails a lookup, a repeated control or the
    target among the controls the bit count, so no index is shifted into a
    mask before it is known to be below n.  This accepts only what ``Gate``
    and the register bound accept, and is kept for speed alone: gate by
    gate, ``from_json`` takes about twice as long.
    """
    isfinite = math.isfinite
    kinds, targets, masks, angles = bytearray(), array("i"), array("Q"), array("d")
    bit = {q: 1 << q for q in range(n)}
    try:
        for gd in docs:
            target, controls, angle = gd["target"], gd["controls"], gd.get("angle")
            if not (
                type(target) is int
                and type(controls) is list
                and _INTS.issuperset(map(type, controls))
            ):
                return None
            mask = sum(map(bit.__getitem__, controls))
            if mask & bit[target] or mask.bit_count() != len(controls):
                return None
            if gd["kind"] == RY and type(angle) is float and isfinite(angle):
                kinds.append(0)
                angles.append(angle)
            elif gd["kind"] == X and angle is None:
                kinds.append(1)
                angles.append(0.0)
            else:
                return None
            targets.append(target)
            masks.append(mask)
    except (KeyError, TypeError):
        return None
    return _frozen(kinds, targets, masks, angles)


@functools.cache
def _byte_texts(form: str) -> tuple[np.ndarray, ...]:
    """For each byte position p of a mask, the text of each byte value: its
    set bits q, qubits 8p + q, in ascending order, each formatted by form."""
    return tuple(
        np.array(
            ["".join(form.format(8 * p + q) for q in range(8) if b >> q & 1) for b in range(256)],
            object,
        )
        for p in range(_MASK_BITS // 8)
    )


def control_texts(mask: np.ndarray, form: str, skip: int = 0) -> np.ndarray:
    """Per row, the text of its controls in ascending order, each formatted
    by form, without the first skip characters: from a uint64 mask column,
    per distinct mask and a byte at a time, or from an object column of
    control tuples, as a circuit of more than 64 qubits gives its rows."""
    if mask.dtype == object:
        texts = ["".join(map(form.format, qubits))[skip:] for qubits in mask.tolist()]
        return np.array(texts, object)
    distinct, row = np.unique(mask, return_inverse=True)
    if not len(distinct):
        return np.empty(0, object)
    tables = _byte_texts(form)
    texts = tables[0][distinct & 255]
    for p in range(1, (int(distinct[-1]).bit_length() + 7) // 8):
        texts = texts + tables[p][distinct >> (8 * p) & 255]
    if skip:
        texts = np.array([text[skip:] for text in texts.tolist()], object)
    return texts[row]


def _max_controls(mask: np.ndarray) -> int:
    """The largest number of controls in a row, 0 for no rows: of an object
    column of control tuples, or of set bits in a uint64 mask column."""
    if mask.dtype == object:
        return max(map(len, mask.tolist()), default=0)
    return int(np.bitwise_count(mask).max(initial=0))


def joined_rows(rows: int, *pieces: object) -> str:
    """The concatenated texts of the rows, each the concatenation of the
    pieces in order: a str, the same in every row, or an object array of
    one str per row."""
    table = np.empty((rows, len(pieces)), object)
    for k, piece in enumerate(pieces):
        table[:, k] = piece
    return "".join(table.ravel().tolist())


def ry_texts(kind: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Per row, ``repr`` of an Ry row's angle, and "" for an X row."""
    texts = np.full(len(kind), "", object)
    ry_rows = kind == 0
    texts[ry_rows] = list(map(float.__repr__, angle[ry_rows].tolist()))
    return texts


def _circuit_json_numpy(
    n_qubits: int,
    kind: np.ndarray,
    target: np.ndarray,
    mask: np.ndarray,
    angle: np.ndarray,
    write: Callable[[bytes], object],
) -> None:
    """Hand write, in one call, the ASCII bytes of the circuit document of
    the rows in the four columns, which ``Circuit`` has checked:
    ``_simkernel.circuit_json`` in NumPy, its fallback and its reference.
    Each piece of the text is made for all rows at once."""
    rows = len(kind)
    separators = np.full(rows, ", ", object)
    separators[:1] = ""
    body = joined_rows(
        rows,
        separators,
        _JSON_HEADS[kind],
        ry_texts(kind, angle),
        ', "target": ',
        np.array(list(map(str, target.tolist())), object),
        ', "controls": [',
        control_texts(mask, ", {}", 2),
        "]}",
    )
    write(f'{{"n_qubits": {n_qubits}, "gates": [{body}]}}'.encode("ascii"))


_circuit_json = _circuit_json_numpy if compiled is None else compiled.circuit_json


def _circuit_columns_numpy(text: str) -> None:
    """``_simkernel.circuit_columns``'s twin, which declines every text:
    ``from_json`` then parses it, and ``_read_rows`` reads the layout that
    ``to_json`` writes into the same columns."""
    return None


_circuit_columns = _circuit_columns_numpy if compiled is None else compiled.circuit_columns


class Circuit(Value):
    """A circuit on ``n_qubits`` qubits: its ``gates``, in order.

    It is a ``Value`` of those two fields.  A circuit of at most 64 qubits
    also has ``columns``, the four arrays that ``run_gates`` reads.  A
    synthesized one, and one read from a document as ``to_json`` writes it,
    holds only its columns and builds ``gates`` on first read; one built
    from gates packs its columns on first read.
    """

    _FIELDS = ("n_qubits", "gates")
    n_qubits: int

    @classmethod
    def _of_columns(cls, n_qubits: int, columns: tuple) -> "Circuit":
        """The circuit of the checked, read-only columns of a register of
        n_qubits <= 64 qubits, taken as they are; its gates are built on
        first read."""
        circuit = object.__new__(cls)
        object.__setattr__(circuit, "columns", columns)
        object.__setattr__(circuit, "n_qubits", n_qubits)
        return circuit

    def __init__(self, n_qubits: int, gates: Iterable[Gate] = ()) -> None:
        try:
            (n,) = integers((n_qubits,))
        except TypeError:
            n = 0
        if n < 1:
            raise DomainError(f"n_qubits must be a positive integer, got {num(n_qubits)}")
        try:
            gates = tuple(gates)
        except TypeError:
            raise DomainError(f"gates must be an iterable of Gate, got {num(gates)}") from None
        # one C-level type test, so that the bound check below reads only Gates
        if not all(map(isinstance, gates, repeat(Gate))):
            bad = next(g for g in gates if not isinstance(g, Gate))
            raise DomainError(f"gates must be Gate values, got {num(bad)}")
        for gate in gates:
            if gate.max_index >= n:
                raise IndexOutOfRange(
                    f"gate touches qubit {num(gate.max_index)} but the circuit has "
                    f"{n} qubits"
                )
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "gates", gates)

    @functools.cached_property
    def gates(self) -> tuple[Gate, ...]:
        kind, target, mask, angle = self.columns
        qubits = range(self.n_qubits)
        controls = {m: tuple(q for q in qubits if m >> q & 1) for m in set(mask.tolist())}
        rows = zip(kind.tolist(), target.tolist(), map(controls.get, mask.tolist()), angle.tolist())
        return tuple(Gate(X, t, c) if k else Gate(RY, t, c, a) for k, t, c, a in rows)

    @functools.cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The gates as ``run_gates`` reads them, one row per gate: kind
        (uint8, 0 for Ry, 1 for X), target (int32), control bit mask
        (uint64) and angle (float64, 0.0 for X), read-only and C-contiguous.

        Raises ``DomainError`` for more than 64 qubits, which a mask cannot
        hold.
        """
        if self.n_qubits > _MASK_BITS:
            raise DomainError(
                f"a circuit of {num(self.n_qubits)} qubits has no columns: a control "
                f"mask holds {_MASK_BITS}"
            )
        gates = self.gates
        return _frozen(
            bytearray(g.kind == X for g in gates),
            array("i", [g.target for g in gates]),
            array("Q", [sum(map(_BITS.__getitem__, g.controls)) for g in gates]),
            array("d", [0.0 if g.angle is None else g.angle for g in gates]),
        )

    @property
    def gate_count(self) -> int:
        built = vars(self).get("gates")
        return len(self.columns[0] if built is None else built)

    def append(self, gate: Gate) -> "Circuit":
        """New circuit with the gate added at the end."""
        return Circuit(self.n_qubits, self.gates + (gate,))

    def add_control(self, control: int) -> "Circuit":
        """New circuit with every gate conditioned on one extra qubit."""
        if not 0 <= control < self.n_qubits:
            raise IndexOutOfRange(f"control {num(control)} outside 0..{self.n_qubits - 1}")
        return Circuit(self.n_qubits, tuple(g.with_control(control) for g in self.gates))

    def _rows(self) -> tuple[np.ndarray, ...]:
        """Its columns, or for more than 64 qubits rows of its gates with
        targets as ints and controls as tuples in object columns, since a
        mask of qubit 10**12 would take 125 GB."""
        if self.n_qubits <= _MASK_BITS:
            return self.columns
        gates = self.gates
        return (
            np.fromiter((g.kind == X for g in gates), np.uint8, len(gates)),
            np.fromiter((g.target for g in gates), object, len(gates)),
            np.fromiter((g.controls for g in gates), object, len(gates)),
            np.fromiter((0.0 if g.angle is None else g.angle for g in gates), float, len(gates)),
        )

    def _counts(self) -> tuple[int, int, int]:
        """The number of Ry gates, of X gates, and the most controls on one
        gate (0 for no gates), as ints."""
        kind, _, controls, _ = self._rows()
        x_count = int(np.count_nonzero(kind))
        return len(kind) - x_count, x_count, _max_controls(controls)

    def _write_rows(self, writer: Callable, twin: Callable, write: Callable) -> None:
        """Hand the circuit's rows to a text writer with ``circuit_json``'s
        arguments: writer, or twin, the writer's NumPy fallback, for more
        than 64 qubits, whose rows hold tuples of controls."""
        (writer if self.n_qubits <= _MASK_BITS else twin)(self.n_qubits, *self._rows(), write)

    def to_json(self) -> str:
        """The circuit as JSON text, byte for byte what ``json.dumps`` writes for
        the schema's dicts: json prints the finite angles and exact ints by
        ``__repr__``.  The text that ``write_json`` writes, gathered piece by
        piece."""
        return joined(lambda write: self._write_rows(_circuit_json, _circuit_json_numpy, write))

    def write_json(self, fh: BinaryIO) -> None:
        """Write ``to_json()``'s text as ASCII bytes to the buffered binary
        file fh, such as ``open(path, "wb")``: by the compiled writer in
        pieces of at most 64 KiB, by its NumPy fallback in one.  What
        ``fh.write`` raises propagates, leaving part of the document
        written."""
        self._write_rows(_circuit_json, _circuit_json_numpy, fh.write)

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        read = _circuit_columns(text)
        if read is not None:
            return cls._of_columns(read[0], _frozen(*read[1:]))
        n_qubits, gate_docs = header(parse(text, "circuit JSON"), "circuit JSON", "gates")
        if 1 <= n_qubits <= _MASK_BITS:
            columns = _read_rows(n_qubits, gate_docs)
            if columns is not None:
                return cls._of_columns(n_qubits, columns)
        # Any other document is read gate by gate.  The constructor refuses
        # an n_qubits below 1, or a gate past the register, after every gate
        # has passed.
        gates = []
        for i, gd in enumerate(gate_docs):
            if not isinstance(gd, dict) or "kind" not in gd or "target" not in gd:
                raise FormatError(f"malformed gate entry {gd!r}")
            target = gd["target"]
            controls = gd.get("controls", [])
            if not isinstance(controls, list):
                raise FormatError(f"malformed gate entry {gd!r}")
            # the integer rule, for the types JSON has: true/false parse as bool
            if type(target) is not int or not _INTS.issuperset(map(type, controls)):
                raise FormatError(f"gate qubit indices must be integers, got {gd!r}")
            angle = gd.get("angle")
            if angle is not None and type(angle) is not float:
                (angle,) = json_reals((angle,), "gate angles")
            gates.append(Gate(gd["kind"], target, controls, angle))
            # hold each gate as a dict or as a Gate, never both
            gate_docs[i] = None
        return cls(n_qubits, tuple(gates))
