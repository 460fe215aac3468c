"""Spans for the traced run, recorded in this benchmark's own code.

Nothing inside ryprep is traced.  Instead each CLI command is replayed as the
public library calls it makes, with one span around each call and a parent
span around the replay; spans of one image share its index.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

# layer spans in the order the replays emit them
LAYERS = (
    "encoding.load_pgm",
    "encoding.encode",
    "states.to_angles",
    "synthesis.synth_angles",
    "synthesis.report",
    "circuits.to_json",
    "qasm.export",
    "circuits.from_json",
    "simulator.run",
    "simulator.max_abs_diff",
    "states.to_json",
)


class Tracer:
    def __init__(self) -> None:
        # (image, span id, parent span id or -1, name, start s, end s)
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._parent = -1
        self.image = -1

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        self.spans.append((self.image, len(self.spans), self._parent, name, start, end))
        return out

    def parent(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as one span that the spans it records point to."""
        span_id = len(self.spans)
        self.spans.append((self.image, span_id, -1, name, 0.0, 0.0))
        self._parent = span_id
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._parent = -1
            self.spans[span_id] = (self.image, span_id, -1, name, start, end)

    def write(self, path: str) -> None:
        fields = ("image", "id", "parent", "name", "start_s", "end_s")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def replay_synth(tr: Tracer, rp: Any, pgm: bytes) -> tuple[str, str, str]:
    """``ryprep synth IMG --out C --qasm Q --report R`` as library calls."""
    image = tr.call("encoding.load_pgm", rp.load_pgm, pgm)
    state = tr.call("encoding.encode", rp.encode, image)
    angles = tr.call("states.to_angles", rp.to_angles, state)
    circuit = tr.call(
        "synthesis.synth_angles", rp.synth_angles, angles, prune=True, prune_tol=1e-12
    )

    def report() -> str:
        n = state.n_qubits
        return rp.SynthReport(
            n_qubits=n,
            gate_count=circuit.gate_count,
            pruned_count=rp.unpruned_gate_count(n) - circuit.gate_count,
            max_control_arity=max((len(g.controls) for g in circuit.gates), default=0),
            recursion_depth=max(0, n - 2),
        ).to_json()

    report_text = tr.call("synthesis.report", report)
    circuit_text = tr.call("circuits.to_json", circuit.to_json)
    qasm_text = tr.call("qasm.export", rp.export_qasm, circuit)
    return circuit_text, qasm_text, report_text


def replay_verify(tr: Tracer, rp: Any, pgm: bytes, circuit_text: str) -> float:
    """``ryprep verify IMG C`` as library calls."""
    state = tr.call("encoding.encode", rp.encode, tr.call("encoding.load_pgm", rp.load_pgm, pgm))
    circuit = tr.call("circuits.from_json", rp.Circuit.from_json, circuit_text)
    prepared = tr.call("simulator.run", rp.run, circuit)
    return tr.call("simulator.max_abs_diff", rp.max_abs_diff, prepared, state)


def replay_encode(tr: Tracer, rp: Any, pgm: bytes) -> str:
    """``ryprep encode IMG S`` as library calls."""
    state = tr.call("encoding.encode", rp.encode, tr.call("encoding.load_pgm", rp.load_pgm, pgm))
    return tr.call("states.to_json", state.to_json)
