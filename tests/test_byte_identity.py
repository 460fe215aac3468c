"""The CLI's output bytes on the corpus of ``byte_corpus``, on the NumPy
build and on the compiled one, against the committed digests; and the
``Gate`` objects that its ``synth``, ``verify`` and ``stats`` runs build:
none."""

import json

import byte_corpus
from conftest import count_gates


def test_outputs_match_the_digests(build, tmp_path):
    expect = json.loads(byte_corpus.DIGESTS.read_text(encoding="utf-8"))
    got = byte_corpus.record(tmp_path)
    assert sorted(got) == sorted(expect)
    assert [key for key in sorted(got) if got[key] != expect[key]] == []


def test_synth_and_verify_build_no_gate(build, tmp_path, monkeypatch):
    """``synth`` writes its circuit from the synthesized columns and counts
    its report from them; ``verify`` and ``stats`` read the document into
    columns, and run or count them."""
    built = count_gates(monkeypatch)
    runs = byte_corpus.record(tmp_path, only=("synth", "verify", "stats"))
    labels = {key.split()[1] for key in runs}
    synths = {"synth-stdout", "synth--prune", "synth--no-prune"}
    verifies = {"verify--prune", "verify--no-prune", "verify-tol"}
    assert labels == synths | verifies | {"stats--prune", "stats--no-prune"}
    assert built == []
