"""Replay the golden corpus of the `bp` and `bc` verbs (tests/golden/regen.py)."""

import json

from golden.regen import CORPUS, call


def _label(argv) -> str:
    return " ".join(a if len(a) <= 60 else f"<{len(a)} characters>" for a in argv)


def test_golden_cli_corpus():
    # every call answers as it did when the corpus was last regenerated
    lines = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    assert len(lines) >= 300
    differ = [_label(want["argv"]) for want in lines if call(want["argv"]) != want]
    assert not differ, f"{len(differ)} calls differ from tests/golden/cli.jsonl:\n" + "\n".join(differ)
