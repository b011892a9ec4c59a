"""Replay the golden corpus of every `arithsite` verb (tests/golden/regen.py).

The `ar tree` and `ar dot` lines print floats, whose last bits rest on numpy
and its LAPACK: they were written with numpy 2.4.6 (regen.NUMPY_VERSION), and
are replayed only under that version.
"""

import json

import numpy as np

from arithsite.cli import GROUPS
from arithsite.ratpoly import parse_poly
from golden.regen import CORPUS, FLOAT_VERBS, NUMPY_VERSION, call, label, verb

LINES = [json.loads(line) for line in CORPUS.read_text().splitlines()]


def test_golden_cli_corpus():
    # every call answers as it did when the corpus was last regenerated
    assert len(LINES) >= 300
    floats = np.__version__ == NUMPY_VERSION
    lines = [want for want in LINES if floats or tuple(want["argv"][:2]) not in FLOAT_VERBS]
    differ = [label(want["argv"]) for want in lines if call(want["argv"]) != want]
    assert not differ, f"{len(differ)} calls differ from tests/golden/cli.jsonl:\n" + "\n".join(differ)


def test_golden_corpus_answers_every_verb():
    # at least 10 calls of each of the 44 verbs exit 0
    answered = {f"{group} {v}": 0 for group, (_, _, verbs) in GROUPS.items() for v in verbs}
    assert len(answered) == 44
    for line in LINES:
        answered[verb(line["argv"])] += line["code"] == 0
    assert min(answered.values()) >= 10, {v: n for v, n in answered.items() if n < 10}


def test_golden_trees_reach_both_root_solves():
    # answered trees of depth >= 2 over degree-2 generators, which take the quadratic
    # formula, and over degree >= 3, which take the companion eigenvalues
    degrees = {(v, 2): 0 for v in FLOAT_VERBS} | {(v, 3): 0 for v in FLOAT_VERBS}
    for line in LINES:
        argv = line["argv"]
        if tuple(argv[:2]) in FLOAT_VERBS and line["code"] == 0 and int(argv[argv.index("--depth") + 1]) >= 2:
            degree = parse_poly(argv[2]).degree
            degrees[tuple(argv[:2]), min(degree, 3)] += 1
    assert min(degrees.values()) >= 3, degrees
