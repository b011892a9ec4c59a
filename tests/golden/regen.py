"""The golden corpus of the `bp` and `bc` verbs: tests/golden/cli.jsonl.

Each line is one call of `arithsite`: its argv, exit code, stdout and stderr.
An output of more than 1 KB is stored as {"sha256": ..., "bytes": ...}.
tests/test_golden.py replays every line in process through cli.main.

    python tests/golden/regen.py          # rerun the committed argv, rewrite their outputs
    python tests/golden/regen.py --draw   # draw the argv afresh, then run them

The argv were drawn once, derandomized, from test_cli.py's fuzz grammar, and
joined by the `bp` and `bc` calls of its BOUNDED list.  Calls that took more
than 50 ms, or whose argv pass 10 KB, were dropped at the draw, to keep the
replay short and the file small; test_bounded_time keeps the long ones.  A
change that alters an answer by design reruns this script and counts the
changed lines per verb in its record.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

TESTS = Path(__file__).resolve().parents[1]
CORPUS = TESTS / "golden" / "cli.jsonl"
GROUPS = ("bp", "bc")
PER_VERB = 40
MAX_STORED = 1024
MAX_DRAW_S = 0.05
MAX_ARGV_CHARS = 10_000


def _stored(text: str):
    data = text.encode()
    if len(data) <= MAX_STORED:
        return text
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def call(argv: list[str]) -> dict:
    """One corpus line: argv run through cli.main, with argparse's usage at 80 columns."""
    from arithsite.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(list(argv))
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    return {"argv": list(argv), "code": code, "stdout": _stored(out.getvalue()), "stderr": _stored(err.getvalue())}


def draw() -> list[list[str]]:
    """PER_VERB derandomized draws of each bp and bc verb, then the BOUNDED calls of those groups."""
    from hypothesis import HealthCheck, Phase, given, settings, strategies as st

    import test_cli

    found = []
    for verb in sorted(v for v in test_cli._GRAMMAR if v[0] in GROUPS):
        @settings(max_examples=PER_VERB, derandomize=True, database=None, deadline=None,
                  phases=[Phase.generate], suppress_health_check=list(HealthCheck))
        @given(st.tuples(*test_cli._GRAMMAR[verb]))
        def collect(parts):
            argv = [*verb, *test_cli._flatten(parts)]
            if argv not in found:
                found.append(argv)

        collect()
    found += [argv.split() for argv, _ in test_cli.BOUNDED if argv.split(" ", 1)[0] in GROUPS]
    quick = []
    for argv in found:
        if sum(map(len, argv)) > MAX_ARGV_CHARS:
            continue
        start = time.perf_counter()
        call(argv)
        if time.perf_counter() - start <= MAX_DRAW_S:
            quick.append(argv)
    return quick


def main(args: list[str]) -> None:
    sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]
    if args == ["--draw"]:
        calls = draw()
    elif not args:
        calls = [json.loads(line)["argv"] for line in CORPUS.read_text().splitlines()]
    else:
        sys.exit("usage: regen.py [--draw]")
    lines = [json.dumps(call(argv), separators=(",", ":")) for argv in calls]
    CORPUS.write_text("".join(line + "\n" for line in lines))
    print(f"{len(lines)} calls written to {CORPUS}")


if __name__ == "__main__":
    main(sys.argv[1:])
