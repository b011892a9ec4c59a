"""The golden corpus of every `arithsite` verb: tests/golden/cli.jsonl.

Each line is one call of `arithsite`: its argv, exit code, stdout and stderr.
An output of more than 1 KB is stored as {"sha256": ..., "bytes": ...}.
tests/test_golden.py replays every line in process through cli.main.

    python tests/golden/regen.py          # rerun the committed argv, rewrite their outputs
    python tests/golden/regen.py --diff   # rerun them, print what changed, write nothing
    python tests/golden/regen.py --draw   # draw the argv afresh, then run them

The argv were drawn once, derandomized: PER_VERB draws of each verb from
test_cli.py's fuzz grammar, whose hostile values mostly end in a refusal;
VALID_PER_VERB calls of each verb on well-formed arguments from one seeded
Random, which answer; the examples of README's CLI block; and the calls of
test_cli.py's BOUNDED list.  Calls that took more than 50 ms, or whose argv
pass 10 KB, were dropped at the draw, to keep the replay short and the file
small; test_bounded_time keeps the long ones.

`ar tree` and `ar dot` print floats, whose last bits rest on numpy and its
LAPACK: their lines were written with numpy NUMPY_VERSION.

A change that alters an answer by design runs --diff, which counts the
changed lines per verb and quotes the first of each, then reruns this script
and records the count and one before and after.  --diff exits 1 when any line
changed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shlex
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

TESTS = Path(__file__).resolve().parents[1]
CORPUS = TESTS / "golden" / "cli.jsonl"
NUMPY_VERSION = "2.4.6"
FLOAT_VERBS = (("ar", "tree"), ("ar", "dot"))
PER_VERB = 40
VALID_PER_VERB = 14
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


def verb(argv: list[str]) -> str:
    """The group and verb of a corpus argv, or its first two words."""
    return " ".join(argv[:2])


def label(argv: list[str]) -> str:
    """argv on one line, each argument past 60 characters named by its length."""
    return " ".join(a if len(a) <= 60 else f"<{len(a)} characters>" for a in argv)


def _fuzz_draws(verbs) -> list[list[str]]:
    """PER_VERB derandomized draws of each verb from test_cli's fuzz grammar."""
    from hypothesis import HealthCheck, Phase, given, settings, strategies as st

    import test_cli

    found = []
    for v in verbs:
        @settings(max_examples=PER_VERB, derandomize=True, database=None, deadline=None,
                  phases=[Phase.generate], suppress_health_check=list(HealthCheck))
        @given(st.tuples(*test_cli._GRAMMAR[v]))
        def collect(parts):
            argv = [*v, *test_cli._flatten(parts)]
            if argv not in found:
                found.append(argv)

        collect()
    return found


def _valid_calls() -> list[list[str]]:
    """VALID_PER_VERB calls of each verb on well-formed arguments, from one seeded Random.

    The `ar tree` and `ar dot` calls take generators of degree 2 half the
    time and of degree 3 or 4 otherwise, at depth 2 to 4, so the quadratic
    formula and the companion eigenvalues both run.
    """
    from arithsite import belyi, conway as cw, dessins as ds
    from arithsite.ratpoly import format_poly

    import test_cli

    rng = random.Random(31)
    small = (2, 3, 5, 7)

    def ratio(lo=-9, hi=30):
        return f"{rng.randint(lo, hi)}/{rng.randint(1, 30)}"

    def unit():  # a rational in (0, 1)
        q = rng.randint(2, 30)
        return f"{rng.randint(1, q - 1)}/{q}"

    def cls():
        return f"{rng.randint(1, 30)}/{rng.randint(1, 30)}:{ratio(0, 11)}"

    def pairs(k, top=0):  # free letters with top=-1, which monoid C takes
        return [(p, rng.randint(0, p + top)) for p in rng.choices(small, k=rng.randint(0, k))]

    def word(k=5):
        return cw.format_word(cw.letters(pairs(k)))

    def supernatural():
        parts = [p + rng.choice(("", "^2", "^inf")) for p in rng.sample(("2", "3", "5", "7", "11"), rng.randint(0, 3))]
        return "*".join([*parts, rng.choice(("", "", "[default=0]", "[default=1]", "[default=inf]"))]).strip("*") or "1"

    def bdk(lo=2, hi=6):
        return gens(lo, hi, 1)[0]

    def gens(lo=2, hi=6, count=None):  # generators of one degree
        d = rng.randint(lo, hi)
        return [format_poly(belyi.b_dk(d, rng.randrange(d)).poly) for _ in range(count or rng.randint(1, 2))]

    def dessin(hi=6):
        d = rng.randint(1, hi)
        return test_cli._dessin_arg(ds.e_dessin(d, rng.randrange(d)))

    def divisor_chain():
        entries = [rng.randint(1, 6)]
        for _ in range(rng.randint(1, 3)):
            entries.append(entries[-1] * rng.randint(1, 4))
        return entries

    def chain(site):
        if site == "A":
            entries = divisor_chain()
        elif site == "C":
            entries = [[list(l) for l in pairs(2, -1)]]
            for _ in range(rng.randint(1, 2)):  # each entry is u times the last
                entries.append([list(l) for l in pairs(2, -1)] + entries[-1])
        else:
            entries = [[rng.randint(0, 1)]]
            for _ in range(rng.randint(1, 2)):
                entries.append(entries[-1] + [rng.randint(0, 1) for _ in range(rng.randint(0, 2))])
        fields = {"gen_degrees": [2, 3]} if site == "B" else {}
        return test_cli._chain_arg(site, entries, **fields, extend=rng.random() < 0.5)

    def chain_pair():
        site = rng.choice("ABC")
        return [chain(site), chain(site)]

    def tree_args():
        d = rng.choice((2, 2, 3, 4))
        return [*gens(d, d), "--alpha", unit(), "--depth", str(rng.randint(2, 5 - d // 2))]

    make = {
        ("bp", "distance"): lambda: [cls(), cls()],
        ("bp", "neighbours"): lambda: [cls(), str(rng.choice(small))],
        ("bp", "fiber"): lambda: [str(rng.randint(1, 30)), *rng.choice(([], ["--count"]))],
        ("bp", "psi"): lambda: [str(rng.randint(1, 10**6))],
        ("bp", "ball-dot"): lambda: [cls(), *map(str, rng.sample(small[:3], rng.randint(1, 2))),
                                     "--radius", str(rng.randint(0, 2))],
        ("cw", "normalize"): lambda: [word(8)],
        ("cw", "mul"): lambda: [word(), word()],
        ("cw", "word2class"): lambda: [word(8)],
        ("cw", "class2word"): lambda: [cls()],
        ("cw", "delta"): lambda: [word(8)],
        # y = mul(z, x) half the time, so that the quotient exists
        ("cw", "divide"): lambda: (lambda x, z, y: [cw.format_word(rng.choice((cw.mul(z, x), y))), cw.format_word(x)])(
            *(cw.letters(pairs(3, -1)) for _ in range(3))),
        ("sn", "chain"): lambda: [*map(str, divisor_chain()), *rng.choice(([], ["--limit"]))],
        ("sn", "equiv"): lambda: [supernatural(), supernatural()],
        ("sn", "divides"): lambda: [rng.choice((str(rng.randint(1, 400)), supernatural())), supernatural()],
        ("sn", "lcm"): lambda: [supernatural(), supernatural()],
        ("sn", "open"): lambda: [supernatural(), *(str(rng.randint(1, 100)) for _ in range(rng.randint(1, 3)))],
        ("ds", "passport"): lambda: [dessin()],
        ("ds", "compose"): lambda: [dessin(4), dessin(4)],
        ("ds", "iso"): lambda: (lambda d: [d, rng.choice((d, dessin()))])(dessin()),
        ("ds", "equiv"): lambda: (lambda d: [d, rng.choice((d, dessin()))])(dessin()),
        ("ds", "auto"): lambda: [dessin()],
        ("ds", "involution"): lambda: [dessin()],
        ("ds", "dot"): lambda: [dessin()],
        ("ds", "monodromy"): lambda: [dessin()],
        ("ds", "edk"): lambda: (lambda d: [str(d), str(rng.randrange(d))])(rng.randint(1, 10)),
        ("by", "bdk"): lambda: (lambda d: [str(d), str(rng.randrange(d))])(rng.randint(2, 12)),
        ("by", "check"): lambda: [rng.choice((bdk(), "x^3-x", "x^2", "1/4*x^3-3/2*x^2+9/4*x"))],
        ("by", "beta"): lambda: [bdk(), *rng.choice(([], ["--word"]))],
        ("by", "triangle"): lambda: [bdk()],
        ("by", "compose-count"): lambda: [bdk(2, 4), bdk(2, 4)],
        ("by", "free"): lambda: [*(bdk(2, 4) for _ in range(rng.randint(1, 2))), "--maxlen", str(rng.randint(1, 3))],
        ("bc", "cond3"): lambda: [str(rng.randint(1, 300))],
        ("bc", "cond4"): lambda: [str(rng.randint(1, 30)), str(rng.randint(1, 30))],
        ("bc", "cond5"): lambda: list(map(str, rng.sample((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37), 2))),
        ("bc", "op"): lambda: (lambda p: [str(p), str(rng.randint(0, p)), ratio()])(rng.choice(small)),
        ("bc", "rho"): lambda: [str(rng.randint(1, 20)), ratio()],
        ("bc", "presheaf"): lambda: [cw.format_word(cw.normalize(cw.letters(pairs(4)))), str(rng.randint(1, 12))],
        ("ar", "generic"): lambda: [*gens(), "--alpha", unit()],
        ("ar", "squarefree"): lambda: [*gens(), "--alpha", rng.choice((unit(), "0", "1")),
                                       "--depth", str(rng.randint(1, 6))],
        ("ar", "tree"): tree_args,
        ("ar", "dot"): tree_args,
        ("pt", "equiv"): chain_pair,
        ("pt", "tail"): chain_pair,
        ("pt", "project"): lambda: [chain(rng.choice("ABC"))],
    }
    assert set(make) == set(test_cli._GRAMMAR)
    return [[*v, *make[v]()] for v in sorted(make) for _ in range(VALID_PER_VERB)]


def _readme_calls() -> list[list[str]]:
    """The examples of README's CLI block, each `$(arithsite ...)` replaced by its stdout."""
    import test_cli

    def expand(arg):
        if arg.startswith("$(arithsite ") and arg.endswith(")"):
            return call(shlex.split(arg[2:-1])[1:])["stdout"].rstrip("\n")
        return arg

    return [[expand(a) for a in shlex.split(line, comments=True)[1:]] for line in test_cli._readme_cli_lines()]


def draw() -> list[list[str]]:
    """The fuzz draws, the valid calls, README's examples and the BOUNDED calls, each
    once, without those that run past MAX_DRAW_S or whose argv pass MAX_ARGV_CHARS."""
    import test_cli

    found = [*_fuzz_draws(sorted(test_cli._GRAMMAR)), *_valid_calls(), *_readme_calls(),
             *(argv.split() for argv, _ in test_cli.BOUNDED)]
    quick = []
    for argv in found:
        if argv in quick or sum(map(len, argv)) > MAX_ARGV_CHARS:
            continue
        start = time.perf_counter()
        call(argv)
        if time.perf_counter() - start <= MAX_DRAW_S:
            quick.append(argv)
    return quick


def diff(lines: list[dict]) -> int:
    """Rerun each line's argv; per verb, print the changed lines and the first
    of them, old and new.  Returns the number of changed lines."""
    changed: dict[str, list[tuple[dict, dict]]] = {}
    for want in lines:
        got = call(want["argv"])
        if got != want:
            changed.setdefault(verb(want["argv"]), []).append((want, got))
    total = Counter(verb(want["argv"]) for want in lines)
    for v, pairs in sorted(changed.items()):
        old, new = pairs[0]
        print(f"{v}: {len(pairs)} of {total[v]} lines changed; first: {label(old['argv'])}")
        for side, line in (("old", old), ("new", new)):
            print(f"  {side}: " + json.dumps({k: line[k] for k in ("code", "stdout", "stderr")}))
    count = sum(map(len, changed.values()))
    print(f"{count} of {len(lines)} lines changed")
    return count


def main(args: list[str]) -> None:
    sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]
    if args not in ([], ["--draw"], ["--diff"]):
        sys.exit("usage: regen.py [--draw | --diff]")
    if args == ["--diff"]:
        sys.exit(1 if diff([json.loads(line) for line in CORPUS.read_text().splitlines()]) else 0)
    if args == ["--draw"]:
        calls = draw()
    else:
        calls = [json.loads(line)["argv"] for line in CORPUS.read_text().splitlines()]
    lines = [json.dumps(call(argv), separators=(",", ":")) for argv in calls]
    CORPUS.write_text("".join(line + "\n" for line in lines))
    print(f"{len(lines)} calls written to {CORPUS}")


if __name__ == "__main__":
    main(sys.argv[1:])
