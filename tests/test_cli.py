import hashlib
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import arithsite
from arithsite import bigpicture as bp, conway as cw
from arithsite.cli import MAX_INT_DIGITS, main

DEEP = "[" * 10**5 + "]" * 10**5
SRC = str(Path(arithsite.__file__).resolve().parents[1])


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    return _run


def test_distance(run):
    code, out, _ = run("bp", "distance", "1:0", "1:1/2")
    assert code == 0 and out.strip() == "4"


def test_fiber_count(run):
    code, out, _ = run("bp", "fiber", "12", "--count")
    assert code == 0 and out.strip() == "24"
    code, out, err = run("bp", "fiber", "5040", "--count")
    assert code == 1 and out == "" and "error: refusing psi(5040) = 13824 > 1000" in err


def test_bdk(run):
    code, out, _ = run("by", "bdk", "3", "1")
    assert code == 0 and out.strip() == "-2*x^3+3*x^2"
    code, out2, _ = run("belyi", "bdk", "3", "1")
    assert out2 == out


def test_psi_and_proj(run):
    assert run("bp", "psi", "6")[1].strip() == "12"
    assert run("bp", "psi", "4", "--proj")[1].strip() == "6"
    for n in ("201", "2000"):
        code, out, err = run("bp", "psi", n, "--proj")
        assert code == 1 and out == "" and "error: refusing" in err and "Traceback" not in err, n


def test_neighbours(run):
    code, out, _ = run("bp", "neighbours", "1:0", "2")
    assert out.splitlines() == ["1/2:0", "1/2:1/2", "2:0"]


def test_cw_verbs(run):
    assert run("cw", "normalize", "P[3,1]*P[2,0]")[1].strip() == "P[2,0]*P[3,2]"
    assert run("cw", "word2class", "P[2,0]*P[3,2]")[1].strip() == "1/6:1/3"
    assert run("cw", "class2word", "1:1/2")[1].strip() == "P[2,1]*P[2,2]"
    assert run("cw", "delta", "P[2,0]*P[3,2]")[1].strip() == "6"
    assert run("cw", "mul", "P[2,1]", "P[3,1]")[1].strip() == "P[2,1]*P[3,1]"
    assert run("cw", "divide", "P[2,1]*P[2,0]", "P[2,0]")[1].strip() == "P[2,1]"
    assert run("cw", "divide", "P[2,1]", "P[3,0]")[1].strip() == "none"
    code, out, err = run("cw", "normalize", DEEP)
    assert code == 1 and out == "" and err.startswith("error: ")
    for bad in ("[[3.9, 1.2], [2, 0]]", '[["2",1]]', "[5]", "[[null,1]]", '["21"]', "[[2,1,0]]", "[[true,1]]"):
        code, out, err = run("cw", "normalize", bad)
        assert code == 1 and out == "" and err.startswith("error: ") and "Traceback" not in err, bad


def test_sn_verbs(run):
    assert run("sn", "chain", "2", "4", "12")[1].strip() == "2^2*3*[default=0]"
    assert run("sn", "chain", "2", "4", "--limit")[1].strip() == "2^inf*[default=0]"
    assert run("sn", "equiv", "2^inf*3", "2^inf")[1].strip() == "true"
    assert run("sn", "divides", "12", "2^inf*3")[1].strip() == "true"
    assert run("sn", "lcm", "2^inf", "3^2")[1].strip() == "2^inf*3^2*[default=0]"
    assert run("sn", "open", "2^inf", "6", "4")[1].strip() == "true"
    # 2^127 - 1 is prime and far above the trial-division bound
    code, out, err = run("sn", "chain", "170141183460469231731687303715884105727")
    assert code == 1 and out == "" and "error: refusing" in err


def test_ds_verbs(run):
    code, edk, _ = run("ds", "edk", "3", "1")
    assert code == 0
    assert json.loads(edk) == {"n": 3, "alpha": [1, 0, 2], "beta": [2, 1, 0], "frame_black": 0, "frame_white": 0}
    code, pp, _ = run("ds", "passport", edk.strip())
    assert json.loads(pp) == {"black": [2, 1], "white": [2, 1]}
    code, comp, _ = run("ds", "compose", edk.strip(), edk.strip())
    assert json.loads(comp)["n"] == 9
    assert run("ds", "iso", edk.strip(), edk.strip())[1].strip() == "true"
    assert run("ds", "equiv", edk.strip(), comp.strip())[1].strip() == "false"
    assert run("ds", "monodromy", edk.strip())[1].strip() == "6"
    inv = run("ds", "involution", edk.strip())[1]
    assert json.loads(inv)["alpha"] == [2, 1, 0]
    assert "--" in run("ds", "dot", edk.strip())[1]
    bad_n = json.dumps({"n": 10**12, "alpha": [0], "beta": [0], "frame_black": 0, "frame_white": 0})
    float_n = '{"n":3.9,"alpha":[1,0,2.7],"beta":[2,1,0],"frame_black":0,"frame_white":0}'
    str_n = edk.replace('"n": 3', '"n": "3"')
    bool_n = edk.replace('"n": 3', '"n": true')
    for bad in ('[1,2]', '"x"', edk.replace("[1, 0, 2]", "5"), bad_n, float_n, str_n, bool_n, DEEP):
        code, out, err = run("ds", "passport", bad)
        assert code == 1 and out == "" and err.startswith("error: "), bad


def test_by_verbs(run):
    assert run("by", "check", "-2*x^3+3*x^2")[1].strip() == "true"
    assert run("by", "check", "x^3-x")[1].strip() == "false"
    assert run("by", "beta", "-2*x^3+3*x^2")[1].strip() == "1/3:1/3"
    assert run("by", "beta", "-2*x^3+3*x^2", "--word")[1].strip() == "P[3,1]"
    assert run("by", "triangle", "-2*x^3+3*x^2")[1].strip() == "true"
    assert run("by", "compose-count", "-2*x^3+3*x^2", "-2*x^3+3*x^2")[1].strip() == "true"
    assert run("by", "free", "x^3", "-2*x^3+3*x^2", "--maxlen", "2")[1].strip() == "true"
    code, out, err = run("by", "check", "x^1000000")
    assert code == 1 and out == "" and "error: refusing exponent 1000000 > 512" in err
    code, out, err = run("by", "free", "-2*x^3+3*x^2", "x^3", "--maxlen", "7")
    assert code == 1 and out == "" and "error: refusing composites of total degree" in err


def test_bc_verbs(run):
    obj = json.loads(run("bc", "cond5", "2", "3")[1])
    assert obj == {"condition": 5, "p": 2, "q": 3, "ok": True, "cells": 6}
    code, out, err = run("bc", "cond5", "4", "6")
    assert code == 1 and out == "" and "primes" in err
    assert json.loads(run("bc", "cond3", "6")[1])["ok"] is True
    assert json.loads(run("bc", "cond4", "2", "3")[1])["ok"] is True
    assert run("bc", "op", "2", "1", "1/3")[1].strip() == "2/3"
    assert json.loads(run("bc", "rho", "2", "1/3")[1]) == ["1/6", "2/3"]
    for argv in (("bc", "rho", "-2", "1/3"), ("bc", "rho", "0", "0")):
        code, out, err = run(*argv)
        assert code == 1 and out == "" and "need p >= 1" in err
    assert json.loads(run("bc", "presheaf", "P[2,1]", "3")[1]) == ["1/2", "2/3", "5/6"]
    code, out, err = run("bc", "presheaf", "[5]", "2")
    assert code == 1 and out == "" and err.startswith("error: ") and "Traceback" not in err


def test_ar_verbs(run):
    assert run("ar", "generic", "-2*x^3+3*x^2", "--alpha", "1/2")[1].strip() == "true"
    assert run("ar", "squarefree", "-2*x^3+3*x^2", "--alpha", "1/2", "--depth", "2")[1].strip() == "true"
    # x^3 - 0 has a triple root at level 1, which every deeper level inherits
    assert run("ar", "squarefree", "x^3", "--alpha", "0", "--depth", "2")[1].strip() == "false"
    obj = json.loads(run("ar", "tree", "-2*x^3+3*x^2", "--alpha", "1/2", "--depth", "2")[1])
    assert len(obj["levels"][2]) == 9 and obj["levels"][2][0]["value"]
    assert "->" in run("ar", "dot", "-2*x^3+3*x^2", "--alpha", "1/2", "--depth", "1")[1]
    code, out, err = run("ar", "tree", "-2*x^3+3*x^2", "--alpha", "1/2", "--depth", "-1")
    assert code == 1 and out == "" and "need n >= 0" in err
    code, out, err = run("ar", "squarefree", "-2*x^3+3*x^2", "--alpha", "1/2", "--depth", "0")
    assert code == 1 and out == "" and "need n >= 1" in err
    code, out, err = run("ar", "tree", "x", "--alpha", "1/2", "--depth", "3000")
    assert code == 1 and out == "" and "error: refusing depth 3000" in err
    code, out, err = run("ar", "squarefree", "-2*x^3+3*x^2", "--alpha", "1/2", "--depth", "7")
    assert code == 1 and out == "" and "error: refusing d^n = 2187 > 512 exact degree" in err
    # degree-1 rows: one 1x1 companion matrix per level
    code, out, err = run("ar", "tree", "x", "--alpha", "1/2", "--depth", "3")
    levels = json.loads(out)["levels"]
    assert code == 0 and err == "" and len(levels) == 4
    assert all(len(lv) == 1 and lv[0]["value"] == [0.5, 0.0] for lv in levels)


def test_ar_tree_refuses_non_finite_roots(run):
    # B_{100,50} - 1/3 is too ill-conditioned for float roots: its Newton
    # polish diverges to NaN, which must exit 1 rather than print a tree
    code, poly, _ = run("by", "bdk", "100", "50")
    assert code == 0
    code, out, err = run("ar", "tree", poly.strip(), "--alpha", "1/3", "--depth", "1")
    assert code == 1 and out == "" and err.startswith("error: ") and "nan" not in err.lower()


def _bdk_tree(run, d, k, alpha):
    code, poly, _ = run("by", "bdk", str(d), str(k))
    assert code == 0
    return run("ar", "tree", poly.strip(), "--alpha", alpha, "--depth", "1")


def test_ar_tree_refuses_an_overflowing_scale(run):
    # one root of B_{72,36} - 2/7 lands near 5600, and its residual of 1.6e290
    # is near the float range: the call must exit 1 without a traceback
    code, out, err = _bdk_tree(run, 72, 36, "2/7")
    assert code == 1 and out == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("d, k, alpha", [(128, 127, "1/3"), (72, 71, "2/7")])
def test_ar_tree_refuses_a_vacuous_scale(run, d, k, alpha):
    # these roots once printed with residuals of 1e95 and 2e31; their
    # inclusion disks meet, so no tree is printed
    code, out, err = _bdk_tree(run, d, k, alpha)
    assert code == 1 and out == "" and err.startswith("error: ")
    assert "nan" not in err.lower() and "Traceback" not in err


def test_int_digit_cap(run):
    # both directions of int <-> str stop at the cap, named in plain words
    sevens = "7" * 70000
    for argv in (("bp", "distance", f"{sevens}:0", f"1/{sevens}:0"),
                 ("ar", "generic", "x", "--alpha", "1" * (MAX_INT_DIGITS + 1))):
        code, out, err = run(*argv)
        assert (code, out) == (1, "")
        assert err == f"error: refusing an integer of more than {MAX_INT_DIGITS} decimal digits\n"


def _tree_b15_10(run):
    code, poly, _ = run("by", "bdk", "15", "10")
    assert code == 0
    return poly.strip(), run("ar", "tree", poly.strip(), "--alpha", "1/3", "--depth", "1")


def test_ar_tree_matches_within_the_residual_scale(run):
    # B_{15,10} has coefficients up to about 4e5: its roots' images miss 1/3
    # by about 1.4e-9, and the certificate allows for that
    _, (code, out, err) = _tree_b15_10(run)
    assert code == 0 and err == "" and len(json.loads(out)["levels"][1]) == 15


@pytest.mark.parametrize("d, k, alpha, depth", [(17, 8, "2/7", 2), (20, 11, "1/3", 1)])
def test_ar_tree_certifies_large_coefficients(run, d, k, alpha, depth):
    # an error scale blind to coefficients near 5e7 refused both trees
    code, poly, _ = run("by", "bdk", str(d), str(k))
    code, out, err = run("ar", "tree", poly.strip(), "--alpha", alpha, "--depth", str(depth))
    assert code == 0 and err == "" and len(json.loads(out)["levels"][depth]) == d**depth


def test_ar_tree_has_no_tol_option(run):
    with pytest.raises(SystemExit) as e:
        run("ar", "tree", "-2*x^3+3*x^2", "--alpha", "1/2", "--depth", "1", "--tol", "1e-9")
    assert e.value.code == 2


def test_error_lines_are_clipped(run):
    # the parsers echo their argument, which may be 128 KiB long
    for argv in (("by", "check", "x^" + "1" * 100000 + "x"), ("bp", "distance", "1:0", "1" * 100000 + "x:0")):
        code, out, err = run(*argv)
        assert code == 1 and out == "" and err.startswith("error: ") and len(err) < 300


def test_closed_pipe_exits_quietly():
    # 119 KB of DOT overfills the pipe buffer, so the write is still pending
    # when the reader closes its end after one line
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "arithsite.cli", "ar", "dot", "-x^2+2*x", "--alpha", "1/3", "--depth", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (first, proc.returncode, err) == (b"digraph arboreal {\n", 1, b"")


def test_ar_tree_level_one_matches_sympy(run):
    sympy = pytest.importorskip("sympy")
    poly, (code, out, _) = _tree_b15_10(run)
    assert code == 0
    x = sympy.Symbol("x")
    expr = sympy.sympify(poly.replace("^", "**"), locals={"x": x}) - sympy.Rational(1, 3)
    want = [complex(r) for r in sympy.Poly(expr, x).nroots(n=30)]
    got = [complex(*node["value"]) for node in json.loads(out)["levels"][1]]
    # the roots are distinct, so nearness both ways is a bijection
    assert len(got) == len(want) == 15
    assert max(min(abs(g - w) for w in want) for g in got) < 1e-8
    assert max(min(abs(g - w) for g in got) for w in want) < 1e-8


def test_pt_verbs(run):
    c1 = json.dumps({"site": "A", "entries": [2, 4, 8]})
    c2 = json.dumps({"site": "A", "entries": [4, 8]})
    assert run("pt", "equiv", c1, c2)[1].strip() == "true"
    assert run("pt", "tail", c1, json.dumps({"site": "A", "entries": [12, 24]}))[1].strip() == "true"
    cc = json.dumps({"site": "C", "entries": [[[2, 0]], [[2, 1], [2, 0]]]})
    assert json.loads(run("pt", "project", cc)[1]) == {"site": "A", "entries": [2, 4]}
    for bad in (
        '[1]',
        '{"site":"A","entries":5}',
        '{"site":"Z","entries":[[0]],"gen_degrees":[2]}',
        '{"site":"A","entries":[2.5,4]}',
        '{"site":"A","entries":["2"]}',
        '{"site":"C","entries":[[[2,true]]]}',
        '{"site":"B","entries":[[0]],"gen_degrees":[2.0]}',
        DEEP,
    ):
        code, out, err = run("pt", "project", bad)
        assert code == 1 and out == "" and err.startswith("error: "), bad


def test_domain_error_exit_code(run):
    code, _, err = run("bp", "distance", "junk", "1:0")
    assert code == 1 and "error" in err


def test_determinism(run):
    a = run("bp", "fiber", "12")
    b = run("bp", "fiber", "12")
    assert a == b
    assert len(a[1].splitlines()) == 24


def test_ball_dot(run):
    code, out, _ = run("bp", "ball-dot", "1:0", "2", "--radius", "1")
    assert code == 0 and out.count("--") == 3


def _long_word() -> str:
    """15 000 letters over {2, 3, 5, 7} from a fixed seed: a 105 KB argument."""
    rng = random.Random(15000)
    letters = []
    for _ in range(15000):
        p = rng.choice((2, 3, 5, 7))
        letters.append(f"P[{p},{rng.randrange(p + 1)}]")
    return "*".join(letters)


# 6000 letters P[7,0], a 42 KB argument: its delta and the denominator of its
# class have 5072 digits, past Python's default limit of 4300
SEVENS = "*".join(["P[7,0]"] * 6000)

# argv that once ran without bound or failed: each now answers within the
# alarm below, a refusal (stdout None) with exit 1 and an `error:` line, or
# exit 0 with the given stdout or, prefixed "sha256:", its digest.  A callable
# computes the library's stdout after the call, under the digit cap of main()
BOUNDED = [
    ("ds edk 100000000 1", None),
    ("by bdk 100000000 1", None),
    ("bc cond3 100000000", None),
    ("bc cond4 100000 100000", None),
    ("bc cond5 999983 1000003", None),
    ("bc rho 1000003 1/3", None),
    ("bc presheaf P[2,1] 100000000", None),
    ("bp neighbours 1:0 1000003", None),
    ("bp ball-dot 1:0 2 3 5 7 --radius 50", None),
    ("cw class2word 1/1000000007:0", "P[1000000007,0]\n"),
    # the quadratic rewriting engine took 58 s on this word; its stdout, which
    # the closed form reproduces, is pinned by its SHA-256
    (f"cw normalize {_long_word()}",
     "sha256:6bec529a189e3725359feb7dfdd472e6a8652e632192df23e25dc28ca75be60a"),
    (f"cw delta {SEVENS}", lambda: f"{cw.delta(cw.parse_word(SEVENS))}\n"),
    (f"cw word2class {SEVENS}", lambda: bp.format_class(cw.word_to_class(cw.parse_word(SEVENS))) + "\n"),
]


def _bounded_id(argv: str) -> str:
    group, verb, rest = argv.split(" ", 2)
    return argv if len(argv) < 100 else f"{group} {verb} <{rest.count('*') + 1} letters>"


@pytest.mark.parametrize("argv, want", BOUNDED, ids=[_bounded_id(a) for a, _ in BOUNDED])
def test_bounded_time(run, argv, want):
    def expire(signum, frame):
        raise TimeoutError(f"{argv} ran past its 2 s budget")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(2)
    try:
        code, out, err = run(*argv.split())
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    if callable(want):
        want = want()
    if want is None:
        assert code == 1 and out == "" and err.startswith("error: ") and "Traceback" not in err
    elif want.startswith("sha256:"):
        assert (code, "sha256:" + hashlib.sha256(out.encode()).hexdigest(), err) == (0, want, "")
    else:
        assert (code, out, err) == (0, want, "")


@pytest.mark.parametrize(
    "short, long, argv",
    [
        ("bp", "bigpicture", ["distance", "1:0", "1:1/2"]),
        ("cw", "conway", ["normalize", "P[3,1]*P[2,0]"]),
        ("sn", "supernatural", ["chain", "2", "4", "12"]),
        ("ds", "dessins", ["edk", "3", "1"]),
        ("by", "belyi", ["beta", "-2*x^3+3*x^2", "--word"]),
        ("bc", "bostconnes", ["cond5", "2", "3"]),
        ("ar", "arboreal", ["generic", "-2*x^3+3*x^2", "--alpha", "1/2"]),
        ("pt", "points", ["project", '{"site":"A","entries":[2,4]}']),
    ],
)
def test_long_aliases(run, short, long, argv):
    code, out, err = run(long, *argv)
    assert code == 0 and out and err == ""
    assert run(short, *argv) == (code, out, err)


IMPORT_PROBE = """\
import json, sys
import arithsite.cli as cli
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps(sorted(m for m in sys.modules if m == "numpy" or m.startswith("arithsite"))))
sys.exit(code)
"""


def _loaded_modules(argv) -> set[str]:
    """numpy and the arithsite modules in sys.modules after one fresh CLI call."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(argv)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "argv",
    [
        ["bp", "psi", "6"],
        ["cw", "normalize", "P[3,1]*P[2,0]"],
        ["sn", "chain", "2", "4"],
        ["ds", "edk", "3", "1"],
        ["by", "beta", "-2*x^3+3*x^2", "--word"],
        ["bc", "presheaf", "P[2,1]", "3"],
        ["pt", "project", '{"site":"A","entries":[2,4]}'],
        ["ar", "generic", "-2*x^3+3*x^2", "--alpha", "1/2"],
    ],
)
def test_only_ar_imports_numpy(argv):
    assert ("numpy" in _loaded_modules(argv)) == (argv[0] == "ar")


def test_sn_imports_its_modules_only():
    want = {"arithsite", "arithsite.cli", "arithsite.supernatural", "arithsite.primes"}
    assert _loaded_modules(["sn", "chain", "2", "4"]) == want
