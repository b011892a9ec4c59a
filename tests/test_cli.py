import argparse
import ast
import functools
import hashlib
import importlib
import itertools
import json
import os
import random
import re
import shlex
import signal
import subprocess
import sys
from math import isqrt, prod
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import arithsite
from arithsite import belyi, bigpicture as bp, cli, conway as cw, dessins as ds
from arithsite.cli import MAX_INT_DIGITS, build_parser, main
from arithsite.ratpoly import format_poly

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
    # the count is psi(n), so the bit budget caps only the listing
    assert run("bp", "fiber", "10080", "--count") == (0, "27648\n", "")
    code, out, err = run("bp", "fiber", "10080")
    assert code == 1 and out == "" and err == "error: refusing a fiber of 801792 bits > 524288\n"


def test_bdk(run):
    code, out, _ = run("by", "bdk", "3", "1")
    assert code == 0 and out.strip() == "-2*x^3+3*x^2"
    code, out2, _ = run("belyi", "bdk", "3", "1")
    assert out2 == out


def test_psi_and_proj(run):
    # psi(n) is |P^1(Z/n)|, so there is no --proj orbit count
    assert run("bp", "psi", "6")[1].strip() == "12"
    assert run("bp", "psi", "2000") == (0, "3600\n", "")
    with pytest.raises(SystemExit) as e:
        run("bp", "psi", "4", "--proj")
    assert e.value.code == 2


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
    # a repeated prime multiplies; a literal has at most one default
    assert run("sn", "lcm", "2^3*2", "1") == (0, "2^4*[default=0]\n", "")
    assert run("sn", "divides", "4", "2*2") == (0, "true\n", "")
    assert run("sn", "lcm", "2*[default=1]*[default=0]", "1") == (1, "", "error: more than one [default=...] token\n")
    # 2^127 - 1 is prime and far above the trial-division bound
    code, out, err = run("sn", "chain", "170141183460469231731687303715884105727")
    assert code == 1 and out == "" and "error: refusing" in err
    # the least prime above 10^13, which trial division to 10^6 refused
    assert run("sn", "chain", "10000000000037")[1].strip() == "10000000000037*[default=0]"


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
    # no word has a negative length; the empty words alone are vacuously free
    assert run("by", "free", "-2*x^3+3*x^2", "--maxlen", "-3") == (1, "", "error: maxlen must be >= 0\n")
    assert run("by", "free", "-2*x^3+3*x^2", "--maxlen", "0") == (0, "true\n", "")


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


def test_negative_literals_are_arguments(run):
    # argparse reads -1/3 as an option, -0.5 as a number; every leading-minus
    # literal is an argument, so x = -1/3 reads as 2/3 mod 1
    assert run("bc", "op", "2", "1", "-1/3") == run("bc", "op", "2", "1", "2/3") == (0, "5/6\n", "")
    assert run("bc", "rho", "3", "-1/3") == run("bc", "rho", "3", "2/3")
    assert run("bc", "op", "2", "1", "-.5") == run("bc", "op", "2", "1", "-0.5") == (0, "3/4\n", "")
    for argv in (("bp", "distance", "-1/2:0", "1:0"), ("ar", "generic", "x", "--alpha", "-1/3")):
        code, out, err = run(*argv)
        assert code == 1 and out == "" and err.startswith("error: "), argv
    assert run("ar", "generic", "x", "--alpha", "-1/3")[2] == "error: alpha must lie in (0, 1)\n"
    # the marking space is taken off again: the literal reads as typed
    assert run("bp", "distance", "-1/2:0", "1:0")[2].startswith("error: bad class literal '-1/2:0'")


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
    # the chain rule answers past the exact composite's degree cap
    assert run("ar", "squarefree", "-2*x^3+3*x^2", "--alpha", "1/2", "--depth", "7") == (0, "true\n", "")
    # degree-1 rows: one 1x1 companion matrix per level
    code, out, err = run("ar", "tree", "x", "--alpha", "1/2", "--depth", "3")
    levels = json.loads(out)["levels"]
    assert code == 0 and err == "" and len(levels) == 4
    assert all(len(lv) == 1 and lv[0]["value"] == [0.5, 0.0] for lv in levels)


def test_ar_tree_prints_no_negative_zero(run):
    # the companion row of x - 1/3 is -(-1/3 + 0j), whose imaginary part is -0.0
    code, out, err = run("ar", "tree", "x", "--alpha", "1/3", "--depth", "1")
    assert (code, err) == (0, "") and "-0.0" not in out
    assert json.loads(out)["levels"][1] == [{"value": [1 / 3, 0.0], "parent": 0}]
    code, out, err = run("ar", "dot", "x", "--alpha", "1/3", "--depth", "1")
    assert (code, err) == (0, "") and out.count('label="0.333333+0i"') == 2


def test_zero_denominators_are_bad_literals(run):
    bad = "bad rational literal '1/0': zero denominator\n"
    assert run("bc", "op", "2", "1", "1/0") == (1, "", "error: " + bad)
    assert run("ar", "generic", "x", "--alpha", "1/0") == (1, "", "error: " + bad)
    assert run("bp", "distance", "1:1/0", "1:0") == (1, "", "error: bad class literal '1:1/0': " + bad)
    # a polynomial coefficient once printed `error: Fraction(1, 0)`
    assert run("by", "check", "1/0*x") == (1, "", "error: " + bad)


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
    # the last neighbour, 2M, would have one digit past the cap; the bit budget
    # refuses the list before any line of it is printed
    code, out, err = run("bp", "neighbours", "9" * MAX_INT_DIGITS + ":0", "2")
    assert (code, out, err) == (1, "", "error: refusing a neighbour list of 1306254 bits > 524288\n")


def test_class_literal_refusals_keep_their_cause(run):
    # a part's refusal by a cap reads as it does where a bare rational is parsed
    _, _, bare = run("bc", "op", "2", "1", "1e-20000000")
    code, out, err = run("bp", "distance", "1e-20000000:0", "1:0")
    assert bare == f"error: refusing a decimal exponent past {MAX_INT_DIGITS}\n"
    assert (code, out) == (1, "") and err == "error: bad class literal '1e-20000000:0': " + bare[7:]
    assert run("bp", "distance", "x:0", "1:0")[2] == "error: bad class literal 'x:0': bad rational literal 'x'\n"
    assert run("bp", "distance", "1:0:3", "1:0")[2] == "error: bad class literal '1:0:3'\n"


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


def test_ds_monodromy_has_no_cap_option(run):
    with pytest.raises(SystemExit) as e:
        run("ds", "monodromy", _dessin_arg(ds.UNIT), "--cap", "5")
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
        '{"site":"A","entries":[2,4],"extend":"no"}',
        '{"site":"A","entries":[2,4],"extend":1}',
        DEEP,
    ):
        code, out, err = run("pt", "project", bad)
        assert code == 1 and out == "" and err.startswith("error: "), bad
    # bool() read the string "no" as true, and the chain was extended
    a = json.dumps({"site": "A", "entries": [3]})
    assert run("pt", "tail", '{"site":"A","entries":[2,4],"extend":"no"}', a)[0] == 1
    assert run("pt", "tail", '{"site":"A","entries":[2,4],"extend":false}', a)[1] == "true\n"
    # site-A entries and generator degrees below 1 once answered or divided by zero
    for argv in (
        ("equiv", '{"site":"A","entries":[-2]}', '{"site":"A","entries":[2]}'),
        ("project", '{"site":"A","entries":[-6,12]}'),
        ("project", '{"site":"B","entries":[[0],[0,0]],"gen_degrees":[0]}'),
    ):
        code, out, err = run("pt", *argv)
        assert code == 1 and out == "" and err.startswith("error: ") and "Traceback" not in err, argv


def test_missing_json_fields_are_named(run):
    # a KeyError once printed the bare key, as in `error: 'alpha'`
    assert run("ds", "passport", '{"n":3}') == (1, "", "error: missing field 'alpha'\n")
    assert run("ds", "passport", "{}") == (1, "", "error: missing field 'n'\n")
    assert run("pt", "project", '{"entries":[2]}') == (1, "", "error: missing field 'site'\n")
    assert run("pt", "project", '{"site":"A"}') == (1, "", "error: missing field 'entries'\n")


@pytest.mark.parametrize("argv, message", [
    # each once iterated the string and named one character of it:
    # `bad letter 'P'`, `JSON field '2'` and `JSON field '0'`
    (("pt", "project", '{"site":"C","entries":["P[2,1]"]}'), "JSON field 'entries[0]' is not a list: 'P[2,1]'"),
    (("pt", "project", '{"site":"A","entries":"24"}'), "JSON field 'entries' is not a list: '24'"),
    (("pt", "project", '{"site":"B","entries":[[0],"00"],"gen_degrees":[2]}'),
     "JSON field 'entries[1]' is not a list: '00'"),
    (("pt", "project", '{"site":"B","entries":[[0]],"gen_degrees":"2"}'), "JSON field 'gen_degrees' is not a list: '2'"),
    (("ds", "passport", '{"n":3,"alpha":"012","beta":[0,1,2],"frame_black":0,"frame_white":0}'),
     "JSON field 'alpha' is not a list: '012'"),
])
def test_json_strings_are_not_lists(run, argv, message):
    assert run(*argv) == (1, "", f"error: {message}\n")


def test_chain_order_refusals_print_entries(run):
    # once Python reprs: (Letter(p=3, i=1),) !>= (Letter(p=2, i=0),) and (1,) !>= (0, 0)
    c = '{"site":"C","entries":[[[3,1]],[[2,0]]]}'
    assert run("pt", "equiv", c, '{"site":"C","entries":[[[3,1]]]}') == (
        1, "", "error: chain order violation: P[3,1] !>= P[2,0]\n")
    b = '{"site":"B","entries":[[1],[0,0]],"gen_degrees":[2]}'
    assert run("pt", "project", b) == (1, "", "error: chain order violation: [1] !>= [0, 0]\n")
    assert run("pt", "project", '{"site":"A","entries":[4,2]}') == (1, "", "error: chain order violation: 4 !>= 2\n")


@pytest.mark.parametrize("argv, message", [
    (("sn", "lcm", "4^2", "1"), "exception key 4 is not prime"),
    (("pt", "project", '{"site":"B","entries":[[5]],"gen_degrees":[2]}'), "generator index 5 out of range"),
    (("pt", "tail", '{"site":"A","entries":[2]}', '{"site":"C","entries":[[[2,0]]]}'),
     "chains live on different sites"),
    # two cycles each in alpha and beta make a tree of 3 edges, but it has 3 faces
    (("ds", "passport", '{"n":3,"alpha":[0,2,1],"beta":[0,2,1],"frame_black":0,"frame_white":0}'),
     "not of polynomial type"),
    # is_normal refuses the powers out of ascending order
    (("bc", "presheaf", "P[3,3]*P[2,2]", "5"), "word is not in normal form"),
])
def test_refusals_reached_from_the_cli(run, argv, message):
    assert run(*argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("letter", ["[2,1,3]", '"P2"', '{"p":2}', "[2,true]"])
def test_site_c_letters_are_read_by_conway(run, letter):
    # these once printed Python's unpacking errors, or `JSON field 'P' is not an integer`
    pair = repr(json.loads(letter))
    want = (1, "", f"error: bad letter {pair}: need [p, i] with integer p and i\n")
    chain = '{"site":"C","entries":[[%s]]}' % letter
    assert run("pt", "project", chain) == want
    assert run("pt", "tail", chain, '{"site":"C","entries":[[[2,0]]]}') == want
    assert run("cw", "normalize", f"[{letter}]") == want


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


def test_bit_budget_precedes_the_primality_test(run, monkeypatch):
    # a 4000-bit odd p is refused by the bit budget, with no primality test
    def forbidden(n):
        raise AssertionError("primality tested")

    monkeypatch.setattr(bp, "is_prime", forbidden)
    p = str(2**3999 + 1)
    for argv in (("bp", "neighbours", "1:0", p), ("bp", "ball-dot", "1:0", p, "--radius", "30")):
        code, out, err = run(*argv)
        assert (code, out) == (1, "") and err.startswith("error: refusing a ") and err.count("\n") == 1


def test_bit_totals_past_the_digit_cap_name_no_integer(run):
    # the total of (p + 1) neighbours of bits(p) each has more than MAX_INT_DIGITS
    # digits, though p itself does not: it is stated by its bit length
    code, out, err = run("bp", "neighbours", "1:0", "1" + "0" * 131069 + "1")
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: refusing a neighbour list of at least 2\^\d+ bits > 524288\n", err), err


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

# 7000 letters P[999999999989,0], a 126 KB argument over one 12-digit prime
BIG_PRIME = "*".join(["P[999999999989,0]"] * 7000)

# 200 letters P[1000003,1], a 3.6 KB argument; rho could not factor the
# quotient class's N, a power of 1000003
MILLION_200 = "*".join(["P[1000003,1]"] * 200)
MILLION_100 = "*".join(["P[1000003,1]"] * 100)


def _largest_primes_below(n: int, count: int, span: int) -> list[int]:
    """The count largest primes below n, ascending, by a sieve of [n - span, n)."""
    root = isqrt(n) + 1
    small = bytearray([1]) * root
    small[:2] = b"\0\0"
    for p in range(2, isqrt(root) + 1):
        if small[p]:
            small[p * p :: p] = bytes(len(range(p * p, root, p)))
    lo = n - span
    window = bytearray([1]) * span
    for p in range(2, root):
        if small[p]:
            window[-lo % p :: p] = bytes(len(range(-lo % p, span, p)))
    found = [lo + i for i in range(span) if window[i]]
    assert len(found) >= count
    return found[-count:]


# the 2000 largest primes below 10^12, and as one supernatural, a 26 KB argument
PRIMES_12 = _largest_primes_below(10**12, 2000, 80000)
SN_PRIMES = "*".join(map(str, PRIMES_12))


def _digits(n: int) -> str:
    """The decimal digits of n, past Python's default limit of 4300 on str()."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(old)


# 3^80000 + 2, 38 170 digits: no prime factor up to 10^6 but 59, and a
# cofactor past the primality test's bit cap
ROUGH = _digits(3**80000 + 2)


def _dessin_arg(d: ds.FramedDessin) -> str:
    """A dessin as one JSON argument without spaces."""
    return json.dumps(json.loads(ds.to_json(d)), separators=(",", ":"))


# the largest dessins that ds reads: a star, on which iso, equiv and auto do
# the most work, and an e_dessin with a large monodromy group; and a star one
# edge over the cap
STAR = ds.e_dessin(ds.MAX_EDGES, 0)
EDK = ds.e_dessin(ds.MAX_EDGES, ds.MAX_EDGES // 2)
OVER = ds.FramedDessin(ds.MAX_EDGES + 1, (*range(1, ds.MAX_EDGES + 1), 0), tuple(range(ds.MAX_EDGES + 1)), 0, 0)
S, E, O = _dessin_arg(STAR), _dessin_arg(EDK), _dessin_arg(OVER)
# B_{512,256}, the generator at the degree cap, and a 955-digit alpha
B512 = format_poly(belyi.b_dk(512, 256).poly)
B16 = format_poly(belyi.b_dk(16, 8).poly)
B32 = format_poly(belyi.b_dk(32, 16).poly)
B256 = format_poly(belyi.b_dk(256, 128).poly)
B2 = format_poly(belyi.b_dk(2, 1).poly)
THIRD_POWER = f"1/{3**2000}"
# a 30000-digit integer over another, 60 KB in all
RHO_Y = f"1{'0' * 29998}1/1{'0' * 29998}3"
ONES_CLASS = "1" * 100000 + "x:0"
# a class literal A/B:C/D of four random 30000-digit integers, 120 KB
_rng = random.Random(120)
BIG_CLASS = "{}/{}:{}/{}".format(*(_digits(_rng.randrange(10**29999, 10**30000)) for _ in range(4)))


def _chain_arg(site: str, entries, **fields) -> str:
    """A chain in compact JSON, which has no spaces for BOUNDED to split on."""
    return json.dumps({"site": site, "entries": entries, **fields}, separators=(",", ":"))


A_TWOS = _chain_arg("A", [2] * 20000)
A_ONES = _chain_arg("A", [1] * 19999 + [2])
C_TWOS = _chain_arg("C", [[[2, 1]]] * 40 + [[[2, 1], [2, 1]]], extend=True)
C_THREES = _chain_arg("C", [[[3, 1]]] * 40 + [[[3, 1], [3, 1]]], extend=True)
C_LONG_STEP = _chain_arg("C", [[], [[999999999989, 1]] * 500], extend=True)
# a 610-bit semiprime, past rho's bit cap
SEMIPRIME = (2**89 - 1) * (2**521 - 1)
A_SEMI_DOUBLE = _chain_arg("A", [SEMIPRIME, 2 * SEMIPRIME], extend=True)
A_SEMI = _chain_arg("A", [1, SEMIPRIME], extend=True)
A_SEMI_SQUARE = _chain_arg("A", [1, SEMIPRIME**2], extend=True)
B_ZEROS = _chain_arg("B", [[0]] * 19999 + [[0, 1]], gen_degrees=[2, 3], extend=True)
B_ONES = _chain_arg("B", [[1]] * 19999 + [[1, 0]], gen_degrees=[2, 3], extend=True)
B_STEP_ONE = _chain_arg("B", [[0]] * 19999 + [[0, 0]], gen_degrees=[2, 3], extend=True)
B_STEP_TWO = _chain_arg("B", [[0]] * 19999 + [[0, 0, 0]], gen_degrees=[2, 3], extend=True)

ARG_IDS = {
    S: f"<star of {STAR.n} edges>",
    E: f"<e_dessin of {EDK.n} edges>",
    O: f"<star of {OVER.n} edges>",
    SN_PRIMES: "<2000 primes>",
    ROUGH: "<3^80000+2>",
    B512: "<B_512,256>",
    B16: "<B_16,8>",
    B32: "<B_32,16>",
    B256: "<B_256,128>",
    THIRD_POWER: "<1/3^2000>",
    RHO_Y: "<(10^29999+1)/(10^29999+3)>",
    ONES_CLASS: "<10^5 ones>x:0",
    BIG_CLASS: "<A/B:C/D of 30000 digits each>",
    "9" * 50000: "<50000 nines>",
    A_TWOS: "<A: 2 x 20000>",
    A_ONES: "<A: 1 x 19999, 2>",
    C_TWOS: "<C: P[2,1] x 40, P[2,1]^2, extended>",
    C_THREES: "<C: P[3,1] x 40, P[3,1]^2, extended>",
    C_LONG_STEP: "<C: e, 500 letters, extended>",
    A_SEMI_DOUBLE: "<A: N, 2N, extended>",
    A_SEMI: "<A: 1, N, extended>",
    A_SEMI_SQUARE: "<A: 1, N^2, extended>",
    B_ZEROS: "<B: [0] x 19999, [0,1], extended>",
    B_ONES: "<B: [1] x 19999, [1,0], extended>",
    B_STEP_ONE: "<B: [0] x 19999, [0,0], extended>",
    B_STEP_TWO: "<B: [0] x 19999, [0,0,0], extended>",
}

# argv that once ran without bound or failed: each now answers within the
# alarm below, a refusal (stdout None) with exit 1 and an `error:` line, or
# exit 0 with the given stdout or, prefixed "sha256:", its digest.  A callable
# computes the library's stdout after the call, under the digit cap of main()
BOUNDED = [
    ("ds edk 100000000 1", None),
    ("by bdk 100000000 1", None),
    # every composite, up to degree 3^8, was built: over 11 s under the degree cap;
    # the words' values at one rational point differ
    ("by free -2*x^3+3*x^2 --maxlen 8", "true\n"),
    # conditions 3-5 hold by theorem: enumerating the level was refused past the bit budget
    ("bc cond3 100000000", '{"condition": 3, "n": 100000000, "ok": true}\n'),
    ("bc cond4 100000 100000", '{"condition": 4, "n": 100000, "M": 100000, "ok": true}\n'),
    ("bc cond5 999983 1000003", '{"condition": 5, "p": 999983, "q": 1000003, "ok": true, "cells": 999985999949}\n'),
    ("bc rho 1000003 1/3", None),
    ("bc presheaf P[2,1] 100000000", None),
    ("bp neighbours 1:0 1000003", None),
    ("bp ball-dot 1:0 2 3 5 7 --radius 50", None),
    # the count caps let these through: formatting 8 neighbours of 30000-digit
    # parts took 2.2 s, and a ball of 94 such classes 21 s and 34 MB
    (f"bp neighbours {BIG_CLASS} 7", None),
    (f"bp ball-dot {BIG_CLASS} 2 --radius 5", None),
    # counting the ball to radius 20 along a 50000-digit p took 2.8 s
    (f"bp ball-dot 1:0 {'9' * 50000} --radius 20", None),
    # the walk took each of the 2000 repeats of 2 in turn: 2.8 s
    (f"bp ball-dot 1:0 {' '.join(['2'] * 2000)} --radius 8", lambda: bp.ball_dot(bp.PIC_ONE, [2], 8) + "\n"),
    ("cw class2word 1/1000000007:0", "P[1000000007,0]\n"),
    # a composite past 10^12 with no prime factor up to 10^6 was refused;
    # Pollard-Brent rho splits it
    ("cw class2word 1/1000036000099:0", "P[1000003,0]*P[1000033,0]\n"),
    # trial division to 10^6 took 12 s before refusing the cofactor
    (f"sn chain {ROUGH}", None),
    # the quadratic rewriting engine took 58 s on this word; its stdout, which
    # the closed form reproduces, is pinned by its SHA-256
    (f"cw normalize {_long_word()}",
     "sha256:6bec529a189e3725359feb7dfdd472e6a8652e632192df23e25dc28ca75be60a"),
    (f"cw delta {SEVENS}", lambda: f"{cw.delta(cw.parse_word(SEVENS))}\n"),
    (f"cw word2class {SEVENS}", lambda: bp.format_class(cw.word_to_class(cw.parse_word(SEVENS))) + "\n"),
    # trial division of this prime took 70 ms for each of the 7000 letters
    (f"cw delta {BIG_PRIME}", lambda: f"{999999999989 ** 7000}\n"),
    # at 2000 edges monodromy took 22 s and equiv 4.6 s; compose builds
    # MAX_EDGES^2 edges
    (f"ds passport {O}", None),
    (f"ds compose {S} {E}", lambda: ds.to_json(ds.compose(STAR, EDK)) + "\n"),
    (f"ds iso {S} {S}", "true\n"),
    (f"ds equiv {S} {E}", "false\n"),
    (f"ds auto {S}", lambda: json.dumps([list(g) for g in sorted(ds.automorphisms(STAR))]) + "\n"),
    (f"ds monodromy {S}", f"{STAR.n}\n"),
    (f"ds monodromy {E}", "exceeds cap\n"),
    (f"ds passport {E}", lambda: json.dumps({"black": list(ds.passport(EDK).black), "white": list(ds.passport(EDK).white)}) + "\n"),
    (f"ds involution {E}", lambda: ds.to_json(ds.involution(EDK)) + "\n"),
    (f"ds dot {E}", lambda: ds.to_dot(EDK) + "\n"),
    # trial division tested each 12-digit prime in 79 ms, three times over
    (f"sn lcm {SN_PRIMES} {SN_PRIMES}", f"{SN_PRIMES}*[default=0]\n"),
    # each generator was factored, once per repeat: 3.6 s; a default of 0 needs no factors
    (f"sn open 2 {' '.join(['999999999989'] * 100)}", "false\n"),
    (f"sn open 2*{PRIMES_12[-1]} {' '.join(map(str, PRIMES_12[-100:]))}", "true\n"),
    # factoring n was refused, its cofactor past the primality test's bit cap
    (f"sn divides {ROUGH} 2^inf*3", "false\n"),
    # a finite positive default factored all of n, two 12-digit primes that rho
    # cannot split; the literal names them, and the cofactor is 1 or a prime
    (f"sn divides {PRIMES_12[-1] * PRIMES_12[-2]} {PRIMES_12[-1]}*{PRIMES_12[-2]}*[default=1]", "true\n"),
    (f"sn divides {PRIMES_12[-1] * PRIMES_12[-2]} {PRIMES_12[-1]}^2*[default=1]", "true\n"),
    # in_open did not pass the primes the literal names to divides, which
    # factored all of n: refused after 0.4 s, where sn divides said true
    ("sn open 999999999989*999999999961*[default=1] 999999999950000000000429", "true\n"),
    # applying the letters one by one took over 60 s; the value has 10^7 bits
    (f"bc presheaf {'*'.join(['P[2,1]'] * 1000)} 10000", None),
    # the count is psi(n), with no fiber built
    (f"bp fiber {2**200 * 3**5} --count", lambda: f"{bp.psi(2**200 * 3**5)}\n"),
    # the chain rule answers from the generators, with no composite of degree 3^1000000
    ("ar squarefree x^3 --alpha 0 --depth 1000000", "false\n"),
    # delta decides the quotient; factoring its N was refused
    (f"cw divide {MILLION_200} P[2,1]", "none\n"),
    (f"cw divide {MILLION_200} {MILLION_100}", f"{MILLION_100}\n"),
    # P(alpha) was evaluated exactly, at about q^d: 17.2 s and 5.7 s; q does
    # not divide the leading numerator, so no root can be alpha
    (f"ar generic {B512} --alpha 1e-2000", "true\n"),
    (f"ar generic {B512} --alpha {THIRD_POWER}", "true\n"),
    # the exact composite would have degree 8192: refused before it is built
    (f"by compose-count {B512} {B16}", None),
    # at the cap the gcd of the composite and its derivative took 0.05-0.08 s;
    # the count through the outer map's squarefree part takes a smaller one
    (f"by compose-count {B32} {B16}", "true\n"),
    (f"by compose-count {B2} {B256}", "true\n"),
    # Fraction built 10^20000000 before any cap: 35 s to refuse
    ("bc op 2 1 1e-20000000", None),
    ("bc rho 2 1e-20000000", None),
    # rho itself took 17 ms, but printing its 101 values of 10^5 bits each took 2.9 s
    (f"bc rho 101 {RHO_Y}", None),
    ("bp distance 1e-20000000:0 1:0", None),
    ("ar generic x --alpha 1e-20000000", None),
    # the literal grammar is unambiguous, so a failed match takes linear time
    (f"bp distance 1:0 {ONES_CLASS}", None),
    # a string-valued extend once read as true
    ('pt tail {"site":"A","entries":[2,4],"extend":"no"} {"site":"A","entries":[3]}', None),
    # interleaving tested every pair of entries (41 s); the deepest entries decide it
    (f"pt equiv {A_TWOS} {A_ONES}", "true\n"),
    # the tail search tested every pair of windows (3.5 s)
    (f"pt tail {C_TWOS} {C_THREES}", "false\n"),
    # the periodic tails were built: 20500 letters (2.8 s), and about 4*10^8
    # indices; the limits decide them, and steps [0] and [0,0] have one limit
    (f"pt tail {C_LONG_STEP} {C_LONG_STEP}", "true\n"),
    (f"pt tail {B_ZEROS} {B_ONES}", "false\n"),
    # the limits' supernatural numbers factored the 610-bit semiprime N; the
    # ratios' primes decide the tails
    (f'pt tail {A_SEMI_DOUBLE} {_chain_arg("A", [1, 2], extend=True)}', "true\n"),
    (f"pt tail {A_SEMI} {A_SEMI_SQUARE}", "true\n"),
    (f"pt tail {B_STEP_ONE} {B_STEP_TWO}", "true\n"),
]


def _bounded_id(argv: str) -> str:
    if len(argv) < 100:
        return argv
    group, verb, rest = argv.split(" ", 2)
    args = (a if len(a) < 100 else ARG_IDS.get(a, f"<{a.count('*') + 1} letters>") for a in rest.split())
    runs = [(a, len(list(same))) for a, same in itertools.groupby(args)]
    if len(runs) > 8:  # many distinct arguments
        runs = [*runs[:2], (f"<{len(runs) - 2} more>", 1)]
    return f"{group} {verb} {' '.join(f'<{a} x {k}>' if k > 2 else ' '.join([a] * k) for a, k in runs)}"


def _within_budget(run, argv: list[str], label: str):
    """run(*argv) under a 2 s alarm; past it, fail the test with a plain line.

    The alarm can fire inside a long integer operation, whose frames have no
    line numbers, and pytest cannot render that traceback.  So the timeout is
    caught, and the failure is raised without it.
    """

    def expire(signum, frame):
        raise TimeoutError

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(2)
    try:
        return run(*argv)
    except TimeoutError:
        pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    pytest.fail(f"{label} ran past its 2 s budget", pytrace=False)


@pytest.mark.parametrize("argv, want", BOUNDED, ids=[_bounded_id(a) for a, _ in BOUNDED])
def test_bounded_time(run, argv, want):
    code, out, err = _within_budget(run, argv.split(), _bounded_id(argv))
    if callable(want):
        want = want()
    if want is None:
        assert code == 1 and out == "" and err.startswith("error: ") and "Traceback" not in err
    elif want.startswith("sha256:"):
        assert (code, "sha256:" + hashlib.sha256(out.encode()).hexdigest(), err) == (0, want, "")
    else:
        assert (code, out, err) == (0, want, "")


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_lines() -> list[str]:
    """The `arithsite ...` lines of the sh block under `## CLI` in README.md."""
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("arithsite ")]


def _expand(run, arg: str) -> str:
    """arg, or the stdout of the call when arg is `$(arithsite ...)`."""
    m = re.fullmatch(r"\$\((arithsite .*)\)", arg)
    if m is None:
        return arg
    code, out, _ = run(*shlex.split(m.group(1))[1:])
    assert code == 0, arg
    return out.rstrip("\n")


def test_readme_examples(run):
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    for line in lines:
        argv = [_expand(run, a) for a in shlex.split(line, comments=True)[1:]]
        code, out, err = run(*argv)
        assert code == 0 and "Traceback" not in err, line
        comment = re.search(r"\s#\s*(.*)$", line)
        if comment and " " not in comment.group(1):
            assert out == comment.group(1) + "\n", line


CAP = re.compile(r"MAX_\w+|TRIAL_BOUND|PSI_13")


def _readme_caps() -> dict[str, int]:
    """Each `NAME` = value of README's list of caps, with 10^4 read as 10**4."""
    text = README.read_text().split("Work that grows without bound is capped", 1)[1].split("\n## ", 1)[0]
    caps = {}
    for name, value in re.findall(r"`(\w+)`\s*=\s*(\d[\d *^]*\d|\d)", text):
        if CAP.fullmatch(name):
            caps[name] = prod(int(b) ** int(e or 1) for b, _, e in (f.partition("^") for f in value.split("*")))
    return caps


def test_readme_lists_every_cap():
    src = {}
    for path in sorted(Path(SRC, "arithsite").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for t in stmt.targets if isinstance(stmt, ast.Assign) else ():
                if isinstance(t, ast.Name) and CAP.fullmatch(t.id):
                    src[t.id] = getattr(importlib.import_module(f"arithsite.{path.stem}"), t.id)
    assert len(src) >= 13
    assert _readme_caps() == src


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


# the probes import nothing that a call might load, so json and fractions count
IMPORT_PROBE = """\
import sys
import arithsite.cli as cli
code = cli.main(sys.argv[1:])
print(sorted(sys.modules))
sys.exit(code)
"""
# the modules of a bare interpreter: `site` loads different ones on different
# machines, so a call's modules are read against these
BARE_PROBE = "import sys; print(sorted(sys.modules))"
NUMPY_PROBE = BARE_PROBE.replace("sys;", "sys, numpy;")


@functools.cache
def _probe(*args) -> frozenset[str]:
    """The modules that `python -c args...` prints, with src on the path."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", *args], capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return frozenset(ast.literal_eval(proc.stdout.splitlines()[-1]))


def _loaded_modules(argv) -> frozenset[str]:
    """The modules that one fresh CLI call loads beyond a bare interpreter."""
    return _probe(IMPORT_PROBE, *argv) - _probe(BARE_PROBE)


CALLS = [
    ["bp", "psi", "6"],
    ["cw", "normalize", "P[3,1]*P[2,0]"],
    ["sn", "chain", "2", "4"],
    ["ds", "edk", "3", "1"],
    ["by", "beta", "-2*x^3+3*x^2", "--word"],
    ["bc", "presheaf", "P[2,1]", "3"],
    ["pt", "project", '{"site":"A","entries":[2,4]}'],
    ["ar", "generic", "-2*x^3+3*x^2", "--alpha", "1/2"],
    ["ar", "squarefree", "-2*x^3+3*x^2", "--alpha", "1/2", "--depth", "2"],
    ["ar", "tree", "-2*x^3+3*x^2", "--alpha", "1/2", "--depth", "2"],
    ["ar", "dot", "-2*x^3+3*x^2", "--alpha", "1/2", "--depth", "2"],
]
NUMERIC = (["ar", "tree"], ["ar", "dot"])


@pytest.mark.parametrize("argv", CALLS)
def test_only_ar_imports_numpy(argv):
    # the exact ar verbs, generic and squarefree, load no numpy either
    assert ("numpy" in _loaded_modules(argv)) == (argv[:2] in NUMERIC)


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_no_call_imports_dataclasses_or_inspect(argv):
    loaded = _loaded_modules(argv)
    if argv[:2] in NUMERIC:  # numpy imports inspect itself
        loaded -= _probe(NUMPY_PROBE)
    assert not {"dataclasses", "inspect"} & loaded


@pytest.mark.parametrize("argv", [a for a in CALLS if a[0] in ("bp", "cw", "sn", "ds", "bc", "pt")], ids=" ".join)
def test_exact_groups_skip_the_polynomial_kernel(argv):
    assert "arithsite.ratpoly" not in _loaded_modules(argv)


def test_sn_imports_its_modules_only():
    want = {"arithsite", "arithsite.cli", "arithsite.supernatural", "arithsite.primes"}
    loaded = _loaded_modules(["sn", "chain", "2", "4"])
    assert {m for m in loaded if m.startswith("arithsite")} == want
    # cli imports json and fractions only for the handlers that use them
    assert not {"json", "fractions"} & loaded
    assert "json" not in _loaded_modules(["bp", "fiber", "12", "--count"])


@pytest.mark.parametrize("argv", [
    ["by", "bdk", "3", "1"],
    ["by", "check", "-2*x^3+3*x^2"],
    ["ar", "tree", "-2*x^3+3*x^2", "--alpha", "1/2", "--depth", "2"],
], ids=" ".join)
def test_polynomial_verbs_skip_the_rewriting_modules(argv):
    # belyi loads conway and bigpicture only inside the morphisms to those sites
    assert not {"arithsite.conway", "arithsite.bigpicture"} & _loaded_modules(argv)


def test_pt_does_not_import_dessins():
    a = json.dumps({"site": "A", "entries": [2, 4, 8]})
    assert "arithsite.dessins" not in _loaded_modules(["pt", "tail", a, a])


# One golden call of each verb, with the arithsite modules (short names, past
# arithsite and cli), json and numpy that it loaded when cli still imported a
# whole group's modules in a hand-kept table.  The handles load the same sets,
# except that belyi, which keeps the passport law itself, loads no dessins and
# so no json: a by verb loads json only through conway, an ar verb through arboreal.
_BP = "bigpicture literals primes"
_CW = f"{_BP} conway json"
_DS = "dessins literals json"
_BY = "belyi literals ratpoly"
_AR = f"{_BY} arboreal json"
_D1 = '{"n":1,"alpha":[0],"beta":[0],"frame_black":0,"frame_white":0}'
VERB_IMPORTS = [
    (["bp", "distance", "1:0", "1:1/2"], _BP),
    (["bp", "neighbours", "2/2:2/2", "2"], _BP),
    (["bp", "fiber", "1"], _BP),
    (["bp", "psi", "3"], _BP),
    (["bp", "ball-dot", "20/12:-1/3", "2"], _BP),
    (["cw", "normalize", "e"], _CW),
    (["cw", "mul", "e", "P[5,0]*P[7,4]"], _CW),
    (["cw", "word2class", "e"], _CW),
    (["cw", "class2word", "1:1/2"], _CW),
    (["cw", "delta", "e"], _CW),
    (["cw", "divide", "P[5,1]", "e"], _CW),
    (["sn", "chain", "1"], "primes supernatural"),
    (["sn", "equiv", "1", "1"], "primes supernatural"),
    (["sn", "divides", "1", "1"], "primes supernatural"),
    (["sn", "lcm", "1", "1"], "primes supernatural"),
    (["sn", "open", "1", "1"], "primes supernatural"),
    (["ds", "passport", _D1], _DS),
    (["ds", "compose", _D1, _D1], _DS),
    (["ds", "iso", _D1, _D1], _DS),
    (["ds", "equiv", _D1, _D1], _DS),
    (["ds", "auto", _D1], _DS),
    (["ds", "involution", _D1], _DS),
    (["ds", "dot", _D1], _DS),
    (["ds", "monodromy", _D1], _DS),
    (["ds", "edk", "5", "4"], _DS),
    (["by", "bdk", "3", "1"], _BY),
    (["by", "check", "x"], _BY),
    (["by", "beta", "-x^2+2*x", "--word"], f"{_BY} bigpicture conway primes json"),
    (["by", "triangle", "x"], _BY),
    (["by", "compose-count", "x", "x"], _BY),
    (["by", "free", "x"], f"{_BY} primes"),
    (["bc", "cond3", "3"], f"{_CW} bostconnes"),
    (["bc", "cond4", "9", "8"], f"{_CW} bostconnes"),
    (["bc", "cond5", "7", "3"], f"{_CW} bostconnes"),
    (["bc", "op", "7", "0", "6/4"], f"{_CW} bostconnes"),
    (["bc", "rho", "1", "1e-3"], f"{_CW} bostconnes"),
    (["bc", "presheaf", "e", "1"], f"{_CW} bostconnes"),
    (["ar", "generic", "x^5", "--alpha", "1/6"], _AR),
    (["ar", "squarefree", "x^6", "--alpha", "0", "--depth", "3"], _AR),
    (["ar", "tree", "x^2", "--alpha", "1/2", "--depth", "3"], f"{_AR} kernels numpy"),
    (["ar", "dot", "x^2", "--alpha", "1/8", "--depth", "4"], f"{_AR} kernels numpy"),
    (["pt", "equiv", '{"site":"A","entries":[1,2],"extend":true}', '{"site":"A","entries":[4,8],"extend":false}'],
     f"{_CW} points supernatural"),
    (["pt", "tail", '{"site":"A","entries":[2,4,8]}', '{"site":"A","entries":[12,24]}'], f"{_CW} points supernatural"),
    (["pt", "project", '{"site":"A","entries":[2,2],"extend":false}'], f"{_CW} points supernatural"),
]


def _pinned(loaded) -> set[str]:
    return {m.removeprefix("arithsite.") for m in loaded if m.startswith("arithsite.") or m in ("json", "numpy")}


def test_verb_imports_cover_every_verb():
    assert sorted(" ".join(argv[:2]) for argv, _ in VERB_IMPORTS) == sorted(
        f"{group} {verb}" for group, (_, _, verbs) in cli.GROUPS.items() for verb in verbs)


@pytest.mark.parametrize("argv, want", VERB_IMPORTS, ids=[" ".join(argv[:2]) for argv, _ in VERB_IMPORTS])
def test_each_verb_loads_its_modules(argv, want):
    assert _pinned(_loaded_modules(argv)) == {"cli", *want.split()}


def test_by_beta_loads_conway_only_for_the_word():
    # the class alone reads bigpicture; the table loaded conway for every by beta
    assert _pinned(_loaded_modules(["by", "beta", "-x^2+2*x"])) == {"cli", "bigpicture", "primes", *_BY.split()}


def test_cli_imports_arithsite_modules_only_through_its_handles():
    tree = ast.parse(Path(cli.__file__).read_text())
    submodules = {p.stem for p in Path(cli.__file__).parent.glob("*.py")} - {"__init__"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("arithsite") for a in node.names), ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("arithsite")):
            # only names of the package itself, such as MAX_INT_DIGITS
            assert node.module in (None, "arithsite"), ast.unparse(node)
            assert not {a.name for a in node.names} & submodules, ast.unparse(node)
    handles = [n.args[0].value for n in ast.walk(tree)
               if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_Lazy"]
    assert {h.removeprefix("arithsite.") for h in handles if h.startswith("arithsite.")} <= submodules


def _fresh(*argv) -> tuple[int, str]:
    """The exit code and stdout of `python argv...`, with src on the path."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path, COLUMNS="80"))
    return proc.returncode, proc.stdout


def test_importtime_logs_the_handlers_module():
    # cli's handles import through __import__, whose imports -X importtime logs
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "arithsite.cli", "by", "bdk", "3", "1"],
                          capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stdout) == (0, "-2*x^3+3*x^2\n")
    assert re.search(r"^import time:.*\|\s*arithsite\.belyi$", proc.stderr, re.M), proc.stderr


OO_CALLS = [
    ["bp", "distance", "1:0", "1:1/2"],
    ["cw", "normalize", "P[3,1]*P[2,0]"],
    ["sn", "lcm", "2^3*2", "3"],
    ["ds", "passport", _D1],
    ["by", "bdk", "3", "1"],
    ["bc", "cond4", "9", "8"],
    ["ar", "generic", "x^5", "--alpha", "1/6"],
    ["pt", "project", '{"site":"A","entries":[2,4]}'],
    ["by", "free", "x", "--maxlen", "-1"],
    ["by", "bdk", "3"],
]


@pytest.mark.parametrize("argv", OO_CALLS, ids=" ".join)
def test_cli_runs_without_docstrings(argv):
    # python -OO drops every docstring, cli's own too
    assert _fresh("-OO", "-m", "arithsite.cli", *argv) == _fresh("-m", "arithsite.cli", *argv)


def test_help_without_docstrings_drops_only_the_description():
    code, out = _fresh("-m", "arithsite.cli", "-h")
    usage, description, *rest = out.split("\n\n")
    assert code == 0 and description.startswith("Command-line front end")
    assert _fresh("-OO", "-m", "arithsite.cli", "-h") == (0, "\n\n".join([usage, *rest]))


# ---------------------------------------------------------------------------
# Fuzz: every verb, on valid shapes mixed with huge, negative, non-integer and
# malformed values
# ---------------------------------------------------------------------------


def _mostly(valid, hostile):
    """valid three times in four, else hostile."""
    return st.integers(0, 3).flatmap(lambda r: valid if r else hostile)


def _ints(lo: int, hi: int):
    return _mostly(st.integers(lo, hi).map(str), st.sampled_from(
        ["0", "-1", "-7", "1.5", "1e3", "", "x", "0x10", str(10**40 + 1), str(2**521 - 1), "9" * 5000]))


_FRACS = _mostly(
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-9, 30), st.integers(1, 30)),
    st.sampled_from(["x", "1/0", "1e-3", "-", "-1/3", "1", f"1/{10**60 + 7}", "7" * 2000, "1e-20000000"]),
)
_CLASSES = _mostly(
    st.builds(lambda a, b, r: f"{a}/{b}:{r}", st.integers(1, 30), st.integers(1, 30), _FRACS),
    st.sampled_from(["junk", "1:", ":0", "0:0", "-1:0", "-1/2:0", "1/0:0", "1:2:3", f"{10**30}:1/{10**30 + 1}"]),
)
_LETTER = st.sampled_from((2, 3, 5, 7, 11)).flatmap(lambda p: st.integers(0, p).map(lambda i: f"P[{p},{i}]"))
_WORDS = _mostly(
    st.one_of(
        st.lists(_LETTER, max_size=8).map(lambda ls: "*".join(ls) or "e"),
        # long one-prime words, up to 36 KB, heaviest first; at 126 KB `cw mul`,
        # `divide` and `word2class` still run past the budget
        st.builds(lambda p, i, n: "*".join([f"P[{p},{i}]"] * n),
                  st.sampled_from((999999999989, 2)), st.sampled_from((1, 0)), st.sampled_from((2000, 500))),
    ),
    st.sampled_from(["P[4,1]", "P[2,3]", "P[2,-1]", "P[2]", "P[,]", "Q[2,1]", "[[2,1.5]]", '[["2",1]]', "[5]",
                     "[[2,1,0]]", "{}", "[" * 50, f"P[{2**521 - 1},0]"]),
)
_SUPERNATURALS = _mostly(
    st.lists(st.tuples(st.sampled_from(("2", "3", "5", "7", "11")), st.sampled_from(("", "^2", "^inf"))),
             max_size=4, unique_by=lambda t: t[0]).map(lambda ts: "*".join(p + e for p, e in ts) or "1"),
    # and the 2000 largest primes below 10^12
    st.sampled_from(["2*[default=inf]", "2^x", "4", "2*2", "^3", "2^-1", "0", "", "[default=-1]",
                     "2^99999999999", SN_PRIMES]),
)
_POLYS = _mostly(
    st.builds(lambda d, k: format_poly(belyi.b_dk(d, min(k, d - 1)).poly), st.integers(2, 6), st.integers(0, 5)),
    st.sampled_from(["x", "x^2", "x^3-x", "x^", "2*y", "x^-1", "x^1000000", "1/0*x", "--x", "", "1",
                     "x^" + "1" * 100, "1/4*x^3-3/2*x^2+9/4*x"]),
)
_DESSINS = _mostly(
    st.builds(lambda d, k: _dessin_arg(ds.e_dessin(d, min(k, d - 1))), st.integers(1, 8), st.integers(0, 7)),
    st.sampled_from(["[1,2]", '"x"', "{}", '{"n":3}', "[" * 1000,
                     '{"n":2,"alpha":[0,1],"beta":[0,1],"frame_black":0,"frame_white":0}',
                     '{"n":1,"alpha":[0],"beta":[0],"frame_black":5,"frame_white":0}',
                     '{"n":-1,"alpha":[],"beta":[],"frame_black":0,"frame_white":0}']),
)
_CHAINS = _mostly(
    st.one_of(
        st.builds(lambda es, ext: json.dumps({"site": "A", "entries": es, "extend": ext}),
                  st.lists(st.integers(1, 50), max_size=5), st.booleans()),
        st.builds(lambda ws, ext: json.dumps({"site": "C", "entries": ws, "extend": ext}),
                  st.lists(st.lists(st.tuples(st.sampled_from((2, 3)), st.integers(0, 2)), max_size=3), max_size=3),
                  st.booleans()),
        st.builds(lambda es, ext: json.dumps({"site": "B", "entries": es, "gen_degrees": [2, 3], "extend": ext}),
                  st.lists(st.lists(st.integers(0, 1), max_size=3), max_size=3), st.booleans()),
    ),
    st.sampled_from(['{"site":"C","entries":[[[4,0]]]}', '{"site":"B","entries":[[0],[0,0]],"gen_degrees":[0]}',
                     '{"site":"A","entries":[-2]}', '{"site":"A","entries":[2.5,4]}', '{"site":"Z","entries":[]}',
                     '{"site":"A","entries":[2,4],"extend":"no"}',
                     "[1]", "{}", ""]),
)


def _flag(name: str, values=None):
    """An optional flag: absent, or present (with a value drawn from values)."""
    present = st.just([name]) if values is None else values.map(lambda v: [name, v])
    return st.one_of(st.just([]), present)


def _required(name: str, values):
    """A required option: present three times in four."""
    return _mostly(values.map(lambda v: [name, v]), st.just([]))


def _many(strategy, max_size: int = 4):
    """One or more values (nargs="+"), else none, a usage error."""
    return _mostly(st.lists(strategy, min_size=1, max_size=max_size), st.just([]))


_AR = [_many(_POLYS, 2), _required("--alpha", _FRACS), _required("--depth", _ints(0, 3))]
# ar squarefree reads the generators' counts, not a composite, at any depth
_AR_SQUAREFREE = [*_AR[:2], _required("--depth", _ints(0, 10**9))]
_GRAMMAR = {
    ("bp", "distance"): [_CLASSES, _CLASSES],
    ("bp", "neighbours"): [_CLASSES, _ints(0, 40)],
    ("bp", "fiber"): [_ints(0, 400), _flag("--count")],
    ("bp", "psi"): [_ints(0, 5000)],
    ("bp", "ball-dot"): [_CLASSES, _many(_ints(0, 12)), _flag("--radius", _ints(0, 4))],
    ("cw", "normalize"): [_WORDS],
    ("cw", "mul"): [_WORDS, _WORDS],
    ("cw", "word2class"): [_WORDS],
    ("cw", "class2word"): [_CLASSES],
    ("cw", "delta"): [_WORDS],
    ("cw", "divide"): [_WORDS, _WORDS],
    ("sn", "chain"): [_many(_ints(1, 100)), _flag("--limit")],
    ("sn", "equiv"): [_SUPERNATURALS, _SUPERNATURALS],
    ("sn", "divides"): [_SUPERNATURALS, _SUPERNATURALS],
    ("sn", "lcm"): [_SUPERNATURALS, _SUPERNATURALS],
    ("sn", "open"): [_SUPERNATURALS, _many(_ints(1, 100))],
    ("ds", "passport"): [_DESSINS],
    ("ds", "compose"): [_DESSINS, _DESSINS],
    ("ds", "iso"): [_DESSINS, _DESSINS],
    ("ds", "equiv"): [_DESSINS, _DESSINS],
    ("ds", "auto"): [_DESSINS],
    ("ds", "involution"): [_DESSINS],
    ("ds", "dot"): [_DESSINS],
    ("ds", "monodromy"): [_DESSINS],
    ("ds", "edk"): [_ints(0, 10), _ints(0, 10)],
    ("by", "bdk"): [_ints(0, 40), _ints(0, 40)],
    ("by", "check"): [_POLYS],
    ("by", "beta"): [_POLYS, _flag("--word")],
    ("by", "triangle"): [_POLYS],
    ("by", "compose-count"): [_POLYS, _POLYS],
    ("by", "free"): [_many(_POLYS), _flag("--maxlen", _ints(0, 3))],
    ("bc", "cond3"): [_ints(0, 200)],
    ("bc", "cond4"): [_ints(0, 20), _ints(0, 20)],
    ("bc", "cond5"): [_ints(0, 40), _ints(0, 40)],
    ("bc", "op"): [_ints(0, 12), _ints(0, 12), _FRACS],
    ("bc", "rho"): [_ints(0, 40), _FRACS],
    ("bc", "presheaf"): [_WORDS, _ints(0, 50)],
    ("ar", "generic"): [_many(_POLYS, 2), _required("--alpha", _FRACS)],
    ("ar", "squarefree"): _AR_SQUAREFREE,
    ("ar", "tree"): _AR,
    ("ar", "dot"): _AR,
    ("pt", "equiv"): [_CHAINS, _CHAINS],
    ("pt", "tail"): [_CHAINS, _CHAINS],
    ("pt", "project"): [_CHAINS],
}


def _flatten(parts) -> list[str]:
    out = []
    for part in parts:
        out += part if isinstance(part, list) else [part]
    return out


_NOISE = st.sampled_from([(), (), (), (), ("--bogus",), ("extra",), ("-h",)])


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The subparsers of parser under their first names, without aliases."""
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    out = {}
    for name, sub in action.choices.items():
        if sub not in out.values():
            out[name] = sub
    return out


def test_fuzz_grammar_covers_every_verb():
    verbs = {(g, v) for g, sub in _subcommands(build_parser()).items() for v in _subcommands(sub)}
    assert verbs == set(_GRAMMAR)


# the argparse tree of `arithsite`, in order: per group its aliases and help,
# per verb each argument's option strings (or dest), nargs, type, required and default;
# a string argument's type takes off the space that marks a leading-minus literal
STR, INT, FLAG = (None, cli._literal, True, None), (None, int, True, None), (0, None, False, False)
MANY, MANY_INT = ("+", cli._literal, True, None), ("+", int, True, None)
_AR_SURFACE = [("polys", *MANY), (("--alpha",), None, cli._literal, True, None), (("--depth",), None, int, True, None)]
SURFACE = {
    "bp": (["bigpicture"], "big picture classes", {
        "distance": [("x", *STR), ("y", *STR)],
        "neighbours": [("x", *STR), ("p", *INT)],
        "fiber": [("n", *INT), (("--count",), *FLAG)],
        "psi": [("n", *INT)],
        "ball-dot": [("x", *STR), ("primes", *MANY_INT), (("--radius",), None, int, False, 1)],
    }),
    "cw": (["conway"], "Conway monoid words", {
        "normalize": [("word", *STR)],
        "mul": [("w1", *STR), ("w2", *STR)],
        "word2class": [("word", *STR)],
        "class2word": [("x", *STR)],
        "delta": [("word", *STR)],
        "divide": [("y", *STR), ("x", *STR)],
    }),
    "sn": (["supernatural"], "supernatural numbers", {
        "chain": [("entries", *MANY_INT), (("--limit",), *FLAG)],
        "equiv": [("s", *STR), ("t", *STR)],
        "divides": [("n", *STR), ("s", *STR)],
        "lcm": [("s", *STR), ("t", *STR)],
        "open": [("s", *STR), ("generators", *MANY_INT)],
    }),
    "ds": (["dessins"], "framed tree dessins", {
        "passport": [("d", *STR)],
        "compose": [("d", *STR), ("d2", *STR)],
        "iso": [("d", *STR), ("d2", *STR)],
        "equiv": [("d", *STR), ("d2", *STR)],
        "auto": [("d", *STR)],
        "involution": [("d", *STR)],
        "dot": [("d", *STR)],
        "monodromy": [("d", *STR)],
        "edk": [("d", *INT), ("k", *INT)],
    }),
    "by": (["belyi"], "dynamical Belyi polynomials", {
        "bdk": [("d", *INT), ("k", *INT)],
        "check": [("poly", *STR)],
        "beta": [("poly", *STR), (("--word",), *FLAG)],
        "triangle": [("poly", *STR)],
        "compose-count": [("poly", *STR), ("poly2", *STR)],
        "free": [("polys", *MANY), (("--maxlen",), None, int, False, 2)],
    }),
    "bc": (["bostconnes"], "Bost-Connes checks", {
        "cond3": [("n", *INT)],
        "cond4": [("n", *INT), ("m", *INT)],
        "cond5": [("p", *INT), ("q", *INT)],
        "op": [("p", *INT), ("i", *INT), ("x", *STR)],
        "rho": [("p", *INT), ("x", *STR)],
        "presheaf": [("word", *STR), ("level", *INT)],
    }),
    "ar": (["arboreal"], "preimage trees", {
        "generic": _AR_SURFACE[:2],
        "squarefree": _AR_SURFACE,
        "tree": _AR_SURFACE,
        "dot": _AR_SURFACE,
    }),
    "pt": (["points"], "points of the localic covers", {
        "equiv": [("c1", *STR), ("c2", *STR)],
        "tail": [("c1", *STR), ("c2", *STR)],
        "project": [("c", *STR)],
    }),
}


def _surface(parser: argparse.ArgumentParser) -> dict:
    """Per group its aliases, help and verbs, each verb's arguments by option
    strings (or dest), nargs, type, required and default; {} for a group built
    without its verbs."""
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {c.dest: c.help for c in action._choices_actions}
    surface = {}
    for name, group in _subcommands(parser).items():
        aliases = [n for n, g in action.choices.items() if g is group and n != name]
        verbs = _subcommands(group) if any(isinstance(a, argparse._SubParsersAction) for a in group._actions) else {}
        surface[name] = (aliases, helps[name], {
            verb: [(tuple(a.option_strings) or a.dest, a.nargs, a.type, a.required, a.default)
                   for a in p._actions if not isinstance(a, argparse._HelpAction)]
            for verb, p in verbs.items()
        })
    return surface


def test_parser_surface():
    # the verb-name check above misses a dropped type, default or alias
    surface = _surface(build_parser())
    assert surface == SURFACE
    # the order of groups and verbs is the order of the usage lines
    assert [(g, list(v[2])) for g, v in surface.items()] == [(g, list(v[2])) for g, v in SURFACE.items()]


@pytest.mark.parametrize("name", [n for g, (aliases, _, _) in SURFACE.items() for n in (g, *aliases)])
def test_parser_surface_of_one_group(monkeypatch, capsys, name):
    # main builds the verbs of argv[0]'s group alone: that group's surface and
    # help match the full parser's, and the other groups keep name, alias and help
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda *a: built.append(build_parser(*a)) or built[-1])
    with pytest.raises(SystemExit) as e:
        main([name, "-h"])
    assert e.value.code == 0
    group = next(g for g, (aliases, _, _) in SURFACE.items() if name in (g, *aliases))
    want = {g: (a, h, verbs if g == group else {}) for g, (a, h, verbs) in SURFACE.items()}
    surface = _surface(built[0])
    assert surface == want and list(surface) == list(want)
    assert [list(v[2]) for v in surface.values()] == [list(v[2]) for v in want.values()]
    one_help = capsys.readouterr().out
    with pytest.raises(SystemExit):
        build_parser().parse_args([name, "-h"])
    assert capsys.readouterr().out == one_help


def _argv_label(argv) -> str:
    return " ".join(a if len(a) <= 60 else f"<{len(a)} characters>" for a in argv)


@pytest.mark.parametrize("verb", sorted(_GRAMMAR), ids=" ".join)
@settings(max_examples=10, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_cli_fuzz(capsys, verb, data):
    # every call exits 0, 1 or 2 within the budget, and never with a traceback
    def run(*args):
        try:
            code = main(list(args))
        except SystemExit as e:  # argparse, in process
            code = e.code
        out = capsys.readouterr()
        return code, out.out, out.err

    argv = [*verb, *_flatten(data.draw(st.tuples(*_GRAMMAR[verb]))), *data.draw(_NOISE)]
    label = _argv_label(argv)
    code, out, err = _within_budget(run, argv, label)
    assert code in (0, 1, 2) and "Traceback" not in err, label
    if code == 0:
        assert err == "", label
    elif code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, label
    else:
        assert out == "" and "usage:" in err, label
