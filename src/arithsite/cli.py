"""Command-line front end: subcommand groups mirror the library modules.

All numeric I/O is exact (rationals as p/q) except the complex values of the
preimage trees.  Exit codes: 0 ok, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

# Python refuses int <-> str conversions of more than 4300 digits by default.
# This cap admits every integer that one argument can spell (Linux limits an
# argv string to 128 KiB); printing an integer this long takes about 0.3 s.
MAX_INT_DIGITS = 131072
MAX_ERROR_CHARS = 200  # error messages may echo a whole 128 KiB argument


def _print_bool(v: bool) -> None:
    print("true" if v else "false")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="arithsite", description=__doc__)
    sub = ap.add_subparsers(dest="group", required=True)

    g = sub.add_parser("bp", aliases=["bigpicture"], help="big picture classes")
    g.set_defaults(run=_run_bp)
    s = g.add_subparsers(dest="verb", required=True)
    p = s.add_parser("distance")
    p.add_argument("x")
    p.add_argument("y")
    p = s.add_parser("neighbours")
    p.add_argument("x")
    p.add_argument("p", type=int)
    p = s.add_parser("fiber")
    p.add_argument("n", type=int)
    p.add_argument("--count", action="store_true")
    p = s.add_parser("psi")
    p.add_argument("n", type=int)
    p.add_argument("--proj", action="store_true", help="count P^1(Z/n) orbits instead")
    p = s.add_parser("ball-dot")
    p.add_argument("x")
    p.add_argument("primes", type=int, nargs="+")
    p.add_argument("--radius", type=int, default=1)

    g = sub.add_parser("cw", aliases=["conway"], help="Conway monoid words")
    g.set_defaults(run=_run_cw)
    s = g.add_subparsers(dest="verb", required=True)
    p = s.add_parser("normalize")
    p.add_argument("word")
    p = s.add_parser("mul")
    p.add_argument("w1")
    p.add_argument("w2")
    p = s.add_parser("word2class")
    p.add_argument("word")
    p = s.add_parser("class2word")
    p.add_argument("x")
    p = s.add_parser("delta")
    p.add_argument("word")
    p = s.add_parser("divide")
    p.add_argument("y")
    p.add_argument("x")

    g = sub.add_parser("sn", aliases=["supernatural"], help="supernatural numbers")
    g.set_defaults(run=_run_sn)
    s = g.add_subparsers(dest="verb", required=True)
    p = s.add_parser("chain")
    p.add_argument("entries", type=int, nargs="+")
    p.add_argument("--limit", action="store_true")
    p = s.add_parser("equiv")
    p.add_argument("s")
    p.add_argument("t")
    p = s.add_parser("divides")
    p.add_argument("n")
    p.add_argument("s")
    p = s.add_parser("lcm")
    p.add_argument("s")
    p.add_argument("t")
    p = s.add_parser("open")
    p.add_argument("s")
    p.add_argument("generators", type=int, nargs="+")

    g = sub.add_parser("ds", aliases=["dessins"], help="framed tree dessins")
    g.set_defaults(run=_run_ds)
    s = g.add_subparsers(dest="verb", required=True)
    for verb, args in (
        ("passport", ["d"]),
        ("compose", ["d", "d2"]),
        ("iso", ["d", "d2"]),
        ("equiv", ["d", "d2"]),
        ("auto", ["d"]),
        ("involution", ["d"]),
        ("dot", ["d"]),
    ):
        p = s.add_parser(verb)
        for a in args:
            p.add_argument(a)
    p = s.add_parser("monodromy")
    p.add_argument("d")
    p.add_argument("--cap", type=int, default=100000)
    p = s.add_parser("edk")
    p.add_argument("d", type=int)
    p.add_argument("k", type=int)

    g = sub.add_parser("by", aliases=["belyi"], help="dynamical Belyi polynomials")
    g.set_defaults(run=_run_by)
    s = g.add_subparsers(dest="verb", required=True)
    p = s.add_parser("bdk")
    p.add_argument("d", type=int)
    p.add_argument("k", type=int)
    p = s.add_parser("check")
    p.add_argument("poly")
    p = s.add_parser("beta")
    p.add_argument("poly")
    p.add_argument("--word", action="store_true")
    p = s.add_parser("triangle")
    p.add_argument("poly")
    p = s.add_parser("compose-count")
    p.add_argument("poly")
    p.add_argument("poly2")
    p = s.add_parser("free")
    p.add_argument("polys", nargs="+")
    p.add_argument("--maxlen", type=int, default=2)

    g = sub.add_parser("bc", aliases=["bostconnes"], help="Bost-Connes checks")
    g.set_defaults(run=_run_bc)
    s = g.add_subparsers(dest="verb", required=True)
    p = s.add_parser("cond3")
    p.add_argument("n", type=int)
    p = s.add_parser("cond4")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p = s.add_parser("cond5")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p = s.add_parser("op")
    p.add_argument("p", type=int)
    p.add_argument("i", type=int)
    p.add_argument("x")
    p = s.add_parser("rho")
    p.add_argument("p", type=int)
    p.add_argument("x")
    p = s.add_parser("presheaf")
    p.add_argument("word")
    p.add_argument("level", type=int)

    g = sub.add_parser("ar", aliases=["arboreal"], help="preimage trees")
    g.set_defaults(run=_run_ar)
    s = g.add_subparsers(dest="verb", required=True)
    for verb in ("generic", "squarefree", "tree", "dot"):
        p = s.add_parser(verb)
        p.add_argument("polys", nargs="+")
        p.add_argument("--alpha", required=True)
        if verb != "generic":
            p.add_argument("--depth", type=int, required=True)

    g = sub.add_parser("pt", aliases=["points"], help="points of the localic covers")
    g.set_defaults(run=_run_pt)
    s = g.add_subparsers(dest="verb", required=True)
    p = s.add_parser("equiv")
    p.add_argument("c1")
    p.add_argument("c2")
    p = s.add_parser("tail")
    p.add_argument("c1")
    p.add_argument("c2")
    p = s.add_parser("project")
    p.add_argument("c")
    return ap


def _run_bp(args) -> None:
    # each runner imports only the modules of its group: a CLI call is mostly
    # start-up time, and only `ar` needs numpy
    from . import bigpicture as bp

    if args.verb == "distance":
        print(bp.hyperdistance(bp.parse_class(args.x), bp.parse_class(args.y)))
    elif args.verb == "neighbours":
        for c in bp.neighbours(bp.parse_class(args.x), args.p):
            print(bp.format_class(c))
    elif args.verb == "fiber":
        classes = bp.fiber(args.n)
        if args.count:
            print(len(classes))
        else:
            for c in sorted(bp.format_class(x) for x in classes):
                print(c)
    elif args.verb == "psi":
        print(bp.proj_line_count(args.n) if args.proj else bp.psi(args.n))
    elif args.verb == "ball-dot":
        print(bp.ball_dot(bp.parse_class(args.x), args.primes, args.radius))


def _run_cw(args) -> None:
    from . import bigpicture as bp, conway as cw

    if args.verb == "normalize":
        print(cw.format_word(cw.normalize(cw.parse_word(args.word))))
    elif args.verb == "mul":
        print(cw.format_word(cw.mul(cw.parse_word(args.w1), cw.parse_word(args.w2))))
    elif args.verb == "word2class":
        print(bp.format_class(cw.word_to_class(cw.parse_word(args.word))))
    elif args.verb == "class2word":
        print(cw.format_word(cw.class_to_word(bp.parse_class(args.x))))
    elif args.verb == "delta":
        print(cw.delta(cw.parse_word(args.word)))
    elif args.verb == "divide":
        z = cw.divide_left(cw.parse_word(args.y), cw.parse_word(args.x))
        print("none" if z is None else cw.format_word(z))


def _run_sn(args) -> None:
    from . import supernatural as sn

    if args.verb == "chain":
        print(sn.format_supernatural(sn.from_chain(args.entries, limit=args.limit)))
    elif args.verb == "equiv":
        _print_bool(sn.adele_class_equiv(sn.parse_supernatural(args.s), sn.parse_supernatural(args.t)))
    elif args.verb == "divides":
        _print_bool(sn.divides(sn.parse_supernatural(args.n), sn.parse_supernatural(args.s)))
    elif args.verb == "lcm":
        print(sn.format_supernatural(sn.lcm(sn.parse_supernatural(args.s), sn.parse_supernatural(args.t))))
    elif args.verb == "open":
        _print_bool(sn.in_open(sn.parse_supernatural(args.s), args.generators))


def _run_ds(args) -> None:
    from . import dessins as ds

    if args.verb == "edk":
        print(ds.to_json(ds.e_dessin(args.d, args.k)))
        return
    d = ds.from_json(args.d)
    if args.verb == "passport":
        pb, pw = ds.passport(d)
        print(json.dumps({"black": list(pb), "white": list(pw)}))
    elif args.verb == "compose":
        print(ds.to_json(ds.compose(d, ds.from_json(args.d2))))
    elif args.verb == "iso":
        _print_bool(ds.framed_iso(d, ds.from_json(args.d2)))
    elif args.verb == "equiv":
        _print_bool(ds.combinatorial_equiv(d, ds.from_json(args.d2)))
    elif args.verb == "auto":
        print(json.dumps([list(g) for g in sorted(ds.automorphisms(d))]))
    elif args.verb == "monodromy":
        order = ds.monodromy_order(d, args.cap)
        print("exceeds cap" if order is None else order)
    elif args.verb == "involution":
        print(ds.to_json(ds.involution(d)))
    elif args.verb == "dot":
        print(ds.to_dot(d))


def _run_by(args) -> None:
    from . import belyi, bigpicture as bp, conway as cw
    from .ratpoly import format_poly, parse_poly

    if args.verb == "bdk":
        print(format_poly(belyi.b_dk(args.d, args.k).poly))
    elif args.verb == "check":
        _print_bool(belyi.is_dynamical_belyi(parse_poly(args.poly)))
    elif args.verb == "beta":
        p = belyi.BelyiPoly(parse_poly(args.poly))
        if args.word:
            print(cw.format_word(belyi.beta_word(p)))
        else:
            print(bp.format_class(belyi.beta_morphism(p)))
    elif args.verb == "triangle":
        _print_bool(belyi.triangle_check(belyi.BelyiPoly(parse_poly(args.poly))))
    elif args.verb == "compose-count":
        p = belyi.BelyiPoly(parse_poly(args.poly))
        p2 = belyi.BelyiPoly(parse_poly(args.poly2))
        _print_bool(belyi.compose_count_check(p, p2))
    elif args.verb == "free":
        gens = [belyi.BelyiPoly(parse_poly(t)) for t in args.polys]
        _print_bool(belyi.free_check(gens, args.maxlen))


def _run_bc(args) -> None:
    from . import bostconnes as bc, conway as cw

    if args.verb == "cond3":
        ok = bc.check_condition3(args.n)
        print(json.dumps({"condition": 3, "n": args.n, "ok": ok}))
    elif args.verb == "cond4":
        ok = bc.check_condition4(args.n, args.m)
        print(json.dumps({"condition": 4, "n": args.n, "M": args.m, "ok": ok}))
    elif args.verb == "cond5":
        ok = bc.check_condition5(args.p, args.q)
        print(json.dumps({"condition": 5, "p": args.p, "q": args.q, "ok": ok, "cells": args.p * args.q}))
    elif args.verb == "op":
        x = bc.qz(Fraction(args.x))
        print(bc.operator(cw.letter(args.p, args.i), x))
    elif args.verb == "rho":
        x = bc.qz(Fraction(args.x))
        print(json.dumps(sorted(str(v) for v in bc.rho(args.p, x))))
    elif args.verb == "presheaf":
        w = cw.parse_word(args.word)
        vals = bc.presheaf_value(w, args.level)
        print(json.dumps(sorted((str(v) for v in vals), key=lambda s: Fraction(s))))


def _run_ar(args) -> None:
    from . import arboreal, belyi
    from .ratpoly import parse_poly

    gens = [belyi.BelyiPoly(parse_poly(t)) for t in args.polys]
    alpha = Fraction(args.alpha)
    if args.verb == "generic":
        _print_bool(arboreal.genericity_check(gens, alpha))
    elif args.verb == "squarefree":
        # a double root at level k pulls back to one at every deeper level
        _print_bool(arboreal.squarefree_level(gens, alpha, args.depth))
    elif args.verb == "tree":
        print(arboreal.tree_json(arboreal.build_tree(gens, alpha, args.depth)))
    elif args.verb == "dot":
        print(arboreal.tree_dot(arboreal.build_tree(gens, alpha, args.depth)))


def _run_pt(args) -> None:
    from . import points as pt

    if args.verb == "equiv":
        _print_bool(pt.chain_equiv(pt.from_json(args.c1), pt.from_json(args.c2)))
    elif args.verb == "tail":
        _print_bool(pt.tail_equiv(pt.from_json(args.c1), pt.from_json(args.c2)))
    elif args.verb == "project":
        print(pt.to_json(pt.project(pt.from_json(args.c))))


def _looks_like_poly(tok: str) -> bool:
    return len(tok) > 1 and tok[0] == "-" and tok[1] in "x0123456789" and "x" in tok


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if hasattr(sys, "set_int_max_str_digits"):  # absent before Python 3.10.7
        sys.set_int_max_str_digits(MAX_INT_DIGITS)
    # keep argparse from reading leading-minus polynomials as options
    argv = [(" " + a) if _looks_like_poly(a) else a for a in argv]
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # "Note on SIGPIPE" in the Python docs: the exit-time flush goes to devnull
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ZeroDivisionError, KeyError, RecursionError, OverflowError) as e:
        msg = str(e)
        if "integer string conversion" in msg:
            msg = f"refusing an integer of more than {MAX_INT_DIGITS} decimal digits"
        if len(msg) > MAX_ERROR_CHARS:
            msg = f"{msg[:MAX_ERROR_CHARS]}... ({len(msg)} characters)"
        print(f"error: {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
