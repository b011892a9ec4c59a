"""Command-line front end: subcommand groups mirror the library modules.

All numeric I/O is exact (rationals as p/q) except the complex values of the
preimage trees.  Exit codes: 0 ok, 1 domain error, 2 usage error.

GROUPS declares each verb once, as (arguments, handler).  The arguments read
like a usage line: `x p:int` are positionals, `:int` makes an int, a trailing
`+` takes one or more values, `--count` is a flag, `--radius:int=1` an option
with a default and `--alpha!` a required option.  A handler returns what to
print: a bool prints as true/false, a list one item per line, and anything
else with str.  The handlers read their modules through _Lazy handles, so a
call imports the modules its handler reads and no others: a CLI call is
mostly start-up time, and only ar tree and ar dot load numpy.
"""

from __future__ import annotations

import argparse
import sys

from . import MAX_INT_DIGITS

MAX_ERROR_CHARS = 200  # error messages may echo a whole 128 KiB argument


class _Lazy:
    """A module, imported when one of its attributes is first read.  Every read
    goes to the module and nothing is cached, so a binding rebound there (as
    perfbench's tracer does) is seen here.  It imports through __import__, the
    import statement's hook, so `python -X importtime` logs the module."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        __import__(self._name)
        return getattr(sys.modules[self._name], attr)


arboreal = _Lazy("arithsite.arboreal")
bc = _Lazy("arithsite.bostconnes")
belyi = _Lazy("arithsite.belyi")
bp = _Lazy("arithsite.bigpicture")
cw = _Lazy("arithsite.conway")
ds = _Lazy("arithsite.dessins")
literals = _Lazy("arithsite.literals")
pt = _Lazy("arithsite.points")
ratpoly = _Lazy("arithsite.ratpoly")
sn = _Lazy("arithsite.supernatural")
json = _Lazy("json")


def _poly(text: str):
    return belyi.BelyiPoly(ratpoly.parse_poly(text))


def _generators(a) -> tuple:
    """The generators and alpha of an `ar` verb, parsed in that order."""
    return [_poly(t) for t in a.polys], literals.parse_rational(a.alpha)


_AR = "polys+ --alpha! --depth:int!"
GROUPS = {
    "bp": ("bigpicture", "big picture classes", {
        "distance": ("x y", lambda a: bp.hyperdistance(bp.parse_class(a.x), bp.parse_class(a.y))),
        "neighbours": ("x p:int", lambda a: [
            bp.format_class(c) for c in bp.neighbours(bp.parse_class(a.x), a.p)]),
        "fiber": ("n:int --count", lambda a: bp.psi(a.n) if a.count  # |fiber(n)| = psi(n)
                  else sorted(bp.format_class(x) for x in bp.fiber(a.n))),
        "psi": ("n:int", lambda a: bp.psi(a.n)),
        "ball-dot": ("x primes:int+ --radius:int=1",
                     lambda a: bp.ball_dot(bp.parse_class(a.x), a.primes, a.radius)),
    }),
    "cw": ("conway", "Conway monoid words", {
        "normalize": ("word", lambda a: cw.format_word(cw.normalize(cw.parse_word(a.word)))),
        "mul": ("w1 w2", lambda a: cw.format_word(cw.mul(cw.parse_word(a.w1), cw.parse_word(a.w2)))),
        "word2class": ("word", lambda a: bp.format_class(cw.word_to_class(cw.parse_word(a.word)))),
        "class2word": ("x", lambda a: cw.format_word(cw.class_to_word(bp.parse_class(a.x)))),
        "delta": ("word", lambda a: cw.delta(cw.parse_word(a.word))),
        "divide": ("y x", lambda a: "none" if (
            z := cw.divide_left(cw.parse_word(a.y), cw.parse_word(a.x))) is None else cw.format_word(z)),
    }),
    "sn": ("supernatural", "supernatural numbers", {
        "chain": ("entries:int+ --limit",
                  lambda a: sn.format_supernatural(sn.from_chain(a.entries, limit=a.limit))),
        "equiv": ("s t", lambda a: sn.adele_class_equiv(
            sn.parse_supernatural(a.s), sn.parse_supernatural(a.t))),
        "divides": ("n s", lambda a: sn.divides(sn.parse_divisor(a.n), *sn.parse_named(a.s))),
        "lcm": ("s t", lambda a: sn.format_supernatural(
            sn.lcm(sn.parse_supernatural(a.s), sn.parse_supernatural(a.t)))),
        "open": ("s generators:int+", lambda a: sn.in_open(
            (s := sn.parse_named(a.s))[0], a.generators, s[1])),
    }),
    "ds": ("dessins", "framed tree dessins", {
        "passport": ("d", lambda a: json.dumps(ds.passport(ds.from_json(a.d))._asdict())),
        "compose": ("d d2", lambda a: ds.to_json(ds.compose(ds.from_json(a.d), ds.from_json(a.d2)))),
        "iso": ("d d2", lambda a: ds.framed_iso(ds.from_json(a.d), ds.from_json(a.d2))),
        "equiv": ("d d2", lambda a: ds.combinatorial_equiv(ds.from_json(a.d), ds.from_json(a.d2))),
        "auto": ("d", lambda a: json.dumps([list(g) for g in sorted(ds.automorphisms(ds.from_json(a.d)))])),
        "involution": ("d", lambda a: ds.to_json(ds.involution(ds.from_json(a.d)))),
        "dot": ("d", lambda a: ds.to_dot(ds.from_json(a.d))),
        "monodromy": ("d", lambda a: "exceeds cap" if (
            o := ds.monodromy_order(ds.from_json(a.d))) is None else o),
        "edk": ("d:int k:int", lambda a: ds.to_json(ds.e_dessin(a.d, a.k))),
    }),
    "by": ("belyi", "dynamical Belyi polynomials", {
        "bdk": ("d:int k:int", lambda a: ratpoly.format_poly(belyi.b_dk(a.d, a.k).poly)),
        "check": ("poly", lambda a: belyi.is_dynamical_belyi(ratpoly.parse_poly(a.poly))),
        "beta": ("poly --word", lambda a: cw.format_word(belyi.beta_word(_poly(a.poly))) if a.word
                 else bp.format_class(belyi.beta_morphism(_poly(a.poly)))),
        "triangle": ("poly", lambda a: belyi.triangle_check(_poly(a.poly))),
        "compose-count": ("poly poly2", lambda a: belyi.compose_count_check(_poly(a.poly), _poly(a.poly2))),
        "free": ("polys+ --maxlen:int=2", lambda a: belyi.free_check([_poly(t) for t in a.polys], a.maxlen)),
    }),
    "bc": ("bostconnes", "Bost-Connes checks", {
        "cond3": ("n:int", lambda a: json.dumps({"condition": 3, "n": a.n, "ok": bc.check_condition3(a.n)})),
        "cond4": ("n:int m:int", lambda a: json.dumps(
            {"condition": 4, "n": a.n, "M": a.m, "ok": bc.check_condition4(a.n, a.m)})),
        "cond5": ("p:int q:int", lambda a: json.dumps(
            {"condition": 5, "p": a.p, "q": a.q, "ok": bc.check_condition5(a.p, a.q), "cells": a.p * a.q})),
        # keyword arguments run in the order written: x is parsed before the letter is built;
        # operator and rho read x mod 1 themselves
        "op": ("p:int i:int x", lambda a: bc.operator(x=literals.parse_rational(a.x), l=cw.Letter(a.p, a.i))),
        "rho": ("p:int x", lambda a: json.dumps(sorted(str(v) for v in bc.rho(a.p, literals.parse_rational(a.x))))),
        "presheaf": ("word level:int", lambda a: json.dumps(
            [str(v) for v in sorted(bc.presheaf_value(cw.parse_word(a.word), a.level))])),
    }),
    "ar": ("arboreal", "preimage trees", {
        "generic": ("polys+ --alpha!", lambda a: arboreal.genericity_check(*_generators(a))),
        # a double root at level k pulls back to one at every deeper level
        "squarefree": (_AR, lambda a: arboreal.squarefree_level(*_generators(a), a.depth)),
        "tree": (_AR, lambda a: arboreal.tree_json(arboreal.build_tree(*_generators(a), a.depth))),
        "dot": (_AR, lambda a: arboreal.tree_dot(arboreal.build_tree(*_generators(a), a.depth))),
    }),
    "pt": ("points", "points of the localic covers", {
        "equiv": ("c1 c2", lambda a: pt.chain_equiv(pt.from_json(a.c1), pt.from_json(a.c2))),
        "tail": ("c1 c2", lambda a: pt.tail_equiv(pt.from_json(a.c1), pt.from_json(a.c2))),
        "project": ("c", lambda a: pt.to_json(pt.project(pt.from_json(a.c)))),
    }),
}


def _literal(text: str) -> str:
    """A string argument as typed: main marks a leading-minus literal with a space."""
    return text[1:] if text[:1] == " " and _is_literal(text[1:]) else text


def _add_arguments(p: argparse.ArgumentParser, spec: str) -> None:
    """Add the arguments of one usage-line string of GROUPS to p."""
    for token in spec.split():
        name, _, default = token.partition("=")
        name, required = name.removesuffix("!"), name.endswith("!")
        name, many = name.removesuffix("+"), name.endswith("+")
        name, _, kind = name.partition(":")
        if name.startswith("--") and not (kind or many or required or default):
            p.add_argument(name, action="store_true")
            continue
        kw = {"type": int if kind == "int" else _literal}
        if many:
            kw["nargs"] = "+"
        if required:
            kw["required"] = True
        if default:
            kw["default"] = kw["type"](default)
        p.add_argument(name, **kw)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb or, when `only` is a group's name or alias, of that
    group's verbs alone: argparse descends into that group only, and the others
    keep their names, aliases and help for the top-level usage and -h."""
    if not any(only in (group, alias) for group, (alias, _, _) in GROUPS.items()):
        only = None
    # -h shows the docstring up to the table format (none under python -OO)
    ap = argparse.ArgumentParser(prog="arithsite", description=(__doc__ or "").partition("\n\nGROUPS")[0])
    groups = ap.add_subparsers(dest="group", required=True)
    for group, (alias, help_text, verbs) in GROUPS.items():
        g = groups.add_parser(group, aliases=[alias], help=help_text)
        if only not in (None, group, alias):
            continue
        sub = g.add_subparsers(dest="verb", required=True)
        for verb, (spec, handler) in verbs.items():
            p = sub.add_parser(verb)
            p.set_defaults(handler=handler)
            _add_arguments(p, spec)
    return ap


def _print(result) -> None:
    if isinstance(result, bool):
        result = "true" if result else "false"
    for line in result if isinstance(result, list) else [result]:
        print(line)


def _is_literal(tok: str) -> bool:
    """A minus, then a digit, "." or x: a negative number, fraction, class or polynomial."""
    return len(tok) > 1 and tok[0] == "-" and tok[1] in ".0123456789x"


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if hasattr(sys, "set_int_max_str_digits"):  # absent before Python 3.10.7
        sys.set_int_max_str_digits(MAX_INT_DIGITS)
    # argparse reads -1/3 or -x as an option, but never a token with a space;
    # _literal takes the space off again, and int() ignores it
    argv = [(" " + a) if _is_literal(a) else a for a in argv]
    # argv[0] names the group only when it is one; otherwise build every verb
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        _print(args.handler(args))
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
