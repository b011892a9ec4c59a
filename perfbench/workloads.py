"""The four benchmark workloads: seeded inputs, operations and their oracles.

Each workload is a closed loop with one client.  Its inputs come in rounds:
round r draws from its own generator seeded by (workload, seed, r), so a
round can be replayed exactly, and every round holds the same mix of
operation kinds and input sizes.  A run completes whole rounds, which keeps
the mix, and so the throughput, the same from seed to seed.

An operation calls public library functions only.  Its oracle runs after
the timed call and returns None when the output is right, else a reason.
"""

from __future__ import annotations

import json
import os
import resource
import selectors
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from random import Random
from typing import Any, Callable, NamedTuple

import numpy as np

import hostspeed

from arithsite import arboreal, belyi, bigpicture as bp, bostconnes as bc, conway as cw
from arithsite import dessins as ds, points as pt, supernatural as sn
from arithsite.ratpoly import format_poly


class Op(NamedTuple):
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _expect(want) -> Callable[[Any], str | None]:
    return lambda got: None if got == want else f"got {got!r}, want {want!r}"


def _word(rng: Random, length: int, free: bool) -> cw.Word:
    out = []
    for _ in range(length):
        p = rng.choice((2, 3, 5, 7))
        out.append(cw.Letter(p, rng.randrange(p if free else p + 1)))
    return tuple(out)


class Workload:
    """Base: one round of operations per call to `round`."""

    name = ""
    tracer = None
    # round pairs in a traced run: a fixed number, about 20 s on a 2-core host
    TRACED_ROUNDS = 0
    PROBE = hostspeed.PYTHON  # scales end-to-end times to a nominal host speed

    def __init__(self, seed: int, root):
        self.seed = seed
        self.root = root

    def trace(self, tracer) -> None:
        """Wrap the traced functions into `tracer`, or unwrap them when None."""
        if self.tracer is not None:
            self.tracer.uninstall()
        if tracer is not None:
            tracer.install()
        self.tracer = tracer

    def rng(self, r: int) -> Random:
        return Random(f"{self.name}:{self.seed}:{r}")

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class SiteWords(Workload):
    """Rewriting and hyper-distance: normalize, free-word round trips,
    left division and fibers.  No PolyQ or numpy code runs.

    Per round: every fiber n = 2..48 once (that domain is small, so fibers
    repeat once per round), and fresh random words for the other kinds.
    """

    name = "site-words"
    FIBERS = range(2, 49)
    NORMALIZE, ROUND_TRIP, DIVIDE = 600, 200, 60
    TRACED_ROUNDS = 2

    def round(self, r):
        rng = self.rng(r)
        ops = [self._fiber(n) for n in rng.sample(self.FIBERS, len(self.FIBERS))]
        ops += [self._normalize(_word(rng, rng.randint(8, 24), False)) for _ in range(self.NORMALIZE)]
        ops += [self._round_trip(_word(rng, rng.randint(2, 12), True)) for _ in range(self.ROUND_TRIP)]
        ops += [self._divide(_word(rng, rng.randint(1, 6), True), _word(rng, rng.randint(1, 6), True))
                for _ in range(self.DIVIDE)]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _fiber(n):
        def check(got):
            return None if len(got) == bp.psi(n) else f"{len(got)} classes, psi({n}) = {bp.psi(n)}"

        return Op(f"fiber({n})", lambda: bp.fiber(n), check)

    @staticmethod
    def _normalize(w):
        def check(got):
            if not cw.is_normal(got):
                return "result is not normal"
            if cw.word_to_class(got) != cw.word_to_class(w):
                return "result changed the class"
            return None

        return Op(f"normalize({cw.format_word(w)})", lambda: cw.normalize(w), check)

    @staticmethod
    def _round_trip(w):
        return Op(f"class_to_word(word_to_class({cw.format_word(w)}))",
                  lambda: cw.class_to_word(cw.word_to_class(w)), _expect(cw.normalize(w)))

    @staticmethod
    def _divide(z, x):
        y = cw.mul(z, x)
        return Op(f"divide_left({cw.format_word(y)}, {cw.format_word(x)})",
                  lambda: cw.divide_left(y, x), _expect(cw.normalize(z)))


class BelyiCompose(Workload):
    """Composites of B_dk pairs, d <= 7, on the polynomial and dessin sides.

    Per round: all 36 degree pairs (d1, d2) once, each with random k1, k2
    from the pool of 27 members, so inputs repeat and share work.
    """

    name = "belyi-compose"
    DEGREES = range(2, 8)
    TRACED_ROUNDS = 24

    def __init__(self, seed, root):
        super().__init__(seed, root)
        members = [(d, k) for d in self.DEGREES for k in range(d)]
        self.poly = {m: belyi.b_dk(*m) for m in members}
        self.dessin = {m: ds.e_dessin(*m) for m in members}
        self.word = {m: belyi.beta_word(p) for m, p in self.poly.items()}

    def round(self, r):
        rng = self.rng(r)
        pairs = [(d1, d2) for d1 in self.DEGREES for d2 in self.DEGREES]
        rng.shuffle(pairs)
        return [self._pair((d1, rng.randrange(d1)), (d2, rng.randrange(d2))) for d1, d2 in pairs]

    def _pair(self, m1, m2):
        p, q = self.poly[m1], self.poly[m2]
        t, t2 = self.dessin[m1], self.dessin[m2]

        def run():
            c = belyi.compose(p, q)
            return (belyi.poly_passport(c), belyi.beta_word(c), belyi.compose_count_check(p, q),
                    ds.passport(ds.compose(t, t2)))

        beta = cw.mul(self.word[m1], self.word[m2])

        def check(got):
            poly_pp, word, count_ok, dessin_pp = got
            if poly_pp != dessin_pp:
                return f"poly passport {poly_pp} != dessin passport {dessin_pp}"
            if word != beta:
                return f"beta {cw.format_word(word)} != {cw.format_word(beta)}"
            return None if count_ok else "compose_count_check failed"

        return Op(f"compose(B{m1}, B{m2})", run, check)


class PreimageTrees(Workload):
    """arboreal.build_tree on seeded generator sequences and generic alphas.

    Per round: the same multiset of (degree, depth) shapes, 9 to 1024 leaves:
    many small trees and one at the leaf cap.  The counts put p50 inside the
    27-leaf group and p90 inside the 243-256-leaf group, mostly d = 2 trees,
    whose cost varies least; neither sits on a boundary between groups.
    Generators are non-monomial B_dk (k >= 1): x^d makes every composite
    sparse and its exact checks nearly free, which would make a round's cost
    depend on the seed rather than on the code.
    """

    name = "preimage-trees"
    TRACED_ROUNDS = 3
    SHAPES = (
        [(3, 2)] * 12 + [(3, 3)] * 24
        + [(4, 3)] * 3 + [(2, 6)] * 3 + [(3, 4)] * 3 + [(2, 7)] * 2
        + [(2, 8)] * 6 + [(4, 4), (3, 5), (2, 9), (2, 10)]
    )

    def round(self, r):
        rng = self.rng(r)
        ops = [self._tree(rng, d, n) for d, n in self.SHAPES]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _tree(rng, d, n):
        gens = [belyi.b_dk(d, rng.randint(1, d - 1)) for _ in range(rng.randint(1, 3))]
        while True:
            b = rng.randint(3, 12)
            alpha = Fraction(rng.randint(1, b - 1), b)
            if arboreal.genericity_check(gens, alpha):
                break

        label = f"build_tree([{', '.join(str(g) for g in gens)}], {alpha}, {n})"
        return Op(label, lambda: arboreal.build_tree(gens, alpha, n), partial(_check_tree, gens, alpha, n))


def _check_tree(gens, alpha, n, tree) -> str | None:
    """Check a preimage tree from its nodes alone, without arithsite.kernels.

    Level k holds the d**k roots of f_k(z) = parent, f_k = gens[(k-1) % len]:
    every parent has exactly d children, every node maps onto its parent,
    the nodes of a level are distinct, and the chain f_1 o ... o f_k takes
    every node back to alpha.  A level's residuals must lie within
    tol * (1 + r**d), r its largest root, the bound build_tree promises.
    """
    d = gens[0].degree
    if len(tree.levels) != n + 1:
        return f"{len(tree.levels)} levels, want {n + 1}"
    # numpy.polyval wants the leading coefficient first; PolyQ stores it last
    coeffs = [np.array([float(c) for c in reversed(g.poly.coeffs)]) for g in gens]
    prev = np.array([complex(re, im) for re, im, _ in tree.levels[0]])
    if prev.shape != (1,) or prev[0] != complex(alpha):
        return f"root {prev} is not alpha = {alpha}"
    for k, level in enumerate(tree.levels[1:], 1):
        z = np.array([complex(re, im) for re, im, _ in level])
        parent = np.array([p for _, _, p in level])
        if len(z) != d**k or np.any(np.bincount(parent, minlength=len(prev)) != d):
            return f"level {k}: {len(z)} nodes under {len(prev)} parents, want {d} under each"
        bound = tree.tol * (1.0 + float(np.abs(z).max()) ** d)
        step = np.abs(np.polyval(coeffs[(k - 1) % len(gens)], z) - prev[parent]).max()
        if step > bound:
            return f"level {k}: a node maps {step:.3e} away from its parent, bound {bound:.3e}"
        v = z
        for j in range(k, 0, -1):
            v = np.polyval(coeffs[(j - 1) % len(gens)], v)
        residual = np.abs(v - complex(alpha)).max()
        if residual > bound:
            return f"level {k}: residual {residual:.3e} > {bound:.3e}"
        gap = np.abs(z[:, None] - z[None, :]) + np.diag(np.full(len(z), np.inf))
        if gap.min() <= 2 * tree.tol:
            return f"level {k}: two nodes {gap.min():.3e} apart"
        prev = z
    return None


class CliCall(NamedTuple):
    code: int
    out: str
    err: str


class CliCold(Workload):
    """One fresh `python -m arithsite.cli` process per call.

    Per round: each of the eight verb groups on small README-style inputs,
    plus domain errors (exit 1) and usage errors (exit 2).  Expected outputs
    come from the library in this process; a call fails on a timeout, a
    traceback on stderr, a wrong exit code or wrong stdout.

    While traced, calls go through cli_child.py, which wraps the same
    functions inside the child and reports its spans on stderr.
    """

    name = "cli-cold"
    TRACED_ROUNDS = 3
    PROBE = hostspeed.SPAWN
    TRACE_MARK = "perfbench-trace "
    PRIMES = (2, 3, 5, 7, 11, 13)
    COMPOSITES = (4, 6, 8, 9, 10, 12)

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.peak_kb = 0

    def trace(self, tracer):
        self.tracer = tracer

    def peak_rss_kb(self):
        return self.peak_kb

    def round(self, r):
        rng = self.rng(r)
        x, y = self._cls(rng), self._cls(rng)
        n = rng.randint(2, 16)
        w = _word(rng, rng.randint(2, 6), False)
        chain = [rng.randint(1, 6)]
        for _ in range(2):
            chain.append(chain[-1] * rng.randint(1, 4))
        limit = rng.random() < 0.5
        d = rng.randint(2, 9)
        dk = (d, rng.randrange(d))
        d = rng.randint(2, 7)
        bdk = (d, rng.randrange(d))
        poly = belyi.b_dk(*bdk)
        p, q = sorted(rng.sample(self.PRIMES, 2))
        td = rng.randint(2, 3)
        gens = [belyi.b_dk(td, rng.randint(1, td - 1))]
        while True:
            b = rng.randint(3, 9)
            alpha = Fraction(rng.randint(1, b - 1), b)
            if arboreal.genericity_check(gens, alpha):
                break
        depth = 3 if td == 2 else 2
        c1, c2 = self._chain(rng), self._chain(rng)
        black, white = ds.passport(ds.e_dessin(*dk))
        bad = rng.choice(self.COMPOSITES)

        calls = [
            (["bp", "distance", str(x), str(y)], 0, str(bp.hyperdistance(x, y))),
            (["bp", "fiber", str(n), "--count"], 0, str(bp.psi(n))),
            (["cw", "normalize", cw.format_word(w)], 0, cw.format_word(cw.normalize(w))),
            (["cw", "class2word", str(x)], 0, cw.format_word(cw.class_to_word(x))),
            (["sn", "chain", *map(str, chain)] + (["--limit"] if limit else []), 0,
             sn.format_supernatural(sn.from_chain(chain, limit=limit))),
            (["ds", "passport", ds.to_json(ds.e_dessin(*dk))], 0,
             json.dumps({"black": list(black), "white": list(white)})),
            (["by", "bdk", *map(str, bdk)], 0, format_poly(poly.poly)),
            (["by", "beta", format_poly(poly.poly), "--word"], 0, cw.format_word(belyi.beta_word(poly))),
            (["bc", "cond5", str(p), str(q)], 0,
             json.dumps({"condition": 5, "p": p, "q": q, "ok": bc.check_condition5(p, q), "cells": p * q})),
            (["ar", "tree", format_poly(gens[0].poly), "--alpha", str(alpha), "--depth", str(depth)], 0,
             arboreal.tree_json(arboreal.build_tree(gens, alpha, depth))),
            (["pt", "tail", c1, c2], 0, "true" if pt.tail_equiv(pt.from_json(c1), pt.from_json(c2)) else "false"),
            # domain errors: exit 1 with a message, never a traceback
            (["bp", "neighbours", str(x), str(bad)], 1, None),
            (["cw", "normalize", f"P[{bad},1]"], 1, None),
            (["by", "beta", f"x^{rng.randint(2, 5)}+{rng.randint(1, 9)}"], 1, None),
            # usage errors: exit 2
            (["bp", "fiber", "twelve"], 2, None),
            (["sn"], 2, None),
        ]
        return [self._call(argv, code, out) for argv, code, out in calls]

    @staticmethod
    def _cls(rng):
        return bp.PicClass(Fraction(rng.randint(1, 6), rng.randint(1, 6)), Fraction(rng.randint(0, 5), rng.randint(1, 6)))

    @staticmethod
    def _chain(rng):
        entries = [rng.randint(1, 4)]
        for _ in range(rng.randint(1, 3)):
            entries.append(entries[-1] * rng.choice((1, 2, 3, 6)))
        return json.dumps({"site": "A", "entries": entries, "extend": rng.random() < 0.5})

    def _call(self, argv, code, out):
        out = "" if out is None else out + "\n"

        def check(got):
            if "Traceback" in got.err:
                return "traceback on stderr"
            if got.code != code:
                return f"exit {got.code}, want {code}: {got.err.strip()[-200:]}"
            return None if got.out == out else f"stdout {got.out!r}, want {out!r}"

        return Op("arithsite " + " ".join(argv), lambda: self._spawn(argv), check)

    def _spawn(self, argv) -> CliCall:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "arithsite.cli", *argv]
        else:
            cmd = [sys.executable, str(self.root / "perfbench" / "cli_child.py"), repr(time.monotonic()), *argv]
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self.env, cwd=self.root)
        # reaped with wait4 for the child's own peak RSS; returncode is set
        # by hand so that Popen does not try to reap it again
        try:
            out, err = self._drain(proc)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:  # the operation timed out: stop the child, then re-raise
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise
        finally:
            proc.stdout.close()
            proc.stderr.close()
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        err = err.decode(errors="replace")
        if self.tracer is not None:
            head, mark, stats = err.rpartition(self.TRACE_MARK)
            if mark:
                err = head
                self.tracer.merge_child(json.loads(stats))
        return CliCall(proc.returncode, out.decode(errors="replace"), err)

    @staticmethod
    def _drain(proc) -> tuple[bytes, bytes]:
        """Read stdout and stderr to EOF together, so neither pipe fills."""
        chunks = {proc.stdout: [], proc.stderr: []}
        with selectors.DefaultSelector() as sel:
            for f in chunks:
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


WORKLOADS = {w.name: w for w in (SiteWords, BelyiCompose, PreimageTrees, CliCold)}


def make(name: str, seed: int, root) -> Workload:
    return WORKLOADS[name](seed, root)
