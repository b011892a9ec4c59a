"""Framed bicolored plane trees as permutation pairs.

A dessin on n edges is a pair of permutations of {0..n-1}: alpha gives the
counterclockwise order of edges around black vertices, beta around white
vertices.  Tree + polynomial type means #cycles(alpha) + #cycles(beta) = n+1
and the face permutation c = beta o alpha is a single n-cycle (Lando and
Zvonkin, Graphs on Surfaces and Their Applications, 2004, ch. 1).  The
framing marks one black vertex 0 and one white vertex 1 by naming an edge of
each cycle.

A FramedDessin is valid by construction: its constructor runs validate, and
_make, _replace and copy build through it, so the functions below take
validity as given and never re-check it.  Three results are valid by theorem
and are built by _trusted, which skips validate:
- compose(t, t2), of t with n edges, nb black and nw white vertices and t2
  with m edges, nb2 black and nw2 white vertices, is the dessin of the
  composite covering: (nb - 1) m + nb2 black and (nw - 1) m + nw2 white
  vertices, that is n m + 1, and one face;
- involution keeps both conditions, since beta o alpha and alpha o beta are
  conjugate (by alpha);
- e_dessin(d, k) has k + 1 black and d - k white vertices, and beta o alpha
  is the d-cycle 0 -> 1 -> ... -> d-1 -> 0.

The invariants are read off one walk along c.  Let pos[e] be the index of
edge e along c from edge 0, and the code delta_j = pos[alpha(c^j(0))] - j
mod n.  In these indices c is j -> j + 1 and alpha is j -> j + delta_j, and
beta = c alpha^-1, so the code fixes the dessin up to relabeling, and a walk
from the edge of index t instead rotates the code by t.  Hence:
- an automorphism commutes with c, whose centralizer in S_n is <c>, and c^k
  commutes with alpha iff delta is k-periodic: automorphisms are those c^k;
- two dessins are equivalent iff their codes are rotations of each other,
  and framed isomorphic iff, for an edge of index t of each one's vertex 0,
  the codes rotated by t agree and so does the least pos[e] - t mod n over
  the edges e of each one's vertex 1.

Spine ends.  Running each c^j(0) from its white end to its black end, then
alpha(c^j(0)) from its black end to its white end, is a closed walk: alpha(e)
shares e's black end, and c(e) shares alpha(e)'s white end.  It crosses every
edge once each way, and in a tree it can leave the far side of an edge only
across that edge, so it stays there between the two crossings.  The branch
at a black vertex through its edge f, f and all beyond its white end, thus
holds the edges of index pos[alpha^-1(f)] + 1 .. pos[f], and the branch at a
white vertex through its edge g the edges of index pos[g] .. pos[beta(g)] - 1,
cyclically.  The spine edge at vertex 0 is the one whose branch holds
frame_white: its edge first at or after pos[frame_white].  Likewise the spine
edge at vertex 1 is its edge last at or before pos[frame_black].

Work on dessins read as JSON is bounded by MAX_EDGES and MAX_MONODROMY_ENTRIES.
"""

from __future__ import annotations

import json
from collections import namedtuple

from . import MAX_EXACT_DEGREE, record
from .literals import json_int, json_list

Perm = tuple[int, ...]


def perm_cycles(p: Perm) -> list[tuple[int, ...]]:
    seen = [False] * len(p)
    out = []
    for s in range(len(p)):
        if seen[s]:
            continue
        cyc = []
        e = s
        while not seen[e]:
            seen[e] = True
            cyc.append(e)
            e = p[e]
        out.append(tuple(cyc))
    return out


# the black and white vertex valencies, each a descending tuple
Passport = namedtuple("Passport", "black white")


def _parts(vals) -> tuple[int, ...]:
    return tuple(sorted(vals, reverse=True))


class FramedDessin(record("FramedDessin", "n alpha beta frame_black frame_white")):
    """Its constructor, and so _make, _replace and copy, runs validate."""

    __slots__ = ()

    def __new__(cls, n, alpha, beta, frame_black, frame_white):
        out = _trusted(n, alpha, beta, frame_black, frame_white)
        validate(out)
        return out


def _trusted(*fields) -> FramedDessin:
    """The dessin of the fields without validate, for a result valid by theorem."""
    return tuple.__new__(FramedDessin, fields)


def _face_walk(d: FramedDessin) -> tuple[list[int], list[int]]:
    """The edges along c = beta o alpha from edge 0, and pos, their indices."""
    walk, pos = [], [-1] * d.n
    e = 0
    while pos[e] < 0:
        pos[e] = len(walk)
        walk.append(e)
        e = d.beta[d.alpha[e]]
    return walk, pos


def _code(d: FramedDessin):
    """The walk, pos, and the code delta_j = pos[alpha(walk[j])] - j mod n."""
    walk, pos = _face_walk(d)
    return walk, pos, tuple((pos[d.alpha[e]] - j) % d.n for j, e in enumerate(walk))


def _cycle(p: Perm, e: int) -> list[int]:
    out = [e]
    while p[out[-1]] != e:
        out.append(p[out[-1]])
    return out


def validate(d: FramedDessin) -> None:
    n = d.n
    if n < 1:
        raise ValueError("dessin needs at least one edge")
    for p in (d.alpha, d.beta):
        if len(p) != n or sorted(p) != list(range(n)):
            raise ValueError("not a permutation of the edges")
    if not (0 <= d.frame_black < n and 0 <= d.frame_white < n):
        raise ValueError("frame edge out of range")
    if len(perm_cycles(d.alpha)) + len(perm_cycles(d.beta)) != n + 1:
        raise ValueError("not a tree")
    if len(_face_walk(d)[0]) != n:
        raise ValueError("not of polynomial type")


def passport(d: FramedDessin) -> Passport:
    return Passport(
        _parts(len(c) for c in perm_cycles(d.alpha)),
        _parts(len(c) for c in perm_cycles(d.beta)),
    )


UNIT = FramedDessin(1, (0,), (0,), 0, 0)


def e_dessin(d: int, k: int) -> FramedDessin:
    """The star-of-stars tree: vertex 0 of valency d-k, vertex 1 of valency k+1.

    Edge 0 is the spine; edges 1..d-k-1 run from vertex 0 to white leaves and
    edges d-k..d-1 from vertex 1 to black leaves.
    """
    if d < 1 or not 0 <= k < d:
        raise ValueError(f"need 0 <= k < d, got d={d}, k={k}")
    if d > MAX_EXACT_DEGREE:
        raise ValueError(f"refusing degree {d} > {MAX_EXACT_DEGREE}")
    alpha = (*range(1, d - k), 0, *range(d - k, d))
    beta = list(range(d))
    white_cycle = [0, *range(d - k, d)]
    for e, nxt in zip(white_cycle, white_cycle[1:] + [0]):
        beta[e] = nxt
    return _trusted(d, alpha, tuple(beta), 0, 0)


# ---------------------------------------------------------------------------
# The face walk: anatomy, automorphisms, isomorphism
# ---------------------------------------------------------------------------


# the spine edges at vertex 0 and vertex 1, and the valencies of the two vertices
Anatomy = namedtuple("Anatomy", "spine0 spine1 valency0 valency1")


def anatomy(d: FramedDessin) -> Anatomy:
    """The spine ends by the rule of the module docstring, and the valencies."""
    pos = _face_walk(d)[1]
    n, at_white, at_black = d.n, pos[d.frame_white], pos[d.frame_black]
    black, white = _cycle(d.alpha, d.frame_black), _cycle(d.beta, d.frame_white)
    spine0 = min(black, key=lambda e: (pos[e] - at_white) % n)
    spine1 = min(white, key=lambda e: (at_black - pos[e]) % n)
    return Anatomy(spine0, spine1, len(black), len(white))


def automorphisms(d: FramedDessin) -> list[Perm]:
    """The powers c^k under which the code is k-periodic (identity included)."""
    walk, pos, code = _code(d)
    return [tuple(walk[(p + k) % d.n] for p in pos) for k in range(d.n) if code[k:] + code[:k] == code]


def _framed_key(d: FramedDessin):
    """The least code rotation by an edge t of vertex 0, with vertex 1's least pos - t."""
    _, pos, code = _code(d)
    white = [pos[e] for e in _cycle(d.beta, d.frame_white)]
    return min(
        (code[t:] + code[:t], min((p - t) % d.n for p in white))
        for t in (pos[e] for e in _cycle(d.alpha, d.frame_black))
    )


def _unframed_key(d: FramedDessin):
    code = _code(d)[2]
    return min(code[t:] + code[:t] for t in range(d.n))


def framed_iso(d1: FramedDessin, d2: FramedDessin) -> bool:
    return d1.n == d2.n and _framed_key(d1) == _framed_key(d2)


def combinatorial_equiv(d1: FramedDessin, d2: FramedDessin) -> bool:
    """Colour- and orientation-preserving equivalence, frames ignored."""
    return d1.n == d2.n and _unframed_key(d1) == _unframed_key(d2)


# ---------------------------------------------------------------------------
# Composition, involution, monodromy
# ---------------------------------------------------------------------------


def compose(t: FramedDessin, t2: FramedDessin) -> FramedDessin:
    """The dessin of the composed covering; t is outer, t2 inner.

    Edges are pairs (e, f), flattened as e*t2.n + f.  The black cyclic orders
    advance the inner coordinate exactly at t's spine edge at vertex 0, the
    white ones at t's spine edge at vertex 1; the framing comes from t2.
    """
    e0, e1 = anatomy(t)[:2]
    f0, f1 = anatomy(t2)[:2]
    m = t2.n
    alpha: list[int] = []
    beta: list[int] = []
    for e in range(t.n):
        a, b = t.alpha[e] * m, t.beta[e] * m
        alpha += [a + f for f in t2.alpha] if e == e0 else range(a, a + m)
        beta += [b + f for f in t2.beta] if e == e1 else range(b, b + m)
    return _trusted(t.n * m, tuple(alpha), tuple(beta), e0 * m + f0, e1 * m + f1)


def involution(d: FramedDessin) -> FramedDessin:
    """Swap colours and the 0/1 marks; the 180-degree turn keeps orientations."""
    return _trusted(d.n, d.beta, d.alpha, d.frame_white, d.frame_black)


# MAX_MONODROMY_ENTRIES bounds the entries that monodromy_order stores, n for
# each of the |G| permutations it enumerates; on a 2-core Xeon host reaching
# the bound at 512 edges takes 0.18 s.
MAX_MONODROMY_ENTRIES = 2 * 10**6


def monodromy_order(d: FramedDessin) -> int | None:
    """|<alpha, beta>| by closure enumeration; None past MAX_MONODROMY_ENTRIES."""
    gens = [d.alpha, d.beta]
    ident = tuple(range(d.n))
    seen = {ident}
    queue = [ident]
    while queue:
        g = queue.pop()
        for h in gens:
            gh = tuple(h[g[e]] for e in range(d.n))
            if gh not in seen:
                if (len(seen) + 1) * d.n > MAX_MONODROMY_ENTRIES:
                    return None
                seen.add(gh)
                queue.append(gh)
    return len(seen)


# ---------------------------------------------------------------------------
# JSON, DOT
# ---------------------------------------------------------------------------


def to_json(d: FramedDessin) -> str:
    return json.dumps(d._asdict())


# MAX_EDGES caps the dessins that from_json reads, and admits every e_dessin.
# equiv, iso and auto compare up to n rotations of the n-entry code, and compose
# builds n n2 edges: on a 2-core Xeon host compose of two 512-edge trees took
# 0.03 s, iso and equiv at 512 edges at most 0.011 s (on the star), auto 0.024 s,
# and equiv at 2000 edges 0.04 s.
MAX_EDGES = MAX_EXACT_DEGREE


def from_json(text: str) -> FramedDessin:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("a dessin is a JSON object")
    try:
        n = json_int(obj["n"])
        if n > MAX_EDGES:
            raise ValueError(f"refusing a dessin of {n} edges > {MAX_EDGES}")
        return FramedDessin(
            n,
            tuple(json_int(v) for v in json_list(obj["alpha"], "alpha")),
            tuple(json_int(v) for v in json_list(obj["beta"], "beta")),
            json_int(obj["frame_black"]),
            json_int(obj["frame_white"]),
        )
    except TypeError as e:
        raise ValueError(f"bad dessin field: {e}") from e
    except KeyError as e:
        raise ValueError(f"missing field {e}") from e


def _vertex_maps(d: FramedDessin):
    bc, wc = perm_cycles(d.alpha), perm_cycles(d.beta)
    bv, wv = [0] * d.n, [0] * d.n
    for cycles, vertex in ((bc, bv), (wc, wv)):
        for k, c in enumerate(cycles):
            for e in c:
                vertex[e] = k
    return bc, wc, bv, wv


def to_dot(d: FramedDessin) -> str:
    bc, wc, bv, wv = _vertex_maps(d)
    v0 = bv[d.frame_black]
    v1 = wv[d.frame_white]
    lines = ["graph dessin {"]
    for k in range(len(bc)):
        label = "0" if k == v0 else ""
        lines.append(
            f'  b{k} [shape=circle, style=filled, fillcolor=black, '
            f'fontcolor=white, label="{label}"];'
        )
    for k in range(len(wc)):
        label = "1" if k == v1 else ""
        lines.append(f'  w{k} [shape=circle, label="{label}"];')
    for e in range(d.n):
        lines.append(f'  b{bv[e]} -- w{wv[e]} [label="{e}"];')
    lines.append("}")
    return "\n".join(lines)
