"""Framed bicolored plane trees as permutation pairs.

A dessin on n edges is a pair of permutations of {0..n-1}: alpha gives the
counterclockwise order of edges around black vertices, beta around white
vertices.  Tree + polynomial type means #cycles(alpha) + #cycles(beta) = n+1
and alpha followed by beta is a single n-cycle.  The framing marks one black
vertex 0 and one white vertex 1 by naming an edge of each cycle.

A FramedDessin is valid by construction: its constructor runs validate, so
the functions below take validity as given and never re-check it.  Three
results are valid by theorem and skip validate:
- compose(t, t2), of t with n edges, nb black and nw white vertices and t2
  with m edges, nb2 black and nw2 white vertices, is the dessin of the
  composite covering: (nb - 1) m + nb2 black and (nw - 1) m + nw2 white
  vertices, that is n m + 1, and one face;
- involution keeps both conditions, since beta o alpha and alpha o beta are
  conjugate (by alpha);
- e_dessin(d, k) has k + 1 black and d - k white vertices, and beta o alpha
  is the d-cycle 0 -> 1 -> ... -> d-1 -> 0.
Work on dessins read as JSON is bounded by MAX_EDGES and MAX_MONODROMY_ENTRIES.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import NamedTuple

from .ratpoly import MAX_EXACT_DEGREE, json_int

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


class Passport(NamedTuple):
    black: tuple[int, ...]
    white: tuple[int, ...]


def _parts(vals) -> tuple[int, ...]:
    return tuple(sorted(vals, reverse=True))


@dataclass(frozen=True)
class FramedDessin:
    n: int
    alpha: Perm
    beta: Perm
    frame_black: int
    frame_white: int

    def __post_init__(self):
        validate(self)


def _trusted(*values) -> FramedDessin:
    """A FramedDessin without validate, for the three results valid by theorem."""
    out = object.__new__(FramedDessin)
    for f, v in zip(fields(FramedDessin), values):
        object.__setattr__(out, f.name, v)
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
    nb = len(perm_cycles(d.alpha))
    nw = len(perm_cycles(d.beta))
    if nb + nw != n + 1:
        raise ValueError("not a tree")
    prod = tuple(d.beta[d.alpha[e]] for e in range(n))
    if len(perm_cycles(prod)) != 1:
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
# Anatomy: spine, head, body, tail
# ---------------------------------------------------------------------------


class Anatomy(NamedTuple):
    spine: tuple[int, ...]
    head: Passport
    body: Passport
    tail: Passport
    valency0: int
    valency1: int


def _vertex_maps(d: FramedDessin):
    bc = perm_cycles(d.alpha)
    wc = perm_cycles(d.beta)
    bv = [0] * d.n
    wv = [0] * d.n
    for k, c in enumerate(bc):
        for e in c:
            bv[e] = k
    for k, c in enumerate(wc):
        for e in c:
            wv[e] = k
    return bc, wc, bv, wv


def anatomy(d: FramedDessin) -> Anatomy:
    """One breadth-first pass from vertex 0 records each vertex's edge towards it.

    Black vertex k has id k and white vertex k id nb + k, so edge e joins bv[e]
    and nb + wv[e].  The spine is the chain of recorded edges walked back from
    vertex 1.  Every other vertex takes the spine label of its parent, which
    names its component of the forest left when the spine edges are deleted.
    """
    bc, wc, bv, wv = _vertex_maps(d)
    nb = len(bc)
    cycles = bc + wc

    def other(e: int, v: int) -> int:
        return bv[e] + nb + wv[e] - v

    v0, v1 = bv[d.frame_black], nb + wv[d.frame_white]
    up = [-1] * len(cycles)
    order = [v0]
    for v in order:
        for e in cycles[v]:
            if e != up[v]:
                up[other(e, v)] = e
                order.append(other(e, v))
    path = [v1]
    while path[-1] != v0:
        path.append(other(up[path[-1]], path[-1]))
    last = len(path) - 1
    label = [-1] * len(cycles)
    for i, v in enumerate(path):
        label[v] = last - i
    parts = ([], []), ([], []), ([], [])  # head, body, tail: black and white valencies
    for v in order:
        if label[v] < 0:
            label[v] = label[other(up[v], v)]
        if v != v0 and v != v1:
            part = 0 if label[v] == 0 else 2 if label[v] == last else 1
            parts[part][v >= nb].append(len(cycles[v]))
    head, body, tail = (Passport(_parts(b), _parts(w)) for b, w in parts)
    spine = tuple(up[v] for v in reversed(path[:-1]))
    return Anatomy(spine, head, body, tail, len(cycles[v0]), len(cycles[v1]))


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def compose(t: FramedDessin, t2: FramedDessin) -> FramedDessin:
    """The dessin of the composed covering; t is outer, t2 inner.

    Edges are pairs (e, f), flattened as e*t2.n + f.  The black cyclic orders
    advance the inner coordinate exactly at t's spine edge at vertex 0, the
    white ones at t's spine edge at vertex 1; the framing comes from t2.
    """
    spine = anatomy(t).spine
    e0, e1 = spine[0], spine[-1]
    s2 = anatomy(t2).spine
    f0, f1 = s2[0], s2[-1]
    m = t2.n
    alpha: list[int] = []
    beta: list[int] = []
    for e in range(t.n):
        a, b = t.alpha[e] * m, t.beta[e] * m
        alpha += [a + f for f in t2.alpha] if e == e0 else range(a, a + m)
        beta += [b + f for f in t2.beta] if e == e1 else range(b, b + m)
    return _trusted(t.n * m, tuple(alpha), tuple(beta), e0 * m + f0, e1 * m + f1)


def compose_passport(p: Passport, v0: int, v1: int, p2: Passport, d2: int) -> Passport:
    """The passport of f o g, for f of passport p and marked valencies v0, v1, and g
    of passport p2 and degree d2: f's other vertices lift d2 times, the marked ones
    to g's vertices, times v0 or v1.  Dessins and belyi share this law."""
    black, white = list(p.black), list(p.white)
    black.remove(v0)
    white.remove(v1)
    black = black * d2 + [v0 * part for part in p2.black]
    white = white * d2 + [v1 * part for part in p2.white]
    return Passport(_parts(black), _parts(white))


# ---------------------------------------------------------------------------
# Automorphisms and monodromy
# ---------------------------------------------------------------------------


def automorphisms(d: FramedDessin) -> list[Perm]:
    """All edge permutations commuting with alpha and beta (identity included).

    A map g consistent with both is onto, since its image is closed under
    alpha and beta, which act transitively on the edges of a tree.
    """
    out = []
    for target in range(d.n):
        g = [-1] * d.n
        g[0] = target
        queue = [0]
        ok = True
        while queue and ok:
            e = queue.pop()
            for nxt, img in ((d.alpha[e], d.alpha[g[e]]), (d.beta[e], d.beta[g[e]])):
                if g[nxt] == -1:
                    g[nxt] = img
                    queue.append(nxt)
                elif g[nxt] != img:
                    ok = False
                    break
        if ok:
            out.append(tuple(g))
    return out


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
# Involution, isomorphism
# ---------------------------------------------------------------------------


def involution(d: FramedDessin) -> FramedDessin:
    """Swap colours and the 0/1 marks; the 180-degree turn keeps orientations."""
    return _trusted(d.n, d.beta, d.alpha, d.frame_white, d.frame_black)


def _encode_from(d: FramedDessin, start: int):
    lab = [-1] * d.n
    lab[start] = 0
    order = [start]
    qi = 0
    while qi < len(order):
        e = order[qi]
        qi += 1
        for nxt in (d.alpha[e], d.beta[e]):
            if lab[nxt] == -1:
                lab[nxt] = len(order)
                order.append(nxt)
    a2 = [0] * d.n
    b2 = [0] * d.n
    for e in range(d.n):
        a2[lab[e]] = lab[d.alpha[e]]
        b2[lab[e]] = lab[d.beta[e]]
    return (tuple(a2), tuple(b2)), lab


def _framed_key(d: FramedDessin):
    black_cycle = next(c for c in perm_cycles(d.alpha) if d.frame_black in c)
    white_cycle = next(c for c in perm_cycles(d.beta) if d.frame_white in c)
    best = None
    for start in black_cycle:
        (a2, b2), lab = _encode_from(d, start)
        key = (a2, b2, min(lab[e] for e in white_cycle))
        if best is None or key < best:
            best = key
    return best


def _unframed_key(d: FramedDessin):
    return min(_encode_from(d, start)[0] for start in range(d.n))


def framed_iso(d1: FramedDessin, d2: FramedDessin) -> bool:
    return d1.n == d2.n and _framed_key(d1) == _framed_key(d2)


def combinatorial_equiv(d1: FramedDessin, d2: FramedDessin) -> bool:
    """Colour- and orientation-preserving equivalence, frames ignored."""
    return d1.n == d2.n and _unframed_key(d1) == _unframed_key(d2)


# ---------------------------------------------------------------------------
# JSON, DOT
# ---------------------------------------------------------------------------


def to_json(d: FramedDessin) -> str:
    return json.dumps(
        {
            "n": d.n,
            "alpha": list(d.alpha),
            "beta": list(d.beta),
            "frame_black": d.frame_black,
            "frame_white": d.frame_white,
        }
    )


# MAX_EDGES caps the dessins that from_json reads, and admits every e_dessin.
# equiv and iso are quadratic in the edges and compose builds n n2 of them: on
# a 2-core Xeon host compose of two 512-edge trees took 0.04 s, iso and equiv
# at 512 edges 0.15 s, and equiv at 2000 edges 4.6 s.
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
            tuple(json_int(v) for v in obj["alpha"]),
            tuple(json_int(v) for v in obj["beta"]),
            json_int(obj["frame_black"]),
            json_int(obj["frame_white"]),
        )
    except TypeError as e:
        raise ValueError(f"bad dessin field: {e}") from e


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
