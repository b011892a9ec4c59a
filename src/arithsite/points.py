"""Truncated points of the localic covers and the projections between them.

A point of a localic cover is a descending chain; here chains are finite
truncations, optionally flagged as extending periodically by the step between
their last two entries.  Every equivalence query is decided on the finite
data given: a True is a certificate, a False means "not equivalent at this
truncation depth".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import prod

from . import conway
from .ratpoly import json_bool, json_int
from .supernatural import Supernatural, adele_class_equiv, from_chain

SITES = ("A", "C", "B")


@dataclass(frozen=True)
class TruncatedChain:
    site: str
    entries: tuple
    extend: bool = False
    gen_degrees: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(f"unknown site {self.site!r}")
        entries = tuple(
            tuple(e) if self.site != "A" else int(e) for e in self.entries
        )
        if self.site == "C":
            # entries are monoid elements: store their normal forms
            entries = tuple(
                conway.normalize(tuple(conway.Letter(p, i) for p, i in e)) for e in entries
            )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "gen_degrees", tuple(self.gen_degrees))
        if self.site == "A" and any(e < 1 for e in entries):
            raise ValueError("site-A entries must be at least 1")
        if any(g < 1 for g in self.gen_degrees):
            raise ValueError("generator degrees must be at least 1")
        if not entries:
            raise ValueError("chain needs at least one entry")
        if self.extend and len(entries) < 2:
            raise ValueError("periodic extension needs at least two entries")
        for a, b in zip(entries, entries[1:]):
            if not _geq(self.site, a, b):
                raise ValueError(f"chain order violation: {a!r} !>= {b!r}")
        if self.site == "B":
            for e in entries:
                for idx in e:
                    if not 0 <= idx < len(self.gen_degrees):
                        raise ValueError(f"generator index {idx} out of range")


def _geq(site: str, a, b) -> bool:
    """a >= b in the site order: b factors through a."""
    if site == "A":
        return b % a == 0
    if site == "C":
        return conway.divide_left(b, a) is not None
    return len(a) <= len(b) and b[: len(a)] == a  # B: prefix of the composition


def chain_equiv(c1: TruncatedChain, c2: TruncatedChain) -> bool:
    """Interleaving of the two finite chains as given."""
    if c1.site != c2.site:
        raise ValueError("chains live on different sites")
    return _interleaves(c1.site, c1.entries, c2.entries) and _interleaves(
        c1.site, c2.entries, c1.entries
    )


def _interleaves(site: str, xs, ys) -> bool:
    return all(any(_geq(site, x, y) for y in ys) for x in xs)


def _step(site: str, prev, last):
    """Periodic continuation step derived from the last two entries."""
    if site == "A":
        return last * (last // prev)
    if site == "C":
        u = conway.divide_left(last, prev)
        return conway.mul(u, last)
    return last + last[len(prev) :]


def _materialize(c: TruncatedChain, steps: int) -> tuple:
    entries = list(c.entries)
    if c.extend:
        for _ in range(steps):
            entries.append(_step(c.site, entries[-2], entries[-1]))
    return tuple(entries)


def _nontrivial_extension(c: TruncatedChain) -> bool:
    if not c.extend:
        return False
    return _step(c.site, c.entries[-2], c.entries[-1]) != c.entries[-1]


def tail_equiv(c1: TruncatedChain, c2: TruncatedChain) -> bool:
    """Whether some tails of the two points interleave.

    All finite points share the empty tail, hence are equivalent (the class
    of 1).  Extended chains are compared on their periodic continuations; on
    site A that is exactly the adele-class equivalence of the limits.
    """
    if c1.site != c2.site:
        raise ValueError("chains live on different sites")
    e1, e2 = _nontrivial_extension(c1), _nontrivial_extension(c2)
    if not e1 and not e2:
        return True
    if e1 != e2:
        return False
    if c1.site == "A":
        s1 = from_chain(list(c1.entries), limit=True)
        s2 = from_chain(list(c2.entries), limit=True)
        return adele_class_equiv(s1, s2)
    depth = max(len(c1.entries), len(c2.entries)) + 2
    m1 = _materialize(c1, depth)
    m2 = _materialize(c2, depth + 2)
    for i in range(len(m1)):
        for j in range(len(m2)):
            t1 = m1[i : i + depth]
            t2 = m2[j : j + depth + 2]
            if _interleaves(c1.site, t1, t2) and _interleaves(c1.site, t2[:depth], m1[i:]):
                return True
    return False


def project(c: TruncatedChain) -> TruncatedChain:
    """Entrywise hyper-distance (site C) or degree (site B) down to site A."""
    if c.site == "A":
        return TruncatedChain("A", c.entries, c.extend)
    if c.site == "C":
        entries = tuple(conway.delta(w) for w in c.entries)
    else:
        entries = tuple(prod(c.gen_degrees[idx] for idx in e) for e in c.entries)
    return TruncatedChain("A", entries, c.extend)


def chain_to_supernatural(c: TruncatedChain) -> Supernatural:
    if c.site != "A":
        raise ValueError("supernatural limits live on site A")
    return from_chain(list(c.entries), limit=c.extend)


def chain_in_open(c: TruncatedChain, target) -> bool:
    """Localic open membership: some entry factors through the target."""
    target = int(target) if c.site == "A" else tuple(target)
    return any(_geq(c.site, target, e) for e in c.entries)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def to_json(c: TruncatedChain) -> str:
    obj: dict = {"site": c.site}
    if c.site == "A":
        obj["entries"] = list(c.entries)
    elif c.site == "C":
        obj["entries"] = [[[l.p, l.i] for l in w] for w in c.entries]
    else:
        obj["entries"] = [list(e) for e in c.entries]
        obj["gen_degrees"] = list(c.gen_degrees)
    if c.extend:
        obj["extend"] = True
    return json.dumps(obj)


def from_json(text: str) -> TruncatedChain:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("a chain is a JSON object")
    site = obj["site"]
    extend = json_bool(obj.get("extend", False))
    try:
        if site == "A":
            return TruncatedChain("A", tuple(json_int(e) for e in obj["entries"]), extend)
        if site == "C":
            # one pass over all letters, so each distinct prime is tested once
            words = obj["entries"]
            flat = iter(conway.letters((json_int(p), json_int(i)) for w in words for p, i in w))
            return TruncatedChain("C", tuple(tuple(next(flat) for _ in w) for w in words), extend)
        if site != "B":
            raise ValueError(f"unknown site {site!r}")
        entries = tuple(tuple(json_int(i) for i in e) for e in obj["entries"])
        return TruncatedChain("B", entries, extend, tuple(json_int(d) for d in obj.get("gen_degrees", ())))
    except TypeError as e:
        raise ValueError(f"bad chain field: {e}") from e
