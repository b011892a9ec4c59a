"""Truncated points of the localic covers and the projections between them.

A point of a localic cover is a descending chain; here chains are finite
truncations, optionally flagged as extending periodically by the step between
their last two entries.  Every equivalence query is decided on the finite
data given: a True is a certificate, a False means "not equivalent at this
truncation depth".

Each site's order (divisibility in N on site A, the prefix order of words on
site B, left division in the Conway monoid on site C) is transitive, so a chain
xs interleaves ys (each x >= some y) iff xs[-1] >= ys[-1], and antisymmetric,
so a periodic extension is trivial iff its last two entries are equal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import prod

from . import conway
from .ratpoly import json_bool, json_int
from .supernatural import Supernatural, adele_class_equiv, from_chain

SITES = ("A", "C", "B")
# MAX_CHAIN_SIZE caps the letters (site C) or generator indices (site B) that
# tail_equiv builds for the periodic steps of both chains.  Over the prime
# 3317044064679887385961813, on a 2-core Xeon host, `pt tail` took at most
# 1.3 s near the cap and up to 4.8 s near twice the cap.
MAX_CHAIN_SIZE = 4096


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
                raise ValueError(f"chain order violation: {_format(self.site, a)} !>= {_format(self.site, b)}")
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


def _format(site: str, e) -> str:
    if site == "C":
        return conway.format_word(e)
    return json.dumps(list(e)) if site == "B" else str(e)


def chain_equiv(c1: TruncatedChain, c2: TruncatedChain) -> bool:
    """Interleaving of the two finite chains as given: equal deepest entries."""
    if c1.site != c2.site:
        raise ValueError("chains live on different sites")
    x, y = c1.entries[-1], c2.entries[-1]
    return _geq(c1.site, x, y) and _geq(c1.site, y, x)


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


def _built_size(c: TruncatedChain, steps: int) -> int:
    """Letters or indices of the steps _materialize builds: each adds g more."""
    last = len(c.entries[-1])
    g = last - len(c.entries[-2])
    return steps * last + g * steps * (steps + 1) // 2


def tail_equiv(c1: TruncatedChain, c2: TruncatedChain) -> bool:
    """Whether some tails of the two points interleave.

    All finite points share the empty tail, hence are equivalent (the class
    of 1).  Extended chains are compared on their periodic continuations; on
    site A that is exactly the adele-class equivalence of the limits.
    """
    if c1.site != c2.site:
        raise ValueError("chains live on different sites")
    e1, e2 = (c.extend and c.entries[-2] != c.entries[-1] for c in (c1, c2))
    if not e1 and not e2:
        return True
    if e1 != e2:
        return False
    if c1.site == "A":
        s1 = from_chain(list(c1.entries), limit=True)
        s2 = from_chain(list(c2.entries), limit=True)
        return adele_class_equiv(s1, s2)
    depth = max(len(c1.entries), len(c2.entries)) + 2
    size = _built_size(c1, depth) + _built_size(c2, depth + 2)
    if size > MAX_CHAIN_SIZE:
        unit = "letters" if c1.site == "C" else "generator indices"
        raise ValueError(f"refusing tails of {size} {unit} > {MAX_CHAIN_SIZE}")
    m1 = _materialize(c1, depth)
    m2 = _materialize(c2, depth + 2)
    # The windows m1[i:i+depth] and m2[j:j+depth+2] interleave both ways iff
    # m1[i+depth-1] >= m2[k+2] and m2[k] >= m1[-1], for k = j+depth-1 and ends
    # clamped to the chains.  Window i = 0 ends highest, and a clamped j asks more.
    return any(
        _geq(c1.site, m1[depth - 1], m2[k + 2]) and _geq(c1.site, m2[k], m1[-1])
        for k in range(depth - 1, len(m2) - 2)
    )


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
    return _geq(c.site, target, c.entries[-1])


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
    try:
        site = obj["site"]
        extend = json_bool(obj.get("extend", False))
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
    except KeyError as e:
        raise ValueError(f"missing field {e}") from e
