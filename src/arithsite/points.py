"""Truncated points of the localic covers and the projections between them.

A point of a localic cover is a descending chain; here chains are finite
truncations, optionally flagged as extending periodically by the step between
their last two entries.  chain_equiv decides the finite chains as given (False
means "not equivalent at this truncation depth"); tail_equiv decides extended
chains by their limits, exactly.

Each site's order (divisibility in N on site A, the prefix order of words on
site B, left division in the monoid C of free Conway words on site C, where
entries are stored as free normal words) is transitive, so a chain xs
interleaves ys (each x >= some y) iff xs[-1] >= ys[-1], and antisymmetric, so
a periodic extension is trivial iff its last two entries are equal.

Limits.  A nontrivial extension of prev >= L continues L, L s, L s s, ... on
site B (s = L[len(prev):]) and L, u L, u u L, ... on site C (L = u prev).  All
its tails have its limit, and two tails interleave iff:
- site A: the limits, supernatural numbers, agree modulo the monoid, as adele
  classes (n s = m s'), so 2^inf and 3 * 2^inf are equivalent.  The limit of
  L, L r, L r r, ... is L r^inf, whose infinite exponents sit at the primes
  of r, and n s = m s' is solvable iff those agree: iff the ratios r and r'
  of the last two entries have the same primes;
- site B: the limit words L s s s ... are equal, since x >= y iff x is a prefix
  of y.  Past m = max(|L1|, |L2|) letters they have periods |s1| and |s2|, so
  they are equal iff their first m + |s1| + |s2| letters agree (Fine and Wilf,
  Proc. AMS 16, 1965).  So [[0],[0,1]] and [[1],[1,1]] are not equivalent;
- site C: the limits in the profinite integers Zhat are equal.  With
  (N_w, P_w) = conway.free_value(w), x >= y iff the ball N_y + P_y Zhat lies in
  N_x + P_x Zhat: iff P_x | P_y and N_y = N_x mod P_x.  The balls are open and
  closed in the compact Zhat, so nested runs of them interleave iff their
  intersections are equal.  u acts as
  t -> (t + A_u)/P_u, so N_{u^k L} = N_L + A_u P_L (P_u^k - 1)/(P_u - 1), and the
  intersection is N_L mod D, for D the part of P_L prime to P_u, times the point
  r = N_L + A_u P_L/(1 - P_u) of Z_p at each prime p of P_u.  Q embeds in Z_p,
  so the limits are equal iff the steps' primes, D, N_L mod D and r agree.
"""

from __future__ import annotations

import json
from math import prod

from . import conway, record
from .literals import json_bool, json_int, json_list
from .supernatural import Supernatural, from_chain

SITES = ("A", "C", "B")


class TruncatedChain(record("TruncatedChain", "site entries extend gen_degrees")):
    __slots__ = ()

    def __new__(cls, site: str, entries, extend: bool = False, gen_degrees=()):
        if site not in SITES:
            raise ValueError(f"unknown site {site!r}")
        entries = tuple(tuple(e) if site != "A" else int(e) for e in entries)
        if site == "C":
            # entries are monoid elements: store their normal forms, testing each prime once
            flat = iter(conway.letters(l for e in entries for l in e))
            entries = tuple(conway.normalize(tuple(next(flat) for _ in e)) for e in entries)
        gen_degrees = tuple(gen_degrees)
        if site == "A" and any(e < 1 for e in entries):
            raise ValueError("site-A entries must be at least 1")
        if any(g < 1 for g in gen_degrees):
            raise ValueError("generator degrees must be at least 1")
        if not entries:
            raise ValueError("chain needs at least one entry")
        if extend and len(entries) < 2:
            raise ValueError("periodic extension needs at least two entries")
        for a, b in zip(entries, entries[1:]):
            if not _geq(site, a, b):
                raise ValueError(f"chain order violation: {_format(site, a)} !>= {_format(site, b)}")
        if site == "B":
            for e in entries:
                for idx in e:
                    if not 0 <= idx < len(gen_degrees):
                        raise ValueError(f"generator index {idx} out of range")
        if site == "C" and not all(map(conway.is_free, entries)):
            raise ValueError("outside monoid C")
        return tuple.__new__(cls, (site, entries, extend, gen_degrees))


def _geq(site: str, a, b) -> bool:
    """a >= b in the site order: b factors through a."""
    if site == "A":
        return b % a == 0
    if site == "C":  # the ball of b lies in the ball of a
        if not (conway.is_free(a) and conway.is_free(b)):
            raise ValueError("outside monoid C")
        (n_a, p_a), (n_b, p_b) = conway.free_value(a), conway.free_value(b)
        return p_b % p_a == 0 and (n_b - n_a) % p_a == 0
    return len(a) <= len(b) and b[: len(a)] == a  # B: prefix of the composition


def _format(site: str, e) -> str:
    if site == "C":
        return conway.format_word(e)
    return json.dumps(e) if site == "B" else str(e)


def chain_equiv(c1: TruncatedChain, c2: TruncatedChain) -> bool:
    """Interleaving of the two finite chains as given: equal deepest entries."""
    if c1.site != c2.site:
        raise ValueError("chains live on different sites")
    x, y = c1.entries[-1], c2.entries[-1]
    return _geq(c1.site, x, y) and _geq(c1.site, y, x)


def tail_equiv(c1: TruncatedChain, c2: TruncatedChain) -> bool:
    """Whether some tails of the two points interleave, by the laws above: finite
    points share the empty tail (the class of 1), which no extended chain has."""
    if c1.site != c2.site:
        raise ValueError("chains live on different sites")
    e1, e2 = (c.extend and c.entries[-2] != c.entries[-1] for c in (c1, c2))
    if not e1 and not e2:
        return True
    if e1 != e2:
        return False
    if c1.site == "A":
        r1, r2 = (c.entries[-1] // c.entries[-2] for c in (c1, c2))
        return _primes_divide(r1, r2) and _primes_divide(r2, r1)
    if c1.site == "B":
        (prev1, l1), (prev2, l2) = c1.entries[-2:], c2.entries[-2:]
        s1, s2 = l1[len(prev1) :], l2[len(prev2) :]
        n = max(len(l1), len(l2)) + len(s1) + len(s2)
        return (l1 + s1 * (n // len(s1)))[:n] == (l2 + s2 * (n // len(s2)))[:n]
    (key1, num1, den1), (key2, num2, den2) = _class_limit(c1), _class_limit(c2)
    return key1 == key2 and num1 * den2 == num2 * den1


def _primes_divide(a: int, b: int) -> bool:
    """Whether every prime of a divides b: a | b^k for k = bits(a), which
    passes every exponent in a.  One pow mod a; nothing is factored."""
    return pow(b, a.bit_length(), a) == 0


def _class_limit(c: TruncatedChain) -> tuple:
    """The site-C limit as ((step primes, D, N_L mod D), num, den), r = num/den."""
    (n_prev, p_prev), (n, p) = (conway.free_value(w) for w in c.entries[-2:])
    p_u, a_u = p // p_prev, (n - n_prev) // p_prev  # L = u prev
    primes = {q for q in {l.p for l in c.entries[-1]} if p_u % q == 0}
    d = prod(l.p for l in c.entries[-1] if l.p not in primes)
    return (primes, d, n % d), n * (1 - p_u) + a_u * p, 1 - p_u


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
    """The chain's fields as stored: tuples, and so letters, are JSON arrays."""
    obj: dict = {"site": c.site, "entries": c.entries}
    if c.site == "B":
        obj["gen_degrees"] = c.gen_degrees
    if c.extend:
        obj["extend"] = True
    return json.dumps(obj)


def from_json(text: str) -> TruncatedChain:
    """The chain of a JSON object: entries, and each site-B or site-C entry, must be
    JSON arrays, site-A and site-B numbers JSON integers, and site-C letters pass as
    they are to TruncatedChain, whose conway.letters reads them."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("a chain is a JSON object")
    try:
        site = obj["site"]
        extend = json_bool(obj.get("extend", False))
        if site not in SITES:
            raise ValueError(f"unknown site {site!r}")
        entries = json_list(obj["entries"], "entries")
        if site == "A":
            return TruncatedChain("A", tuple(json_int(e) for e in entries), extend)
        entries = [json_list(e, f"entries[{j}]") for j, e in enumerate(entries)]
        if site == "C":
            return TruncatedChain("C", entries, extend)
        entries = tuple(tuple(json_int(i) for i in e) for e in entries)
        degrees = json_list(obj.get("gen_degrees", []), "gen_degrees")
        return TruncatedChain("B", entries, extend, tuple(json_int(d) for d in degrees))
    except TypeError as e:
        raise ValueError(f"bad chain field: {e}") from e
    except KeyError as e:
        raise ValueError(f"missing field {e}") from e
