"""Supernatural numbers with a cofinite default exponent.

A supernatural number is a formal product prod_p p^(e_p) with exponents in
N u {inf}.  We represent exactly the finitely-described ones: finitely many
exceptional primes plus one default exponent applied to every other prime,
so both prod_p p and prod_p p^inf are representable.  The full semigroup is
uncountable; everything else is out of reach by construction.
"""

from __future__ import annotations

import re

from . import record
from .primes import factorize, is_prime, split_power

INF = float("inf")


def _exp_ok(e) -> bool:
    return e == INF or (isinstance(e, int) and e >= 0)


class Supernatural(record("Supernatural", "exceptions default")):
    """exceptions: sorted tuple of (prime, exponent); default applies elsewhere."""

    __slots__ = ()

    def __new__(cls, exceptions=(), default=0):
        if not _exp_ok(default):
            raise ValueError(f"bad default exponent {default!r}")
        seen = set()
        for p, e in exceptions:
            if not is_prime(p):
                raise ValueError(f"exception key {p} is not prime")
            if not _exp_ok(e):
                raise ValueError(f"bad exponent {e!r} at prime {p}")
            if e == default:
                raise ValueError(f"non-canonical exception {p}^{e} equal to default")
            if p in seen:
                raise ValueError(f"duplicate prime {p}")
            seen.add(p)
        return tuple.__new__(cls, (tuple(sorted(exceptions)), default))

    # -- constructors

    @classmethod
    def from_factors(cls, factors: dict[int, object], default=0) -> "Supernatural":
        exc = tuple((p, e) for p, e in factors.items() if e != default)
        return cls(exc, default)

    @classmethod
    def from_int(cls, n: int) -> "Supernatural":
        if n < 1:
            raise ValueError("need n >= 1")
        return _trusted(factorize(n))

    def __str__(self) -> str:
        return format_supernatural(self)


def _trusted(factors: dict[int, object], default=0) -> Supernatural:
    """A Supernatural without __new__'s tests, from exponents that a theorem
    proves valid at keys already proved prime; those equal to the default drop."""
    return tuple.__new__(Supernatural, (tuple(sorted((p, e) for p, e in factors.items() if e != default)), default))


def _exponent_pairs(s: Supernatural, t: Supernatural) -> dict[int, tuple]:
    """(s_p, t_p) at every exceptional prime p of s or t, from one dict each."""
    es, et = dict(s.exceptions), dict(t.exceptions)
    return {p: (es.get(p, s.default), et.get(p, t.default)) for p in es.keys() | et.keys()}


def _merge(s: Supernatural, t: Supernatural, op) -> Supernatural:
    factors = {p: op(a, b) for p, (a, b) in _exponent_pairs(s, t).items()}
    return _trusted(factors, op(s.default, t.default))


def _add(a, b):
    """The sum of two exponents; inf absorbs."""
    return INF if INF in (a, b) else a + b


def mul(s: Supernatural, t: Supernatural) -> Supernatural:
    """Exponent-wise sum."""
    return _merge(s, t, _add)


def lcm(s: Supernatural, t: Supernatural) -> Supernatural:
    return _merge(s, t, max)


def divides(n, s: Supernatural, named=()) -> bool:
    """n | s exponent-wise; n may be a positive int or a Supernatural.

    An int n gives up its power of each exceptional prime of s, and of each
    prime in named, which a literal of s names at the default exponent, by
    split_power; each power must be at most s's exponent there.  What is left
    divides s if it is 1 or the default is inf; for a finite positive default
    e, if no prime divides it more than e times, which only factoring it tells.
    """
    if not isinstance(n, int):
        if n.default > s.default:
            return False
        return all(a <= b for a, b in _exponent_pairs(n, s).values())
    if n < 1:
        raise ValueError("need n >= 1")
    for p, e in (*s.exceptions, *((q, s.default) for q in named)):
        v, n = split_power(n, p)
        if v > e:
            return False
    if n == 1 or s.default == INF:
        return True
    return 0 < s.default and max(factorize(n).values()) <= s.default


def in_open(s: Supernatural, generators: list[int], named=()) -> bool:
    """Membership in the basic localic open spanned by the generators, each tested once
    by divides, which strips the primes in named as it strips s's exceptional ones."""
    if not generators:
        raise ValueError("need at least one generator")
    return any(divides(n, s, named) for n in dict.fromkeys(generators))


def adele_class_equiv(s: Supernatural, t: Supernatural) -> bool:
    """True when finite multiples can match s and t (n.s = m.t solvable)."""
    if s.default != t.default:
        return False
    return all(a == b or INF not in (a, b) for a, b in _exponent_pairs(s, t).values())


def from_chain(chain: list[int], limit: bool = False) -> Supernatural:
    """Exponent-wise supremum of a divisibility chain.

    A finite chain can never produce an infinite exponent.  With limit=True
    the chain is extended periodically by the ratio of its last two entries,
    sending every prime of that ratio to exponent inf.
    """
    if not chain:
        raise ValueError("empty chain")
    for a, b in zip(chain, chain[1:]):
        if a < 1 or b % a != 0:
            raise ValueError(f"chain divisibility violation: {a} does not divide {b}")
    if chain[0] < 1:
        raise ValueError("chain entries must be positive")
    factors: dict[int, object] = dict(factorize(chain[-1]))
    if limit:
        if len(chain) < 2:
            raise ValueError("limit extension needs at least two entries")
        ratio = chain[-1] // chain[-2]
        for p in factorize(ratio):
            factors[p] = INF
    return _trusted(factors)


# ---------------------------------------------------------------------------
# Text format: 2^inf*3^2*[default=0]
# ---------------------------------------------------------------------------

_FACTOR_RE = re.compile(r"^(\d+)(?:\^(\d+|inf))?$")
_DEFAULT_RE = re.compile(r"^\[default=(\d+|inf)\]$")


def format_supernatural(s: Supernatural) -> str:
    parts = []
    for p, e in s.exceptions:
        if e == INF:
            parts.append(f"{p}^inf")
        elif e == 1:
            parts.append(str(p))
        else:
            parts.append(f"{p}^{e}")
    d = "inf" if s.default == INF else str(s.default)
    parts.append(f"[default={d}]")
    return "*".join(parts)


def parse_divisor(text: str):
    """A positive integer literal as an int, which divides reads without factoring
    it when it can; any other literal as parse_supernatural reads it."""
    s = text.replace(" ", "")
    if re.fullmatch(r"\d+", s) and (n := int(s)) >= 1:
        return n
    return parse_supernatural(s)


def parse_supernatural(text: str) -> Supernatural:
    return parse_named(text)[0]


def parse_named(text: str) -> tuple[Supernatural, tuple[int, ...]]:
    """A literal's value, and the primes it names at the default exponent, which
    the value drops and divides may strip from n.  Every named key is tested
    prime: __new__ tests the exceptional ones, and this the rest."""
    s = text.replace(" ", "")
    if re.fullmatch(r"\d+", s):
        return Supernatural.from_int(int(s)), ()
    factors: dict[int, object] = {}
    default: object = None
    for tok in s.split("*"):
        m = _DEFAULT_RE.match(tok)
        if m:
            if default is not None:
                raise ValueError("more than one [default=...] token")
            default = INF if m.group(1) == "inf" else int(m.group(1))
            continue
        m = _FACTOR_RE.match(tok)
        if not m:
            raise ValueError(f"bad supernatural token {tok!r}")
        p = int(m.group(1))
        if p == 1 and m.group(2) is None:
            continue
        e = m.group(2)
        exp = INF if e == "inf" else (int(e) if e else 1)
        factors[p] = _add(factors.get(p, 0), exp)  # a repeated prime multiplies
    default = 0 if default is None else default
    named = tuple(p for p, e in factors.items() if e == default)
    for p in named:
        if not is_prime(p):
            raise ValueError(f"key {p} is not prime")
    return Supernatural.from_factors(factors, default), named
