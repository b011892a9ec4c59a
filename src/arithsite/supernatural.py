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
from .primes import factorize, is_prime

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
        return cls.from_factors({p: e for p, e in factorize(n).items()})

    def __str__(self) -> str:
        return format_supernatural(self)


def _exponent_pairs(s: Supernatural, t: Supernatural) -> dict[int, tuple]:
    """(s_p, t_p) at every exceptional prime p of s or t, from one dict each."""
    es, et = dict(s.exceptions), dict(t.exceptions)
    return {p: (es.get(p, s.default), et.get(p, t.default)) for p in es.keys() | et.keys()}


def _merge(s: Supernatural, t: Supernatural, op) -> Supernatural:
    factors = {p: op(a, b) for p, (a, b) in _exponent_pairs(s, t).items()}
    return Supernatural.from_factors(factors, op(s.default, t.default))


def mul(s: Supernatural, t: Supernatural) -> Supernatural:
    """Exponent-wise sum; inf absorbs."""
    return _merge(s, t, lambda a, b: INF if INF in (a, b) else a + b)


def lcm(s: Supernatural, t: Supernatural) -> Supernatural:
    return _merge(s, t, max)


def divides(n, s: Supernatural) -> bool:
    """n | s exponent-wise; n may be a positive int or a Supernatural."""
    if isinstance(n, int):
        n = Supernatural.from_int(n)
    if n.default > s.default:
        return False
    return all(a <= b for a, b in _exponent_pairs(n, s).values())


def in_open(s: Supernatural, generators: list[int]) -> bool:
    """Membership in the basic localic open spanned by the generators."""
    if not generators:
        raise ValueError("need at least one generator")
    return any(divides(n, s) for n in generators)


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
    return Supernatural.from_factors(factors)


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


def parse_supernatural(text: str) -> Supernatural:
    s = text.replace(" ", "")
    if re.fullmatch(r"\d+", s):
        return Supernatural.from_int(int(s))
    factors: dict[int, object] = {}
    default: object = 0
    for tok in s.split("*"):
        m = _DEFAULT_RE.match(tok)
        if m:
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
        factors[p] = exp
    return Supernatural.from_factors(factors, default)
