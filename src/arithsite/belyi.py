"""Dynamical Belyi polynomials over Q and their morphisms to the other sites.

A dynamical Belyi polynomial fixes 0 and 1 and ramifies only over {0, 1, inf}.
Over 0 and 1 a degree-d P ramifies by (d - #roots(P)) + (d - #roots(P-1)),
with #roots(f) = deg f - deg gcd(f, f'), and over C by deg P' = d - 1 in all
(Riemann-Hurwitz; Lando-Zvonkin ch. 1-2).  So the predicate is exactly
#roots(P) + #roots(P-1) = d + 1.  Then every root of P' is a root of P or of
P - 1, a root of multiplicity m there having multiplicity m - 1 in P', and
P' = c B W with B = gcd(P, P') and W = gcd(P - 1, P'): the passport of a
parsed P takes one gcd for B and gets W by exact division.

B_{d,k}, composites and involutions carry their passport and the multiplicities
v0, v1 of 0 in P and 1 in P - 1.  g fixes 0, 1 with critical values in {0, 1}, so
f o g has f's black parts less one v0, deg g times over, plus v0 times g's; white
alike at 1 (dessins.compose_passport); and the valencies multiply.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from . import conway
from .bigpicture import PIC_ONE, PicClass, hyperdistance
from .dessins import Passport, _parts, compose_passport
from .ratpoly import MAX_EXACT_DEGREE, PolyQ, format_poly, multiplicity_counts, poly_gcd


def _roots(f: PolyQ) -> int:
    """Number of distinct complex roots of a nonconstant f."""
    return f.degree - poly_gcd(f, f.derivative()).degree


def is_dynamical_belyi(p: PolyQ) -> bool:
    if p.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    if p(0) != 0 or p(1) != 1:
        return False
    return _roots(p) + _roots(p - PolyQ.const(1)) == p.degree + 1


@dataclass(frozen=True)
class BelyiPoly:
    poly: PolyQ

    def __post_init__(self):
        if not is_dynamical_belyi(self.poly):
            raise ValueError("not a dynamical Belyi polynomial")

    @property
    def degree(self) -> int:
        return self.poly.degree

    def __str__(self):
        return format_poly(self.poly)

    @cached_property
    def passport(self) -> Passport:
        """Exact multiplicity passport of (P, P-1); matches passport(D(P)).

        One gcd: B = gcd(P, P'), and W = P'/B is gcd(P - 1, P') up to a constant.
        """
        dp = self.poly.derivative()
        b = poly_gcd(self.poly, dp)
        parts = []
        for f, first in ((self.poly, b), (self.poly - PolyQ.const(1), dp.divmod(b)[0])):
            ms = []
            for m, cnt in multiplicity_counts(f, first).items():
                ms += [m] * cnt
            parts.append(_parts(ms))
        return Passport(*parts)

    @cached_property
    def valencies(self) -> tuple[int, int]:
        """(v0, v1): the lowest nonzero coefficient index of P and of 1 - P(1 - x)."""
        flipped = PolyQ.const(1) - self.poly.compose(PolyQ((1, -1)))
        return tuple(next(i for i, c in enumerate(f.num) if c) for f in (self.poly, flipped))


def _trusted(poly: PolyQ, passport: Passport, valencies: tuple[int, int]) -> BelyiPoly:
    """A BelyiPoly without the predicate, carrying what its theorem gives.

    Chain rule: (P o Q)' = P'(Q) Q', so every critical value of P o Q lies in
    P({0, 1}) u P(crit P), inside {0, 1}.  Involution: 1 - P(1-x) swaps 0, 1.
    """
    out = object.__new__(BelyiPoly)
    out.__dict__.update(poly=poly, passport=passport, valencies=valencies)
    return out


def b_dk(d: int, k: int) -> BelyiPoly:
    """The degree-d family member with 0 of valency d-k and 1 of valency k+1.

    B = c int_0^x t^(d-k-1) (1-t)^k dt, with c = (d-k) C(d, k) making B(1) = 1.
    Its derivative c x^(d-k-1) (1-x)^k vanishes only at 0 and 1, so every
    critical value lies in B({0, 1}) = {0, 1}: B is Belyi by theorem.
    """
    if d < 2 or not 0 <= k < d:
        raise ValueError(f"need d >= 2 and 0 <= k < d, got d={d}, k={k}")
    if d > MAX_EXACT_DEGREE:
        raise ValueError(f"refusing degree {d} > {MAX_EXACT_DEGREE}")
    c = (d - k) * comb(d, k)  # d (d-1) ... (d-k) / k!
    inner = [Fraction((-1) ** (k - i) * comb(k, i), d - i) for i in range(k + 1)]
    inner.reverse()  # a_k + ... + a_0 x^k, lowest degree first
    poly = PolyQ.monomial(c, d - k) * PolyQ(inner)
    passport = Passport((d - k, *[1] * k), (k + 1, *[1] * (d - k - 1)))
    return _trusted(poly, passport, (d - k, k + 1))


def compose(p: BelyiPoly, p2: BelyiPoly) -> BelyiPoly:
    (v0, v1), (w0, w1) = p.valencies, p2.valencies
    passport = compose_passport(p.passport, v0, v1, p2.passport, p2.degree)
    return _trusted(p.poly.compose(p2.poly), passport, (v0 * w0, v1 * w1))


def black_count(p: BelyiPoly) -> int:
    return len(p.passport.black)


def white_count(p: BelyiPoly) -> int:
    return len(p.passport.white)


def poly_passport(p: BelyiPoly) -> Passport:
    return p.passport


def compose_count_check(p: BelyiPoly, p2: BelyiPoly) -> bool:
    """Black count of the composition versus deg(P2)(#P^-1(0)-1) + #(P2)^-1(0); the
    left side takes its own gcd, independent of the passport compose carries."""
    left = _roots(p.poly.compose(p2.poly))
    right = p2.degree * (black_count(p) - 1) + black_count(p2)
    return left == right


def degree_morphism(p: BelyiPoly) -> int:
    return p.degree


def beta_morphism(p: BelyiPoly) -> PicClass:
    """The class (1/d, (b-1)/d) with d = deg P and b the black count."""
    d = p.degree
    b = black_count(p)
    assert 0 <= b - 1 < d  # tree dessins never wrap the offset mod 1
    return PicClass(Fraction(1, d), Fraction(b - 1, d))


def beta_word(p: BelyiPoly) -> conway.Word:
    """The normal word of beta(P), free since M N = (1/d) d = 1 leaves no power letter."""
    return conway.class_to_word(beta_morphism(p))


def triangle_check(p: BelyiPoly) -> bool:
    return hyperdistance(PIC_ONE, beta_morphism(p)) == p.degree


def involution_poly(p: BelyiPoly) -> BelyiPoly:
    """1 - P(1 - x); swaps the roles of 0 and 1, so the colours and valencies."""
    flipped = PolyQ.const(1) - p.poly.compose(PolyQ((1, -1)))
    return _trusted(flipped, Passport(*p.passport[::-1]), p.valencies[::-1])


# MAX_FREE_DEGREE bounds free_check by the summed degree of the composites it
# builds, sum_{n <= maxlen} (sum_i deg g_i)^n; on a 2-core Xeon host a total
# of 7380 took 1.8 s and 87380 took 65 s, about quadratic in the total.
MAX_FREE_DEGREE = 10**4


def free_check(generators: list[BelyiPoly], maxlen: int) -> bool:
    """Distinct words over the generators give distinct composites, up to maxlen."""
    if len(set(g.poly for g in generators)) != len(generators):
        raise ValueError("generators must be pairwise distinct")
    total = 0
    for n in range(1, maxlen + 1):
        total += sum(g.degree for g in generators) ** n
        if total > MAX_FREE_DEGREE:
            raise ValueError(f"refusing composites of total degree {total} > {MAX_FREE_DEGREE}")
    seen: set[PolyQ] = set()
    level = [PolyQ.x()]  # level n extends each level n-1 composite by one factor
    for _ in range(maxlen):
        level = [f.compose(g.poly) for f in level for g in generators]
        for f in level:
            if f in seen:
                return False
            seen.add(f)
    return True
