"""Dynamical Belyi polynomials over Q and their morphisms to the other sites.

A dynamical Belyi polynomial fixes 0 and 1 and ramifies only over {0, 1, inf}.
Over 0 and 1 a degree-d P ramifies by (d - #roots(P)) + (d - #roots(P-1)),
with #roots(f) = deg f - deg gcd(f, f'), and over C by deg P' = d - 1 in all
(Riemann-Hurwitz; Lando-Zvonkin ch. 1-2).  So P is Belyi exactly when
#roots(P) + #roots(P-1) = d + 1, and one gcd decides it.  Let B = gcd(P, P')
and W = P'/B, an exact quotient.  B and V = gcd(P - 1, P') are coprime
divisors of P', so deg B + deg V <= d - 1, with equality exactly when V ~ W.
So, given P(0) = 0 and P(1) = 1, P is dynamical Belyi iff W divides P - 1.
Its root counts are then (d - deg B, deg B + 1), and its passport reads the
multiplicity chains of P from B and of P - 1 from W, with no second gcd.

B_{d,k}, composites and involutions carry their passport and the multiplicities
v0, v1 of 0 in P and 1 in P - 1.  g fixes 0, 1 with critical values in {0, 1}, so
f o g has f's black parts less one v0, deg g times over, plus v0 times g's; white
alike at 1 (compose_passport); and the valencies multiply.  A passport is the
pair (black, white) of descending tuples, equal to dessins.passport of the tree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import count
from math import comb

from . import MAX_EXACT_DEGREE
from .ratpoly import PolyQ, format_poly, multiplicity_counts, poly_gcd, squarefree_part

Passport = tuple[tuple[int, ...], tuple[int, ...]]


def _belyi_split(p: PolyQ) -> tuple[PolyQ, PolyQ] | None:
    """(B, W) = (gcd(P, P'), P'/B) if P is dynamical Belyi, else None: the
    Belyi P are those with P(0) = 0, P(1) = 1 and W | P - 1 (module docstring)."""
    if p.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    if p(0) != 0 or p(1) != 1:
        return None
    dp = p.derivative()
    b = poly_gcd(p, dp)
    w = dp.divmod(b)[0]
    return (b, w) if (p - PolyQ.const(1)).divmod(w)[1].is_zero() else None


def is_dynamical_belyi(p: PolyQ) -> bool:
    return _belyi_split(p) is not None


class BelyiPoly:
    """A dynamical Belyi polynomial: a parsed one passes the predicate and keeps
    its pair (B, W), and _trusted ones carry their passport and valencies."""

    def __init__(self, poly: PolyQ):
        split = _belyi_split(poly)
        if split is None:
            raise ValueError("not a dynamical Belyi polynomial")
        self.poly = poly
        self._split = split
        self.counts = poly.degree - split[0].degree, split[0].degree + 1

    def __eq__(self, other):
        return self.poly == other.poly if isinstance(other, BelyiPoly) else NotImplemented

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        return f"BelyiPoly(poly={self.poly!r})"

    @property
    def degree(self) -> int:
        return self.poly.degree

    def __str__(self):
        return format_poly(self.poly)

    @cached_property
    def counts(self) -> tuple[int, int]:
        """(black, white): the distinct roots of P and of P - 1."""
        return tuple(map(len, self.passport))

    @cached_property
    def passport(self) -> Passport:
        """Exact multiplicity passport of (P, P-1); matches passport(D(P)).

        B = gcd(P, P') and W ~ gcd(P - 1, P') begin the two multiplicity chains.
        """
        parts = []
        for f, first in zip((self.poly, self.poly - PolyQ.const(1)), self._split):
            mults = sorted(multiplicity_counts(f, first).items(), reverse=True)
            parts.append(tuple(m for m, cnt in mults for _ in range(cnt)))
        return tuple(parts)

    @cached_property
    def squarefree(self) -> PolyQ:
        """S, the monic squarefree part of P: one gcd per polynomial, however often
        compose_count_check meets it as the outer map."""
        return squarefree_part(self.poly)

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
    passport = (d - k, *[1] * k), (k + 1, *[1] * (d - k - 1))
    return _trusted(poly, passport, (d - k, k + 1))


def compose_passport(p: Passport, v0: int, v1: int, p2: Passport, d2: int) -> Passport:
    """The passport of f o g, for f of passport p and marked valencies v0, v1 and g of
    passport p2 and degree d2, by the law in the module docstring."""
    out = []
    for parts, v, parts2 in zip(p, (v0, v1), p2):
        parts = list(parts)
        parts.remove(v)
        out.append(tuple(sorted(parts * d2 + [v * part for part in parts2], reverse=True)))
    return tuple(out)


def compose(p: BelyiPoly, p2: BelyiPoly) -> BelyiPoly:
    (v0, v1), (w0, w1) = p.valencies, p2.valencies
    passport = compose_passport(p.passport, v0, v1, p2.passport, p2.degree)
    return _trusted(p.poly.compose(p2.poly), passport, (v0 * w0, v1 * w1))


def black_count(p: BelyiPoly) -> int:
    return p.counts[0]


def white_count(p: BelyiPoly) -> int:
    return p.counts[1]


def poly_passport(p: BelyiPoly) -> Passport:
    return p.passport


def _composite_roots(s: PolyQ, g: PolyQ) -> int:
    """#roots(f o g) for nonconstant f and g, given S, the squarefree part of f, as
    deg(S o g) - deg gcd(S o g, g'), without building f o g:
    - S o g has the roots of f o g, since S and f have the same roots;
    - gcd(S, S') = 1, so U S + V S' = 1 for some U, V, and composing with g gives
      U(g) (S o g) + V(g) (S' o g) = 1: gcd(S o g, S' o g) = 1;
    - so gcd(S o g, (S o g)') = gcd(S o g, (S' o g) g') = gcd(S o g, g'),
    and #roots(h) = deg h - deg gcd(h, h') for h = S o g.
    """
    h = s.compose(g)
    return h.degree - poly_gcd(h, g.derivative()).degree


def compose_count_check(p: BelyiPoly, p2: BelyiPoly) -> bool:
    """Black count of the composition versus deg(P2)(#P^-1(0)-1) + #(P2)^-1(0); the
    left side, #roots(P o P2), is an exact count of its own (_composite_roots),
    independent of the passport compose carries.  P keeps its squarefree part S
    (BelyiPoly.squarefree), so a call takes one gcd, of S o P2 with P2', of degree
    at most deg P2 - 1; the composite's degree stays held to MAX_EXACT_DEGREE."""
    if p.degree * p2.degree > MAX_EXACT_DEGREE:
        raise ValueError(f"refusing a composite of degree {p.degree * p2.degree} > {MAX_EXACT_DEGREE}")
    left = _composite_roots(p.squarefree, p2.poly)
    right = p2.degree * (black_count(p) - 1) + black_count(p2)
    return left == right


def degree_morphism(p: BelyiPoly) -> int:
    return p.degree


def beta_morphism(p: BelyiPoly) -> PicClass:
    """The class (1/d, (b-1)/d) with d = deg P and b the black count.  Since
    1 <= b <= d, its Hermite form is (1, b - 1, d): tree dessins never wrap
    the offset mod 1."""
    from .bigpicture import PicClass  # only the morphisms to the other sites load their modules

    return PicClass(Fraction(1, p.degree), Fraction(black_count(p) - 1, p.degree))


def beta_word(p: BelyiPoly) -> conway.Word:
    """The normal word of beta(P), free since M N = (1/d) d = 1 leaves no power letter."""
    from . import conway

    return conway.class_to_word(beta_morphism(p))


def triangle_check(p: BelyiPoly) -> bool:
    """delta(beta(P)) = deg P holds by theorem: beta(P) has Hermite form
    (1, b - 1, d), since 1 <= b <= d, so hyperdistance(1, beta P) = a n = d."""
    return True


def involution_poly(p: BelyiPoly) -> BelyiPoly:
    """1 - P(1 - x); swaps the roles of 0 and 1, so the colours and valencies."""
    flipped = PolyQ.const(1) - p.poly.compose(PolyQ((1, -1)))
    return _trusted(flipped, p.passport[::-1], p.valencies[::-1])


# MAX_FREE_DEGREE bounds free_check by the summed degree of its words,
# sum_{n <= maxlen} (sum_i deg g_i)^n: a word's value has about deg log2(q)
# bits, and only words whose values collide build their composites.  On a
# 2-core Xeon host one cubic to length 8 (a total of 9840) took 0.7 ms; built
# composite by composite, as before, it took 13.5 s.
MAX_FREE_DEGREE = 10**4


def _word_poly(generators: list[BelyiPoly], word: tuple[int, ...]) -> PolyQ:
    """The composite g_{w_1} o ... o g_{w_n} of the word w, folded from the left
    (by associativity), so the inner map of each compose is one generator."""
    f = PolyQ.x()
    for i in word:
        f = f.compose(generators[i].poly)
    return f


def free_check(generators: list[BelyiPoly], maxlen: int) -> bool:
    """Distinct words over the generators give distinct composites, up to maxlen.

    Each word is read first at t = 1/q, inside out: (g o w)(t) = g(w(t)).  The
    prime q divides no generator's leading numerator or denominator, so w(t)
    has q-adic valuation -deg w, and distinct values prove distinct composites.
    Only words whose values collide build their composites and compare them.
    """
    if maxlen < 0:
        raise ValueError("maxlen must be >= 0")
    if len(set(g.poly for g in generators)) != len(generators):
        raise ValueError("generators must be pairwise distinct")
    total = 0
    for n in range(1, maxlen + 1):
        total += sum(g.degree for g in generators) ** n
        if total > MAX_FREE_DEGREE:
            raise ValueError(f"refusing composites of total degree {total} > {MAX_FREE_DEGREE}")
    from .primes import is_prime

    q = next(q for q in count(3) if is_prime(q) and all(g.poly.num[-1] * g.poly.den % q for g in generators))
    seen: dict[Fraction, list[tuple[int, ...]]] = {}
    level = [((), Fraction(1, q))]  # level n puts one factor outside each level n-1 word
    for _ in range(maxlen):
        level = [((i, *w), g.poly(t)) for w, t in level for i, g in enumerate(generators)]
        for w, t in level:
            earlier = seen.setdefault(t, [])
            if earlier:
                f = _word_poly(generators, w)
                if any(_word_poly(generators, u) == f for u in earlier):
                    return False
            earlier.append(w)
    return True
