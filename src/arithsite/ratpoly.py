"""Exact rational kernel: 2x2 matrices and dense univariate polynomials over Q.

Matrix entries are fractions.Fraction (reduced, positive denominator).  A
polynomial is dense: integer numerators, lowest degree first, over one
positive denominator coprime to their content.  Both forms are canonical, so
equality and hashing are structural, and all polynomial arithmetic runs on
the integer numerators; Fractions appear only at the edges.

Composition packs its Horner accumulator into one Python int, coefficient j
in bits [jk, (j+1)k): the Kronecker substitution x -> 2^k (Kronecker 1882;
von zur Gathen and Gerhard, Modern Computer Algebra, section 8.4), which maps
Z[x] into Z as a ring homomorphism.  A Horner step is then a few shifted
multiples of one integer, and the coefficients are unpacked once, at the
end.  k is fixed up front from a bound on every output coefficient, by the
triangle inequality on the Horner recurrence, so no slot can overflow: see
PolyQ.compose.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from . import MAX_EXACT_DEGREE, record
from .literals import frac


# ---------------------------------------------------------------------------
# 2x2 matrices
# ---------------------------------------------------------------------------


class Mat2Q(record("Mat2Q", "a b c d")):
    """Row-major 2x2 rational matrix [[a, b], [c, d]]."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        return tuple.__new__(cls, (frac(a), frac(b), frac(c), frac(d)))

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def is_zero(self) -> bool:
        return not any(self)

    def __mul__(self, other: "Mat2Q") -> "Mat2Q":
        return Mat2Q(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "Mat2Q":
        d = self.det()
        if d == 0:
            raise ValueError("singular matrix")
        return Mat2Q(self.d / d, -self.b / d, -self.c / d, self.a / d)


def primitive_form(m: Mat2Q) -> tuple[Fraction, tuple[tuple[int, int], tuple[int, int]]]:
    """Unique scale > 0 making scale*m integral with content 1."""
    if m.is_zero():
        raise ValueError("degenerate matrix")
    den = lcm(*(e.denominator for e in m))
    ints = [int(e * den) for e in m]
    content = gcd(*(abs(v) for v in ints))
    scale = Fraction(den, content)
    a, b, c, d = (v // content for v in ints)
    return scale, ((a, b), (c, d))


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


def _make(num: list[int], den: int) -> "PolyQ":
    """The PolyQ num/den in canonical form, for any den != 0; pops num's zeros."""
    while num and not num[-1]:
        num.pop()
    g = gcd(den, *num)
    if den < 0:
        g = -g
    out = object.__new__(PolyQ)
    out.num = tuple(num) if g == 1 else tuple(c // g for c in num)
    out.den = den // g
    return out


def _int_divmod(a: list[int], b) -> tuple[list[int], list[int], int]:
    """Integer lists q, r and an integer s > 0 with s*a = q*b + r, deg r < deg b.

    Fraction-free long division: a step scales by |lead b| / gcd(top, lead b),
    which is 1 whenever the leading term divides exactly.  Consumes a.
    """
    lead, dn = b[-1], len(b) - 1
    q = [0] * max(len(a) - dn, 0)
    s = 1
    while True:
        while a and not a[-1]:
            a.pop()
        k = len(a) - 1 - dn
        if k < 0:
            return q, a, s
        top = a[-1]
        m = abs(lead) // gcd(top, lead)
        if m != 1:
            a = [c * m for c in a]
            q = [c * m for c in q]
            s *= m
            top *= m
        f = q[k] = top // lead
        a[k:] = [x - f * v for x, v in zip(a[k:-1], b)]  # the top term cancels


class PolyQ:
    """Dense polynomial over Q: the x^k coefficient is num[k] / den, with no
    trailing zero in num, den > 0 and gcd(content(num), den) = 1."""

    __slots__ = ("num", "den")

    def __new__(cls, coeffs=()):
        cs = [frac(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return _make([c.numerator * (den // c.denominator) for c in cs], den)

    # -- construction helpers

    @classmethod
    def const(cls, c) -> "PolyQ":
        return cls((c,))

    @classmethod
    def x(cls) -> "PolyQ":
        return cls((0, 1))

    @classmethod
    def monomial(cls, c, k: int) -> "PolyQ":
        return cls((0,) * k + (c,))

    # -- structure

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first (read-only)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    # -- ring operations

    def __add__(self, other) -> "PolyQ":
        other = self._coerce(other)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return _make([x * sa + y * sb for x, y in zip_longest(self.num, other.num, fillvalue=0)], den)

    def __sub__(self, other) -> "PolyQ":
        return self + -self._coerce(other)

    def __neg__(self) -> "PolyQ":
        return _make([-c for c in self.num], self.den)

    def __mul__(self, other) -> "PolyQ":
        """Schoolbook convolution of the numerators."""
        other = self._coerce(other)
        a, b = self.num, other.num
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _make(out, self.den * other.den)

    __rmul__ = __mul__

    @staticmethod
    def _coerce(v) -> "PolyQ":
        return v if isinstance(v, PolyQ) else PolyQ.const(v)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PolyQ.const(other)
        return isinstance(other, PolyQ) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"PolyQ({format_poly(self)})"

    # -- evaluation / calculus

    def __call__(self, x) -> Fraction:
        """Exact Horner evaluation at a rational x = p/q, in integers."""
        p, q = frac(x).as_integer_ratio()
        acc, scale = 0, 1  # acc = sum_k num[k] p^k q^(n-k), n = degree
        for c in reversed(self.num):
            acc = acc * p + c * scale
            scale *= q
        return Fraction(acc, self.den * q ** max(self.degree, 0))

    def derivative(self) -> "PolyQ":
        return _make([k * c for k, c in enumerate(self.num)][1:], self.den)

    def compose(self, g: "PolyQ") -> "PolyQ":
        """self(g(x)) by Horner on one packed integer: with self = sum_i c_i x^i / D
        of degree n and g = G / E, it is A / (D E^n), A = sum_i c_i G^i E^(n-i).

        The accumulator holds P(2^k) for the Horner partial P, starting from
        P = c_n: an exact integer for any k.  A step P -> P G + c_i E^(n-i) adds
        c_i E^(n-i) to the multiples G_j (acc << jk).  A coefficient of P G is
        at most max|P| ||G||_1 in absolute value, so by induction every
        coefficient of A is at most b_0 of the recurrence b_n = |c_n|,
        b_i = b_{i+1} ||G||_1 + |c_i| E^(n-i).  The slot width k is a multiple
        of 8 and at least 2 above b_0's bit length, so each coefficient a_j of A
        has |a_j| < 2^(k-1): the base-2^k digits of A(2^k) + sum_j 2^(k-1) 2^(jk)
        are the a_j + 2^(k-1), which to_bytes cuts out slot by slot.
        """
        n = self.degree
        if n < 1:
            return self
        norm = sum(map(abs, g.num))
        bound, e = abs(self.num[-1]), 1
        for c in reversed(self.num[:-1]):
            e *= g.den
            bound = bound * norm + abs(c) * e
        kb = (bound.bit_length() + 9) >> 3  # bytes per slot
        k = 8 * kb
        shifts = [(j * k, gj) for j, gj in enumerate(g.num) if gj]
        acc, e = self.num[-1], 1
        for c in reversed(self.num[:-1]):
            e *= g.den
            acc = sum([(acc << s) * gj for s, gj in shifts], c * e)
        slots = n * max(g.degree, 0) + 1  # deg A + 1
        half = 1 << (k - 1)
        offset = int.from_bytes(half.to_bytes(kb, "little") * slots, "little")  # half in every slot
        raw = (acc + offset).to_bytes(kb * slots, "little")
        num = [int.from_bytes(raw[i : i + kb], "little") - half for i in range(0, len(raw), kb)]
        return _make(num, self.den * e)

    # -- division

    def divmod(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        # s * num = q * other.num + r, and other.num = other.den * other
        q, r, s = _int_divmod(list(self.num), other.num)
        den = self.den * s
        return _make([c * other.den for c in q], den), _make(r, den)

    def monic(self) -> "PolyQ":
        if self.is_zero():
            return self
        return _make(list(self.num), self.num[-1])


POLY_ONE = PolyQ((1,))


def _int_primitive(cs) -> list[int]:
    """The primitive part with a positive leading term; cs has no trailing 0."""
    if not cs:
        return cs
    g = gcd(*cs)
    if cs[-1] < 0:
        g = -g
    return [c // g for c in cs]


def poly_gcd(f: PolyQ, g: PolyQ) -> PolyQ:
    """Monic gcd in Q[x], by the primitive pseudo-remainder sequence."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    a = _int_primitive(f.num)
    b = _int_primitive(g.num)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _int_primitive(_int_divmod(a, b)[1])
    return _make(a, a[-1])


def squarefree_part(f: PolyQ) -> PolyQ:
    """Monic product of the distinct irreducible factors of f."""
    if f.is_zero():
        raise ValueError("squarefree part of 0 is undefined")
    if f.degree == 0:
        return POLY_ONE
    g = poly_gcd(f, f.derivative())
    return f.divmod(g)[0].monic()


def multiplicity_counts(f: PolyQ, first: PolyQ | None = None) -> dict[int, int]:
    """Multiset of root multiplicities over C, as {multiplicity: #distinct roots}.

    Uses the gcd chain f, gcd(f, f'), gcd of that with its derivative, ...;
    the degree drops count roots of multiplicity >= k exactly.  A caller that
    knows gcd(f, f') up to a constant factor passes it as first, saving that
    gcd.  A step that lowers the degree by exactly 1 leaves one distinct root,
    whose multiplicity drops by 1 per further step, so the chain stops there.
    """
    if f.is_zero():
        raise ValueError("multiplicity structure of 0 is undefined")
    degs = [f.degree]
    cur = f
    while cur.degree > 0:
        cur = poly_gcd(cur, cur.derivative()) if first is None else first
        first = None
        if degs[-1] - cur.degree == 1:
            degs += range(cur.degree, -1, -1)
            break
        degs.append(cur.degree)
    ge = [degs[k] - degs[k + 1] for k in range(len(degs) - 1)]  # ge[k] = #roots with mult > k
    out = {}
    for m in range(1, len(ge) + 1):
        cnt = ge[m - 1] - (ge[m] if m < len(ge) else 0)
        if cnt:
            out[m] = cnt
    return out


# ---------------------------------------------------------------------------
# Text format: -2*x^3+3*x^2, rational coefficients as p/q
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"^([+-]?)(\d+(?:/\d+)?)?(?:\*?(x)(?:\^(\d+))?)?$"
)


def parse_poly(text: str) -> PolyQ:
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    # split into signed terms
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ValueError(f"cannot parse polynomial: {text!r}")
    coeffs: dict[int, Fraction] = {}
    for t in terms:
        m = _TERM_RE.match(t)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"bad term {t!r} in polynomial {text!r}")
        sign, num, xs, exp = m.groups()
        c = Fraction(num) if num else Fraction(1)
        if sign == "-":
            c = -c
        k = 0 if xs is None else (int(exp) if exp else 1)
        if k > MAX_EXACT_DEGREE:
            raise ValueError(f"refusing exponent {k} > {MAX_EXACT_DEGREE} in polynomial")
        coeffs[k] = coeffs.get(k, Fraction(0)) + c
    n = max(coeffs) + 1
    return PolyQ(coeffs.get(k, Fraction(0)) for k in range(n))


def format_poly(f: PolyQ) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for k, c in reversed(list(enumerate(f.coeffs))):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        a = abs(c)
        if k == 0:
            body = str(a)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            body = xs if a == 1 else f"{a}*{xs}"
        parts.append(sign + body)
    return "".join(parts)
