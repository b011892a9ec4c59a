"""Exact rational kernel: 2x2 matrices and dense univariate polynomials over Q.

Rational scalars are fractions.Fraction throughout (always reduced, positive
denominator), so equality and hashing are structural.  Polynomials are dense
with coefficients stored lowest degree first; degrees in this package stay
around 100, where dense wins on simplicity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

# MAX_EXACT_DEGREE caps the degree of the exact polynomials built from user
# input: each term of parse_poly, the composites of arboreal and belyi.b_dk
# (and the dessin of the same degree, dessins.e_dessin).  On a 2-core Xeon
# host an exact squarefree check took 0.4 s at degree 512 (d = 8) and 2.1 s
# at degree 729 (d = 3), and cost climbs steeply beyond.
MAX_EXACT_DEGREE = 512


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# 2x2 matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mat2Q:
    """Row-major 2x2 rational matrix [[a, b], [c, d]]."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for f in ("a", "b", "c", "d"):
            object.__setattr__(self, f, frac(getattr(self, f)))

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

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

    def entries(self):
        return (self.a, self.b, self.c, self.d)


def shear(n: int) -> Mat2Q:
    """The integral shear [[1, n], [0, 1]]."""
    return Mat2Q(Fraction(1), Fraction(n), Fraction(0), Fraction(1))


def primitive_form(m: Mat2Q) -> tuple[Fraction, tuple[tuple[int, int], tuple[int, int]]]:
    """Unique scale > 0 making scale*m integral with content 1."""
    if m.is_zero():
        raise ValueError("degenerate matrix")
    den = lcm(*(e.denominator for e in m.entries()))
    ints = [int(e * den) for e in m.entries()]
    content = gcd(*(abs(v) for v in ints))
    scale = Fraction(den, content)
    a, b, c, d = (v // content for v in ints)
    return scale, ((a, b), (c, d))


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class PolyQ:
    """Dense univariate polynomial over Q, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- construction helpers

    @classmethod
    def const(cls, c) -> "PolyQ":
        return cls((frac(c),))

    @classmethod
    def x(cls) -> "PolyQ":
        return cls((0, 1))

    @classmethod
    def monomial(cls, c, k: int) -> "PolyQ":
        return cls((0,) * k + (frac(c),))

    # -- structure

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    # -- ring operations

    def __add__(self, other) -> "PolyQ":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ(self.coeff(k) + other.coeff(k) for k in range(n))

    def __sub__(self, other) -> "PolyQ":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ(self.coeff(k) - other.coeff(k) for k in range(n))

    def __neg__(self) -> "PolyQ":
        return PolyQ(-c for c in self.coeffs)

    def __mul__(self, other) -> "PolyQ":
        if isinstance(other, (int, Fraction)):
            return PolyQ(c * other for c in self.coeffs)
        if self.is_zero() or other.is_zero():
            return PolyQ()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PolyQ(out)

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, n: int) -> "PolyQ":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = POLY_ONE
        for _ in range(n):
            out = out * self
        return out

    def __rsub__(self, other) -> "PolyQ":
        return self._coerce(other) - self

    @staticmethod
    def _coerce(v) -> "PolyQ":
        return v if isinstance(v, PolyQ) else PolyQ.const(v)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PolyQ.const(other)
        return isinstance(other, PolyQ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"PolyQ({format_poly(self)})"

    # -- evaluation / calculus

    def __call__(self, x):
        """Horner evaluation; works for Fraction, float and complex inputs."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "PolyQ":
        return PolyQ(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def compose(self, g: "PolyQ") -> "PolyQ":
        """self(g(x))."""
        acc = PolyQ()
        for c in reversed(self.coeffs):
            acc = acc * g + PolyQ.const(c)
        return acc

    # -- division

    def divmod(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        lead = other.leading()
        dn = other.degree
        while len(rem) - 1 >= dn and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dn:
                break
            k = len(rem) - 1 - dn
            f = rem[-1] / lead
            q[k] = f
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= f * b
            rem.pop()
        return PolyQ(q), PolyQ(rem)

    def divides(self, other: "PolyQ") -> bool:
        """True when self | other exactly in Q[x]."""
        if self.is_zero():
            return other.is_zero()
        return other.divmod(self)[1].is_zero()

    def monic(self) -> "PolyQ":
        if self.is_zero():
            return self
        return self * (1 / self.leading())


POLY_ONE = PolyQ((1,))


# gcd runs on integer coefficient lists (primitive pseudo-remainder sequence)
# to dodge the Fraction gcd overhead at degree ~80.


def _int_clear(f: PolyQ) -> list[int]:
    den = lcm(*(c.denominator for c in f.coeffs))
    return [int(c * den) for c in f.coeffs]


def _int_primitive(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return cs
    g = gcd(*(abs(c) for c in cs))
    if cs[-1] < 0:
        g = -g
    return [c // g for c in cs]


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    rem = list(a)
    lead = b[-1]
    dn = len(b) - 1
    while len(rem) - 1 >= dn:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dn:
            break
        k = len(rem) - 1 - dn
        top = rem[-1]
        rem = [c * lead for c in rem]
        for j, v in enumerate(b):
            rem[k + j] -= top * v
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def poly_gcd(f: PolyQ, g: PolyQ) -> PolyQ:
    """Monic gcd in Q[x]."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    a = _int_primitive(_int_clear(f))
    b = _int_primitive(_int_clear(g))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _int_primitive(_int_pseudo_rem(a, b))
    return PolyQ(a).monic()


def squarefree_part(f: PolyQ) -> PolyQ:
    """Monic product of the distinct irreducible factors of f."""
    if f.is_zero():
        raise ValueError("squarefree part of 0 is undefined")
    if f.degree == 0:
        return POLY_ONE
    g = poly_gcd(f, f.derivative())
    return f.divmod(g)[0].monic()


def root_multiplicity(f: PolyQ, r) -> int:
    """Largest m with (x - r)^m dividing f."""
    if f.is_zero():
        raise ValueError("root multiplicity in 0 is undefined")
    r = frac(r)
    lin = PolyQ((-r, 1))
    m = 0
    while True:
        q, rem = f.divmod(lin)
        if not rem.is_zero():
            return m
        m += 1
        f = q


def multiplicity_counts(f: PolyQ) -> dict[int, int]:
    """Multiset of root multiplicities over C, as {multiplicity: #distinct roots}.

    Uses the gcd chain f, gcd(f, f'), gcd of that with its derivative, ...;
    the degree drops count roots of multiplicity >= k exactly.
    """
    if f.is_zero():
        raise ValueError("multiplicity structure of 0 is undefined")
    degs = [f.degree]
    cur = f
    while cur.degree > 0:
        cur = poly_gcd(cur, cur.derivative())
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
    for k in range(f.degree, -1, -1):
        c = f.coeff(k)
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
