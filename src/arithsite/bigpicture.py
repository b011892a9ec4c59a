"""Conway's big picture: lattice classes (M, g/h), hyper-distance, neighbours.

A class x is a pair (M, rho) with M a positive rational and rho in [0, 1),
standing for the coset of the matrix alpha_x = [[M, rho], [0, 1]].  Class
equality is structural equality of this canonical transversal.

Hermite coordinates.  Let N = lcm(den M, den rho).  The matrix
[[M N, rho N], [0, N]] is integral with content 1, since a prime dividing all
three entries would let N/p clear both denominators; it is the Hermite normal
form of the primitive lattice the class stands for, and its determinant
M N^2 is the hyper-distance from 1.  Conversely every primitive Hermite form
[[a, b], [0, d]] with 0 <= b < d is the class (a/d, b/d).  The distance, the
fibers and the normal words of `conway` are read off these integers
(Conway, Understanding groups like Gamma_0(N), 1996).

The theorem fixes both fields of such a class: M = a/d > 0 and rho = b/d in
[0, 1) are already canonical, so fiber and neighbours build their classes
through _class, without the checks and the reduction of PicClass.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import floor, gcd, lcm

from .literals import frac, parse_rational
from .primes import factorize, is_prime


class PicClass(namedtuple("PicClass", "m rho")):
    """The class (M, rho): M > 0 and rho reduced into [0, 1), both Fractions."""

    __slots__ = ()

    def __new__(cls, m, rho):
        m, rho = frac(m), frac(rho)
        if m <= 0:
            raise ValueError("class needs M > 0")
        return tuple.__new__(cls, (m, rho - floor(rho)))

    def __str__(self):
        return format_class(self)


PIC_ONE = PicClass(Fraction(1), Fraction(0))


def _class(m: Fraction, rho: Fraction) -> PicClass:
    """The class (m, rho) for Fractions a theorem puts in range, m > 0 and
    0 <= rho < 1, built without PicClass's checks."""
    return tuple.__new__(PicClass, (m, rho))


def hyperdistance(x: PicClass, y: PicClass) -> int:
    """det of the primitive integral form of alpha_x . alpha_y^-1 = [[a, b], [0, 1]].

    Here a = M_x/M_y and b = rho_x - a rho_y; scaled by N = lcm(den a, den b)
    the matrix has content 1 (module docstring), so the det is a N^2.
    """
    a = x.m / y.m
    n = lcm(a.denominator, (x.rho - a * y.rho).denominator)
    return int(a * n * n)


# MAX_NEIGHBOUR_PRIME caps the prime p of neighbours, whose result has p + 1
# classes; on a 2-core Xeon host p = 10007 took 0.05 s and p = 100003 0.42 s.
MAX_NEIGHBOUR_PRIME = 10**4


def neighbours(x: PicClass, p: int) -> list[PicClass]:
    """The p+1 classes at hyper-distance p from x, in the order X_0..X_{p-1}, X_p."""
    if p > MAX_NEIGHBOUR_PRIME:
        raise ValueError(f"refusing p = {p} > {MAX_NEIGHBOUR_PRIME}: it has p + 1 neighbours")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    # (rho + k)/p lies in [0, 1) already; p rho may not
    m = x.m / p
    out = [_class(m, (x.rho + k) / p) for k in range(p)]
    out.append(PicClass(p * x.m, p * x.rho))
    return out


def psi(n: int) -> int:
    """Dedekind psi: n * prod_{p|n} (1 + 1/p), also |P^1(Z/n)| and the index of Gamma_0(n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = n
    for p in factorize(n):
        out = out // p * (p + 1)
    return out


# MAX_FIBER caps the size psi(n) of a fiber that fiber(n) will enumerate, and
# so the lines that `bp fiber n` lists; `bp fiber n --count` prints psi(n)
# without building the fiber.  On a 2-core Xeon host the closed form below
# built 864 classes (n = 360) in 5 ms and 13824 (n = 5040) in 0.08 s.
MAX_FIBER = 1000


def fiber(n: int) -> set[PicClass]:
    """All classes at hyper-distance exactly n from the identity class.

    These are the primitive Hermite forms of determinant n: the classes
    (a/d, b/d) with a d = n, 0 <= b < d and gcd(a, b, d) = 1, psi(n) of them.
    The Hermite theorem fixes both fields, M = a/d > 0 and rho = b/d in [0, 1),
    so no class is checked or reduced again.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if psi(n) > MAX_FIBER:
        raise ValueError(f"refusing psi({n}) = {psi(n)} > {MAX_FIBER} classes")
    return {_class(Fraction(n // d, d), Fraction(b, d))
            for d in range(1, n + 1) if n % d == 0
            for b in range(d) if gcd(n // d, b, d) == 1}


# MAX_BALL caps the classes of a ball_dot ball, counted before any is built.
# Along the primes S the big picture is the product of the (p+1)-regular
# trees of the p in S, so the ball of radius r has sum prod_p s_p(k_p)
# classes, over the (k_p) with sum k_p <= r, where s_p(0) = 1 and
# s_p(k) = (p+1) p^(k-1) count the tree's spheres.  On a 2-core Xeon host a
# ball of 12286 classes (prime 2, radius 12) took 0.31 s and one of 25312
# (primes 2, 3, 5, 7, radius 4) took 1.3 s.
MAX_BALL = 10**4


def _ball_size(primes: set[int], radius: int) -> int:
    """Classes within `radius` steps along `primes` (see MAX_BALL)."""
    spheres = [1] + [0] * radius  # spheres[k]: classes at exactly k steps
    for p in primes:
        tree = [1] + [(p + 1) * p ** (k - 1) for k in range(1, radius + 1)]
        spheres = [sum(spheres[j] * tree[k - j] for j in range(k + 1)) for k in range(radius + 1)]
    return sum(spheres)


def ball_dot(x: PicClass, primes: list[int], radius: int) -> str:
    """DOT graph of the ball around x: `radius` neighbour steps along `primes`."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    # a ball of radius r along any prime has over 2^r classes, so counting up
    # to radius MAX_BALL.bit_length() decides the cap
    size = _ball_size(set(primes), min(radius, MAX_BALL.bit_length()))
    if size > MAX_BALL:
        raise ValueError(f"refusing a ball of more than {MAX_BALL} classes")
    seen = {x}
    frontier = [x]
    edges = set()
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for p in primes:
                for w in neighbours(v, p):
                    edges.add((min(str(v), str(w)), max(str(v), str(w)), p))
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt
    lines = ["graph bigpicture {"]
    for v in sorted(str(c) for c in seen):
        lines.append(f'  "{v}";')
    for a, b, p in sorted(edges):
        lines.append(f'  "{a}" -- "{b}" [label="{p}"];')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Text format: M:g/h
# ---------------------------------------------------------------------------


def format_class(x: PicClass) -> str:
    return f"{x.m}:{x.rho}"


def parse_class(text: str) -> PicClass:
    try:
        ms, rs = text.split(":")
        return PicClass(parse_rational(ms), parse_rational(rs))
    except ValueError as e:
        cause = f": {e}" if text.count(":") == 1 else ""  # the refusal of a part
        raise ValueError(f"bad class literal {text!r}{cause}") from e
