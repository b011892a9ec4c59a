"""Conway's big picture: lattice classes (M, g/h), hyper-distance, neighbours.

A class x is a pair (M, rho) with M a positive rational and rho in [0, 1),
standing for the coset of the matrix alpha_x = [[M, rho], [0, 1]].

Hermite coordinates.  Let N = lcm(den M, den rho).  The matrix
[[M N, rho N], [0, N]] is integral with content 1, since a prime dividing all
three entries would let N/p clear both denominators; it is the Hermite normal
form of the primitive lattice the class stands for, and its determinant
M N^2 is the hyper-distance from 1.  Conversely every primitive Hermite form
[[a, b], [0, n]] with 0 <= b < n is the class (a/n, b/n).  The distance, the
fibers and the normal words of `conway` are read off these integers
(Conway, Understanding groups like Gamma_0(N), 1996).

A PicClass stores that unique form as the integers (a, b, n): a, n > 0,
0 <= b < n and gcd(a, b, n) = 1, so equality and hashing are structural.
_primitive brings any integral form [[a, b], [0, n]] of the lattice to it:
divide by the content, then take b mod n.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial
from math import gcd

from .literals import frac, parse_rational
from .primes import factorize, is_prime


class PicClass(namedtuple("PicClass", "a b n")):
    """The class (M, rho) = (a/n, b/n) as its primitive Hermite form (a, b, n)."""

    __slots__ = ()
    m = property(lambda self: Fraction(self.a, self.n), doc="M = a/n, a Fraction")
    rho = property(lambda self: Fraction(self.b, self.n), doc="rho = b/n, a Fraction in [0, 1)")

    def __new__(cls, m, rho):
        m, rho = frac(m), frac(rho)
        if m <= 0:
            raise ValueError("class needs M > 0")
        return _primitive(m.numerator * rho.denominator, rho.numerator * m.denominator, m.denominator * rho.denominator)

    @classmethod
    def _make(cls, form):
        """The class of the integral form [[a, b], [0, n]], form = (a, b, n); _replace builds through it."""
        a, b, n = form
        if a <= 0 or n <= 0:
            raise ValueError("class needs a, n > 0")
        return _primitive(a, b, n)

    def __getnewargs__(self):  # pickle and copy rebuild through __new__(m, rho)
        return self.m, self.rho

    def __str__(self):
        return format_class(self)


def _primitive(a: int, b: int, n: int) -> PicClass:
    """The class of the integral form [[a, b], [0, n]], a, n > 0."""
    g = gcd(a, b, n)
    return _trusted((a // g, b // g % (n // g), n // g))


_trusted = partial(tuple.__new__, PicClass)  # a triple (a, b, n) proved a primitive Hermite form
PIC_ONE = PicClass(1, 0)


def hyperdistance(x: PicClass, y: PicClass) -> int:
    """det of the primitive integral form of alpha_x . alpha_y^-1.  Scaled by n_x a_y
    it is [[a_x n_y, b_x a_y - a_x b_y], [0, n_x a_y]], of content g: det a_x n_y n_x a_y / g^2."""
    top, right, bottom = x.a * y.n, x.b * y.a - x.a * y.b, x.n * y.a
    g = gcd(top, right, bottom)
    return top // g * (bottom // g)


# MAX_NEIGHBOUR_PRIME caps the prime p of neighbours, whose result has p + 1
# classes; on a 2-core Xeon host p = 10007 took 0.009 s and p = 100003 0.13 s.
MAX_NEIGHBOUR_PRIME = 10**4


def neighbours(x: PicClass, p: int) -> list[PicClass]:
    """The p+1 classes at hyper-distance p from x, in the order X_0..X_{p-1}, X_p."""
    if p > MAX_NEIGHBOUR_PRIME:
        raise ValueError(f"refusing p = {p} > {MAX_NEIGHBOUR_PRIME}: it has p + 1 neighbours")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    # X_k = (M/p, (rho + k)/p) is the form (a, b + kn, pn) and X_p = (p M, p rho) is
    # (pa, pb, n).  Since gcd(a, b, n) = 1, either form's content is 1 or p: X_k has
    # content p iff p | a and p | b + kn, which holds for one k when p | a and not
    # p | n, and for none otherwise; X_p iff p | n.  As 0 <= b + kn < pn, each X_k
    # is then a primitive Hermite form as it stands, or divided by p.
    a, b, n = x
    pn = p * n
    out = [_trusted((a, b + k * n, pn)) for k in range(p)]
    if a % p == 0 and n % p:
        k = -(b % p) * pow(n, -1, p) % p  # p | b + kn
        out[k] = _trusted((a // p, (b + k * n) // p, n))
    out.append(_trusted((a, b % (n // p), n // p) if n % p == 0 else (p * a, p * b % n, n)))
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
# built 864 classes (n = 360) in 0.4 ms and 13824 (n = 5040) in 8 ms.
MAX_FIBER = 1000


def fiber(n: int) -> set[PicClass]:
    """All classes at hyper-distance exactly n from the identity class.

    These are the primitive Hermite forms of determinant n: the classes
    (a/d, b/d) with a d = n, 0 <= b < d and gcd(a, b, d) = 1, psi(n) of them,
    built as the triples (a, b, d) they are.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if psi(n) > MAX_FIBER:
        raise ValueError(f"refusing psi({n}) = {psi(n)} > {MAX_FIBER} classes")
    return {_trusted((n // d, b, d))
            for d in range(1, n + 1) if n % d == 0
            for b in range(d) if gcd(n // d, b, d) == 1}


# MAX_BALL caps the classes of a ball_dot ball, counted before any is built.
# Along the primes S the big picture is the product of the (p+1)-regular
# trees of the p in S, so the ball of radius r has sum prod_p s_p(k_p)
# classes, over the (k_p) with sum k_p <= r, where s_p(0) = 1 and
# s_p(k) = (p+1) p^(k-1) count the tree's spheres.  On a 2-core Xeon host a
# ball of 12286 classes (prime 2, radius 12) took 0.12 s and one of 25312
# (primes 2, 3, 5, 7, radius 4) took 0.33 s.
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
    name = {x: str(x)}  # each class of the ball, formatted once
    frontier = [x]
    edges = set()
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for p in primes:
                for w in neighbours(v, p):
                    if w not in name:
                        name[w] = str(w)
                        nxt.append(w)
                    edges.add((min(name[v], name[w]), max(name[v], name[w]), p))
        frontier = nxt
    lines = ["graph bigpicture {"]
    for v in sorted(name.values()):
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
