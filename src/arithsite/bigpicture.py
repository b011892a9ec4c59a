"""Conway's big picture: lattice classes (M, g/h), hyper-distance, neighbours.

A class is a pair (M, rho) with M a positive rational and rho in [0, 1),
standing for the coset of the matrix [[M, rho], [0, 1]].  Class equality is
structural equality of this canonical transversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd

from .primes import factorize, is_prime
from .ratpoly import Mat2Q, frac, primitive_form


@dataclass(frozen=True)
class PicClass:
    m: Fraction
    rho: Fraction

    def __post_init__(self):
        m = frac(self.m)
        rho = frac(self.rho)
        if m <= 0:
            raise ValueError("class needs M > 0")
        rho -= floor(rho)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rho", rho)

    def alpha(self) -> Mat2Q:
        return Mat2Q(self.m, self.rho, Fraction(0), Fraction(1))

    def __str__(self):
        return format_class(self)


PIC_ONE = PicClass(Fraction(1), Fraction(0))


def hyperdistance(x: PicClass, y: PicClass) -> int:
    """det of the primitive integral form of alpha_x . alpha_y^-1."""
    a = x.alpha() * y.alpha().inv()
    _, ((p, q), (r, s)) = primitive_form(a)
    return p * s - q * r


def neighbours(x: PicClass, p: int) -> list[PicClass]:
    """The p+1 classes at hyper-distance p from x, in the order X_0..X_{p-1}, X_p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    out = [PicClass(x.m / p, x.rho / p + Fraction(k, p)) for k in range(p)]
    out.append(PicClass(p * x.m, p * x.rho))
    return out


def psi(n: int) -> int:
    """Dedekind psi: n * prod_{p|n} (1 + 1/p)."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = n
    for p in factorize(n):
        out = out // p * (p + 1)
    return out


# MAX_PROJ caps the n of proj_line_count, whose enumeration costs about
# n^2 phi(n) steps; on a 2-core Xeon host n = 199 (a prime, the slowest n up
# to the cap) took 2.1 s and n = 251 took 4.2 s.
MAX_PROJ = 200


def proj_line_count(n: int) -> int:
    """|P^1(Z/n)| by direct orbit enumeration of the unit action on pairs."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_PROJ:
        raise ValueError(f"refusing to enumerate P^1(Z/{n}): n > {MAX_PROJ}")
    if n == 1:
        return 1
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    reps = set()
    for a in range(n):
        for b in range(n):
            if gcd(gcd(a, b), n) != 1:
                continue
            reps.add(min((u * a % n, u * b % n) for u in units))
    return len(reps)


# MAX_FIBER caps the size psi(n) of a fiber that fiber(n) will enumerate; on
# a 2-core Xeon host psi = 864 (n = 360) took 3.0 s and psi = 1152 (n = 420)
# took 6.2 s.
MAX_FIBER = 1000


def fiber(n: int) -> set[PicClass]:
    """All classes at hyper-distance exactly n from the identity class.

    Breadth-first expansion along the primes of n, pruned to classes whose
    distance divides n; no closed parameterization of the fiber is used.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if psi(n) > MAX_FIBER:
        raise ValueError(f"refusing psi({n}) = {psi(n)} > {MAX_FIBER} classes")
    if n == 1:
        return {PIC_ONE}
    ps = sorted(factorize(n))
    dist = {PIC_ONE: 1}
    frontier = [PIC_ONE]
    while frontier:
        candidates = []
        for x in frontier:
            for p in ps:
                for y in neighbours(x, p):
                    if y not in dist:
                        candidates.append(y)
        frontier = []
        for y in candidates:
            if y in dist:
                continue
            d = hyperdistance(PIC_ONE, y)
            if n % d == 0:
                dist[y] = d
                frontier.append(y)
    return {x for x, d in dist.items() if d == n}


def ball_dot(x: PicClass, primes: list[int], radius: int) -> str:
    """DOT graph of the ball around x: `radius` neighbour steps along `primes`."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
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
        return PicClass(Fraction(ms), Fraction(rs))
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"bad class literal {text!r}") from e
