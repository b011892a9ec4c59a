"""Former library routines, kept as references for the ones that replaced them.

- Search-based references for the closed forms of bigpicture and conway: a
  matrix hyper-distance through Mat2Q.inv and primitive_form, a breadth-first
  fiber over neighbours, and a greedy descent towards (1, 0) that normalizes
  after each step.  They share no code with the Hermite-coordinate versions.
- The Fraction polynomial kernel that ratpoly.PolyQ ran before it stored
  integer numerators over one denominator: product, composition and division
  on coefficient tuples of Fractions, lowest degree first.
"""

from fractions import Fraction

from arithsite import conway as cw
from arithsite.bigpicture import PIC_ONE, PicClass, neighbours
from arithsite.primes import factorize
from arithsite.ratpoly import primitive_form


def matrix_distance(x: PicClass, y: PicClass) -> int:
    """det of the primitive integral form of alpha_x . alpha_y^-1."""
    _, ((p, q), (r, s)) = primitive_form(x.alpha() * y.alpha().inv())
    return p * s - q * r


def bfs_fiber(n: int) -> set[PicClass]:
    """Breadth-first expansion along the primes of n, pruned to classes whose
    distance divides n."""
    ps = sorted(factorize(n))
    dist = {PIC_ONE: 1}
    frontier = [PIC_ONE]
    while frontier:
        nxt = []
        for x in frontier:
            for p in ps:
                for y in neighbours(x, p):
                    if y in dist:
                        continue
                    d = matrix_distance(PIC_ONE, y)
                    if n % d == 0:
                        dist[y] = d
                        nxt.append(y)
        frontier = nxt
    return {x for x, d in dist.items() if d == n}


def _apply_letter(l: cw.Letter, x: PicClass) -> PicClass:
    if l.is_power:
        return PicClass(l.p * x.m, l.p * x.rho)
    return PicClass(x.m / l.p, (x.rho + l.i) / l.p)


def descent_class_to_word(x: PicClass) -> cw.Word:
    """Greedy descent towards (1, 0): the identifier of the closer neighbour
    is normalized before the connecting letter is prepended."""
    n = matrix_distance(PIC_ONE, x)
    if n == 1:
        return cw.EMPTY
    p = min(factorize(n))
    for z in neighbours(x, p):
        if matrix_distance(PIC_ONE, z) * p == n:
            for i in range(p + 1):
                l = cw.Letter(p, i)
                if _apply_letter(l, z) == x:
                    return cw.normalize((l,) + descent_class_to_word(z))
    raise AssertionError(f"no descent step from {x}")


def _trim(cs) -> tuple[Fraction, ...]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def fraction_mul(a, b) -> tuple[Fraction, ...]:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def fraction_compose(f, g) -> tuple[Fraction, ...]:
    """f(g(x)) by Horner on Fraction coefficients."""
    acc = ()
    for c in reversed(f):
        acc = list(fraction_mul(acc, g)) or [Fraction(0)]
        acc[0] += c
        acc = _trim(acc)
    return acc


def fraction_divmod(a, b) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Long division over Q; b must not be zero."""
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    rem = list(a)
    lead = b[-1]
    dn = len(b) - 1
    while len(rem) - 1 >= dn and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dn:
            break
        k = len(rem) - 1 - dn
        f = rem[-1] / lead
        q[k] = f
        for j, v in enumerate(b):
            rem[k + j] -= f * v
        rem.pop()
    return _trim(q), _trim(rem)
