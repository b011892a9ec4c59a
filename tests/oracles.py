"""Search-based references for the closed forms of bigpicture and conway.

These are the former library routines: a matrix hyper-distance through
Mat2Q.inv and primitive_form, a breadth-first fiber over neighbours, and a
greedy descent towards (1, 0) that normalizes after each step.  They share
no code with the Hermite-coordinate versions the library now uses.
"""

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
