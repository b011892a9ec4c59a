"""Former library routines, kept as references for the ones that replaced them.

- Search-based references for the closed forms of bigpicture and conway: a
  matrix hyper-distance through Mat2Q.inv and primitive_form, a breadth-first
  fiber over neighbours, and a greedy descent towards (1, 0) that normalizes
  after each step.  They share no code with the Hermite-coordinate versions.
- The Conway monoid's rewriting presentation, which conway.normalize ran
  before its closed form: shear-exact meta-commutation and power-free
  cancellation, leftmost-first or on a random schedule.
- The Fraction polynomial kernel that ratpoly.PolyQ ran before it stored
  integer numerators over one denominator: product, composition and division
  on coefficient tuples of Fractions, lowest degree first.
- The preimage tree with the eight-step Newton polish that arboreal.build_tree
  ran before one step replaced it.
"""

from fractions import Fraction

from arithsite import arboreal, kernels
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
                    return rewrite_normalize((l,) + descent_class_to_word(z))
    raise AssertionError(f"no descent step from {x}")


def _sort_key(l: cw.Letter):
    return (l.is_power, l.p)


def _redex(a: cw.Letter, b: cw.Letter) -> str | None:
    if a.p == b.p:
        if a.is_power and not b.is_power:
            return "cancel"
        return None
    return "swap" if _sort_key(a) > _sort_key(b) else None


def _propagate_shear(ls: list[cw.Letter], j: int, s: int) -> None:
    # bubble T^s from gap position j+1 to the far left, then drop it
    while j >= 0 and s != 0:
        l = ls[j]
        if l.is_power:
            s *= l.p
        else:
            tot = l.i + s
            ls[j] = cw.Letter(l.p, tot % l.p)
            s = tot // l.p
        j -= 1


def _apply_at(ls: list[cw.Letter], i: int) -> bool:
    kind = _redex(ls[i], ls[i + 1])
    if kind is None:
        return False
    if kind == "cancel":
        s = ls[i + 1].i
        del ls[i : i + 2]
    else:
        x, y, s = cw._meta_commute_shear(ls[i], ls[i + 1])
        ls[i], ls[i + 1] = x, y
    _propagate_shear(ls, i - 1, s)
    return True


def rewrite_normalize(w: cw.Word, rng=None) -> cw.Word:
    """Rewrite to normal shape; the class of the word never changes.

    With rng given, applicable rewrites are chosen at random instead of
    leftmost-first.
    """
    ls = list(w)
    if rng is None:
        i = 0
        while i < len(ls) - 1:
            if _apply_at(ls, i):
                i = max(i - 1, 0)
            else:
                i += 1
    else:
        while True:
            redexes = [i for i in range(len(ls) - 1) if _redex(ls[i], ls[i + 1])]
            if not redexes:
                break
            _apply_at(ls, redexes[rng.randrange(len(redexes))])
    return tuple(ls)


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


def eight_step_tree(gens, alpha, n: int, tol: float = 1e-9) -> arboreal.ArborealTree:
    """build_tree with each level polished by eight Newton steps, not one."""
    one_step = kernels.newton_chain

    def eight_steps(chain, xs, alpha, iters):
        return one_step(chain, xs, alpha, iters=8)

    kernels.newton_chain = eight_steps
    try:
        return arboreal.build_tree(gens, alpha, n, tol)
    finally:
        kernels.newton_chain = one_step
