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
- A flood-fill count of the eps-clusters of a point set.
- Two checks of the inclusion disks that certify arboreal.build_tree: the
  Weierstrass corrections of level 1 in exact rational arithmetic, and the
  roots of a level's composite to 80 digits with mpmath.
"""

from fractions import Fraction

import numpy as np

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


def eight_step_tree(gens, alpha, n: int) -> arboreal.ArborealTree:
    """build_tree with each level polished by eight Newton steps, not one."""
    one_step = kernels.newton_chain

    def eight_steps(chain, xs, alpha, iters):
        return one_step(chain, xs, alpha, iters=8)

    kernels.newton_chain = eight_steps
    try:
        return arboreal.build_tree(gens, alpha, n)
    finally:
        kernels.newton_chain = one_step


def exact_weierstrass_bounds(gens, tree) -> list[tuple[Fraction, Fraction]]:
    """(d^2 |W_i|^2, R_i^2) for each node of level 1, both exact.

    A float is a dyadic rational, so W_i = f(z_i) / (c prod_{m != i} (z_i - z_m))
    of f = gens[0] - alpha, leading coefficient c, is a Gaussian rational;
    |W_i|^2 = |f(z_i)|^2 / (c^2 prod |z_i - z_m|^2).  build_tree promises
    d |W_i| <= R_i, its level-1 radius.
    """
    f = gens[0].poly.coeffs
    alpha, d = tree.alpha, tree.degree
    zs = [(Fraction(re), Fraction(im)) for re, im, _ in tree.levels[1]]
    out = []
    for i, (x, y) in enumerate(zs):
        re, im = Fraction(0), Fraction(0)
        for c in reversed(f):
            re, im = re * x - im * y + c, re * y + im * x
        re -= alpha
        den = f[-1] ** 2
        for m, (u, v) in enumerate(zs):
            if m != i:
                den *= (x - u) ** 2 + (y - v) ** 2
        out.append((d * d * (re * re + im * im) / den, Fraction(tree.radii[1][i]) ** 2))
    return out


def mpmath_disk_problems(gens, tree, k: int) -> list[str]:
    """Check level k of tree against the roots of F_k - alpha to 80 digits.

    Each disk D(z_i, R_i) must hold exactly one root, each root must lie in
    exactly one disk, and B_k of that root must lie in the disk of z_i's
    parent: the claims that the disk certificate makes.  The comparisons
    allow 1e-60 for the error of the 80-digit roots themselves.
    """
    import mpmath

    with mpmath.workdps(80):
        f = arboreal.composite(gens, k).coeffs
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(f)]
        coeffs[-1] -= mpmath.mpf(tree.alpha.numerator) / tree.alpha.denominator
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=160)
        bk = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(arboreal._factor(gens, k).poly.coeffs)]
        nodes = [mpmath.mpc(re, im) for re, im, _ in tree.levels[k]]
        parents = [mpmath.mpc(re, im) for re, im, _ in tree.levels[k - 1]]
        radii, parent_radii = tree.radii[k], tree.radii[k - 1]
        eps = mpmath.mpf(10) ** -60
        problems = []
        held = [0] * len(roots)
        for i, (z, r) in enumerate(zip(nodes, radii)):
            inside = [j for j, root in enumerate(roots) if abs(root - z) <= r + eps]
            for j in inside:
                held[j] += 1
            if len(inside) != 1:
                problems.append(f"level {k} node {i}: its disk holds {len(inside)} roots")
                continue
            p = tree.levels[k][i][2]
            miss = abs(mpmath.polyval(bk, roots[inside[0]]) - parents[p])
            if miss > parent_radii[p] + eps:
                problems.append(f"level {k} node {i}: its root maps {mpmath.nstr(miss, 3)} from parent {p}")
        problems += [f"level {k}: root {j} lies in {h} disks" for j, h in enumerate(held) if h != 1]
    return problems


def count_distinct(xs: np.ndarray, eps: float) -> int:
    """Number of eps-clusters of the points.

    A plain flood fill over the eps-neighbour graph: an independent check
    that the nodes of a tree level are distinct.
    """
    xs = np.ascontiguousarray(xs, dtype=np.complex128)
    n = xs.shape[0]
    label = np.full(n, -1, dtype=np.int64)
    stack = np.empty(n, dtype=np.int64)
    count = 0
    for i in range(n):
        if label[i] >= 0:
            continue
        label[i] = count
        stack[0] = i
        top = 1
        while top > 0:
            top -= 1
            a = stack[top]
            for b in range(n):
                if label[b] < 0 and abs(xs[a] - xs[b]) <= eps:
                    label[b] = count
                    stack[top] = b
                    top += 1
        count += 1
    return count
