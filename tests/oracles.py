"""Former library routines, kept as references for the ones that replaced them.

- The matrix presentation of the big picture and the Conway monoid: the
  class matrix alpha(x), the letter matrices and the integral shears.
- Search-based references for the closed forms of bigpicture and conway: a
  matrix hyper-distance through Mat2Q.inv and primitive_form, a breadth-first
  fiber over neighbours, and a greedy descent towards (1, 0) that normalizes
  after each step.  They share no code with the Hermite-coordinate versions.
- bigpicture.neighbours as it was before remainders mod p gave each
  neighbour's content: every integral form divided by a three-way gcd.
- The orbit count of P^1(Z/n), which `bp psi --proj` ran before psi(n)
  answered it.
- The Conway monoid's rewriting presentation, which conway.normalize ran
  before its closed form: shear-exact meta-commutation and power-free
  cancellation, leftmost-first or on a random schedule.
- conway.divide_left as it was before its theorem replaced the re-check: it
  confirms each quotient with mul.  And as it was before delta decided it:
  the quotient class through class_to_word, which factors its N.
- The Fraction polynomial kernel that ratpoly.PolyQ ran before it stored
  integer numerators over one denominator: product, composition and division
  on coefficient tuples of Fractions, lowest degree first; PolyQ powers and
  exact divisibility; and the root multiplicity by repeated division by
  (x - r), which belyi's valencies ran before they read a coefficient index.
- belyi.poly_passport as it was before Riemann-Hurwitz let it take one gcd:
  a full multiplicity chain of P and another of P - 1, each to its end.  And
  the dynamical-Belyi predicate as it was before W = P'/gcd(P, P') dividing
  P - 1 decided it: the root counts of P and of P - 1, one gcd each.
- The root count of belyi.compose_count_check as it was before the outer
  map's squarefree part took it: the exact composite and one gcd with its
  derivative.
- belyi.free_check as it was before one rational value per word decided it:
  every composite built, level by level, and compared.
- Primality by trial division, which primes.is_prime ran before the strong
  probable-prime test.
- bostconnes.presheaf_value as it was before the free letters composed to
  one affine map: the operators applied one letter at a time.
- The Bost-Connes conditions 3, 4 and 5 by enumeration, every torsion element
  a reduced Fraction; bostconnes answers them by theorem.
- The brute-force sigma_n fiber of Q/Z, random framed trees and a
  frame-anchored canonical relabeling of dessins.
- dessins.anatomy as it was before one rooted pass replaced it, with the
  head, body and tail passports that its face-walk successor no longer builds.
- The dessin invariants as they were before the face walk gave them: a
  breadth-first encoding from each start edge for the framed and unframed
  keys, and automorphisms by a consistency search from edge 0.
- arboreal.squarefree_level as it was before the chain rule answered it: the
  exact composite and one gcd with its derivative.
- The preimage tree with the eight-step Newton polish that arboreal.build_tree
  ran before one step replaced it, and before the degree-2 closed form took
  none.  And its level loop as it was before each
  level took one (P, d) pass: siblings ordered by lexsort on the flat level,
  disk radii through an identity mask, and every level's residual found by
  evaluating the whole chain so far.
- kernels.dk_batch as it was before degree-2 rows took the closed form: the
  eigenvalues of the stacked companion matrices, for every degree, and one
  Newton step.
- A flood-fill count of the eps-clusters of a point set.
- The points queries as they were before the order facts of the points
  docstring decided them: interleaving by testing every pair of entries, a
  periodic extension tested by building its next step, and tail equivalence
  by a search over every pair of windows of the two continuations.  That
  search never says true where the limits differ, but it can miss equal ones.
  So tail equivalence has a second, two-sided oracle: deep interleaving of
  the two continuations.
- Two checks of the inclusion disks that certify arboreal.build_tree: the
  Weierstrass corrections of level 1 in exact rational arithmetic, and the
  roots of a level's composite to 80 digits with mpmath.  And one of the
  degree-2 closed form: each node against the 113-bit roots of its own row.
"""

from fractions import Fraction
from math import gcd
from typing import NamedTuple

import numpy as np

from arithsite import arboreal, kernels
from arithsite import conway as cw
from arithsite import dessins as ds
from arithsite import points as pt
from arithsite.belyi import BelyiPoly
from arithsite.bigpicture import PIC_ONE, PicClass, neighbours
from arithsite.bostconnes import operator, torsion
from arithsite.primes import factorize, is_prime
from arithsite.ratpoly import POLY_ONE, Mat2Q, PolyQ, poly_gcd, primitive_form
from arithsite.supernatural import adele_class_equiv, from_chain


def alpha(x: PicClass) -> Mat2Q:
    """The matrix [[M, rho], [0, 1]] of the class x."""
    return Mat2Q(x.m, x.rho, Fraction(0), Fraction(1))


def shear(n: int) -> Mat2Q:
    """The integral shear [[1, n], [0, 1]]."""
    return Mat2Q(Fraction(1), Fraction(n), Fraction(0), Fraction(1))


def letter_matrix(l: cw.Letter) -> Mat2Q:
    if l.is_power:
        return Mat2Q(Fraction(l.p), Fraction(0), Fraction(0), Fraction(1))
    return Mat2Q(Fraction(1, l.p), Fraction(l.i, l.p), Fraction(0), Fraction(1))


def matrix_distance(x: PicClass, y: PicClass) -> int:
    """det of the primitive integral form of alpha_x . alpha_y^-1."""
    _, ((p, q), (r, s)) = primitive_form(alpha(x) * alpha(y).inv())
    return p * s - q * r


def gcd_neighbours(x: PicClass, p: int) -> list[PicClass]:
    """bigpicture.neighbours as it was before remainders mod p gave each content:
    X_k = (a, b + kn, pn) and X_p = (pa, pb, n), each divided by its three-way gcd."""
    a, b, n = x
    return [PicClass._make((a, b + k * n, p * n)) for k in range(p)] + [PicClass._make((p * a, p * b, n))]


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


def proj_line_count(n: int) -> int:
    """|P^1(Z/n)|: the orbits of the units of Z/n on the pairs (a, b) with
    gcd(a, b, n) = 1, each orbit marked in full when first met."""
    units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    seen = bytearray(n * n)
    orbits = 0
    for a in range(n):
        for b in range(n):
            if seen[a * n + b] or gcd(a, b, n) != 1:
                continue
            orbits += 1
            for u in units:
                seen[u * a % n * n + u * b % n] = 1
    return orbits


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


def meta_commute_shear(a: cw.Letter, b: cw.Letter) -> tuple[cw.Letter, cw.Letter, int]:
    """Exchange a.b -> T^s . a'.b' with exact matrix equality, distinct primes."""
    if a.p == b.p:
        raise ValueError("no meta-commutation within a prime")
    if not a.is_power and not b.is_power:
        v = a.i * b.p + b.i
        return cw.Letter(b.p, v // a.p), cw.Letter(a.p, v % a.p), 0
    if a.is_power and not b.is_power:
        s, r = divmod(a.p * b.i, b.p)
        return cw.Letter(b.p, r), a, s
    if not a.is_power and b.is_power:
        k = a.i * pow(b.p, -1, a.p) % a.p
        return b, cw.Letter(a.p, k), (a.i - b.p * k) // a.p
    return b, a, 0


def meta_commute(a: cw.Letter, b: cw.Letter) -> tuple[cw.Letter, cw.Letter]:
    """Cross-prime exchange: returns (x, y) with a.b = x.y as class operations."""
    x, y, _ = meta_commute_shear(a, b)
    return x, y


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
        x, y, s = meta_commute_shear(ls[i], ls[i + 1])
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


def checked_divide_left(y: cw.Word, x: cw.Word) -> cw.Word | None:
    """conway.divide_left with its quotient confirmed by delta and by mul."""
    if not (cw.is_free(y) and cw.is_free(x)):
        raise ValueError("outside monoid C")
    dy, dx = cw.delta(y), cw.delta(x)
    if dy % dx != 0:
        return None
    cy, cx = cw.word_to_class(y), cw.word_to_class(x)
    a = cy.m / cx.m
    z = cw.class_to_word(PicClass(a, cy.rho - a * cx.rho))
    if not cw.is_free(z) or cw.delta(z) * dx != dy:
        return None
    if cw.mul(z, tuple(x)) != tuple(y):
        return None
    return z


def class_divide_left(y: cw.Word, x: cw.Word) -> cw.Word | None:
    """conway.divide_left as the normal word of the quotient class, free or None."""
    if not (cw.is_free(y) and cw.is_free(x)):
        raise ValueError("outside monoid C")
    if not cw.is_normal(y):
        return None
    cy, cx = cw.word_to_class(y), cw.word_to_class(x)
    a = cy.m / cx.m
    z = cw.class_to_word(PicClass(a, cy.rho - a * cx.rho))
    return z if cw.is_free(z) else None


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


def poly_pow(f: PolyQ, n: int) -> PolyQ:
    out = POLY_ONE
    for _ in range(n):
        out = out * f
    return out


def poly_divides(f: PolyQ, g: PolyQ) -> bool:
    """True when f | g exactly in Q[x]; f is not zero."""
    return g.divmod(f)[1].is_zero()


def root_multiplicity(f: PolyQ, r) -> int:
    """Largest m with (x - r)^m dividing f; f is not zero."""
    lin = PolyQ((-Fraction(r), 1))
    m = 0
    while True:
        q, rem = f.divmod(lin)
        if not rem.is_zero():
            return m
        m += 1
        f = q


def chain_multiplicity_counts(f: PolyQ) -> dict[int, int]:
    """ratpoly.multiplicity_counts without its last-root stop: the gcd chain
    f, gcd(f, f'), ... runs down to a constant."""
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


def two_gcd_belyi_counts(p: PolyQ) -> tuple[int, int] | None:
    """(#roots(P), #roots(P - 1)), one gcd each, if they sum to deg P + 1 and
    P fixes 0 and 1, so P is dynamical Belyi by Riemann-Hurwitz; else None."""
    if p(0) != 0 or p(1) != 1:
        return None
    counts = tuple(f.degree - poly_gcd(f, f.derivative()).degree for f in (p, p - POLY_ONE))
    return counts if sum(counts) == p.degree + 1 else None


def two_chain_poly_passport(p: BelyiPoly) -> ds.Passport:
    """The passport of (P, P - 1) from one full multiplicity chain of each."""
    parts = []
    for f in (p.poly, p.poly - PolyQ.const(1)):
        ms = []
        for m, cnt in chain_multiplicity_counts(f).items():
            ms += [m] * cnt
        parts.append(tuple(sorted(ms, reverse=True)))
    return ds.Passport(*parts)


def composite_roots(f: PolyQ, g: PolyQ) -> int:
    """#roots(f o g) for nonconstant f and g, by one gcd of the exact composite and its derivative."""
    h = f.compose(g)
    return h.degree - poly_gcd(h, h.derivative()).degree


def composite_free_check(generators: list[BelyiPoly], maxlen: int) -> bool:
    """Distinct words give distinct composites up to maxlen, each composite built."""
    seen: set[PolyQ] = set()
    level = [PolyQ.x()]  # level n extends each level n-1 composite by one factor
    for _ in range(maxlen):
        level = [f.compose(g.poly) for f in level for g in generators]
        for f in level:
            if f in seen:
                return False
            seen.add(f)
    return True


def trial_division_is_prime(n: int) -> bool:
    """primes.is_prime as it was before the strong probable-prime test: trial
    division by 3, 5, 7, ... up to the square root, without a bound."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def operator_presheaf(w: cw.Word, level: int) -> set[Fraction]:
    """The free letters of the normal word w applied one by one to (1/level)Z/Z."""
    free, _power = cw.split_normal(w)
    vals = set(torsion(level))
    for l in reversed(free):
        vals = {operator(l, x) for x in vals}
    return vals


def sigma_fiber(p: int, x: Fraction) -> set[Fraction]:
    """Brute-force preimages of x under multiplication by p inside (1/(p*b))Z/Z."""
    b = x.denominator
    return {Fraction(a, p * b) for a in range(p * b) if Fraction(a, p * b) * p % 1 == x}


def fraction_condition3(n: int) -> bool:
    """Kernel of sigma_n is cyclic of order n, in reduced Fractions."""
    if n < 1:
        raise ValueError("need n >= 1")
    ker = [x for x in torsion(n) if n * x % 1 == 0]
    if len(ker) != n:
        return False
    gen = Fraction(1, n)  # x_{1,n}
    cyc = set()
    x = gen * 0
    for _ in range(n):
        cyc.add(x % 1)
        x = x + gen
    return cyc == set(ker)


def fraction_condition4(n: int, m: int) -> bool:
    """The n*m sums x_{k,n} + s_n(y), y in (1/m)Z/Z, exhaust (1/(n*m))Z/Z, in reduced Fractions."""
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")
    pieces = [y / n for y in torsion(m)]
    sums = [(k + s) % 1 for k in torsion(n) for s in pieces]
    return len(set(sums)) == n * m and set(sums) == set(torsion(n * m))


def fraction_condition5(p: int, q: int) -> bool:
    """Section/kernel compatibility of distinct primes p, q, in reduced Fractions."""
    if p == q or not (is_prime(p) and is_prime(q)):
        raise ValueError("need distinct primes")
    kp = torsion(p)
    kq = torsion(q)
    for i in range(p):
        for j in range(q):
            l, k = divmod(i * q + j, p)
            lhs = (kq[j] / p + kp[i]) % 1
            rhs = (kp[k] / q + kq[l]) % 1
            if lhs != rhs or p * kq[j] % 1 != kq[p * j % q]:
                return False
    return True


def random_tree_dessin(n_edges: int, rng) -> ds.FramedDessin:
    """Uniform-ish random framed plane tree grown edge by edge."""
    if n_edges < 1:
        raise ValueError("need at least one edge")
    black = [[0]]
    white = [[0]]
    for e in range(1, n_edges):
        if rng.random() < 0.5:
            v = black[rng.randrange(len(black))]
            v.insert(rng.randrange(len(v) + 1), e)
            white.append([e])
        else:
            v = white[rng.randrange(len(white))]
            v.insert(rng.randrange(len(v) + 1), e)
            black.append([e])
    alpha = [0] * n_edges
    beta = [0] * n_edges
    for cycles, perm in ((black, alpha), (white, beta)):
        for c in cycles:
            for t, e in enumerate(c):
                perm[e] = c[(t + 1) % len(c)]
    return ds.FramedDessin(
        n_edges,
        tuple(alpha),
        tuple(beta),
        black[rng.randrange(len(black))][0],
        white[rng.randrange(len(white))][0],
    )


class SpineAnatomy(NamedTuple):
    spine: tuple[int, ...]
    head: ds.Passport
    body: ds.Passport
    tail: ds.Passport
    valency0: int
    valency1: int

    def ends(self) -> tuple[int, int, int, int]:
        """What dessins.anatomy returns: the spine's end edges and the valencies."""
        return self.spine[0], self.spine[-1], self.valency0, self.valency1


def bfs_anatomy(d: ds.FramedDessin) -> SpineAnatomy:
    """dessins.anatomy as it was before one rooted pass replaced it: a
    breadth-first search for the spine over tagged vertices, then a flood fill
    of the spine-less forest from each spine vertex."""
    bc, wc, bv, wv = ds._vertex_maps(d)
    v0 = ("b", bv[d.frame_black])
    v1 = ("w", wv[d.frame_white])

    def vertex_edges(v):
        return bc[v[1]] if v[0] == "b" else wc[v[1]]

    def other_end(v, e):
        return ("w", wv[e]) if v[0] == "b" else ("b", bv[e])

    # spine: unique path v0 -> v1
    parent = {v0: (None, None)}
    queue = [v0]
    while queue:
        v = queue.pop(0)
        if v == v1:
            break
        for e in vertex_edges(v):
            w = other_end(v, e)
            if w not in parent:
                parent[w] = (v, e)
                queue.append(w)
    spine = []
    v = v1
    while v != v0:
        pv, pe = parent[v]
        spine.append(pe)
        v = pv
    spine.reverse()
    spine_set = set(spine)
    spine_vertices = [v0]
    v = v0
    for e in spine:
        v = other_end(v, e)
        spine_vertices.append(v)

    # components of the forest obtained by deleting the spine edges
    comp: dict[tuple, int] = {}

    def fill(start, label):
        stack = [start]
        comp[start] = label
        while stack:
            v = stack.pop()
            for e in vertex_edges(v):
                if e in spine_set:
                    continue
                w = other_end(v, e)
                if w not in comp:
                    comp[w] = label
                    stack.append(w)

    for idx, sv in enumerate(spine_vertices):
        fill(sv, idx)

    def valencies(pred):
        blacks = []
        whites = []
        for v, label in comp.items():
            if not pred(v, label):
                continue
            (blacks if v[0] == "b" else whites).append(len(vertex_edges(v)))
        return ds.Passport(ds._parts(blacks), ds._parts(whites))

    last = len(spine_vertices) - 1
    head = valencies(lambda v, lab: lab == 0 and v != v0)
    tail = valencies(lambda v, lab: lab == last and v != v1)
    body = valencies(lambda v, lab: 0 < lab < last)
    return SpineAnatomy(tuple(spine), head, body, tail, len(vertex_edges(v0)), len(vertex_edges(v1)))


def _encode_from(d: ds.FramedDessin, start: int):
    """The dessin relabeled in breadth-first order from start, and the labels."""
    lab = [-1] * d.n
    lab[start] = 0
    order = [start]
    qi = 0
    while qi < len(order):
        e = order[qi]
        qi += 1
        for nxt in (d.alpha[e], d.beta[e]):
            if lab[nxt] == -1:
                lab[nxt] = len(order)
                order.append(nxt)
    a2 = [0] * d.n
    b2 = [0] * d.n
    for e in range(d.n):
        a2[lab[e]] = lab[d.alpha[e]]
        b2[lab[e]] = lab[d.beta[e]]
    return (tuple(a2), tuple(b2)), lab


def bfs_framed_key(d: ds.FramedDessin):
    """The least encoding from an edge of vertex 0, with vertex 1's least label."""
    black_cycle = next(c for c in ds.perm_cycles(d.alpha) if d.frame_black in c)
    white_cycle = next(c for c in ds.perm_cycles(d.beta) if d.frame_white in c)
    best = None
    for start in black_cycle:
        (a2, b2), lab = _encode_from(d, start)
        key = (a2, b2, min(lab[e] for e in white_cycle))
        if best is None or key < best:
            best = key
    return best


def bfs_unframed_key(d: ds.FramedDessin):
    return min(_encode_from(d, start)[0] for start in range(d.n))


def search_automorphisms(d: ds.FramedDessin) -> list[tuple[int, ...]]:
    """All edge permutations commuting with alpha and beta (identity included).

    A map g consistent with both is onto, since its image is closed under
    alpha and beta, which act transitively on the edges of a tree.
    """
    out = []
    for target in range(d.n):
        g = [-1] * d.n
        g[0] = target
        queue = [0]
        ok = True
        while queue and ok:
            e = queue.pop()
            for nxt, img in ((d.alpha[e], d.alpha[g[e]]), (d.beta[e], d.beta[g[e]])):
                if g[nxt] == -1:
                    g[nxt] = img
                    queue.append(nxt)
                elif g[nxt] != img:
                    ok = False
                    break
        if ok:
            out.append(tuple(g))
    return out


def canonical_form(d: ds.FramedDessin) -> ds.FramedDessin:
    """Frame-anchored canonical relabeling; equal outputs mean framed isomorphism."""
    a2, b2, wf = bfs_framed_key(d)
    return ds.FramedDessin(d.n, a2, b2, 0, wf)


def exact_squarefree_level(gens, alpha, n: int) -> bool:
    """Whether the exact level-n composite minus alpha is squarefree, by one gcd."""
    f = arboreal.composite(gens, n) - PolyQ.const(Fraction(alpha))
    return poly_gcd(f, f.derivative()).degree == 0


def eight_step_tree(gens, alpha, n: int) -> arboreal.ArborealTree:
    """build_tree with each level polished by eight Newton steps: the companion eigenvalues
    take eight, not one, and the degree-2 closed form eight, not none."""
    one_step, solve = kernels.newton_chain, kernels.dk_batch

    def eight_steps(g, xs, targets):
        for _ in range(8):
            xs = one_step(g, xs, targets)
        return xs

    def polished(g, values):
        roots = solve(g, values)
        return eight_steps(g, roots, values[:, None]) if len(g.monic) == 2 else roots

    kernels.newton_chain, kernels.dk_batch = eight_steps, polished
    try:
        return arboreal.build_tree(gens, alpha, n)
    finally:
        kernels.newton_chain, kernels.dk_batch = one_step, solve


def companion_roots(g: kernels.Row, values: np.ndarray) -> np.ndarray:
    """Roots of g.row - w for each w of values: the eigenvalues of the stacked
    companion matrices of the batch of rows, degree 2 included, after one Newton
    step, as kernels.dk_batch finishes every root it does not find in closed form."""
    coeffs = np.tile(g.row, (len(values), 1))
    coeffs[:, 0] -= values
    m, d = coeffs.shape[0], coeffs.shape[1] - 1
    companion = np.zeros((m, d, d), dtype=np.complex128)
    companion.reshape(m, d * d)[:, d :: d + 1] = 1.0  # the subdiagonal
    with np.errstate(all="ignore"):
        companion[:, 0, :] = -coeffs[:, -2::-1] / coeffs[:, -1:]
        return kernels.newton_chain(g, np.linalg.eigvals(companion), values[:, None])


def _masked_disk_radii(g, z, w, rho):
    """One level of arboreal._disk_radii, the diagonal of the gaps masked by np.eye;
    None where it refuses."""
    d = z.shape[1]
    eye = np.eye(d, dtype=bool)
    u = arboreal.U
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        resid = np.abs(kernels.horner(g.row, z) - w[:, None])
        size = kernels.horner(np.abs(g.row), np.abs(z)) + np.abs(w)[:, None]
        gaps = np.where(eye, 1.0, np.abs(z[:, :, None] - z[:, None, :]))
        den = np.abs(g.row[-1]) * np.prod(gaps, axis=2) * (1 - 4 * (d + 3) * u)
        radii = d * (resid + 8 * (d + 2) * u * size + rho[:, None]) / den
        apart = (gaps > radii[:, :, None] + radii[:, None, :]) | eye
    if not (np.all(np.isfinite(den)) and np.all(np.isfinite(radii)) and np.all(apart)):
        return None
    return radii


def per_level_tree(gens, alpha, n: int) -> arboreal.ArborealTree:
    """build_tree one flat level at a time: siblings sorted by lexsort under
    their parent, and each level's residual from the whole chain so far.  Each
    level builds its own kernels.Row and error state."""
    d = gens[0].degree
    alpha = Fraction(alpha)
    w = float(alpha)
    values = np.array([complex(w)])
    err = abs(alpha - Fraction(w))
    rho = np.array([float(err) if float(err) >= err else np.nextafter(float(err), 1.0)])
    levels = [((w, 0.0, -1),)]
    radii_out = [tuple(rho.tolist())]
    chain_rows = []
    max_residual = 0.0
    for k in range(1, n + 1):
        fk = arboreal._factor(gens, k).poly
        row = np.array([c / fk.den for c in fk.num], dtype=np.complex128)
        chain_rows.append(row)
        g = kernels.Row(row)
        parent_of = np.repeat(np.arange(len(values)), d)
        with np.errstate(all="ignore"):
            roots = kernels.dk_batch(g, values).reshape(-1)
        if not np.all(np.isfinite(roots)):
            raise ValueError(f"polish failed at level {k}: non-finite root")
        roots = roots[np.lexsort((roots.imag, roots.real, parent_of))]
        radii = _masked_disk_radii(g, roots.reshape(-1, d), values, rho)
        if radii is None:
            raise ValueError(f"sibling disks overlap at level {k}")
        rho = radii.reshape(-1)
        radii_out.append(tuple(rho.tolist()))
        v = roots
        with np.errstate(over="ignore", invalid="ignore"):
            for r in chain_rows[::-1]:
                v = kernels.horner(r, v)
        max_residual = max(max_residual, float(np.abs(v - complex(alpha)).max()))
        values = roots
        levels.append(tuple(zip(roots.real.tolist(), roots.imag.tolist(), parent_of.tolist())))
    tol = max(1e-9, max(max(r) for r in radii_out))
    return arboreal.ArborealTree(d, alpha, tol, tuple(levels), max_residual, tuple(radii_out))


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


def interleaves(site: str, xs, ys) -> bool:
    return all(any(pt._geq(site, x, y) for y in ys) for x in xs)


def search_chain_equiv(c1: pt.TruncatedChain, c2: pt.TruncatedChain) -> bool:
    if c1.site != c2.site:
        raise ValueError("chains live on different sites")
    return interleaves(c1.site, c1.entries, c2.entries) and interleaves(c1.site, c2.entries, c1.entries)


def search_chain_in_open(c: pt.TruncatedChain, target) -> bool:
    target = int(target) if c.site == "A" else tuple(target)
    return any(pt._geq(c.site, target, e) for e in c.entries)


def step(site: str, prev, last):
    """Periodic continuation step derived from the last two entries."""
    if site == "A":
        return last * (last // prev)
    if site == "C":
        u = cw.divide_left(last, prev)
        return cw.mul(u, last)
    return last + last[len(prev) :]


def materialize(c: pt.TruncatedChain, steps: int) -> tuple:
    """The entries of c, then `steps` periodic steps if c is extended."""
    entries = list(c.entries)
    if c.extend:
        for _ in range(steps):
            entries.append(step(c.site, entries[-2], entries[-1]))
    return tuple(entries)


def nontrivial_extension(c: pt.TruncatedChain) -> bool:
    if not c.extend:
        return False
    return step(c.site, c.entries[-2], c.entries[-1]) != c.entries[-1]


def _tail_search(c1: pt.TruncatedChain, c2: pt.TruncatedChain, search) -> bool:
    """tail_equiv with search(c1, c2) deciding two nontrivially extended site-B
    or site-C chains."""
    if c1.site != c2.site:
        raise ValueError("chains live on different sites")
    e1, e2 = nontrivial_extension(c1), nontrivial_extension(c2)
    if not e1 and not e2:
        return True
    if e1 != e2:
        return False
    if c1.site == "A":
        s1 = from_chain(list(c1.entries), limit=True)
        s2 = from_chain(list(c2.entries), limit=True)
        return adele_class_equiv(s1, s2)
    return search(c1, c2)


def deep_tail_equiv(c1: pt.TruncatedChain, c2: pt.TruncatedChain) -> bool:
    """points.tail_equiv by deep interleaving: each of the first 6 entries of one
    chain's continuation is >= some entry within 40 steps of the other's, both ways."""

    def above(x, y):
        return interleaves(x.site, materialize(x, 6)[:6], materialize(y, 40))

    return _tail_search(c1, c2, lambda x, y: above(x, y) and above(y, x))


def search_tail_equiv(c1: pt.TruncatedChain, c2: pt.TruncatedChain) -> bool:
    """points.tail_equiv as the window search decided it, before the limits did."""
    return _tail_search(c1, c2, _window_search)


def _window_search(c1: pt.TruncatedChain, c2: pt.TruncatedChain) -> bool:
    depth = max(len(c1.entries), len(c2.entries)) + 2
    m1 = materialize(c1, depth)
    m2 = materialize(c2, depth + 2)
    for i in range(len(m1)):
        for j in range(len(m2)):
            t1 = m1[i : i + depth]
            t2 = m2[j : j + depth + 2]
            if interleaves(c1.site, t1, t2) and interleaves(c1.site, t2[:depth], m1[i:]):
                return True
    return False


def quadratic_local_error(gens, levels) -> float:
    """Largest |z - z*| / (1 + |z|) over the nodes z of a degree-2 tree's levels, z* the root of
    B_k - w nearest z for z's float parent w, from the quadratic formula in 113-bit mpmath:
    how far each level's solve lands from the roots of the row it was given."""
    import mpmath

    worst = mpmath.mpf(0)
    with mpmath.workprec(113):
        for k in range(1, len(levels)):
            c0, c1, c2 = (mpmath.mpf(c.numerator) / c.denominator for c in arboreal._factor(gens, k).poly.coeffs)
            parents = levels[k - 1]
            for re, im, p in levels[k]:
                root = mpmath.sqrt(c1 * c1 - 4 * c2 * (c0 - mpmath.mpc(*parents[p][:2])))
                z = mpmath.mpc(re, im)
                near = min(abs(z - (s * root - c1) / (2 * c2)) for s in (1, -1))
                worst = max(worst, near / (1 + abs(z)))
    return float(worst)
