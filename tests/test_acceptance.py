"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything is exact except
the preimage-tree residuals, which carry their stated 1e-8 bound.
"""

import random
import time
from fractions import Fraction

from arithsite import arboreal, belyi, bostconnes as bc, conway as cw
from arithsite import dessins as ds, kernels, points as pt
from arithsite.belyi import b_dk
from arithsite.bigpicture import PIC_ONE, PicClass, fiber, hyperdistance, psi
from arithsite.conway import Letter
from arithsite.ratpoly import PolyQ, squarefree_part
from arithsite.supernatural import INF, Supernatural, adele_class_equiv

import numpy as np

from oracles import (
    count_distinct,
    letter_matrix,
    meta_commute_shear,
    proj_line_count,
    random_tree_dessin,
    rewrite_normalize,
    shear,
)


def _report(num: int, label: str, ok: bool):
    print(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed"


def test_criterion_01_fiber_counts():
    t0 = time.perf_counter()
    ok = all(len(fiber(n)) == psi(n) == proj_line_count(n) for n in range(1, 61))
    elapsed = time.perf_counter() - t0
    _report(1, f"fiber = psi = P1 count for n <= 60 in {elapsed:.1f}s", ok and elapsed < 30)


def test_criterion_02_meta_commutation_exact():
    ok = True
    primes = [2, 3, 5, 7, 11, 13]
    for p in primes:
        for q in primes:
            if p == q:
                continue
            for i in range(p + 1):
                for j in range(q + 1):
                    a, b = Letter(p, i), Letter(q, j)
                    x, y, s = meta_commute_shear(a, b)
                    lhs = letter_matrix(a) * letter_matrix(b)
                    rhs = shear(s) * letter_matrix(x) * letter_matrix(y)
                    ok &= lhs == rhs
                    if not a.is_power and not b.is_power:
                        ok &= s == 0
    _report(2, "meta-commutation exact for all letter pairs, p,q <= 13", ok)


def test_criterion_03_confluence_and_uniqueness():
    rng = random.Random(20260809)
    ok = True
    free_seen = 0
    for trial in range(10_000):
        length = rng.randrange(0, 13)
        w = []
        for _ in range(length):
            p = rng.choice((2, 3, 5))
            w.append(Letter(p, rng.randrange(p + 1)))
        w = tuple(w)
        nf = cw.normalize(w)
        ok &= cw.is_normal(nf)
        ok &= cw.word_to_class(nf) == cw.word_to_class(w)
        # the rewriting presentation, leftmost-first and on 5 random schedules
        ok &= rewrite_normalize(w) == nf
        for s in range(5):
            ok &= rewrite_normalize(w, rng=random.Random(trial * 101 + s)) == nf
        if cw.is_free(w):
            free_seen += 1
            ok &= cw.class_to_word(cw.word_to_class(w)) == nf
        if not ok:
            break
    # force a healthy sample of free words for the round-trip clause
    for trial in range(2000):
        length = rng.randrange(0, 13)
        w = tuple(
            Letter(p, rng.randrange(p)) for p in (rng.choice((2, 3, 5)) for _ in range(length))
        )
        ok &= cw.class_to_word(cw.word_to_class(w)) == cw.normalize(w)
        free_seen += 1
    _report(3, f"confluence on 10^4 words x 5 schedules; {free_seen} free round-trips", ok)


def test_criterion_04_hyperdistance_metric_facts():
    rng = random.Random(44)
    ok = True
    for _ in range(1000):
        x = PicClass(Fraction(rng.randint(1, 30), rng.randint(1, 30)), Fraction(rng.randint(0, 29), rng.randint(1, 30)))
        y = PicClass(Fraction(rng.randint(1, 30), rng.randint(1, 30)), Fraction(rng.randint(0, 29), rng.randint(1, 30)))
        ok &= hyperdistance(x, y) == hyperdistance(y, x)
    for _ in range(1000):
        m = rng.randint(1, 40)
        rho = Fraction(rng.randint(0, 23), rng.randint(1, 24))
        ok &= hyperdistance(PIC_ONE, PicClass(Fraction(m), rho)) == m * rho.denominator**2
    _report(4, "delta symmetric on 10^3 pairs; N = M h^2 on number-like classes", ok)


def test_criterion_05_dessin_polynomial_oracles():
    ok = True
    members = [(d, k) for d in range(2, 7) for k in range(d)]
    for d1, k1 in members:
        for d2, k2 in members:
            B, B2 = b_dk(d1, k1), b_dk(d2, k2)
            comp = belyi.compose(B, B2)
            dessin = ds.compose(ds.e_dessin(d1, k1), ds.e_dessin(d2, k2))
            ok &= ds.passport(dessin) == belyi.poly_passport(comp)
            ok &= belyi.black_count(comp) == B2.degree * (belyi.black_count(B) - 1) + belyi.black_count(B2)
            ok &= belyi.compose_count_check(B, B2)
    _report(5, f"passports and black counts agree on {len(members)**2} B_dk pairs, d <= 6", ok)


def test_criterion_06_passport_composition_formula():
    rng = random.Random(66)
    ok = True
    for _ in range(1000):
        t = random_tree_dessin(rng.randrange(1, 11), rng)
        t2 = random_tree_dessin(rng.randrange(1, 11), rng)
        anat = ds.anatomy(t)
        predicted = belyi.compose_passport(ds.passport(t), anat.valency0, anat.valency1, ds.passport(t2), t2.n)
        ok &= predicted == ds.passport(ds.compose(t, t2))
    for _ in range(200):
        d = rng.randint(2, 6)
        k = rng.randrange(d)
        t2 = random_tree_dessin(rng.randrange(1, 9), rng)
        n = t2.n
        pb, pw = ds.passport(t2)
        expected = ds.Passport(
            tuple(sorted([1] * (n * k) + [(d - k) * v for v in pb], reverse=True)),
            tuple(sorted([1] * (n * (d - k - 1)) + [(k + 1) * v for v in pw], reverse=True)),
        )
        ok &= ds.passport(ds.compose(ds.e_dessin(d, k), t2)) == expected
    _report(6, "predicted passports match permutation composition on 10^3 random pairs", ok)


def test_criterion_07_morphism_triangle():
    rng = random.Random(77)
    pool = [b_dk(d, k) for d in range(2, 9) for k in range(d)]
    words = {p: belyi.beta_word(p) for p in pool}
    ok = True
    for _ in range(1000):
        B, B2 = rng.choice(pool), rng.choice(pool)
        comp = belyi.compose(B, B2)
        ok &= hyperdistance(PIC_ONE, belyi.beta_morphism(comp)) == comp.degree
        ok &= belyi.beta_morphism(comp) == cw.word_to_class(cw.mul(words[B], words[B2]))
    _report(7, "delta(beta(B)) = deg B and beta multiplicative on 10^3 composites", ok)


def test_criterion_08_cancellativity_and_freeness():
    ok = belyi.free_check([b_dk(3, 0), b_dk(3, 1), b_dk(3, 2)], 3)
    rng = random.Random(88)
    pool = [b_dk(d, k) for d in range(2, 7) for k in range(d)]
    for _ in range(300):
        a, b, c = (rng.choice(pool) for _ in range(3))
        if b.poly != c.poly:
            ok &= belyi.compose(a, b).poly != belyi.compose(a, c).poly
            ok &= belyi.compose(b, a).poly != belyi.compose(c, a).poly
    _report(8, "39 cubic words distinct; left/right cancellation on random triples", ok)


def test_criterion_09_bost_connes_conditions():
    ok = all(bc.check_condition3(n) for n in range(1, 31))
    ok &= all(bc.check_condition4(n, m) for n in range(1, 31) for m in range(1, 31))
    primes = [2, 3, 5, 7, 11, 13]
    pairs = [(p, q) for p in primes for q in primes if p < q]
    ok &= all(bc.check_condition5(p, q) for p, q in pairs)

    # operator compatibility, exhaustive on (1/N)Z/Z for N <= 100: integer
    # mirror of the Q/Z operators (x = a/N; free op (p,i): a/N -> (a + i*N)/(p*N))
    def compat_exhaustive(p, q):
        for i in range(p):
            for j in range(q):
                l, k = divmod(i * q + j, p)
                for n in range(1, 101):
                    den = p * q * n
                    for a in range(n):
                        lhs = (a + j * n) + i * q * n
                        rhs = (a + k * n) + l * p * n
                        if (lhs - rhs) % den != 0:
                            return False
        return True

    ok &= all(compat_exhaustive(p, q) for p, q in pairs)
    # tie the mirror to the public operators on small levels
    for p, q in pairs[:4]:
        for i in range(p):
            for j in range(q):
                l, k = divmod(i * q + j, p)
                for n in range(1, 13):
                    for x in bc.torsion(n):
                        lhs = bc.operator(Letter(p, i), bc.operator(Letter(q, j), x))
                        rhs = bc.operator(Letter(q, l), bc.operator(Letter(p, k), x))
                        ok &= lhs == rhs
    _report(9, "conditions 3/4/5 and operator meta-commutation, all exact", ok)


def test_criterion_10_arboreal_tree():
    kernels.warmup()  # first-call costs outside the timed run
    t0 = time.perf_counter()
    tree = arboreal.build_tree([b_dk(3, 1)], Fraction(1, 2), 4)
    elapsed = time.perf_counter() - t0
    ok = tree.leaves() == 81
    ok &= tree.max_residual < 1e-8
    for n in range(1, 5):
        ok &= arboreal.squarefree_level([b_dk(3, 1)], Fraction(1, 2), n)
        roots = np.array([complex(re, im) for re, im, _ in tree.levels[n]])
        f = arboreal.composite([b_dk(3, 1)], n) - PolyQ.const(Fraction(1, 2))
        ok &= count_distinct(roots, 2 * tree.tol) == squarefree_part(f).degree
    ok &= elapsed < 10
    _report(10, f"depth-4 tree: 81 leaves, residual {tree.max_residual:.1e}, {elapsed:.1f}s", ok)


def test_criterion_11_supernatural_point_layer():
    rng = random.Random(111)

    def rand_sn():
        default = rng.choice([0, 0, 0, INF])
        factors = {}
        for p in rng.sample([2, 3, 5, 7, 11], rng.randint(0, 3)):
            e = rng.choice([1, 2, 3, INF])
            if e != default:
                factors[p] = e
        return Supernatural.from_factors(factors, default)

    ok = True
    pool = [rand_sn() for _ in range(60)]
    for s in pool:
        ok &= adele_class_equiv(s, s)
    for _ in range(2000):
        s, t, u = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        ok &= adele_class_equiv(s, t) == adele_class_equiv(t, s)
        if adele_class_equiv(s, t) and adele_class_equiv(t, u):
            ok &= adele_class_equiv(s, u)

    def rand_chain():
        entries = [rng.randint(1, 5)]
        for _ in range(rng.randint(0, 3)):
            entries.append(entries[-1] * rng.randint(1, 5))
        return pt.TruncatedChain("A", tuple(entries))

    for _ in range(300):
        ok &= pt.tail_equiv(rand_chain(), rand_chain())

    def rand_c_chain():
        word = ()
        entries = []
        for _ in range(rng.randint(1, 3)):
            p = rng.choice((2, 3))
            word = cw.mul((Letter(p, rng.randrange(p)),), word)
            entries.append(word)
        return pt.TruncatedChain("C", tuple(entries))

    checked = 0
    for _ in range(1000):
        c1 = rand_c_chain()
        if rng.random() < 0.5:
            # cofinal variant: drop the first entry or repeat the last step
            entries = c1.entries[1:] or c1.entries
            c2 = pt.TruncatedChain("C", entries)
        else:
            c2 = rand_c_chain()
        if pt.chain_equiv(c1, c2):
            ok &= pt.chain_equiv(pt.project(c1), pt.project(c2))
            checked += 1
        if pt.tail_equiv(c1, c2):
            ok &= pt.tail_equiv(pt.project(c1), pt.project(c2))
    _report(11, f"equivalences behave; projection commutes on 10^3 chains ({checked} equiv)", ok)


def test_criterion_12_involution_laws():
    ok = True
    for d in range(2, 11):
        for k in range(d):
            p = b_dk(d, k)
            ok &= belyi.involution_poly(belyi.involution_poly(p)).poly == p.poly
            ok &= belyi.involution_poly(p).poly == b_dk(d, d - 1 - k).poly
            ok &= ds.framed_iso(ds.involution(ds.e_dessin(d, k)), ds.e_dessin(d, d - 1 - k))
    _report(12, "involution exact on B_dk and matches E_dk swap, d <= 10", ok)
