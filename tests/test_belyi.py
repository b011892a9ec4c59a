import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from arithsite import arboreal, belyi, conway as cw, dessins as ds, ratpoly
from arithsite.belyi import BelyiPoly, b_dk
from arithsite.bigpicture import PIC_ONE, hyperdistance, parse_class
from arithsite.ratpoly import PolyQ, parse_poly, poly_gcd, squarefree_part
from oracles import poly_divides, poly_pow


def test_b_dk_cubic_value():
    assert b_dk(3, 1).poly == parse_poly("-2*x^3+3*x^2")


def test_b_dk_extremes():
    for d in range(2, 10):
        assert b_dk(d, 0).poly == PolyQ.monomial(1, d)
        assert b_dk(d, d - 1).poly == PolyQ.const(1) - poly_pow(PolyQ((1, -1)), d)


def test_b_dk_derived_coefficients():
    assert b_dk(4, 1).poly == parse_poly("-3*x^4+4*x^3")


def test_b_dk_range_check():
    with pytest.raises(ValueError):
        b_dk(1, 0)
    with pytest.raises(ValueError):
        b_dk(3, 3)
    assert b_dk(512, 1).degree == 512
    with pytest.raises(ValueError, match="refusing degree 513 > 512"):
        b_dk(513, 1)


def test_b_dk_fixed_points_and_derivative_shape():
    # B' = const * x^(d-k-1) * (x-1)^k, checked by exact division
    for d in range(2, 13):
        for k in range(d):
            p = b_dk(d, k).poly
            assert p(Fraction(0)) == 0 and p(Fraction(1)) == 1
            dp = p.derivative()
            shape = PolyQ.monomial(1, d - k - 1) * poly_pow(PolyQ((-1, 1)), k)
            q, r = dp.divmod(shape)
            assert r.is_zero() and q.degree == 0


def test_is_dynamical_belyi_examples():
    assert belyi.is_dynamical_belyi(parse_poly("-2*x^3+3*x^2"))
    assert belyi.is_dynamical_belyi(parse_poly("1/4*x^3-3/2*x^2+9/4*x"))
    assert not belyi.is_dynamical_belyi(parse_poly("x^3-x"))


def test_is_dynamical_belyi_example_reason():
    # squarefree part of the derivative of x^3 - x does not divide P(P-1)
    p = parse_poly("x^3-x")
    crit = squarefree_part(p.derivative())
    assert crit == parse_poly("x^2-1/3")
    assert not poly_divides(crit, p * (p - PolyQ.const(1)))


def test_four_cubic_realizations():
    for text in ("-2*x^3+3*x^2", "1/4*x^3+3/4*x^2", "1/4*x^3-3/2*x^2+9/4*x", "16*x^3-24*x^2+9*x"):
        BelyiPoly(parse_poly(text))


def test_counts():
    p = b_dk(3, 1)
    assert belyi.black_count(p) == 2 and belyi.white_count(p) == 2
    assert b_dk(8, 3).valencies == (5, 4)
    assert BelyiPoly(b_dk(8, 3).poly).valencies == (5, 4)
    assert belyi.black_count(b_dk(7, 0)) == 1


def test_b_dk_is_belyi_by_theorem():
    # B' = c x^(d-k-1) (1-x)^k, so the predicate b_dk skips holds
    for d in range(2, 65):
        for k in range(d):
            assert belyi.is_dynamical_belyi(b_dk(d, k).poly), (d, k)
    assert belyi.is_dynamical_belyi(b_dk(512, 256).poly)


def test_b_dk_skips_the_predicate(monkeypatch):
    def refuse(p):
        raise AssertionError("b_dk ran the dynamical-Belyi predicate")

    monkeypatch.setattr(belyi, "_belyi_split", refuse)  # BelyiPoly and is_dynamical_belyi run it
    assert b_dk(512, 256).degree == 512
    with pytest.raises(AssertionError):
        BelyiPoly(b_dk(3, 1).poly)  # a parsed polynomial is still checked


def _counts_oracle(f: BelyiPoly) -> tuple[int, int, int]:
    """White count and the valencies at 0 and 1, without Riemann-Hurwitz."""
    one = PolyQ.const(1)
    white = sum(oracles.chain_multiplicity_counts(f.poly - one).values())
    return white, oracles.root_multiplicity(f.poly, 0), oracles.root_multiplicity(f.poly - one, 1)


def test_white_count_and_valencies_match_oracles():
    # every B_dk with d <= 12, all composites of those with d <= 4, 40 seeded
    # composites of any two, and the involution of each
    members = [b_dk(d, k) for d in range(2, 13) for k in range(d)]
    small = [p for p in members if p.degree <= 4]
    rng = random.Random(15)
    comps = [belyi.compose(p, q) for p in small for q in small]
    comps += [belyi.compose(rng.choice(members), rng.choice(members)) for _ in range(40)]
    for p in members + comps:
        for f in (p, belyi.involution_poly(p)):
            got = belyi.white_count(f), *f.valencies
            assert got == _counts_oracle(f), f


def test_poly_passport_matches_dessin():
    for d in range(2, 9):
        for k in range(d):
            assert belyi.poly_passport(b_dk(d, k)) == ds.passport(ds.e_dessin(d, k))


def test_poly_passport_matches_two_chain_oracle():
    # the 27 x 27 B_dk composites of the belyi-compose benchmark, d <= 7, and
    # their images under the involution, which swaps black and white
    members = [b_dk(d, k) for d in range(2, 8) for k in range(d)]
    for p in members:
        for q in members:
            comp = belyi.compose(p, q)
            for f in (comp, belyi.involution_poly(comp)):
                assert belyi.poly_passport(f) == oracles.two_chain_poly_passport(f)


def test_poly_passport_takes_one_large_gcd(monkeypatch):
    # b_dk(7, 0) = x^7 and its composite x^49 carry their passports by
    # theorem and take no gcd.  A parsed x^49 takes one, in its predicate:
    # B = x^48 drops the degree by 1, so one black root of multiplicity 49,
    # and W = 49 is constant, so 49 simple white roots.  The two full chains
    # of the old passport took 50 gcds, two of them of degree 49.
    degrees = []

    def counted(f, g):
        degrees.append(max(f.degree, g.degree))
        return poly_gcd(f, g)

    monkeypatch.setattr(belyi, "poly_gcd", counted)
    monkeypatch.setattr(ratpoly, "poly_gcd", counted)
    passport = belyi.poly_passport(belyi.compose(b_dk(7, 0), b_dk(7, 0)))
    assert passport == ds.Passport((49,), (1,) * 49)
    assert degrees == []
    parsed = BelyiPoly(PolyQ.monomial(1, 49))
    assert degrees == [49]
    assert belyi.poly_passport(parsed) == passport
    assert belyi.black_count(parsed) == 1 and belyi.white_count(parsed) == 49
    assert degrees == [49]  # the passport and the counts read the predicate's B and W


def test_parsed_polynomial_takes_one_gcd_of_p_and_its_derivative(monkeypatch):
    # the predicate takes gcd(P, P') and no other gcd; the passport starts
    # its two chains from B and W, so it takes no second gcd(P, P')
    polys = [b_dk(d, k).poly for d, k in ((3, 1), (8, 3), (12, 0), (12, 11))]
    # and a P fixing 0 and 1 whose critical value -1/8 is not 0 or 1
    polys += [belyi.compose(b_dk(4, 1), belyi.involution_poly(b_dk(5, 2))).poly, parse_poly("2*x^2-x")]
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return poly_gcd(f, g)

    monkeypatch.setattr(belyi, "poly_gcd", counted)
    monkeypatch.setattr(ratpoly, "poly_gcd", counted)
    for p in polys:
        calls.clear()
        if not belyi.is_dynamical_belyi(p):
            assert p == polys[-1] and calls == [(p, p.derivative())]
            continue
        parsed = BelyiPoly(p)
        passport = parsed.passport
        assert calls[:2] == [(p, p.derivative())] * 2 and (p, p.derivative()) not in calls[2:], p
        assert passport == oracles.two_chain_poly_passport(parsed)


def test_parsed_counts_match_the_two_gcd_oracle():
    # the two-gcd root count the predicate ran before W | P - 1 replaced it:
    # B_dk with d <= 8, seeded composites and involutions, and random P with
    # P(0) = 0 and P(1) = 1, most of them not Belyi
    rng = random.Random(32)
    members = [b_dk(d, k) for d in range(2, 9) for k in range(d)]
    polys = [p.poly for p in members]
    for _ in range(60):
        p, q = rng.choice(members), rng.choice(members)
        comp = belyi.compose(p, q)
        polys += [comp.poly, belyi.involution_poly(comp).poly]
    for _ in range(200):
        cs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))]
        polys.append(PolyQ.x() + PolyQ.x() * PolyQ((-1, 1)) * PolyQ(cs))
    belyi_count = 0
    for p in polys:
        want = oracles.two_gcd_belyi_counts(p)
        assert belyi.is_dynamical_belyi(p) == (want is not None), p
        if want is not None:
            belyi_count += 1
            assert BelyiPoly(p).counts == want, p
    assert belyi_count > len(members) + 120


def test_parsed_counts_are_the_predicates(monkeypatch):
    # the predicate counts the roots of P and P - 1; a parsed polynomial keeps
    # them, so its counts and beta take no further gcd
    cases = [((d, k), BelyiPoly(b_dk(d, k).poly)) for d, k in ((3, 1), (8, 3), (64, 20))]

    def refuse(f, g):
        raise AssertionError("a count took a gcd")

    monkeypatch.setattr(belyi, "poly_gcd", refuse)
    for (d, k), p in cases:
        assert (belyi.black_count(p), belyi.white_count(p)) == (k + 1, d - k)
        assert belyi.beta_word(p) == belyi.beta_word(b_dk(d, k))


def test_compose_count_check_examples():
    p = b_dk(3, 1)
    assert belyi.compose_count_check(p, p)
    assert belyi.black_count(belyi.compose(p, p)) == 5
    unit = BelyiPoly(PolyQ.x())
    assert belyi.compose_count_check(p, unit)
    assert belyi.compose_count_check(b_dk(4, 2), b_dk(3, 1))


def test_composite_roots_on_bdk_pairs():
    # the count through the outer map's squarefree part against the gcd of the
    # whole composite, on every pair of B_dk with d <= 7
    members = [b_dk(d, k) for d in range(2, 8) for k in range(d)]
    assert len(members) == 27
    for p in members:
        for q in members:
            assert belyi._composite_roots(squarefree_part(p.poly), q.poly) == oracles.composite_roots(p.poly, q.poly)
            assert belyi.compose_count_check(p, q)


def _random_int_poly(rng, degree: int) -> PolyQ:
    return PolyQ([rng.randint(-4, 4) for _ in range(degree)] + [rng.choice([-3, -2, -1, 1, 2, 3])])


def test_composite_roots_on_random_polys():
    # the identity holds for any nonconstant f and g, not only Belyi maps: f a
    # product of powers of random integer factors, so with repeated roots, and
    # g a random nonconstant integer polynomial
    rng = random.Random(38)
    repeated = 0
    for _ in range(300):
        f = PolyQ.const(1)
        for _ in range(rng.randint(1, 3)):
            f = f * poly_pow(_random_int_poly(rng, rng.randint(1, 3)), rng.randint(1, 3))
        g = _random_int_poly(rng, rng.randint(1, 4))
        repeated += squarefree_part(f).degree < f.degree
        assert belyi._composite_roots(squarefree_part(f), g) == oracles.composite_roots(f, g), (f, g)
    assert repeated > 150


def _squarefree_cases() -> list[BelyiPoly]:
    """The 27 B_dk with d <= 7, their involutions, composites of pairs of them
    and parsed polynomials."""
    members = [b_dk(d, k) for d in range(2, 8) for k in range(d)]
    composites = [belyi.compose(p, q) for p, q in zip(members, members[5:] + members[:5])]
    parsed = [BelyiPoly(parse_poly(t)) for t in ("x", "x^2", "-2*x^3+3*x^2", "x^3-3*x^2+3*x")]
    parsed += [BelyiPoly(c.poly) for c in composites[::4]]
    return members + [belyi.involution_poly(p) for p in members] + composites + parsed


def test_squarefree_is_the_squarefree_part():
    # each polynomial keeps S: the same object on a second read
    cases = _squarefree_cases()
    assert len(cases) == 27 * 3 + 4 + 7
    for p in cases:
        s = p.squarefree
        assert s == squarefree_part(p.poly), p
        assert p.squarefree is s
        assert s.degree == belyi.black_count(p)


def test_squarefree_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for p in _squarefree_cases():
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(p.poly.coeffs))
        want = sympy.Poly(expr, x).sqf_part().monic().all_coeffs()[::-1]
        assert p.squarefree == PolyQ([Fraction(int(c.p), int(c.q)) for c in want]), p


def test_compose_count_check_caps_the_composite_degree():
    # the check builds no composite, but the cap on its degree stays: degree
    # 512 is answered, 4096 refused
    assert belyi.compose_count_check(b_dk(32, 16), b_dk(16, 8))
    with pytest.raises(ValueError, match=r"^refusing a composite of degree 4096 > 512$"):
        belyi.compose_count_check(b_dk(64, 32), b_dk(64, 32))


def test_composites_fold_from_either_side():
    # by associativity: the left folds of _word_poly and arboreal.composite
    # equal the right fold g_1 o (g_2 o (... o g_n))
    gens = [b_dk(3, 1), b_dk(2, 1), BelyiPoly(parse_poly("x^2")), belyi.involution_poly(b_dk(5, 2))]
    for word in [(0,), (1, 0), (0, 1, 3), (3, 3, 2, 1), (1,) * 7]:
        right = PolyQ.x()
        for i in reversed(word):
            right = gens[i].poly.compose(right)
        assert belyi._word_poly(gens, word) == right
    for g in gens:
        right = PolyQ.x()
        for _ in range(3):
            right = g.poly.compose(right)
        assert arboreal.composite([g], 3) == right


def test_beta_morphism_examples():
    assert belyi.beta_morphism(b_dk(3, 1)) == parse_class("1/3:1/3")
    assert belyi.beta_word(b_dk(3, 1)) == (cw.Letter(3, 1),)
    assert belyi.beta_morphism(b_dk(5, 0)) == parse_class("1/5:0")
    assert belyi.beta_word(b_dk(5, 0)) == (cw.Letter(5, 0),)


def test_beta_is_morphism_on_family():
    rng = random.Random(41)
    pool = [b_dk(d, k) for d in range(2, 6) for k in range(d)]
    for _ in range(25):
        p, q = rng.choice(pool), rng.choice(pool)
        comp = belyi.compose(p, q)
        assert belyi.beta_morphism(comp) == cw.word_to_class(
            cw.mul(belyi.beta_word(p), belyi.beta_word(q))
        )
        assert belyi.beta_word(comp) == cw.mul(belyi.beta_word(p), belyi.beta_word(q))


def test_triangle_examples():
    assert belyi.triangle_check(b_dk(5, 2))
    assert belyi.degree_morphism(b_dk(5, 2)) == 5
    assert hyperdistance(PIC_ONE, belyi.beta_morphism(b_dk(5, 2))) == 5


def test_involution_examples():
    for d in range(2, 11):
        assert belyi.involution_poly(b_dk(d, 0)).poly == b_dk(d, d - 1).poly
        for k in range(d):
            p = b_dk(d, k)
            assert belyi.involution_poly(belyi.involution_poly(p)).poly == p.poly
            assert belyi.involution_poly(p).poly == b_dk(d, d - 1 - k).poly


def test_free_check_degree_three_family():
    gens = [b_dk(3, 0), b_dk(3, 1), b_dk(3, 2)]
    assert belyi.free_check(gens, 3)


def test_free_check_single_generator():
    assert belyi.free_check([b_dk(4, 2)], 3)


def test_free_check_mixed_degrees():
    gens = [b_dk(d, k) for d in (3, 4, 5) for k in range(1, d - 1)]
    assert belyi.free_check(gens, 2)


_FREE_POOL = [BelyiPoly(PolyQ.x()), *(b_dk(d, k) for d in (2, 3) for k in range(d)),
              BelyiPoly(parse_poly("16*x^3-24*x^2+9*x")), BelyiPoly(parse_poly("1/4*x^3+3/4*x^2"))]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_FREE_POOL), min_size=1, max_size=3, unique_by=lambda g: g.poly),
       st.integers(1, 3))
def test_free_check_matches_the_composite_oracle(gens, maxlen):
    # x and the commuting monomials x^2, x^3 make words with equal composites
    assert belyi.free_check(gens, maxlen) == oracles.composite_free_check(gens, maxlen)


def test_free_check_decides_colliding_values_by_their_composites(monkeypatch):
    # with every word's value equal, each word is compared as a composite
    free = [b_dk(3, 0), b_dk(3, 1), b_dk(3, 2)]
    commuting = [b_dk(2, 0), b_dk(3, 0)]
    monkeypatch.setattr(PolyQ, "__call__", lambda self, x: Fraction(0))
    assert belyi.free_check(free, 2)
    assert not belyi.free_check(commuting, 2)


def test_free_check_reads_values_not_composites(monkeypatch):
    # one cubic to length 8 reaches degree 3^8; its values differ, so no composite is built
    def refuse(self, g):
        raise AssertionError("free_check built a composite")

    monkeypatch.setattr(PolyQ, "compose", refuse)
    assert belyi.free_check([b_dk(3, 1)], 8)


def test_free_check_rejects_duplicates():
    with pytest.raises(ValueError):
        belyi.free_check([b_dk(3, 1), b_dk(3, 1)], 2)


def test_cancellation_on_family():
    rng = random.Random(43)
    pool = [b_dk(d, k) for d in range(2, 6) for k in range(d)]
    for _ in range(60):
        a, b, c = (rng.choice(pool) for _ in range(3))
        if b.poly != c.poly:
            assert belyi.compose(a, b).poly != belyi.compose(a, c).poly
            assert belyi.compose(b, a).poly != belyi.compose(c, a).poly


def test_rejects_non_belyi():
    with pytest.raises(ValueError):
        BelyiPoly(parse_poly("x^3-x"))


def _old_predicate(p: PolyQ) -> bool:
    """The predicate before the root count: squarefree_part(P') | P(P-1)."""
    if p(Fraction(0)) != 0 or p(Fraction(1)) != 1:
        return False
    return poly_divides(squarefree_part(p.derivative()), p * (p - PolyQ.const(1)))


_BDK = st.integers(2, 7).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d - 1)))
_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _chain(draw):
    """A B_dk followed by up to four compositions or involutions, degree <= 150."""
    p = b_dk(*draw(_BDK))
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            p = belyi.involution_poly(p)
            continue
        q = b_dk(*draw(_BDK)) if draw(st.booleans()) else p
        if p.degree * q.degree <= 150:
            p = belyi.compose(p, q) if draw(st.booleans()) else belyi.compose(q, p)
    return p


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_chain())
def test_carried_passport_and_valencies_match_gcd_path(p):
    # b_dk, compose and involution_poly carry their data by theorem; a parsed
    # polynomial computes it by one gcd, and the two-chain oracle by two chains
    parsed = BelyiPoly(p.poly)
    assert p.passport == parsed.passport == oracles.two_chain_poly_passport(p)
    assert p.valencies == parsed.valencies
    one = PolyQ.const(1)
    assert p.valencies == (oracles.root_multiplicity(p.poly, 0), oracles.root_multiplicity(p.poly - one, 1))


@st.composite
def _closed_under_ops(draw):
    """A B_dk followed by up to three compositions or involutions, degree <= 64."""
    p = b_dk(*draw(_BDK))
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            p = belyi.involution_poly(p)
            continue
        q = b_dk(*draw(_BDK))
        if p.degree * q.degree <= 64:
            p = belyi.compose(p, q) if draw(st.booleans()) else belyi.compose(q, p)
    return p


@settings(max_examples=80, deadline=None)
@given(_closed_under_ops(), _SMALL, st.integers(1, 3), st.integers(1, 3))
def test_root_count_predicate_matches_old_oracle(p, c, i, j):
    # every composite and involution passes both predicates
    assert belyi.is_dynamical_belyi(p.poly) and _old_predicate(p.poly)
    # a perturbation c x^i (x-1)^j keeps P(0) = 0 and P(1) = 1
    q = p.poly + PolyQ.monomial(c, i) * poly_pow(PolyQ((-1, 1)), j)
    assert belyi.is_dynamical_belyi(q) == _old_predicate(q)


@settings(max_examples=150, deadline=None)
@given(st.lists(_SMALL, max_size=5))
def test_root_count_predicate_on_random_polys(cs):
    # x + x(x-1)Q(x) is the general polynomial with P(0) = 0 and P(1) = 1
    q = PolyQ.x() + PolyQ.x() * PolyQ((-1, 1)) * PolyQ(cs)
    assert belyi.is_dynamical_belyi(q) == _old_predicate(q)


def test_closed_operations_skip_the_predicate(monkeypatch):
    gens = [b_dk(3, 0), b_dk(3, 1), b_dk(3, 2)]

    def refuse(poly):
        raise AssertionError("a closed operation re-ran the Belyi predicate")

    monkeypatch.setattr(belyi, "_belyi_split", refuse)  # BelyiPoly and is_dynamical_belyi run it
    comp = belyi.compose(gens[1], gens[2])
    inv = belyi.involution_poly(gens[1])
    assert belyi.free_check(gens, 3)
    monkeypatch.undo()
    assert comp == BelyiPoly(gens[1].poly.compose(gens[2].poly))
    assert inv == gens[1]


def test_free_check_refuses_past_the_degree_cap():
    # 6 + 36 + ... + 6^6 passes MAX_FREE_DEGREE at length 6
    with pytest.raises(ValueError, match="refusing composites of total degree"):
        belyi.free_check([b_dk(3, 1), b_dk(3, 0)], 7)
    with pytest.raises(ValueError, match="refusing"):
        belyi.free_check([BelyiPoly(PolyQ.x())], 10**9)
