import random
from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from arithsite import MAX_INT_DIGITS
from arithsite.literals import parse_rational
from arithsite.ratpoly import (
    Mat2Q,
    PolyQ,
    format_poly,
    multiplicity_counts,
    parse_poly,
    poly_gcd,
    primitive_form,
    squarefree_part,
)
from oracles import root_multiplicity


def test_primitive_form_clears_denominators():
    scale, m = primitive_form(Mat2Q(1, Fraction(1, 2), 0, 1))
    assert scale == 2 and m == ((2, 1), (0, 2))


def test_primitive_form_identity():
    scale, m = primitive_form(Mat2Q(1, 0, 0, 1))
    assert scale == 1 and m == ((1, 0), (0, 1))


def test_primitive_form_lcm_of_denominators():
    scale, m = primitive_form(Mat2Q(Fraction(1, 6), Fraction(1, 3), 0, 1))
    assert scale == 6 and m == ((1, 2), (0, 6))


def test_primitive_form_rejects_zero():
    with pytest.raises(ValueError, match="degenerate"):
        primitive_form(Mat2Q(0, 0, 0, 0))


def test_primitive_form_det_relation():
    rng = random.Random(5)
    for _ in range(50):
        m = Mat2Q(*(Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(4)))
        if m.is_zero():
            continue
        scale, ints = primitive_form(m)
        (a, b), (c, d) = ints
        assert a * d - b * c == scale * scale * m.det()
        # dividing by any integer > 1 breaks integrality
        from math import gcd

        assert gcd(abs(a), abs(b), abs(c), abs(d)) == 1


def test_compose_monomials():
    f = PolyQ.monomial(1, 2)
    g = PolyQ.monomial(1, 3)
    assert f.compose(g) == PolyQ.monomial(1, 6)


def test_compose_identity():
    f = parse_poly("-2*x^3+3*x^2")
    assert f.compose(PolyQ.x()) == f


def test_compose_multiplies_order_at_zero():
    f = parse_poly("-2*x^3+3*x^2")
    ff = f.compose(f)
    assert ff.degree == 9
    assert root_multiplicity(ff, 0) == 4


def test_compose_associative():
    rng = random.Random(11)

    def rand_poly():
        deg = rng.randint(1, 5)
        return PolyQ([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg)] + [1])

    for _ in range(15):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert f.compose(g.compose(h)) == f.compose(g).compose(h)


def test_root_multiplicity_example():
    assert root_multiplicity(parse_poly("-2*x^3+3*x^2"), 0) == 2


def test_squarefree_part_square():
    assert squarefree_part(PolyQ.monomial(1, 2)) == PolyQ.x()


def test_gcd_of_coprime_pair():
    f = parse_poly("-2*x^3+3*x^2-1/2")
    assert poly_gcd(f, f.derivative()) == PolyQ((1,))


def test_gcd_zero_zero_rejected():
    with pytest.raises(ValueError):
        poly_gcd(PolyQ(), PolyQ())


def test_gcd_common_factor():
    f = PolyQ((-1, 1)) * PolyQ((2, 1)) * PolyQ((0, 3))
    g = PolyQ((-1, 1)) * PolyQ((5, 7))
    assert poly_gcd(f, g) == PolyQ((-1, 1))


def test_root_multiplicity_additive():
    rng = random.Random(3)
    for _ in range(30):
        r = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        f = PolyQ([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))] + [1])
        g = PolyQ([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))] + [1])
        assert root_multiplicity(f * g, r) == root_multiplicity(f, r) + root_multiplicity(g, r)


def test_multiplicity_counts():
    f = PolyQ.monomial(1, 2) * oracles.poly_pow(PolyQ((-1, 1)), 3) * PolyQ((3, 1))
    assert multiplicity_counts(f) == {1: 1, 2: 1, 3: 1}


def _sympy_counts(f: PolyQ) -> dict[int, int]:
    """{multiplicity: #distinct roots} from sympy's squarefree decomposition."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(f.coeffs))
    out = {}
    for g, m in sympy.sqf_list(sympy.Poly(expr, x))[1]:
        out[m] = out.get(m, 0) + g.degree()
    return out


_ROOTS = st.lists(
    st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=3), st.integers(1, 6)),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(_ROOTS, st.integers(-3, 3).filter(bool))
def test_multiplicity_counts_against_sympy(roots, lead):
    # roots may repeat, merging their multiplicities
    f = PolyQ.const(lead)
    for a, m in roots:
        f = f * oracles.poly_pow(PolyQ((-a, 1)), m)
    want = _sympy_counts(f)
    assert multiplicity_counts(f) == want
    if f.degree > 0:
        # a caller's gcd(f, f') may carry any constant factor
        assert multiplicity_counts(f, poly_gcd(f, f.derivative()) * lead) == want


def test_multiplicity_counts_edge_cases():
    x = PolyQ.x()
    assert multiplicity_counts(PolyQ.const(5)) == {}
    assert multiplicity_counts(x) == {1: 1}
    assert multiplicity_counts(oracles.poly_pow(PolyQ((-2, 1)), 9)) == {9: 1}  # stops at the first step
    # equal multiplicities: two roots of multiplicity 3, then one of 5 above them
    two = oracles.poly_pow(x * PolyQ((1, 1)), 3)
    assert multiplicity_counts(two) == {3: 2}
    assert multiplicity_counts(two * oracles.poly_pow(PolyQ((-1, 1)), 5)) == {3: 2, 5: 1}


def test_divmod_roundtrip():
    rng = random.Random(9)
    for _ in range(25):
        f = PolyQ([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)] + [1])
        g = PolyQ([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)] + [1])
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_format_parse_roundtrip():
    for text in ("-2*x^3+3*x^2", "x", "0", "1/4*x^3-3/2*x^2+9/4*x", "-x^2+1"):
        assert format_poly(parse_poly(text)) == text


def test_parse_rational():
    for text, want in (("3", 3), ("-2/7", Fraction(-2, 7)), ("0.25", Fraction(1, 4)), ("1e-3", Fraction(1, 1000)),
                       ("+.5E2", 50), ("7.", 7), ("1e-0000003", Fraction(1, 1000)),
                       (f"1e-{MAX_INT_DIGITS}", Fraction(1, 10**MAX_INT_DIGITS))):
        assert parse_rational(text) == want, text
    for bad in ("", "x", "1/2e3", "1.5/2", " 1/3", "1_000", "e3", "1e", "-", "1/-3"):
        with pytest.raises(ValueError, match="bad rational literal"):
            parse_rational(bad)
    for huge in (f"1e-{MAX_INT_DIGITS + 1}", "2e20000000", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="refusing a decimal exponent"):
            parse_rational(huge)
    for zero in ("1/0", "-3/000", "0/0"):
        with pytest.raises(ValueError, match=f"^bad rational literal '{zero}': zero denominator$"):
            parse_rational(zero)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("x^^2")
    with pytest.raises(ValueError):
        parse_poly("")
    # exponents past MAX_EXACT_DEGREE are refused before any allocation
    assert parse_poly("x^512").degree == 512
    with pytest.raises(ValueError, match="refusing exponent 1000000 > 512"):
        parse_poly("x^1000000")


# -- the integer kernel against the Fraction kernel it replaced

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
polys = st.lists(rationals, max_size=7).map(PolyQ)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(polys, polys, rationals)
def test_integer_kernel_matches_fraction_kernel(f, g, x):
    assert f.den > 0 and gcd(f.den, *f.num) == 1
    assert PolyQ(f.coeffs) == f and hash(PolyQ(f.coeffs)) == hash(f)
    assert (f * g).coeffs == oracles.fraction_mul(f.coeffs, g.coeffs)
    assert f.compose(g).coeffs == oracles.fraction_compose(f.coeffs, g.coeffs)
    if not g.is_zero():
        q, r = f.divmod(g)
        assert (q.coeffs, r.coeffs) == oracles.fraction_divmod(f.coeffs, g.coeffs)
    assert f + g == PolyQ(a + b for a, b in zip_longest(f.coeffs, g.coeffs, fillvalue=0))
    assert (f - g) + g == f
    assert f.derivative().coeffs == tuple(k * c for k, c in enumerate(f.coeffs))[1:]
    assert f(x) == sum((c * x**k for k, c in enumerate(f.coeffs)), Fraction(0))


# -- compose packs its Horner accumulator into one integer, so test it where a
# slot could overflow or a sign could borrow: big coefficients, values
# +-(2^j +- 1) at and next to byte boundaries, zero and constant inner maps,
# denominators on both sides and negative leading terms

_edge_ints = st.builds(lambda j, a, s: s * (2**j + a), st.integers(0, 210), st.sampled_from((-1, 0, 1)),
                       st.sampled_from((-1, 1)))
_big_ints = st.one_of(st.integers(-(2**200), 2**200), _edge_ints)
_big_rationals = st.builds(Fraction, _big_ints, st.one_of(st.just(1), st.integers(1, 2**70), _edge_ints.filter(bool).map(abs)))
_big_polys = st.lists(_big_rationals, max_size=6).map(PolyQ)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_big_polys, st.one_of(_big_polys, st.lists(_big_rationals, max_size=1).map(PolyQ)), st.booleans(), st.booleans())
def test_compose_unpacks_every_slot(f, g, flip_f, flip_g):
    f, g = (-f if flip_f else f), (-g if flip_g else g)
    assert f.compose(g).coeffs == oracles.fraction_compose(f.coeffs, g.coeffs)


def test_compose_at_slot_edges():
    # each output coefficient equal to the bound, of either sign, and with the
    # top slot exactly filled: (c x^n) o (+-(2^j - 1) x^m)
    for j in (7, 8, 9, 15, 16, 17, 63, 64, 65):
        for c in (1, -1, 2**j - 1, -(2**j) - 1):
            for n, m in ((1, 1), (2, 1), (3, 2), (1, 0)):
                for g in (PolyQ.monomial(2**j - 1, m), PolyQ.monomial(1 - 2**j, m)):
                    f = PolyQ.monomial(c, n)
                    assert f.compose(g).coeffs == oracles.fraction_compose(f.coeffs, g.coeffs)
    assert PolyQ((3, -1)).compose(PolyQ()) == PolyQ.const(3)  # the zero map
    assert PolyQ((1, 2, 1)).compose(PolyQ.const(Fraction(-1, 255))) == PolyQ.const(Fraction(254**2, 255**2))


def test_evaluation_is_exact():
    f = parse_poly("1/4*x^3-3/2*x^2+9/4*x")
    assert f(2) == Fraction(1, 2) and f(0) == 0 and PolyQ()(Fraction(1, 3)) == 0
    assert f(0.5) == f(Fraction(1, 2)) == Fraction(25, 32)  # a float is read exactly


# -- sympy as a test-only oracle


def _to_sympy(sympy, f: PolyQ):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)],
                      sympy.Symbol("x"), domain="QQ")


def _from_sympy(p) -> PolyQ:
    return PolyQ(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


def _random_poly(rng, deg):
    return PolyQ([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)]
                 + [Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))])


def test_sympy_oracle_mul_compose():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(71)
    for _ in range(40):
        f, g = _random_poly(rng, rng.randint(0, 6)), _random_poly(rng, rng.randint(0, 4))
        sf, sg = _to_sympy(sympy, f), _to_sympy(sympy, g)
        assert f * g == _from_sympy(sf * sg)
        assert f.compose(g) == _from_sympy(sf.compose(sg))


def test_sympy_oracle_gcd_squarefree():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(72)
    for _ in range(40):
        h, a, b = (_random_poly(rng, rng.randint(0, 3)) for _ in range(3))
        f, g = h * a * b * b, h * h * b
        sf, sg = _to_sympy(sympy, f), _to_sympy(sympy, g)
        assert poly_gcd(f, g) == _from_sympy(sympy.gcd(sf, sg).monic())
        assert squarefree_part(f) == _from_sympy(sympy.sqf_part(sf).monic())
