import copy
import pickle
import random
import re
import sys
from fractions import Fraction
from math import floor, gcd, lcm

import pytest

from arithsite import MAX_BITS, bigpicture, check_bits, conway as cw
from arithsite.bigpicture import (
    PIC_ONE,
    PicClass,
    _ball_size,
    ball_dot,
    fiber,
    format_class,
    hyperdistance,
    neighbours,
    parse_class,
    psi,
)
from arithsite.ratpoly import Mat2Q, primitive_form
from oracles import alpha, bfs_fiber, gcd_neighbours, letter_matrix, matrix_distance, proj_line_count

C = parse_class


def test_distance_to_prime_number_class():
    assert hyperdistance(PIC_ONE, C("2:0")) == 2


def test_distance_number_like_is_mh_squared():
    assert hyperdistance(PIC_ONE, C("1:1/2")) == 4


def test_distance_off_diagonal_pair():
    # independent oracle: alpha_X.alpha_Y^-1 = [[4,-2],[0,1]], content 1, det 4
    x, y = C("2:0"), C("1/2:1/2")
    prod = alpha(x) * alpha(y).inv()
    assert prod == Mat2Q(4, -2, 0, 1)
    scale, m = primitive_form(prod)
    assert scale == 1 and m == ((4, -2), (0, 1))
    assert hyperdistance(x, y) == 4


def test_self_distance_one_iff_equal():
    rng = random.Random(4)
    for _ in range(100):
        x = _random_class(rng)
        y = _random_class(rng)
        assert hyperdistance(x, x) == 1
        assert (hyperdistance(x, y) == 1) == (x == y)


def _random_class(rng, top=12):
    m = Fraction(rng.randint(1, top), rng.randint(1, top))
    rho = Fraction(rng.randint(0, top - 1), rng.randint(1, top))
    return PicClass(m, rho)


def test_symmetry_random_pairs():
    rng = random.Random(8)
    for _ in range(300):
        x, y = _random_class(rng), _random_class(rng)
        assert hyperdistance(x, y) == hyperdistance(y, x)


def test_distance_matches_matrix_form():
    rng = random.Random(16)
    for top in (12, 10**6):
        for _ in range(2000):
            x, y = _random_class(rng, top), _random_class(rng, top)
            assert hyperdistance(x, y) == matrix_distance(x, y)


def test_number_like_formula():
    rng = random.Random(12)
    for _ in range(200):
        m = rng.randint(1, 20)
        h = rng.randint(1, 12)
        g = rng.randrange(h)
        x = PicClass(Fraction(m), Fraction(g, h))
        assert hyperdistance(PIC_ONE, x) == m * Fraction(g, h).denominator ** 2


def test_neighbours_of_one():
    assert set(neighbours(PIC_ONE, 2)) == {C("1/2:0"), C("1/2:1/2"), C("2:0")}


def test_neighbours_walk_back():
    assert PIC_ONE in neighbours(C("2:0"), 2)
    assert PIC_ONE in neighbours(C("1/2:1/2"), 2)


def test_neighbours_reject_composite():
    with pytest.raises(ValueError, match="not prime"):
        neighbours(PIC_ONE, 4)
    # a neighbour of 1:0 has at most 3 + 2 bits(p) bits: 16382 * 31 <= 2^19 < 20012 * 33
    assert len(neighbours(PIC_ONE, 16381)) == 16382
    with pytest.raises(ValueError, match="refusing a neighbour list of 660396 bits > 524288"):
        neighbours(PIC_ONE, 20011)


def test_neighbour_distance_and_consistency():
    rng = random.Random(21)
    for _ in range(40):
        x = _random_class(rng)
        for p in (2, 3, 5):
            ns = neighbours(x, p)
            assert len(ns) == p + 1 == len(set(ns))
            for y in ns:
                assert hyperdistance(x, y) == p
                assert x in neighbours(y, p)


def test_neighbours_match_the_gcd_route():
    # the content of each neighbour from remainders mod p, against a three-way gcd:
    # every class with a, n <= 24, and classes of 60-digit parts, some divisible by p
    pairs = 0
    for p in (2, 3, 5, 7):
        for n in range(1, 25):
            for a in range(1, 25):
                for b in range(n):
                    if gcd(a, b, n) == 1:
                        x = PicClass._make((a, b, n))
                        assert neighbours(x, p) == gcd_neighbours(x, p), (x, p)
                        pairs += 1
    assert pairs == 23832
    rng = random.Random(29)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7, 509))
        a, b, n = (rng.randrange(1, 10**60) * rng.choice((1, p)) for _ in range(3))
        x = PicClass._make((a, b, n))
        assert neighbours(x, p) == gcd_neighbours(x, p), (x, p)


def test_tree_multiplicativity():
    rng = random.Random(33)
    for p in (2, 3, 5):
        x = PIC_ONE
        prev = None
        for k in range(1, 5):
            choices = [y for y in neighbours(x, p) if y != prev and hyperdistance(PIC_ONE, y) == p**k]
            prev, x = x, rng.choice(choices)
            assert hyperdistance(PIC_ONE, x) == p**k


def test_fiber_one():
    assert fiber(1) == {PIC_ONE}


def test_fiber_two():
    assert len(fiber(2)) == 3 == psi(2)


def test_fiber_twelve():
    assert len(fiber(12)) == 24 == psi(12)
    assert len(fiber(5040)) == 13824 == psi(5040)
    with pytest.raises(ValueError, match="refusing a fiber of 801792 bits > 524288"):
        fiber(10080)


def test_fiber_matches_breadth_first_search():
    for n in range(1, 61):
        assert fiber(n) == bfs_fiber(n), n


def _assert_checked_classes(xs):
    for x in xs:
        checked = PicClass(x.m, x.rho)
        assert type(x) is PicClass and x == checked and hash(x) == hash(checked)


def test_fiber_classes_are_checked_classes():
    # fiber builds its classes without PicClass's checks, by the Hermite
    # theorem: each must be the class the checked constructor builds
    for n in range(1, 201):
        _assert_checked_classes(fiber(n))


def test_neighbour_classes_are_checked_classes():
    rng = random.Random(41)
    for _ in range(40):
        _assert_checked_classes(neighbours(_random_class(rng), rng.choice((2, 3, 5, 7, 11))))


def _assert_hermite(x, m, rho):
    # x stores the primitive Hermite form of the class (m, rho), rho reduced mod 1
    a, b, n = x
    assert type(x) is PicClass and gcd(a, b, n) == 1 and 0 <= b < n
    assert n == lcm(m.denominator, rho.denominator)
    assert Fraction(a, n) == m and Fraction(b, n) == rho - floor(rho) == x.rho and x.m == m


def test_classes_are_primitive_hermite_forms():
    rng = random.Random(25)
    for top in (12, 10**6):
        for _ in range(300):
            m = Fraction(rng.randint(1, top), rng.randint(1, top))
            rho = Fraction(rng.randint(-3 * top, 3 * top), rng.randint(1, top))
            x = PicClass(m, rho)
            _assert_hermite(x, m, rho)
            rho -= floor(rho)
            p = rng.choice((2, 3, 5, 7))
            expected = [(m / p, (rho + k) / p) for k in range(p)] + [(p * m, p * rho)]
            for y, (m_y, rho_y) in zip(neighbours(x, p), expected, strict=True):
                _assert_hermite(y, m_y, rho_y)
    for n in range(1, 201):
        for x in fiber(n):
            _assert_hermite(x, x.m, x.rho)
            assert x.a * x.n == n
    for _ in range(300):
        ps = rng.choices((2, 3, 5, 7, 999983), k=rng.randint(0, 12))
        w = tuple(cw.Letter(p, rng.randint(0, p)) for p in ps)
        matrix = Mat2Q(1, 0, 0, 1)
        for l in w:
            matrix = matrix * letter_matrix(l)
        _assert_hermite(cw.word_to_class(w), matrix.a, matrix.b)


def test_psi_values():
    assert psi(1) == 1
    assert psi(6) == 12
    assert proj_line_count(4) == 6 == psi(4)
    # psi(n) = |P^1(Z/n)|, the index of Gamma_0(n), against the orbit count
    for n in range(1, 201):
        assert proj_line_count(n) == psi(n), n


def test_ball_dot_radius_one():
    dot = ball_dot(PIC_ONE, [2], 1)
    assert dot.count(";") - dot.count("--") == 4  # vertices
    assert dot.count("--") == 3


def test_ball_dot_radius_zero():
    dot = ball_dot(PIC_ONE, [2, 3], 0)
    assert dot.count("--") == 0 and dot.count(";") == 1


def test_ball_dot_two_primes():
    dot = ball_dot(PIC_ONE, [2, 3], 1)
    assert dot.count(";") - dot.count("--") == 1 + 3 + 4


def test_ball_dot_cap_counts_the_ball():
    # the count of classes that ball_dot states to the bit budget is the size it builds
    for primes, radius in (([2], 11), ([3, 2, 3], 3), ([2, 3, 5, 7], 2), ([13], 3)):
        dot = ball_dot(C("3/2:1/4"), primes, radius)
        assert dot.count(";") - dot.count("--") == _ball_size(set(primes), radius)
    # 12286 classes along 2 at radius 12, of 1 + 2 * (1 + 12 * 2) bits each around 1:0
    assert _ball_size({2}, 12) * 51 == 626586 > MAX_BITS
    with pytest.raises(ValueError, match="refusing a ball of 626586 bits > 524288"):
        ball_dot(PIC_ONE, [2], 12)


def test_ball_dot_without_primes():
    # with no prime no step leaves x, so any radius draws x alone, at once
    assert ball_dot(PIC_ONE, [], 10**6) == ball_dot(PIC_ONE, [], 0) == ball_dot(PIC_ONE, [2], 0)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        ball_dot(PIC_ONE, [], -1)


def test_huge_bit_totals_are_stated_by_bit_length():
    # a total below 2^64 prints in full; from 2^64 on by its bit length, so the
    # refusal formats no integer past Python's default int-to-str limit
    with pytest.raises(ValueError, match=f"^refusing a ball of {2**64 - 1} bits > 524288$"):
        check_bits(1, 2**64 - 1, "a ball")
    with pytest.raises(ValueError, match=r"^refusing a ball of at least 2\^64 bits > 524288$"):
        check_bits(2, 2**63, "a ball")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError, match=r"^refusing a neighbour list of at least 2\^16624 bits > 524288$"):
            neighbours(PIC_ONE, 10**5000 + 1)
    finally:
        sys.set_int_max_str_digits(old)


def _class_bits(x: PicClass) -> int:
    return x.a.bit_length() + 2 * x.n.bit_length()


def _ball_classes(x: PicClass, primes: list[int], radius: int) -> list[PicClass]:
    return [C(v) for v in re.findall(r'^  "(.*)";$', ball_dot(x, primes, radius), re.M)]


def test_listing_bit_bounds_hold(monkeypatch):
    # the count * bits that each listing states to check_bits is at least the
    # bits(a) + 2 bits(n) of the classes it builds
    stated = []

    def record(count, bits, what):
        stated.append(count * bits)
        check_bits(count, bits, what)

    def check(listing, *args):
        stated.clear()
        classes = listing(*args)
        assert stated[0] >= sum(map(_class_bits, classes)), (listing.__name__, args)

    monkeypatch.setattr(bigpicture, "check_bits", record)
    rng = random.Random(30)
    primes = [p for p in range(2, 50) if all(p % q for q in range(2, p))]
    for _ in range(300):
        check(neighbours, _random_class(rng, 60), rng.choice(primes))
    for n in range(1, 201):
        check(fiber, n)
    balls = 0
    for _ in range(100):
        try:
            check(_ball_classes, _random_class(rng, 60), rng.sample(primes, rng.randint(1, 3)), rng.randint(0, 4))
            balls += 1
        except ValueError:  # past the budget
            assert stated[0] > MAX_BITS
    assert balls > 30


def test_refused_listings_build_nothing(monkeypatch):
    # the budget is checked before any class is built: no _trusted, no Fraction
    rng = random.Random(120)
    big = PicClass._make(tuple(rng.randrange(10**29999, 10**30000) for _ in range(3)))

    def forbidden(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setattr(bigpicture, "_trusted", forbidden)
    monkeypatch.setattr(Fraction, "__new__", forbidden)
    for call in (lambda: neighbours(big, 7), lambda: ball_dot(big, [2], 5), lambda: neighbours(PIC_ONE, 20011),
                 lambda: fiber(10080), lambda: ball_dot(PIC_ONE, [2, 3, 5, 7], 50)):
        with pytest.raises(ValueError, match="refusing a .* bits > 524288"):
            call()


def test_namedtuple_builders_canonicalise():
    # _make and _replace take integral forms to their class, or refuse them
    assert PicClass._make((2, 4, 2)) == PicClass(1, 2) == PicClass(1, 0)
    assert str(PicClass._make((6, 9, 4))) == "3/2:1/4"
    assert PIC_ONE._replace(b=3) == PIC_ONE
    assert PicClass(3, Fraction(1, 2))._replace(a=4) == PicClass(2, Fraction(1, 2))
    for form in ((0, 1, 1), (1, 0, 0), (-2, 1, 3)):
        with pytest.raises(ValueError):
            PicClass._make(form)
    with pytest.raises(ValueError):
        PIC_ONE._replace(n=-1)
    with pytest.raises(TypeError):
        PicClass._make((1.5, 0, 1))


def test_class_text_roundtrip():
    for text in ("1:0", "1/2:1/2", "2:0", "7/3:5/6"):
        x = parse_class(text)
        assert format_class(x) == text
        assert pickle.loads(pickle.dumps(x)) == x == copy.copy(x)
    with pytest.raises(ValueError):
        parse_class("nope")
