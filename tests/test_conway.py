import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arithsite import bigpicture as bp, conway as cw, points as pt, ratpoly
from arithsite.bigpicture import PIC_ONE, PicClass, hyperdistance, parse_class
from arithsite.conway import Letter
from arithsite.ratpoly import Mat2Q
from oracles import (
    checked_divide_left,
    class_divide_left,
    descent_class_to_word,
    letter_matrix,
    meta_commute,
    meta_commute_shear,
    rewrite_normalize,
    shear,
)


def W(text):
    return cw.parse_word(text)


def test_letter_matrices():
    assert letter_matrix(Letter(2, 1)) == Mat2Q(Fraction(1, 2), Fraction(1, 2), 0, 1)
    assert letter_matrix(Letter(2, 2)) == Mat2Q(2, 0, 0, 1)
    assert letter_matrix(Letter(3, 0)) == Mat2Q(Fraction(1, 3), 0, 0, 1)


def test_letter_validation():
    with pytest.raises(ValueError):
        Letter(4, 0)
    with pytest.raises(ValueError):
        Letter(3, 4)
    # the closed forms once answered for a word of non-letters
    with pytest.raises(ValueError, match="4 is not prime"):
        cw.normalize((Letter(4, 1), Letter(2, 7)))
    with pytest.raises(ValueError, match="out of range"):
        Letter(2, -1)


def test_namedtuple_builders_check_letters():
    assert Letter._make((3, 1)) == Letter(3, 1) and type(Letter._make((3, 1))) is Letter
    assert Letter(3, 1)._replace(i=3) == Letter(3, 3)
    for call in (lambda: Letter._make((4, 1)), lambda: Letter(3, 1)._replace(i=4),
                 lambda: Letter(3, 1)._replace(p=9)):
        with pytest.raises(ValueError):
            call()
    with pytest.raises(TypeError):
        Letter._make((2, 1, 0))


def test_each_prime_is_tested_once(monkeypatch):
    # trial division of a 12-digit prime takes 70 ms: once per prime, not per letter
    tested = []
    monkeypatch.setattr(cw, "is_prime", lambda p: tested.append(p) or True)
    text = "*".join(["P[999999999989,0]", "P[2,1]"] * 50)
    assert len(cw.parse_word(text)) == 100
    assert len(cw.parse_word(json.dumps([[999999999989, 0], [2, 1]] * 50))) == 100
    assert sorted(tested) == [2, 2, 999999999989, 999999999989]


def test_meta_commute_free_free():
    # iq + j = 5 = 2*2 + 1
    assert meta_commute(Letter(2, 1), Letter(3, 2)) == (Letter(3, 2), Letter(2, 1))
    prod = letter_matrix(Letter(2, 1)) * letter_matrix(Letter(3, 2))
    assert prod == Mat2Q(Fraction(1, 6), Fraction(5, 6), 0, 1)


def test_meta_commute_power_free():
    assert meta_commute(Letter(2, 2), Letter(3, 1)) == (Letter(3, 2), Letter(2, 2))


def test_meta_commute_power_power():
    assert meta_commute(Letter(2, 2), Letter(3, 3)) == (Letter(3, 3), Letter(2, 2))


def test_meta_commute_same_prime_rejected():
    with pytest.raises(ValueError, match="within a prime"):
        meta_commute(Letter(2, 0), Letter(2, 1))


def test_meta_commute_exact_matrix_identity():
    # a.b = T^s.x.y holds with exact rational matrices for every letter pair
    for p in (2, 3, 5):
        for q in (2, 3, 5):
            if p == q:
                continue
            for i in range(p + 1):
                for j in range(q + 1):
                    a, b = Letter(p, i), Letter(q, j)
                    x, y, s = meta_commute_shear(a, b)
                    lhs = letter_matrix(a) * letter_matrix(b)
                    rhs = shear(s) * letter_matrix(x) * letter_matrix(y)
                    assert lhs == rhs
                    if not a.is_power and not b.is_power:
                        assert s == 0


def test_normalize_sorts_across_primes():
    assert cw.normalize(W("P[3,1]*P[2,0]")) == W("P[2,0]*P[3,2]")
    assert cw.word_to_class(W("P[3,1]*P[2,0]")) == parse_class("1/6:1/3")


def test_normalize_cancels_power_free():
    assert cw.normalize(W("P[2,2]*P[2,1]")) == ()


def test_normalize_idempotent_on_normal_words():
    w = W("P[2,0]*P[2,1]*P[3,2]*P[2,2]*P[3,3]")
    assert cw.is_normal(w)
    assert cw.normalize(w) == w


def test_word_to_class_examples():
    assert cw.word_to_class(W("P[2,0]*P[3,2]")) == parse_class("1/6:1/3")
    assert cw.word_to_class(()) == PIC_ONE
    assert cw.word_to_class(W("P[2,1]*P[2,2]")) == parse_class("1:1/2")


def test_class_to_word_examples():
    assert cw.class_to_word(parse_class("1:1/2")) == W("P[2,1]*P[2,2]")
    assert cw.class_to_word(PIC_ONE) == ()
    assert cw.class_to_word(parse_class("1/6:1/3")) == W("P[2,0]*P[3,2]")


def test_delta_and_divide():
    assert cw.delta(W("P[2,0]*P[3,2]")) == 6
    assert cw.divide_left(W("P[2,1]*P[2,0]"), W("P[2,0]")) == W("P[2,1]")
    assert cw.mul(W("P[2,1]"), W("P[3,1]")) == W("P[2,1]*P[3,1]")


def test_divide_left_missing():
    assert cw.divide_left(W("P[2,1]"), W("P[3,1]")) is None
    assert cw.divide_left(W("P[2,1]*P[3,1]"), W("P[3,2]")) is None


def test_divide_left_rejects_power_words():
    with pytest.raises(ValueError, match="outside monoid C"):
        cw.divide_left(W("P[2,2]"), W("P[2,0]"))


def _random_word(rng, length, primes=(2, 3, 5), free_only=False):
    out = []
    for _ in range(length):
        p = rng.choice(primes)
        out.append(Letter(p, rng.randrange(p if free_only else p + 1)))
    return tuple(out)


def test_confluence_and_class_invariance():
    rng = random.Random(101)
    for trial in range(400):
        w = _random_word(rng, rng.randrange(0, 10))
        cls = cw.word_to_class(w)
        nf = cw.normalize(w)
        assert cw.is_normal(nf)
        assert cw.word_to_class(nf) == cls
        assert rewrite_normalize(w) == nf
        for s in range(3):
            assert rewrite_normalize(w, rng=random.Random(trial * 31 + s)) == nf


@st.composite
def _run_words(draw):
    """Words of at most 40 letters over primes <= 13, drawn as runs over one
    prime with power and free letters equally likely: the bicyclic case."""
    w = []
    for p in draw(st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), max_size=10)):
        for _ in range(draw(st.integers(1, 8))):
            w.append(Letter(p, p if draw(st.booleans()) else draw(st.integers(0, p - 1))))
    return tuple(w[:40])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_run_words(), st.integers(0, 2**32))
def test_normalize_matches_rewriting(w, seed):
    nf = cw.normalize(w)
    assert nf == rewrite_normalize(w)
    assert nf == rewrite_normalize(w, rng=random.Random(seed))


@st.composite
def _long_run_words(draw):
    """Words of at most 120 letters over primes <= 7, drawn as runs over one
    prime of up to 24 power letters followed by up to 24 free letters: each
    run's powers cancel against the free letters to their right, and what is
    left over cancels across the runs of that prime further right."""
    w = []
    for p in draw(st.lists(st.sampled_from((2, 3, 5, 7)), max_size=8)):
        w += [Letter(p, p)] * draw(st.integers(0, 24))
        w += [Letter(p, i) for i in draw(st.lists(st.integers(0, p - 1), max_size=24))]
    return tuple(w[:120])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_long_run_words())
def test_normalize_matches_rewriting_on_long_runs(w):
    assert cw.normalize(w) == rewrite_normalize(w)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_run_words())
def test_word_to_class_matches_matrix_product(w):
    # the class of the exact product of the letter matrices applied to (1, 0)
    m = Mat2Q(1, 0, 0, 1)
    for l in w:
        m = m * letter_matrix(l)
    assert (m.c, m.d) == (0, 1)
    assert cw.word_to_class(w) == PicClass(m.a, m.b)


def test_roundtrip_on_free_words():
    rng = random.Random(103)
    for _ in range(300):
        w = _random_word(rng, rng.randrange(0, 9), free_only=True)
        assert cw.class_to_word(cw.word_to_class(w)) == cw.normalize(w)


def test_distinct_normal_free_words_have_distinct_classes():
    rng = random.Random(107)
    seen = {}
    for _ in range(400):
        nf = cw.normalize(_random_word(rng, rng.randrange(0, 8), free_only=True))
        cls = cw.word_to_class(nf)
        if cls in seen:
            assert seen[cls] == nf
        seen[cls] = nf


@st.composite
def _free_words(draw, max_size):
    return tuple(Letter(p, draw(st.integers(0, p - 1)))
                 for p in draw(st.lists(st.sampled_from((2, 3, 5, 7)), max_size=max_size)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_free_words(6), _free_words(6))
def test_divide_left_matches_checked_quotient(z, x):
    # normal and non-normal y, with and without a quotient by x
    for y in (z, cw.normalize(z), z + x, cw.mul(z, x)):
        assert cw.divide_left(y, x) == checked_divide_left(y, x)
    assert cw.divide_left(cw.mul(z, x), x) == cw.normalize(z)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_free_words(6), _free_words(6), _free_words(6))
def test_divide_left_by_delta_matches_quotient_class(z, x, w):
    # delta decides what the quotient class through class_to_word decided, on
    # quotients, on y without x's primes and on y with them but no quotient
    for y in (cw.normalize(z), cw.mul(z, x), cw.normalize(w), cw.mul(w, z), cw.normalize(z + w + x)):
        assert cw.divide_left(y, x) == class_divide_left(y, x)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_free_words(6), _free_words(6), _free_words(6))
def test_site_c_order_matches_divide_left(z, x, w):
    # points orders site C by ball containment; x need not be normal
    for y in (cw.normalize(z), cw.mul(z, x), cw.mul(w, z), cw.normalize(z + w + x)):
        assert pt._geq("C", x, y) == (cw.divide_left(y, x) is not None)
    with pytest.raises(ValueError, match="outside monoid C"):
        pt._geq("C", x, z + (Letter(2, 2),))


def _assert_checked_letters(w):
    for l in w:
        checked = Letter(l.p, l.i)
        assert type(l) is Letter and l.is_power == (l.i == l.p)
        assert l == checked and hash(l) == hash(checked)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_long_run_words(), _free_words(6), _free_words(6))
def test_normal_words_hold_checked_letters(w, z, x):
    # normalize, class_to_word and divide_left build their letters by
    # tuple.__new__: each must be the letter the checking Letter(p, i) builds
    _assert_checked_letters(cw.normalize(w))
    _assert_checked_letters(cw.class_to_word(cw.word_to_class(w)))
    _assert_checked_letters(cw.divide_left(cw.mul(z, x), x))


def test_divide_left_takes_no_factorization(monkeypatch):
    # a quotient's primes are y's letter primes less x's, which parse_word proved
    def refuse(n):
        raise AssertionError("divide_left factored a number")

    monkeypatch.setattr(cw, "factorize", refuse)
    big = W("*".join(["P[1000003,1]"] * 200))
    assert cw.divide_left(big, W("P[2,1]")) is None
    assert cw.divide_left(big, big[:100]) == big[100:]
    # x's primes are y's, but rho P is not an integer
    assert cw.divide_left(W("P[2,1]*P[3,2]*P[5,1]"), W("P[2,1]")) is None
    assert cw.divide_left(W("P[2,1]*P[3,2]*P[5,1]"), W("P[5,1]")) == W("P[2,1]*P[3,2]")


def test_left_cancellative():
    rng = random.Random(109)
    for _ in range(150):
        z = cw.normalize(_random_word(rng, rng.randrange(0, 5), free_only=True))
        x = cw.normalize(_random_word(rng, rng.randrange(0, 5), free_only=True))
        y = cw.normalize(_random_word(rng, rng.randrange(0, 5), free_only=True))
        if x != y:
            assert cw.mul(z, x) != cw.mul(z, y)
        assert cw.divide_left(cw.mul(z, x), x) == z


def test_delta_is_morphism_on_free_words():
    rng = random.Random(113)
    for _ in range(150):
        w1 = _random_word(rng, rng.randrange(0, 6), free_only=True)
        w2 = _random_word(rng, rng.randrange(0, 6), free_only=True)
        assert cw.delta(cw.mul(w1, w2)) == cw.delta(w1) * cw.delta(w2)
        assert cw.delta(w1) == hyperdistance(PIC_ONE, cw.word_to_class(w1))


def test_class_to_word_roundtrip_arbitrary_classes():
    rng = random.Random(127)
    for _ in range(120):
        x = parse_class(
            f"{rng.randint(1, 12)}/{rng.randint(1, 12)}:{rng.randint(0, 11)}/{rng.randint(1, 12)}"
        )
        w = cw.class_to_word(x)
        assert cw.is_normal(w)
        assert cw.word_to_class(w) == x
        assert cw.delta(w) == hyperdistance(PIC_ONE, x)


def test_class_to_word_multi_prime_power_block():
    assert cw.class_to_word(parse_class("6:0")) == W("P[2,2]*P[3,3]")
    assert cw.class_to_word(parse_class("2/3:1/3")) == W("P[3,1]*P[2,2]")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 60), st.integers(1, 60))
def test_class_to_word_matches_descent(a, b, c, d):
    x = PicClass(Fraction(a, b), Fraction(c, d))
    assert cw.class_to_word(x) == descent_class_to_word(x)


def test_closed_forms_search_nothing(monkeypatch):
    # hyperdistance, fiber, class_to_word, normalize, mul and divide_left read
    # their answers off Hermite coordinates: no neighbour search, no matrix
    # inverse, no rewriting
    def forbidden(*args, **kwargs):
        raise AssertionError("a closed form called a search or matrix routine")

    monkeypatch.setattr(bp, "neighbours", forbidden)
    monkeypatch.setattr(cw, "neighbours", forbidden, raising=False)
    monkeypatch.setattr(ratpoly, "primitive_form", forbidden)
    monkeypatch.setattr(bp, "primitive_form", forbidden, raising=False)
    monkeypatch.setattr(Mat2Q, "inv", forbidden)
    # normalize reduces per prime and reads the indices off the class: conway
    # has no meta-commutation
    assert not hasattr(cw, "_meta_commute_shear")
    w = W("P[3,3]*P[2,2]*P[3,1]*P[5,2]*P[2,0]*P[3,1]*P[2,2]")
    assert cw.normalize(w) == W("P[3,2]*P[5,3]*P[2,2]")
    z, x = W("P[2,1]*P[3,2]"), W("P[2,0]*P[5,3]")
    y = cw.mul(z, x)
    assert y == W("P[2,1]*P[2,1]*P[3,1]*P[5,3]")
    # divide_left proves its quotient instead of confirming it with mul
    monkeypatch.setattr(cw, "normalize", forbidden)
    assert cw.divide_left(y, x) == z
    assert hyperdistance(parse_class("2:0"), parse_class("1/2:1/2")) == 4
    assert len(bp.fiber(60)) == bp.psi(60)
    assert cw.class_to_word(parse_class("2/3:1/3")) == W("P[3,1]*P[2,2]")


def test_free_then_power_does_not_reduce():
    # P[2,0]*P[2,2] is normal and has weight 4 although its class is the
    # identity: only a power letter left of a free letter cancels
    w = W("P[2,0]*P[2,2]")
    assert cw.normalize(w) == w
    assert cw.word_to_class(w) == PIC_ONE
    assert cw.delta(w) == 4


def test_word_text_roundtrip():
    for text in ("e", "P[2,1]", "P[2,0]*P[3,2]*P[5,5]"):
        assert cw.format_word(cw.parse_word(text)) == text
    assert cw.parse_word("[[2, 1], [2, 2]]") == W("P[2,1]*P[2,2]")
