import random

import pytest

from arithsite import supernatural as sn
from arithsite.supernatural import (
    INF,
    Supernatural,
    adele_class_equiv,
    divides,
    format_supernatural,
    from_chain,
    in_open,
    lcm,
    mul,
    parse_divisor,
    parse_named,
    parse_supernatural,
)


def S(text):
    return parse_supernatural(text)


def test_from_chain_supremum():
    assert from_chain([2, 4, 12]) == S("2^2*3")


def test_from_chain_singleton():
    assert from_chain([1]) == Supernatural()


def test_from_chain_finite_never_infinite():
    assert from_chain([2, 4, 8, 16]) == S("2^4")
    assert from_chain([2, 4, 8, 16], limit=True) == S("2^inf")


def test_from_chain_limit_follows_ratio():
    assert from_chain([2, 4, 12], limit=True) == S("2^2*3^inf")


def test_from_chain_rejects_broken_chain():
    with pytest.raises(ValueError, match="4 does not divide 6"):
        from_chain([2, 4, 6])


def test_divides_with_infinite_exponent():
    assert divides(12, S("2^inf*3"))
    assert not divides(8, S("2^2*3"))


def test_lcm_and_mul_absorb():
    assert lcm(S("2^inf"), S("3^2")) == S("2^inf*3^2")
    assert mul(S("2^inf"), S("2")) == S("2^inf")
    assert mul(S("2^2"), S("2^3*5")) == S("2^5*5")


def test_in_open():
    assert in_open(S("2^inf"), [6, 4])
    assert not in_open(S("3^inf"), [2])
    assert in_open(Supernatural(), [1])


def test_in_open_tests_each_generator_once(monkeypatch):
    # repeats are tested once, in first-seen order, so the first error is the same
    tested = []

    def record(n, s, named):
        tested.append(n)
        return divides(n, s, named)

    monkeypatch.setattr(sn, "divides", record)
    assert not in_open(S("3"), [2, 2, 5, 2, 5])
    assert tested == [2, 5]
    with pytest.raises(ValueError, match="need n >= 1"):
        in_open(S("3"), [2, 0, -1, 0])


def test_int_divides_matches_the_factored_divides():
    # an int is read against s's exceptions without factoring when s's default is
    # 0 or inf; a finite positive default factors it
    rng = random.Random(31)
    factored = {n: Supernatural.from_int(n) for n in range(1, 2001)}
    for default in (0, 1, 2, INF):
        for _ in range(12):
            primes = rng.sample((2, 3, 5, 7, 11, 13, 997), rng.randint(0, 4))
            s = Supernatural.from_factors({p: rng.choice((0, 1, 2, 3, 10, INF)) for p in primes}, default)
            named = [p for p in (2, 3, 5, 7) if p not in dict(s.exceptions) and rng.random() < 0.5]
            for n, t in factored.items():
                assert divides(n, s) == divides(t, s) == divides(n, s, named), (n, s, named)
    for n in (0, -4):
        with pytest.raises(ValueError, match="need n >= 1"):
            divides(n, S("2"))


def test_int_divides_factors_nothing(monkeypatch):
    # a 4000-bit n = 3 * 2^3998, and a 12-digit prime, which sn divides reads as an int
    assert parse_divisor("999999999989") == 999999999989
    assert parse_divisor("2^2") == S("2^2")
    with pytest.raises(ValueError, match="need n >= 1"):
        parse_divisor("0")
    n = 3 * 2**3998
    pairs = [(S("2^inf*3"), True), (S("2^inf"), False), (S("2^3998*[default=inf]"), True),
             (S("2^3997*[default=inf]"), False)]
    two = S("2")
    monkeypatch.setattr(sn, "factorize", None)
    assert [divides(n, s) for s, _ in pairs] == [want for _, want in pairs]
    assert not in_open(two, [999999999989] * 100)


def test_divides_strips_the_named_primes(monkeypatch):
    # [default=1] holds N = p q, two 12-digit primes, iff N is squarefree: rho
    # cannot split N, but the literal names p and q, and stripping them leaves 1
    p, q = 999999999989, 999999999961
    s, named = parse_named(f"{p}*{q}*[default=1]")
    assert (s, named) == (S("[default=1]"), (p, q))
    assert parse_named(f"{p}^2*[default=1]") == (S(f"{p}^2*[default=1]"), ())
    assert parse_named("12") == (S("2^2*3"), ())
    with pytest.raises(ValueError, match="key 4 is not prime"):
        parse_supernatural("4*[default=1]")
    with pytest.raises(ValueError, match="key 9 is not prime"):
        parse_supernatural("9^0*2")
    monkeypatch.setattr(sn, "factorize", None)
    assert divides(p * q, s, named)
    assert not divides(p * p * q, s, named)
    assert divides(p * q, *parse_named(f"{p}*{q}^inf*[default=2]"))
    assert in_open(s, [p * p * q, p * q], named) and not in_open(s, [p * p * q], named)
    monkeypatch.undo()
    # a finite positive default factors only the cofactor, here q < 10^12
    assert divides(p * p * q, S(f"{p}^2*[default=1]"))
    assert not divides(p * 4 * q, S(f"{p}^2*[default=1]"))


def test_built_results_test_no_prime(monkeypatch):
    # the results of _merge, from_int and from_chain have keys already proved
    # prime, by the parse or by factorize, and are built with no second test
    primes = [999999999989, 999999999961, 999999999959]
    s, t = S("*".join(map(str, primes[:2])) + "^inf"), S(f"{primes[2]}^3*{primes[0]}^2")
    tail = f"{primes[2]}^3*{primes[1]}^inf*{primes[0]}"
    want = S(f"{tail}^2"), S(f"{tail}^3"), S("2^2*3"), S("2^inf*3")

    def refuse(p):
        raise AssertionError(f"{p} was tested again")

    monkeypatch.setattr(sn, "is_prime", refuse)
    assert (lcm(s, t), mul(t, s)) == want[:2]
    assert Supernatural.from_int(12) == from_chain([2, 12]) == want[2]
    assert from_chain([3, 6], limit=True) == want[3]


def test_adele_class_examples():
    assert adele_class_equiv(S("2^inf*3"), S("2^inf"))
    assert not adele_class_equiv(S("2^inf"), S("3^inf"))
    assert adele_class_equiv(Supernatural.from_int(10), Supernatural.from_int(81))


def test_finite_class_contains_one():
    rng = random.Random(2)
    for _ in range(50):
        assert adele_class_equiv(Supernatural.from_int(rng.randint(1, 10**6)), Supernatural())


def _random_supernatural(rng):
    primes = [2, 3, 5, 7, 11]
    default = rng.choice([0, 0, 0, INF])
    factors = {}
    for p in rng.sample(primes, rng.randint(0, 3)):
        factors[p] = rng.choice([1, 2, 3, INF])
    return Supernatural.from_factors({p: e for p, e in factors.items() if e != default}, default)


def test_adele_class_is_equivalence_relation():
    rng = random.Random(17)
    pool = [_random_supernatural(rng) for _ in range(40)]
    for s in pool:
        assert adele_class_equiv(s, s)
    for s in pool:
        for t in pool:
            assert adele_class_equiv(s, t) == adele_class_equiv(t, s)
            for u in pool:
                if adele_class_equiv(s, t) and adele_class_equiv(t, u):
                    assert adele_class_equiv(s, u)


def test_semigroup_laws():
    rng = random.Random(23)
    pool = [_random_supernatural(rng) for _ in range(12)]
    for s in pool:
        assert lcm(s, s) == s
        for t in pool:
            assert mul(s, t) == mul(t, s)
            assert lcm(s, t) == lcm(t, s)
            for u in pool:
                assert mul(mul(s, t), u) == mul(s, mul(t, u))
                assert lcm(lcm(s, t), u) == lcm(s, lcm(t, u))


def test_divides_partial_order():
    rng = random.Random(29)
    pool = [_random_supernatural(rng) for _ in range(15)]
    for s in pool:
        assert divides(s, s)
        for t in pool:
            if divides(s, t) and divides(t, s):
                assert s == t
            for u in pool:
                if divides(s, t) and divides(t, u):
                    assert divides(s, u)


def test_from_chain_monotone():
    rng = random.Random(31)
    for _ in range(40):
        chain = [rng.randint(1, 6)]
        for _ in range(4):
            chain.append(chain[-1] * rng.randint(1, 6))
        assert divides(from_chain(chain[:3]), from_chain(chain))


def test_text_roundtrip():
    for text in ("2^inf*3^2*[default=0]", "[default=0]", "2*3^2*[default=0]", "5^2*[default=inf]"):
        assert format_supernatural(parse_supernatural(text)) == text
    assert parse_supernatural("12") == S("2^2*3")


_TOKENS = ["1", "2", "3", "5", "2^0", "2^3", "3^2", "7^1", "2^inf", "5^inf"]


def _literal(rng) -> str:
    """A literal without a default token, of prime-power tokens that may repeat."""
    return "*".join(rng.choices(_TOKENS, k=rng.randint(1, 3)))


def test_a_literal_is_the_product_of_its_tokens():
    # a repeated prime's exponents add and inf absorbs, as in mul
    rng = random.Random(37)
    for _ in range(300):
        x, y = _literal(rng), _literal(rng)
        assert S(f"{x}*{y}") == mul(S(x), S(y)), (x, y)
    assert S("2^3*2") == S("2^4") and S("2*2^inf") == S("2^inf")
    assert divides(4, *parse_named("2*2"))
    assert parse_named("2*2^0*[default=1]") == (S("[default=1]"), (2,))


def test_a_literal_has_at_most_one_default():
    for text in ("[default=0]*[default=0]", "2*[default=inf]*3*[default=1]"):
        with pytest.raises(ValueError, match="more than one"):
            S(text)
