import itertools
import random
from fractions import Fraction

import pytest

from arithsite import MAX_BITS, bostconnes as bc, check_bits, conway as cw
from arithsite.conway import Letter
from oracles import (
    fraction_condition3,
    fraction_condition4,
    fraction_condition5,
    operator_presheaf,
    sigma_fiber,
)


def F(a, b=1):
    return Fraction(a, b)


def test_condition3_examples():
    assert bc.check_condition3(1)
    assert bc.check_condition3(6)
    assert bc.check_condition3(7)


def test_condition3_kernel_content():
    ker = [x for x in bc.torsion(6) if bc.sigma(6, x) == 0]
    assert set(ker) == {F(0), F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(5, 6)}


def test_condition4_examples():
    assert bc.check_condition4(2, 3)
    assert bc.check_condition4(1, 7)
    assert bc.check_condition4(4, 5)


def test_condition5_examples():
    assert bc.check_condition5(2, 3)
    assert bc.check_condition5(3, 5)
    with pytest.raises(ValueError):
        bc.check_condition5(3, 3)
    with pytest.raises(ValueError, match="primes"):
        bc.check_condition5(4, 6)
    with pytest.raises(ValueError, match="primes"):
        bc.check_condition5(2, 9)


def test_torsion_cap():
    # the checks build nothing and answer by theorem at any level, past the bit
    # budget too; rho and presheaf_value refuse by their value's bits
    assert bc.check_condition3(32768) and 32768 * 16 == MAX_BITS
    assert bc.check_condition4(100, 100)
    assert bc.check_condition3(32769) and bc.check_condition4(201, 200) and bc.check_condition5(199, 211)
    assert len(bc.rho(9973, F(1, 3))) == 9973
    for call, what, bits in (
        (lambda: bc.rho(40009, F(1, 3)), "a rho value", 40009 * 17),
        (lambda: bc.presheaf_value((Letter(2, 1),), 40000), "a presheaf value", 40000 * 17),
    ):
        with pytest.raises(ValueError, match=f"^refusing {what} of {bits} bits > 524288$"):
            call()


def _outcome(check, *args):
    """check(*args), or the message of the ValueError it raises."""
    try:
        return check(*args)
    except ValueError as e:
        return f"ValueError: {e}"


def test_conditions_match_the_fraction_checks():
    # the ranges of the CLI fuzz grammar with its hostile -1 and -7, and levels
    # past the bit budget, where the enumerating oracles still agree
    def grid(hi, k):
        return list(itertools.product((-7, -1, *range(hi + 1)), repeat=k))

    cases = (
        (bc.check_condition3, fraction_condition3, [*grid(200, 1), (32769,)]),
        (bc.check_condition4, fraction_condition4, [*grid(20, 2), (0, 40001), (201, 200)]),
        (bc.check_condition5, fraction_condition5, [*grid(40, 2), (199, 211), (100, 102), (200, 202), (10007, 10007)]),
    )
    for check, oracle, calls in cases:
        for args in calls:
            assert _outcome(check, *args) == _outcome(oracle, *args), (check.__name__, args)
    assert _outcome(bc.check_condition5, 100, 102) == "ValueError: need distinct primes"
    assert _outcome(bc.check_condition5, 200, 202) == "ValueError: need distinct primes"


def test_conditions_build_no_fraction(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(Fraction, "__new__", forbidden)
    with pytest.raises(AssertionError, match="Fraction built"):
        Fraction(1, 2)
    assert bc.check_condition3(10**4) and bc.check_condition3(10**8)
    assert bc.check_condition4(100, 100)
    assert bc.check_condition5(97, 101) and bc.check_condition5(999983, 1000003)


def test_rho_and_operator_read_x_mod_1():
    # x outside [0, 1), negative included, stands for its class x mod 1; rho
    # takes composite p too, whose fiber is no orbit of letters
    fibers = {}
    for b in range(1, 13):
        for a in (*range(-2 * b, 0), *range(b, 2 * b + 1)):
            x, y = F(a, b), F(a, b) % 1
            for p in range(1, 13):
                if (p, y) not in fibers:
                    fibers[p, y] = sigma_fiber(p, y)
                assert bc.rho(p, x) == fibers[p, y], (p, x)
            for p in (2, 3, 5, 7, 11):
                for i in range(p + 1):
                    assert bc.operator(Letter(p, i), x) == bc.operator(Letter(p, i), x % 1), (p, i, x)


def test_rho_bit_cap():
    # a 30000-digit numerator over a 30000-digit denominator: 101 values of about
    # 10^5 bits each took 2.9 s to print
    y = F(10**29999 + 1, 10**29999 + 3)
    bits = 101 * (101 * y.denominator).bit_length()
    with pytest.raises(ValueError, match=f"refusing a rho value of {bits} bits > 524288"):
        bc.rho(101, y)
    # the rule is p * bits(p v), the one presheaf_value applies to level * bits(level P)
    v = 2**262142 + 1  # bits(2 v) = 262144, so 2 * 262144 = 2^19 is at the cap
    assert len(bc.rho(2, F(1, v))) == 2
    with pytest.raises(ValueError, match="refusing a rho value of 524290 bits"):
        bc.rho(2, F(1, 2 * v))


def test_operator_does_not_enumerate_the_kernel(monkeypatch):
    # one operator step costs O(1), not O(p), and rho builds its p values directly
    def forbidden(*args):
        raise AssertionError("kernel enumerated")

    monkeypatch.setattr(bc, "torsion", forbidden)
    assert bc.operator(Letter(7, 5), F(1, 3)) == F(1, 21) + F(5, 7)
    assert bc.rho(2, F(1, 3)) == {F(1, 6), F(2, 3)}


def test_condition5_fraction_instance():
    # p=2, q=3, i=1, j=2: l=2, k=1 and 2/6 + 3/6 = 5/6 = 1/6 + 4/6
    p, q, i, j = 2, 3, 1, 2
    l, k = divmod(i * q + j, p)
    assert (l, k) == (2, 1)
    lhs = bc.section(p, F(j, q)) + F(i, p)
    rhs = bc.section(q, F(k, p)) + F(l, q)
    assert lhs == rhs == F(5, 6)


def test_operator_examples():
    assert bc.operator(Letter(2, 1), F(1, 3)) == F(2, 3)
    assert bc.operator(Letter(2, 2), F(1, 6)) == F(1, 3)
    assert bc.operator(Letter(2, 0), F(0)) == F(0)


def test_rho_examples():
    assert bc.rho(2, F(1, 3)) == {F(1, 6), F(2, 3)}
    assert bc.rho(2, F(1, 3)) == sigma_fiber(2, F(1, 3))
    assert bc.rho(3, F(0)) == sigma_fiber(3, F(0)) == {F(0), F(1, 3), F(2, 3)}


def test_rho_refuses_nonpositive_p():
    # -2y = 1/3 has the solutions 1/3 and 5/6, and every y solves 0y = 0:
    # an empty orbit would be a wrong answer, not a refusal
    for p, x in ((-2, F(1, 3)), (0, F(0))):
        with pytest.raises(ValueError, match="need p >= 1"):
            bc.rho(p, x)


def test_presheaf_identity_word():
    assert bc.presheaf_value((), 4) == set(bc.torsion(4))


def test_presheaf_single_letter():
    vals = bc.presheaf_value((Letter(2, 1),), 3)
    assert vals == {F(1, 2), F(2, 3), F(5, 6)}


def test_presheaf_requires_normal_word():
    with pytest.raises(ValueError, match="normal"):
        bc.presheaf_value((Letter(3, 1), Letter(2, 0)), 2)


def test_presheaf_matches_the_operator_chain():
    rng = random.Random(15)
    for _ in range(200):
        ps = rng.choices((2, 3, 5, 7), k=rng.randint(0, 6))
        w = cw.normalize(tuple(Letter(p, rng.randrange(p + 1)) for p in ps))
        level = rng.randint(1, 12)
        assert bc.presheaf_value(w, level) == operator_presheaf(w, level), (w, level)


def test_presheaf_size_cap():
    # 1000 letters P[2,1] at level 10^4 ran over 60 s one letter at a time
    word = (Letter(2, 1),) * 1000
    with pytest.raises(ValueError, match="refusing a presheaf value of 10140000 bits > 524288"):
        bc.presheaf_value(word, 10**4)
    assert bc.presheaf_value(word, 1) == {Fraction(2**1000 - 1, 2**1000)}


def test_presheaf_functoriality_small():
    # operators of z applied to the value at x agree with the value at mul(z, x)
    for z, x in (
        ((Letter(2, 1),), (Letter(3, 2),)),
        ((Letter(3, 0),), (Letter(2, 1),)),
        ((Letter(2, 0), Letter(2, 1)), (Letter(5, 3),)),
    ):
        for level in (1, 2, 3, 4):
            direct = bc.presheaf_value(cw.mul(z, x), level)
            staged = bc.presheaf_value(cw.normalize(x), level)
            for l in reversed(z):
                staged = {bc.operator(l, v) for v in staged}
            assert direct == staged


def test_endomorphisms_commute():
    # sigma_n o sigma_m = sigma_{n*m}, and sections commute among themselves
    for n in range(1, 12):
        for m in range(1, 12):
            for lev in (6, 10):
                for x in bc.torsion(lev):
                    assert bc.sigma(n, bc.sigma(m, x)) == bc.sigma(n * m, x)
                    assert bc.section(n, bc.section(m, x)) == bc.section(n * m, x)


def test_operator_meta_commutation_compat():
    for p, q in ((2, 3), (2, 5), (3, 5)):
        for i in range(p):
            for j in range(q):
                l, k = divmod(i * q + j, p)
                for n in range(1, 30):
                    for x in bc.torsion(n):
                        lhs = bc.operator(Letter(p, i), bc.operator(Letter(q, j), x))
                        rhs = bc.operator(Letter(q, l), bc.operator(Letter(p, k), x))
                        assert lhs == rhs


def test_bit_bounds_hold(monkeypatch):
    # the count * bits that each call states to check_bits is at least the bits it
    # builds: a value in [0, 1) has a numerator below its denominator, so its bits
    # are at most twice the denominator's; the checks build nothing and state nothing
    stated = []

    def record(count, bits, what):
        stated.append(count * bits)
        check_bits(count, bits, what)

    monkeypatch.setattr(bc, "check_bits", record)
    rng = random.Random(30)
    primes = [p for p in range(2, 50) if all(p % q for q in range(2, p))]
    for n in range(1, 201):
        bc.check_condition3(n)
    for n, m in itertools.product(range(1, 15), repeat=2):
        bc.check_condition4(n, m)
    for p, q in itertools.permutations(primes[:6], 2):
        bc.check_condition5(p, q)
    assert stated == []
    for _ in range(300):
        x = F(rng.randint(-200, 200), rng.randint(1, 200))
        w = cw.normalize(tuple(Letter(p, rng.randrange(p + 1)) for p in rng.choices(primes, k=rng.randint(0, 4))))
        for call in (lambda: bc.rho(rng.randint(1, 50), x), lambda: bc.presheaf_value(w, rng.randint(1, 200))):
            values = call()
            assert stated[-1] >= sum(v.denominator.bit_length() for v in values)
            assert 2 * stated[-1] >= sum(v.numerator.bit_length() + v.denominator.bit_length() for v in values)


def test_refused_calls_build_nothing(monkeypatch):
    # the budget is checked before any value is built: no Fraction
    x, word = F(1, 3), (Letter(2, 1),) * 1000

    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(Fraction, "__new__", forbidden)
    for call in (lambda: bc.rho(40009, x), lambda: bc.presheaf_value(word, 10**4)):
        with pytest.raises(ValueError, match="^refusing a .* bits > 524288$"):
            call()
