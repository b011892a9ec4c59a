import random
from math import prod

import pytest

from arithsite import primes
from arithsite.primes import PSI_13, factorize, is_prime
from oracles import trial_division_is_prime

# the least strong pseudoprimes to the first 9 and 12 prime bases; only base
# 41 exposes PSI_12 (Sorenson and Webster, Math. Comp. 86, 2017)
PSI_9 = 3825123056546413051
PSI_12 = 318665857834031151167461


def test_agrees_with_trial_division():
    assert [n for n in range(-5, 2 * 10**5) if is_prime(n) != trial_division_is_prime(n)] == []


def test_strong_pseudoprimes_are_composite():
    assert not is_prime(PSI_9)
    assert not is_prime(PSI_12)
    assert all(primes._strong_probable_prime(PSI_12, a) for a in primes.BASES[:-1])


def test_probable_primes_past_psi_13_are_refused():
    with pytest.raises(ValueError, match="refusing"):
        is_prime(PSI_13)
    with pytest.raises(ValueError, match="refusing"):
        is_prime(2**127 - 1)
    # a failed base is a proof at any size
    assert not is_prime((2**89 - 1) * (2**107 - 1))
    assert not is_prime(43 * 2**4200)  # past the bit cap, by its factor 2


def test_numbers_past_the_bit_cap_are_refused():
    n = 2**primes.MAX_TEST_BITS + 1  # no prime factor up to 41
    with pytest.raises(ValueError, match="refusing to test a number of 4097 bits"):
        is_prime(n)


def test_primes_past_the_trial_bound_answer():
    # trial division to TRIAL_BOUND refused each of these
    assert is_prime(10**13 + 37)
    assert factorize(2 * (10**13 + 37)) == {2: 1, 10**13 + 37: 1}
    p = 2**61 - 1
    assert factorize(3 * p) == {3: 1, p: 1}


def test_composite_cofactors_past_the_bound_are_refused():
    # rho needs about sqrt(10^15) steps to split this, far past its cap
    with pytest.raises(ValueError, match="no prime factor up to 1000000, and rho found none in 65536 steps"):
        factorize(1000000000000037 * 3000000000000037)
    big = 1000003 * (2**521 - 1)  # composite of 541 bits with no factor up to 10^6
    with pytest.raises(ValueError, match="a composite of 541 bits > 512"):
        factorize(big)
    with pytest.raises(ValueError, match="refusing to test a number of 126792 bits"):
        factorize(3**80000 + 2)  # 59 times a cofactor past MAX_TEST_BITS


def test_semiprimes_past_the_trial_bound_factor():
    assert factorize(1000003 * 1000033) == {1000003: 1, 1000033: 1}
    assert factorize(7 * 1000003**3 * 1000033**2) == {7: 1, 1000003: 3, 1000033: 2}
    assert factorize(1000003 * (2**31 - 1) * (2**61 - 1)) == {1000003: 1, 2**31 - 1: 1, 2**61 - 1: 1}


def test_rho_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(14)
    for _ in range(30):
        n = sympy.nextprime(rng.randrange(10**6, 10**8)) * sympy.nextprime(rng.randrange(10**6, 10**8))
        assert factorize(n) == sympy.factorint(n), n


def test_smooth_numbers_factor():
    assert factorize(999983**700 * 2**10) == {2: 10, 999983: 700}
    assert factorize(2**4000 * 3**5 * 999979) == {2: 4000, 3: 5, 999979: 1}
    rng = random.Random(15)
    for _ in range(20):
        want = {p: rng.randint(1, 30) for p in rng.sample([2, 3, 5, 7, 101, 65537, 999979, 999983], 4)}
        assert factorize(prod(p**e for p, e in want.items())) == dict(sorted(want.items()))
