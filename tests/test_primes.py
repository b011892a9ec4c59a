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
    with pytest.raises(ValueError, match="no prime factor up to 1000000"):
        factorize(1000003 * 1000033)
