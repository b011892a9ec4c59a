"""Small prime-number helpers: a strong probable-prime test and trial division.

is_prime runs the strong probable-prime test to the 13 bases 2..41, which
decides every n < PSI_13 (Sorenson and Webster, Math. Comp. 86, 2017).  A
base that fails proves n composite at any size.  At or above PSI_13 passing
proves nothing, so a number that passes base 2 there is refused with
ValueError; so is any number of more than MAX_TEST_BITS bits, since each base
costs about the cube of the bit length.

factorize runs trial division up to TRIAL_BOUND and accepts a cofactor left
above the bound's square (10^12) only if is_prime proves it prime; a
composite cofactor there is refused, not searched for ever.
"""

from __future__ import annotations

TRIAL_BOUND = 10**6

BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981

# MAX_TEST_BITS bounds the numbers is_prime tests: on a 2-core Xeon host one
# base took 0.12 s at 3322 bits (1000 digits) and 2.8 s at 9966 bits.
MAX_TEST_BITS = 4096


def _refuse(n: int) -> ValueError:
    return ValueError(f"refusing {n}: no prime factor up to {TRIAL_BOUND}, yet above {TRIAL_BOUND}^2")


def _strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n > a passes the strong test to base a (Miller-Rabin)."""
    m = n - 1
    s = (m & -m).bit_length() - 1  # n - 1 = 2^s times an odd number
    x = pow(a, m >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # 43 is the least prime past the bases
        return True
    if n.bit_length() > MAX_TEST_BITS:
        raise ValueError(f"refusing to test a number of {n.bit_length()} bits > {MAX_TEST_BITS} for primality")
    bases = BASES if n < PSI_13 else BASES[:1]  # past PSI_13 only a failure proves anything
    if not all(_strong_probable_prime(n, a) for a in bases):
        return False
    if n >= PSI_13:
        raise ValueError(f"refusing {n}: a strong probable prime at or above {PSI_13}, where no base proves primality")
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        if f > TRIAL_BOUND:
            if not is_prime(n):
                raise _refuse(n)
            break
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
