"""Small prime-number helpers: a strong probable-prime test and factoring.

is_prime runs the strong probable-prime test to the 13 bases 2..41, which
decides every n < PSI_13 (Sorenson and Webster, Math. Comp. 86, 2017).  A
base that fails proves n composite at any size.  At or above PSI_13 passing
proves nothing, so a number that passes base 2 there is refused with
ValueError; so is any number of more than MAX_TEST_BITS bits, since each base
costs about the cube of the bit length.

factorize finds the primes up to TRIAL_BOUND that divide n by trial division
when n < TRIAL_BOUND^2, and otherwise by one gcd with their product, followed
down a product tree.  What is left has no prime factor up to TRIAL_BOUND.
is_prime proves it prime or composite, or refuses it past MAX_TEST_BITS.
A composite of at most MAX_RHO_BITS bits is split by Pollard-Brent rho
(Brent, BIT 20, 1980) and each part handled the same way, so every prime in
the answer is proved prime.  Rho refuses after MAX_RHO_STEPS steps in all,
and a larger composite is refused at once: neither is searched for ever.
"""

from __future__ import annotations

from functools import cache
from math import gcd, isqrt, prod

TRIAL_BOUND = 10**6

BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981

# MAX_TEST_BITS bounds the numbers is_prime tests: on a 2-core Xeon host one
# base took 0.12 s at 3322 bits (1000 digits) and 2.8 s at 9966 bits.
MAX_TEST_BITS = 4096

# MAX_RHO_STEPS caps the steps x -> x^2 + c that Pollard-Brent rho takes in
# one factorize call, over all the parts it splits and the constants c it
# tries.  A prime factor p takes about sqrt(p) steps, so rho reaches factors
# up to about 10^9.  Rho splits composites of at most MAX_RHO_BITS bits: on a
# 2-core Xeon host the whole budget took 0.07 s at 128 bits, 0.31 s at 512
# and 11 s at 4096.
MAX_RHO_STEPS = 2**16
MAX_RHO_BITS = 512
_RHO_BATCH = 128  # steps whose differences share one gcd


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


@cache
def _product_tree() -> list[list[int]]:
    """The primes up to TRIAL_BOUND, then the products of adjacent pairs of
    each level, up to their product (1.44 Mbit).  Built once, in about 0.3 s
    on a 2-core Xeon host."""
    sieve = bytearray([1]) * (TRIAL_BOUND + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(TRIAL_BOUND) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, TRIAL_BOUND + 1, i)))
    levels = [[i for i, s in enumerate(sieve) if s]]
    while len(levels[-1]) > 1:
        last = levels[-1]
        levels.append([prod(last[i : i + 2]) for i in range(0, len(last), 2)])
    return levels


def _small_prime_factors(n: int) -> list[int]:
    """The primes up to TRIAL_BOUND that divide n, ascending: one gcd of n with
    their product, then down the tree into the nodes that still share a factor."""
    levels = _product_tree()
    nodes = [(0, gcd(n, levels[-1][0]))]
    for level in reversed(levels[:-1]):
        nodes = [
            (j, h)
            for i, g in nodes
            for j in range(2 * i, min(2 * i + 2, len(level)))
            if (h := gcd(g, level[j])) > 1
        ]
    return [levels[0][i] for i, _ in nodes]


def split_power(n: int, p: int) -> tuple[int, int]:
    """(e, m) with n = p^e m and p not dividing m, by dividing out p, p^2,
    p^4, ...: O(log e) divisions where one p at a time takes e."""
    q, r = divmod(n, p)
    if r:
        return 0, n
    e, m = split_power(q, p * p)  # q = p^(2e) m with p^2 not dividing m
    q, r = divmod(m, p)
    return (2 * e + 2, q) if not r else (2 * e + 1, m)


def _rho(n: int, budget: int) -> tuple[int, int]:
    """A factor 1 < d < n of the odd composite n by Pollard-Brent rho, and the
    steps it took; refuses once it has taken budget steps."""
    steps, c = 0, 0
    while steps < budget:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and steps < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            steps += r
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(_RHO_BATCH, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += batch
            steps += k
            r *= 2
        if g == n:  # a batch passed a factor: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g, steps
    raise ValueError(f"refusing {n}: no prime factor up to {TRIAL_BOUND}, and rho found none in {MAX_RHO_STEPS} steps")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, ascending."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out: dict[int, int] = {}
    if n < TRIAL_BOUND**2:  # trial division to sqrt(n) < TRIAL_BOUND leaves 1 or a prime
        f = 5
        for p in (2, 3):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        while f * f <= n:
            for p in (f, f + 2):
                while n % p == 0:
                    out[p] = out.get(p, 0) + 1
                    n //= p
            f += 6
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out
    for p in _small_prime_factors(n):
        out[p], n = split_power(n, p)
    # n and every part split from it have no prime factor up to TRIAL_BOUND,
    # so a part below TRIAL_BOUND^2 is 1 or a prime
    steps, parts = 0, [n]
    while parts:
        m = parts.pop()
        if m < TRIAL_BOUND**2 or is_prime(m):
            if m > 1:
                out[m] = out.get(m, 0) + 1
            continue
        if m.bit_length() > MAX_RHO_BITS:
            raise ValueError(f"refusing {m}: a composite of {m.bit_length()} bits > {MAX_RHO_BITS} with no prime factor up to {TRIAL_BOUND}")
        d, used = _rho(m, MAX_RHO_STEPS - steps)
        steps += used
        parts += [d, m // d]
    return dict(sorted(out.items()))
