"""Small prime-number helpers (trial division; all inputs here are desk scale).

Trial division stops at TRIAL_BOUND: a number whose cofactor is still
unresolved there (it has no prime factor up to the bound and exceeds the
bound's square, 10^12) is refused with ValueError, not searched for ever.
"""

from __future__ import annotations

TRIAL_BOUND = 10**6


def _refuse(n: int) -> ValueError:
    return ValueError(f"refusing {n}: no prime factor up to {TRIAL_BOUND}, yet above {TRIAL_BOUND}^2")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if f > TRIAL_BOUND:
            raise _refuse(n)
        if n % f == 0:
            return False
        f += 2
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
            raise _refuse(n)
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out

