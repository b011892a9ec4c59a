"""Bost-Connes data: the Q/Z instance, axiom checks, and the lattice presheaf.

Elements of Q/Z are reduced Fractions in [0, 1).  The datum is
sigma_n(x) = nx mod 1 with section s_n(x) = x/n; the kernel of sigma_n is
the n-torsion (1/n)Z/Z, whose element x_{i,n} is i/n.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

from .conway import Letter, Word, free_value, split_normal
from .primes import is_prime

# MAX_TORSION caps the torsion a check enumerates: n for condition 3, n*m
# for condition 4, p*q for condition 5, p for rho and the level of
# presheaf_value.  On a 2-core Xeon host condition 3 took 0.23 s at
# n = 10^4 and 2.5 s at n = 10^5, and condition 5 took 0.43 s at p q = 9797.
MAX_TORSION = 10**4

# MAX_PRESHEAF_BITS caps level * bits(level P), the size of a presheaf value:
# its `level` elements have denominators dividing level P, with P the product
# of the word's free primes.  On a 2-core Xeon host the closed form below took
# 0.8 s in the CLI at level 2 on 6500 letters P[999999999989,1], near the cap;
# applying the letters one by one took over 60 s on 1000 letters P[2,1] at
# level 10^4, a value of 10^7 bits.
MAX_PRESHEAF_BITS = 2**19


def _check_torsion(size: int) -> None:
    if size > MAX_TORSION:
        raise ValueError(f"refusing torsion of order {size} > {MAX_TORSION}")


def qz(x) -> Fraction:
    """Reduce into [0, 1)."""
    x = Fraction(x)
    return x - floor(x)


def sigma(n: int, x: Fraction) -> Fraction:
    return qz(n * x)


def section(n: int, x: Fraction) -> Fraction:
    return qz(x / n)


def torsion(n: int) -> list[Fraction]:
    """All x with n.x = 0, i.e. (1/n)Z/Z: the kernel of sigma_n, x_{i,n} at index i."""
    return [Fraction(i, n) for i in range(n)]


def check_condition3(n: int) -> bool:
    """Kernel of sigma_n is cyclic of order n."""
    if n < 1:
        raise ValueError("need n >= 1")
    _check_torsion(n)
    ker = [x for x in torsion(n) if sigma(n, x) == 0]
    if len(ker) != n:
        return False
    gen = Fraction(1, n)  # x_{1,n}
    cyc = set()
    x = gen * 0
    for _ in range(n):
        cyc.add(qz(x))
        x = x + gen
    return cyc == set(ker)


def check_condition4(n: int, m: int) -> bool:
    """Unique decomposition x = x_{k,n} + s_n(y) over the (1/(n*m))-torsion.

    Existence and uniqueness for every element amount to the n*m candidate
    sums being pairwise distinct and exhausting the torsion level.
    """
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")
    _check_torsion(n * m)
    pieces = [section(n, y) for y in torsion(m)]
    sums = [qz(k + s) for k in torsion(n) for s in pieces]
    return len(set(sums)) == n * m and set(sums) == set(torsion(n * m))


def check_condition5(p: int, q: int) -> bool:
    """Section/kernel compatibility mirroring the meta-commutation indices."""
    _check_torsion(p * q)
    if p == q or not (is_prime(p) and is_prime(q)):
        raise ValueError("need distinct primes")
    kp = torsion(p)
    kq = torsion(q)
    for i in range(p):
        for j in range(q):
            v = i * q + j
            l, k = divmod(v, p)
            lhs = qz(section(p, kq[j]) + kp[i])
            rhs = qz(section(q, kp[k]) + kq[l])
            if lhs != rhs:
                return False
            if sigma(p, kq[j]) != kq[p * j % q]:
                return False
    return True


def operator(l: Letter, x: Fraction) -> Fraction:
    """The free-letter map s_p(x) + x_{i,p}; the power letter acts as sigma_p."""
    if l.is_power:
        return sigma(l.p, x)
    return qz(section(l.p, x) + Fraction(l.i, l.p))


def rho(p: int, x: Fraction) -> set[Fraction]:
    """The sigma_p-preimage set of x, as the orbit of the free-letter operators."""
    if p < 1:
        raise ValueError("need p >= 1")
    _check_torsion(p)
    return {operator(Letter(p, i), x) for i in range(p)}


def presheaf_value(w: Word, level: int) -> set[Fraction]:
    """Value of the lattice presheaf on a normal word, truncated at (1/level)Z/Z.

    The power part only fixes the source torsion group, which for Q/Z is all
    of (1/level)Z/Z since sigma is surjective; the free prefix acts by the
    operator chain.  Operators may refine the level: results live in
    (1/(level * prod p))Z/Z.  The free letters compose to t -> (t + a)/P, with
    (a, P) = free_value, and each maps [0, 1) into itself, so no reduction mod 1
    intervenes.
    """
    if level < 1:
        raise ValueError("need level >= 1")
    _check_torsion(level)
    a, big_p = free_value(split_normal(w)[0])
    bits = level * (level * big_p).bit_length()
    if bits > MAX_PRESHEAF_BITS:
        raise ValueError(f"refusing a presheaf value of {bits} bits > {MAX_PRESHEAF_BITS}")
    return {Fraction(k + a * level, level * big_p) for k in range(level)}
