"""Bost-Connes data: the Q/Z instance, axiom checks, and the lattice presheaf.

The datum is sigma_n(x) = nx mod 1 with section s_n(x) = x/n for x in [0, 1);
the kernel of sigma_n is the n-torsion (1/n)Z/Z, whose element x_{i,n} is i/n.
The checks read a torsion level (1/L)Z/Z as the residues Z/L, a standing for
a/L, and build no Fraction.  sigma, operator and rho read a rational x as
x mod 1; they and presheaf_value return reduced Fractions in [0, 1).

Each check, rho and presheaf_value state, by arithsite.check_bits, the bits
they build before they build any: L bits(L) for the residues of level L,
p bits(p v) for rho(p, u/v), whose values have denominators dividing p v, and
level bits(level P) for presheaf_value, with P the product of the word's free
primes.
"""

from __future__ import annotations

from fractions import Fraction

from . import check_bits
from .conway import Letter, Word, free_value, split_normal
from .primes import is_prime

def sigma(n: int, x: Fraction) -> Fraction:
    return n * x % 1


def section(n: int, x: Fraction) -> Fraction:
    return Fraction(x % 1, n)


def torsion(n: int) -> list[Fraction]:
    """All x with n.x = 0, i.e. (1/n)Z/Z: the kernel of sigma_n, x_{i,n} at index i."""
    return [Fraction(i, n) for i in range(n)]


def check_condition3(n: int) -> bool:
    """Kernel of sigma_n is cyclic of order n; at level n, sigma_n is i -> n i mod n."""
    if n < 1:
        raise ValueError("need n >= 1")
    check_bits(n, n.bit_length(), "a torsion level")
    ker = {i for i in range(n) if n * i % n == 0}
    gen = 1  # x_{1,n}
    return len(ker) == n and {k * gen % n for k in range(n)} == ker


def check_condition4(n: int, m: int) -> bool:
    """Unique decomposition x = x_{k,n} + s_n(y) over the (1/(n*m))-torsion.

    Existence and uniqueness for every element amount to the n*m candidate
    sums being pairwise distinct and exhausting the torsion level.  At level
    L = n m, x_{k,n} is k m and s_n(x_{j,m}) is j: the sums are (k m + j) mod L.
    """
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")
    level = n * m
    check_bits(level, level.bit_length(), "a torsion level")
    return len({(k * m + j) % level for k in range(n) for j in range(m)}) == level


def check_condition5(p: int, q: int) -> bool:
    """Section/kernel compatibility mirroring the meta-commutation indices.

    At level L = p q, x_{i,p} is i q, x_{j,q} is j p, and s_p(x_{j,q}) is j.
    """
    level = p * q
    check_bits(level, level.bit_length(), "a torsion level")
    if p == q or not (is_prime(p) and is_prime(q)):
        raise ValueError("need distinct primes")
    for i in range(p):
        for j in range(q):
            l, k = divmod(i * q + j, p)
            # s_p(x_{j,q}) + x_{i,p} = s_q(x_{k,p}) + x_{l,q}, and sigma_p(x_{j,q}) = x_{pj mod q, q}
            if (j + i * q - k - l * p) % level or p * j * p % level != p * j % q * p:
                return False
    return True


def operator(l: Letter, x: Fraction) -> Fraction:
    """The free-letter map s_p(x) + x_{i,p}; the power letter acts as sigma_p."""
    if l.is_power:
        return sigma(l.p, x)
    return Fraction(x % 1 + l.i, l.p)


def rho(p: int, x: Fraction) -> set[Fraction]:
    """The sigma_p-preimage set of x, the orbit of the free-letter operators:
    (y + i)/p for i < p, with y = x mod 1."""
    if p < 1:
        raise ValueError("need p >= 1")
    check_bits(p, (p * x.denominator).bit_length(), "a rho value")  # x mod 1 keeps x's denominator
    y = x % 1
    return {Fraction(y + i, p) for i in range(p)}


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
    a, big_p = free_value(split_normal(w)[0])
    check_bits(level, (level * big_p).bit_length(), "a presheaf value")
    return {Fraction(k + a * level, level * big_p) for k in range(level)}
