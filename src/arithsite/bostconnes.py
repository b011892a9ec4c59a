"""Bost-Connes data: the Q/Z instance, axiom checks, and the lattice presheaf.

The datum is sigma_n(x) = nx mod 1 with section s_n(x) = x/n for x in [0, 1);
the kernel of sigma_n is the n-torsion (1/n)Z/Z, whose element x_{i,n} is i/n.
Conditions 3-5 hold for this datum by theorem (Bost and Connes, Selecta Math.
1, 1995; Connes and Consani, C. R. Math. 352, 2014): each check refuses an
input outside its domain and answers True, and its docstring gives the proof.
Their enumerations over Fractions are oracles in tests/oracles.py.  sigma,
operator and rho read a rational x as x mod 1; they and presheaf_value return
reduced Fractions in [0, 1).

rho and presheaf_value state, by arithsite.check_bits, the bits they build
before they build any: p bits(p v) for rho(p, u/v), whose values have
denominators dividing p v, and level bits(level P) for presheaf_value, with P
the product of the word's free primes.
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
    """Kernel of sigma_n is cyclic of order n, by theorem.

    n (i/n) is an integer, so the n-torsion (1/n)Z/Z is the whole kernel of
    sigma_n; it is cyclic of order n, generated by x_{1,n} = 1/n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return True


def check_condition4(n: int, m: int) -> bool:
    """Unique decomposition x = x_{k,n} + s_n(y) over the (1/(n*m))-torsion, by theorem.

    Each a/(n m) with 0 <= a < n m equals x_{k,n} + s_n(x_{j,m}) =
    (k m + j)/(n m) for exactly one pair (k, j) = divmod(a, m).
    """
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")
    return True


def check_condition5(p: int, q: int) -> bool:
    """Section/kernel compatibility mirroring the meta-commutation indices, by theorem.

    For distinct primes p, q and x_{i,p}, x_{j,q}, (l, k) = divmod(i q + j, p)
    gives s_p(x_{j,q}) + x_{i,p} = (i q + j)/(p q) = s_q(x_{k,p}) + x_{l,q}, the
    indices of P[p,i] P[q,j] = P[q,l] P[p,k]; and sigma_p(x_{j,q}) = x_{pj mod q, q}.
    """
    if p == q or not (is_prime(p) and is_prime(q)):
        raise ValueError("need distinct primes")
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
