"""The Conway monoid: words of letters P[p, i], their classes and normal forms.

Letters are pairs (p, i) over a prime p: indices 0 <= i < p are the free
letters with matrix [[1/p, i/p], [0, 1]], and i = p is the power letter
[[p, 0], [0, 1]].  Words are read left to right as matrix products acting on
classes by left multiplication, so the leftmost letter is applied last.

The monoid is presented by rewriting: free letters move in front of power
letters and both segments sort by ascending prime, and a power letter
directly left of a free letter over the same prime cancels.  A cross-prime
exchange (meta-commutation) rewrites a.b as T^s.a'.b' with exact matrices:
two free letters P[p,i].P[q,j] become P[q,l].P[p,k] with l p + k = i q + j
and s = 0; a power letter P[p,p] before a free letter P[q,j] becomes
P[q,r].P[p,p] with p j = s q + r; a free letter P[p,i] before a power letter
P[q,q] becomes P[q,q].P[p,k] with k = i/q mod p and s = (i - q k)/p; two
power letters just swap.  Each rewrite sheds the integral shear T^s, which
is propagated to the far left, changing only free indices, and dropped
there, so the class of a word never changes.  normalize computes the result
of that presentation in closed form; the rewriting itself is a test oracle.

Bicyclic reduction.  An exchange keeps each letter's prime and its type (free
or power), and so the order of the letters over one prime; the only rewrite
within a prime deletes a power letter directly left of a free one.  Over
each prime p the surviving letters are therefore the reduction of the
word's p-subsequence in the bicyclic monoid (Clifford and Preston, The
Algebraic Theory of Semigroups, 1961): every power-p letter cancels against
the first unmatched free-p letter to its right.  That reduction is unique, so
every rewriting schedule ends on the same free primes (product P) and power
primes (product Q), and a normal word is fixed by those primes and its class:
its free indices are the mixed-radix digits of rho P over the ascending
primes of P.  Hence normal forms are unique and the rewriting is confluent.
The same integers give class_to_word (Conway, Understanding groups like
Gamma_0(N), 1996).
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import partial
from math import prod

from . import record
from .bigpicture import PicClass
from .primes import factorize, is_prime


class Letter(record("Letter", "p i")):
    """The letter P[p, i]: p prime and 0 <= i <= p, tested as it is built."""

    __slots__ = ()

    def __new__(cls, p: int, i: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not 0 <= i <= p:
            raise ValueError(f"letter index {i} out of range for prime {p}")
        return tuple.__new__(cls, (p, i))

    @property
    def is_power(self) -> bool:
        return self.i == self.p


Word = tuple[Letter, ...]
EMPTY: Word = ()
_trusted = partial(tuple.__new__, Letter)  # a pair (p, i) proved valid: p prime, 0 <= i <= p


def letters(pairs) -> Word:
    """The letters P[p, i] of the [p, i] pairs of a word or site-C chain, its one reader:
    any other shape, or a p or i that is no int (bools too), is a bad letter.  Each
    distinct prime is tested once (0.12 ms for 12 digits; one argument can hold 7000
    letters): a letter over a tested prime, its index in range, is built by _trusted."""
    primes: set[int] = set()
    out = []
    for pair in pairs:
        try:
            p, i = pair
        except (TypeError, ValueError):
            p = i = None
        if type(p) is not int or type(i) is not int:
            raise ValueError(f"bad letter {pair!r}: need [p, i] with integer p and i")
        if p in primes and 0 <= i <= p:
            out.append(_trusted((p, i)))
        else:
            out.append(Letter(p, i))  # raises on a composite p or an index out of range
            primes.add(p)
    return tuple(out)


def is_free(w: Word) -> bool:
    return all(i != p for p, i in w)


def is_normal(w: Word) -> bool:
    """Normal shape: free letters by ascending prime, then powers by ascending prime."""
    seen_power = False
    last_free = 0
    last_pow = 0
    for l in w:
        if l.is_power:
            if l.p < last_pow:
                return False
            last_pow = l.p
            seen_power = True
        else:
            if seen_power or l.p < last_free:
                return False
            last_free = l.p
    return True


# ---------------------------------------------------------------------------
# Words and classes
# ---------------------------------------------------------------------------


def word_to_class(w: Word) -> PicClass:
    """Class of the exact matrix product of the word, applied to (1, 0)."""
    m = Fraction(1)
    rho = Fraction(0)
    for l in reversed(w):
        if l.is_power:
            m *= l.p
            rho *= l.p
        else:
            m /= l.p
            rho = (rho + l.i) / l.p
    return PicClass(m, rho)


def free_value(w: Word) -> tuple[int, int]:
    """(N, P) of a free word: P = delta(w), and N = rho_w P < P, its indices' mixed-radix value."""
    n, big_p = 0, 1
    for l in w:
        n, big_p = n * l.p + l.i, big_p * l.p
    return n, big_p


def _primes(n: int) -> list[int]:
    """The primes of n, ascending, with multiplicity."""
    return [p for p, e in sorted(factorize(n).items()) for _ in range(e)]


def _normal_word(r: int, free: list[int], power: list[int]) -> Word:
    """Free letters over the ascending primes `free` whose indices are the
    mixed-radix digits of r modulo their product, then one power letter per
    prime of `power`.  Every p is prime and every free index a digit below
    its p, so the letters are valid as they stand and are built by
    _trusted, skipping Letter's test."""
    out = []
    for p in reversed(free):
        r, i = divmod(r, p)
        out.append(_trusted((p, i)))
    out.reverse()
    out += [_trusted((p, p)) for p in power]
    return tuple(out)


def normalize(w: Word) -> Word:
    """The normal word of w, on which every rewriting schedule ends.

    One pass from the right, in integers: rho = b/d is the class of w as in
    word_to_class, and each power letter cancels the nearest unmatched free
    letter of its prime to its right, the bicyclic reduction of the module
    docstring.  The surviving free primes, of product P, carry the digits of
    rho P, an integer since the normal word has the same class.  That theorem
    fixes every field of the result: its primes are letter primes of w and its
    free indices are digits below their primes, so _normal_word builds the
    letters directly.
    """
    free: dict[int, int] = {}  # per prime, unmatched free letters so far
    power = []
    b, d = 0, 1
    for p, i in reversed(w):
        if i == p:
            b *= p
            k = free.get(p)
            if k:
                free[p] = k - 1
            else:
                power.append(p)
        else:
            b += i * d
            d *= p
            free[p] = free.get(p, 0) + 1
    primes = []  # ascending, with multiplicity
    for p in sorted(free):
        primes += [p] * free[p]
    return _normal_word(b // (d // prod(primes)), primes, sorted(power))


def class_to_word(x: PicClass) -> Word:
    """The unique normal word of x whose delta is hyperdistance(1, x).

    word_to_class sends a normal word with free letters (p_1, i_1) ...
    (p_k, i_k), p_1 <= ... <= p_k, and power primes of product Q to
    M = Q/P and rho P = i_1 p_2...p_k + ... + i_{k-1} p_k + i_k, where
    P = p_1...p_k; its delta P Q is M N^2, for N = lcm(den M, den rho), exactly
    when P = N = n, for x = (a, b, n).  So the free indices are the mixed-radix
    digits of b = rho n over the primes of n, and the powers are a's primes.
    """
    return _normal_word(x.b, _primes(x.n), _primes(x.a))


def delta(w: Word) -> int:
    """Product of the letter primes; the hyper-distance morphism on the monoid C."""
    return prod(l.p for l in w)


def mul(w1: Word, w2: Word) -> Word:
    return normalize(tuple(w1) + tuple(w2))


def divide_left(y: Word, x: Word) -> Word | None:
    """The unique z with y = mul(z, x), or None; free words only.

    A free z has delta(z) delta(x) = delta(y): its primes are y's letter primes
    less x's, and N_y = N_x + N_z P_x (free_value), so z's indices are the digits
    of (N_y - N_x)/P_x, if P_x divides it.  Then mul(z, x) and y are free normal
    words of one class, and such a word is fixed by its class, so they are equal;
    mul returns normal words, so y must be normal.
    """
    if not (is_free(y) and is_free(x)):
        raise ValueError("outside monoid C")
    primes = Counter(l.p for l in y)
    primes.subtract(l.p for l in x)
    if not is_normal(y) or min(primes.values(), default=0) < 0:
        return None
    (n_y, _), (n_x, p_x) = free_value(y), free_value(x)
    r, rem = divmod(n_y - n_x, p_x)
    return _normal_word(r, sorted(primes.elements()), []) if rem == 0 else None


# ---------------------------------------------------------------------------
# Normal-word anatomy and text format
# ---------------------------------------------------------------------------


def split_normal(w: Word) -> tuple[Word, Word]:
    """(free prefix, power suffix) of a normal word."""
    if not is_normal(w):
        raise ValueError("word is not in normal form")
    k = next((j for j, l in enumerate(w) if l.is_power), len(w))
    return w[:k], w[k:]


def format_word(w: Word) -> str:
    if not w:
        return "e"
    return "*".join(f"P[{l.p},{l.i}]" for l in w)


def _text_pairs(s: str):
    for tok in s.split("*"):
        if not (tok.startswith("P[") and tok.endswith("]")):
            raise ValueError(f"bad letter {tok!r}")
        try:
            p, i = (int(v) for v in tok[2:-1].split(","))
        except ValueError as e:
            raise ValueError(f"bad letter {tok!r}") from e
        yield p, i


def parse_word(text: str) -> Word:
    s = text.replace(" ", "")
    if s in ("", "e", "1"):
        return EMPTY
    if s.startswith("["):
        return letters(json.loads(s))
    return letters(_text_pairs(s))
