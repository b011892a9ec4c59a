"""The Conway monoid as a string rewriting system.

Letters are pairs (p, i) over a prime p: indices 0 <= i < p are the free
letters with matrix [[1/p, i/p], [0, 1]], and i = p is the power letter
[[p, 0], [0, 1]].  Words are read left to right as matrix products acting on
classes by left multiplication, so the leftmost letter is applied last.

Rewriting sorts free letters in front of power letters and both segments by
ascending prime, cancelling a power letter immediately left of a free letter
over the same prime.  Each rewrite preserves the word's left coset exactly:
the cross-prime exchange of a power letter and the cancellation both shed an
integral shear T^s, which is propagated letter by letter to the far left
(changing free-letter indices on the way, exactly) and dropped there as a
modular-group move.  A word's class is therefore invariant under every
rewrite step, in any order.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .bigpicture import PicClass
from .primes import factorize, is_prime
from .ratpoly import Mat2Q


class Letter(NamedTuple):
    p: int
    i: int

    @property
    def is_power(self) -> bool:
        return self.i == self.p


def letter(p: int, i: int) -> Letter:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 0 <= i <= p:
        raise ValueError(f"letter index {i} out of range for prime {p}")
    return Letter(p, i)


Word = tuple[Letter, ...]
EMPTY: Word = ()


def letter_matrix(l: Letter) -> Mat2Q:
    if l.is_power:
        return Mat2Q(Fraction(l.p), Fraction(0), Fraction(0), Fraction(1))
    return Mat2Q(Fraction(1, l.p), Fraction(l.i, l.p), Fraction(0), Fraction(1))


def is_free(w: Word) -> bool:
    return all(not l.is_power for l in w)


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
# Rewriting
# ---------------------------------------------------------------------------


def _meta_commute_shear(a: Letter, b: Letter) -> tuple[Letter, Letter, int]:
    """Exchange a.b -> T^s . a'.b' with exact matrix equality, distinct primes."""
    if a.p == b.p:
        raise ValueError("no meta-commutation within a prime")
    if not a.is_power and not b.is_power:
        v = a.i * b.p + b.i
        return Letter(b.p, v // a.p), Letter(a.p, v % a.p), 0
    if a.is_power and not b.is_power:
        s, r = divmod(a.p * b.i, b.p)
        return Letter(b.p, r), a, s
    if not a.is_power and b.is_power:
        k = a.i * pow(b.p, -1, a.p) % a.p
        return b, Letter(a.p, k), (a.i - b.p * k) // a.p
    return b, a, 0


def meta_commute(a: Letter, b: Letter) -> tuple[Letter, Letter]:
    """Cross-prime exchange: returns (x, y) with a.b = x.y as class operations."""
    x, y, _ = _meta_commute_shear(a, b)
    return x, y


def _sort_key(l: Letter):
    return (l.is_power, l.p)


def _redex(a: Letter, b: Letter) -> str | None:
    if a.p == b.p:
        if a.is_power and not b.is_power:
            return "cancel"
        return None
    return "swap" if _sort_key(a) > _sort_key(b) else None


def _propagate_shear(ls: list[Letter], j: int, s: int) -> None:
    # bubble T^s from gap position j+1 to the far left, then drop it
    while j >= 0 and s != 0:
        l = ls[j]
        if l.is_power:
            s *= l.p
        else:
            tot = l.i + s
            ls[j] = Letter(l.p, tot % l.p)
            s = tot // l.p
        j -= 1


def _apply_at(ls: list[Letter], i: int) -> bool:
    kind = _redex(ls[i], ls[i + 1])
    if kind is None:
        return False
    if kind == "cancel":
        s = ls[i + 1].i
        del ls[i : i + 2]
    else:
        x, y, s = _meta_commute_shear(ls[i], ls[i + 1])
        ls[i], ls[i + 1] = x, y
    _propagate_shear(ls, i - 1, s)
    return True


def normalize(w: Word, rng=None) -> Word:
    """Rewrite to normal shape; the class of the word never changes.

    With rng given, applicable rewrites are chosen at random instead of
    leftmost-first; all schedules terminate on the same normal form.
    """
    ls = list(w)
    if rng is None:
        i = 0
        while i < len(ls) - 1:
            if _apply_at(ls, i):
                i = max(i - 1, 0)
            else:
                i += 1
    else:
        while True:
            redexes = [i for i in range(len(ls) - 1) if _redex(ls[i], ls[i + 1])]
            if not redexes:
                break
            _apply_at(ls, redexes[rng.randrange(len(redexes))])
    return tuple(ls)


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


def _primes(n: int) -> list[int]:
    """The primes of n, ascending, with multiplicity."""
    return [p for p, e in sorted(factorize(n).items()) for _ in range(e)]


def class_to_word(x: PicClass) -> Word:
    """The unique normal word of x whose delta is hyperdistance(1, x).

    word_to_class sends a normal word with free letters (p_1, i_1) ...
    (p_k, i_k), p_1 <= ... <= p_k, and power primes of product Q to
    M = Q/P and rho P = i_1 p_2...p_k + ... + i_{k-1} p_k + i_k, where
    P = p_1...p_k; its delta P Q is M N^2, for N = lcm(den M, den rho), exactly
    when P = N.  So the free indices are the mixed-radix digits of rho N over
    the primes of N, and the power suffix holds one letter per prime of M N.
    """
    n = lcm(x.m.denominator, x.rho.denominator)
    r = int(x.rho * n)
    free = []
    for p in reversed(_primes(n)):
        r, i = divmod(r, p)
        free.append(Letter(p, i))
    return tuple(reversed(free)) + tuple(Letter(p, p) for p in _primes(int(x.m * n)))


def delta(w: Word) -> int:
    """Product of the letter primes; the hyper-distance morphism on the monoid C."""
    out = 1
    for l in w:
        out *= l.p
    return out


def mul(w1: Word, w2: Word) -> Word:
    return normalize(tuple(w1) + tuple(w2))


def divide_left(y: Word, x: Word) -> Word | None:
    """The unique z with y = mul(z, x), or None; free words only."""
    if not (is_free(y) and is_free(x)):
        raise ValueError("outside monoid C")
    dy, dx = delta(y), delta(x)
    if dy % dx != 0:
        return None
    cy, cx = word_to_class(y), word_to_class(x)
    a = cy.m / cx.m
    # the class of alpha_y . alpha_x^-1
    z = class_to_word(PicClass(a, cy.rho - a * cx.rho))
    if not is_free(z) or delta(z) * dx != dy:
        return None
    if mul(z, tuple(x)) != tuple(y):
        return None
    return z


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


def _json_letter(v) -> Letter:
    """One [p, i] entry of the JSON form; p and i must be JSON integers."""
    if not (type(v) is list and len(v) == 2 and all(type(x) is int for x in v)):
        raise ValueError(f"bad letter {v!r}: need [p, i] with integer p and i")
    return letter(*v)


def parse_word(text: str) -> Word:
    s = text.replace(" ", "")
    if s in ("", "e", "1"):
        return EMPTY
    if s.startswith("["):
        return tuple(_json_letter(v) for v in json.loads(s))
    out = []
    for tok in s.split("*"):
        if not (tok.startswith("P[") and tok.endswith("]")):
            raise ValueError(f"bad letter {tok!r}")
        try:
            p, i = (int(v) for v in tok[2:-1].split(","))
        except ValueError as e:
            raise ValueError(f"bad letter {tok!r}") from e
        out.append(letter(p, i))
    return tuple(out)
