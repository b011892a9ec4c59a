"""Truncated preimage trees for sequences of degree-d dynamical Belyi maps.

Level k holds the d^k complex roots of F_k - alpha, F_k = B_1 o ... o B_k.
They are distinct by a theorem: BelyiPoly proves exactly that each B_j fixes
0 and 1 with finite critical values in {0, 1}; by the chain rule so do the
critical values of F_k; and genericity_check demands 0 < alpha < 1.
``squarefree_level`` answers ``ar squarefree`` by the same theorem.

Each level is certified.  Under a float parent w within rho of the true
parent w*, the siblings z_1..z_d are the roots kernels.dk_batch finds for the
float row of B_k - w: by the quadratic formula at degree 2, and otherwise by
the companion eigenvalues after one Newton step on that row.  With f = B_k - w*,
c its leading coefficient and the Weierstrass corrections
W_i = f(z_i) / (c prod_{m != i} (z_i - z_m)), f/c is the characteristic
polynomial of diag(z) - W 1^T, so by Gerschgorin the disks D(z_i, d|W_i|)
cover the roots, and m of them that miss the others hold exactly m
(Carstensen, Numer. Math. 59, 1991; Neumaier, J. Comput. Appl. Math. 156,
2003).  build_tree bounds d|W_i| from above by

  R_i = d (|r_i| + 8(d+2)u H_i + rho) / (|c| prod_{m != i} |z_i - z_m| (1 - 4(d+3)u))

with u = 2^-53, r_i the computed row residual at z_i minus w, and
H_i = sum_j |c_j||z_i|^j + |w|.  In Higham's model (Accuracy and Stability
of Numerical Algorithms, 2nd ed., 2002) a complex product errs by at most
sqrt(2) gamma_2 (Lemma 3.5) and a sum by u, so d Horner steps and the
subtraction of w err by at most ((2 sqrt(2) + 1) d + 1) u H_i (section 5.1);
rounding the exact coefficients adds u H_i, and H_i in floats is low by at
most gamma_{4d+3}: in all below 8(d+2)u H_i while du < 0.01.  Each gap
|z_i - z_m| errs by 3u and each of the d products by u, so 4du covers the
denominator and 12u the ten roundings that form R_i and compare the disks
(the model excludes underflow).

A level is refused with "sibling disks overlap at level k" unless every two
siblings have |z_i - z_m| > R_i + R_m and every radius is finite, and with
"polish failed at level k" for a non-finite root.  Otherwise each disk holds
exactly one true preimage of the true parent, so parenthood is exact by
construction.  R_i is the rho of z_i's children; rho = |alpha - float(alpha)|
at level 0, exact through Fraction and rounded up.  Siblings sort in complex
order, (re, im), per group; ArborealTree.tol = max(1e-9, largest radius).

The radii never feed the roots: level k is solved from the float parent
values alone, and a radius enters only the next level's radii, as its rho.  So
build_tree solves every level first and certifies the whole tree after, in one
_disk_radii pass over the sibling groups of all levels, stacked in level order
with each group's own coefficient row: the residuals and H_i are one Horner
pass, the gap products and denominators one pass, and only R_i's recurrence
through rho runs level by level.  A refusal keeps its level: the first level
whose disks fail is named.  A level solved under one that would have been
refused may fail to polish or to solve (LAPACK raises LinAlgError, a
ValueError); the levels below it are then certified first, and their first
overlap is the refusal, ahead of that failure.

build_tree makes one kernels.Row per generator per tree, which every level of
that generator reads, and runs the levels, the certificate and the residual
pass under one np.errstate that ignores every float error: what overflows or
turns NaN is refused by the finiteness tests above.  The kernels enter no
errstate of their own.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction

from . import MAX_EXACT_DEGREE
from .belyi import BelyiPoly, black_count, white_count
from .ratpoly import PolyQ

# Size caps, each on a count that grows as d^n with the depth n.
# MAX_LEAVES bounds the numeric tree: the leaves of build_tree.
# MAX_EXACT_DEGREE (from the package) bounds the exact composite of composite,
# the tests' oracle for squarefree_level, which builds no composite.
MAX_LEAVES = 2000


def _check_gens(gens: list[BelyiPoly]) -> int:
    if not gens:
        raise ValueError("need at least one generator")
    d = gens[0].degree
    if any(g.degree != d for g in gens):
        raise ValueError("generators must share one degree")
    return d


def _check_size(d: int, n: int, cap: int, what: str) -> None:
    """Refuse d^n > cap; the depth test keeps d^n from being computed for a
    huge n, and bounds the depth of degree-1 sequences, where d^n stays 1."""
    if n > cap.bit_length():
        raise ValueError(f"refusing depth {n} > {cap.bit_length()} under the cap of {cap} {what}")
    if d**n > cap:
        raise ValueError(f"refusing d^n = {d**n} > {cap} {what}")


def _factor(gens: list[BelyiPoly], k: int) -> BelyiPoly:
    """The level-k map B_{i_k}; periodic sequences extend cyclically."""
    return gens[(k - 1) % len(gens)]


def genericity_check(gens: list[BelyiPoly], alpha: Fraction) -> bool:
    """True when no generator maps alpha = p/q to 0 or 1.  By the rational root
    theorem P(p/q) in {0, 1} needs q to divide P's leading integer numerator, so
    P(p/q), an integer of about q^d over q^d, is evaluated only then."""
    _check_gens(gens)
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    q = alpha.denominator
    return all(g.poly.num[-1] % q or g.poly(alpha) not in (0, 1) for g in gens)


def composite(gens: list[BelyiPoly], n: int) -> PolyQ:
    """B_{i_1} o ... o B_{i_n} with exact coefficients, folded from the left (by
    associativity), so the inner map of each compose is one generator."""
    _check_size(_check_gens(gens), n, MAX_EXACT_DEGREE, "exact degree")
    f = PolyQ.x()
    for k in range(1, n + 1):
        f = f.compose(_factor(gens, k).poly)
    return f


def squarefree_level(gens: list[BelyiPoly], alpha: Fraction, n: int) -> bool:
    """Whether F_n - alpha has simple roots.  By the chain rule, always outside {0, 1}.
    At 0, F_n'(z) = prod B_j'(u_j) for u_n = z, u_{j-1} = B_j(u_j), u_0 = 0; no u_j is
    1 (B_j fixes 1), so a factor vanishes iff u_j is a multiple root of B_j, which
    u_0 = ... = u_{j-1} = 0 reaches: so iff each B_j up to level n has d roots; 1 alike."""
    if n < 1:
        raise ValueError("need n >= 1")
    d = _check_gens(gens)
    count = {0: black_count, 1: white_count}.get(Fraction(alpha))
    return count is None or all(count(g) == d for g in gens[:n])


class ArborealTree(namedtuple("ArborealTree", "degree alpha tol levels max_residual radii")):
    """degree, alpha (a Fraction), and tol, within which every node lies of its
    true preimage; per level, the nodes as (re, im, parent index at the previous
    level), and each node's inclusion radius in the same order; the largest
    residual |F_k(node) - alpha|."""

    __slots__ = ()

    def leaves(self) -> int:
        return len(self.levels[-1])


U = 2.0**-53  # unit roundoff of float64


def _disk_radii(
    chain: list[kernels.Row], groups: list[np.ndarray], values: list[np.ndarray], rho: np.ndarray
) -> np.ndarray:
    """The radii of every level's sibling groups, of shape (G, d), the groups in level order
    as np.concatenate(groups) holds them.  groups[k-1], of shape (P, d), holds the roots of
    chain[k-1].row - w for each w of values[k-1], and rho is the radius of values[0].  Raises "sibling disks overlap at level k" for the first level
    with a radius that is not finite or two sibling disks that meet.  The caller owns
    np.errstate: overflow and NaN make a radius that is not finite."""
    import numpy as np  # only the numeric trees load numpy

    from . import kernels

    n = len(groups)
    if n == 0:
        return np.empty((0, 1))
    d = groups[0].shape[1]
    sizes = [len(g) for g in groups]
    ends = np.cumsum(sizes).tolist()  # where each level ends in the stack
    # the groups of all levels in level order, each beside its own coefficient row, of shape
    # (d + 1, G, 1): the residuals and sizes of the whole tree are one Horner pass each
    z, w = np.concatenate(groups), np.concatenate(values[:n])[:, None]
    coef = np.repeat([row.row for row in chain[:n]], sizes, axis=0).T[:, :, None]
    resid = np.abs(kernels.horner(coef, z) - w)
    size = kernels.horner(np.abs(coef), np.abs(z)) + np.abs(w)
    s = resid + 8 * (d + 2) * U * size
    gaps = np.abs(z[:, :, None] - z[:, None, :])
    gaps.reshape(-1, d * d)[:, :: d + 1] = 1.0  # the diagonal, out of the product
    den = np.abs(coef[-1]) * np.prod(gaps, axis=2) * (1 - 4 * (d + 3) * U)
    radii = np.empty_like(s)
    for a, b in zip([0, *ends], ends):
        radii[a:b] = d * (s[a:b] + rho[:, None]) / den[a:b]  # a level's radii enter the next's, as its rho
        rho = radii[a:b].reshape(-1)
    gaps.reshape(-1, d * d)[:, :: d + 1] = np.inf  # and out of the apartness test
    ok = (gaps > radii[:, :, None] + radii[:, None, :]).all(axis=(1, 2))
    ok &= np.isfinite(den).all(axis=1) & np.isfinite(radii).all(axis=1)
    if not ok.all():
        k = np.searchsorted(ends, np.argmin(ok), side="right") + 1
        raise ValueError(f"sibling disks overlap at level {k}")
    return radii


def build_tree(gens: list[BelyiPoly], alpha, n: int) -> ArborealTree:
    import numpy as np

    from . import kernels

    d = _check_gens(gens)
    alpha = Fraction(alpha)
    if n < 0:
        raise ValueError("need n >= 0")
    _check_size(d, n, MAX_LEAVES, "leaves")
    if not genericity_check(gens, alpha):
        raise ValueError("alpha is not generic for the generators")

    w = float(alpha)
    err = abs(alpha - Fraction(w))
    rho = np.array([float(err) if float(err) >= err else np.nextafter(float(err), 1.0)])
    values = [np.array([complex(w)])]  # values[k] holds level k's nodes, in order
    groups: list[np.ndarray] = []  # groups[k-1] holds level k's siblings, shape (P, d)
    # one error state for the whole tree: what overflows or turns NaN is refused below
    with np.errstate(all="ignore"):
        rows = [kernels.Row([c / g.poly.den for c in g.poly.num]) for g in gens]
        chain = [rows[(k - 1) % len(rows)] for k in range(1, n + 1)]  # chain[k-1] is B_{i_k}
        try:
            for k, row in enumerate(chain, 1):
                # each child is solved under its own parent, so parenthood is exact
                roots = kernels.dk_batch(row, values[-1])
                if not np.isfinite(roots).all():
                    raise ValueError(f"polish failed at level {k}: non-finite root")
                groups.append(np.sort(roots, axis=1))  # complex order: (re, im)
                values.append(groups[-1].reshape(-1))
        except ValueError:  # LinAlgError too: an overlap below the failed level comes first
            _disk_radii(chain, groups, values, rho)
            raise
        radii = _disk_radii(chain, groups, values, rho)
        residuals = np.abs(kernels.chain_values([row.row for row in chain], values[1:]) - complex(alpha))
    # every level's nodes and radii, the root's first, as lists in one pass each; + 0.0 makes
    # a signed zero, such as the imaginary part of -(-1/3 + 0j), read 0.0
    nodes = np.concatenate(values)
    re, im = (nodes.real + 0.0).tolist(), (nodes.imag + 0.0).tolist()
    radius = np.concatenate([rho, radii.reshape(-1)]).tolist()
    parent_of = (np.arange(d**n) // d).tolist()  # the parents of level k are its first d^k
    levels, radii_out, a = [((w, 0.0, -1),)], [(radius[0],)], 1
    for level in values[1:]:
        b = a + len(level)
        levels.append(tuple(zip(re[a:b], im[a:b], parent_of)))
        radii_out.append(tuple(radius[a:b]))
        a = b
    tol = max(1e-9, max(radius))
    return ArborealTree(d, alpha, tol, tuple(levels), float(residuals.max(initial=0.0)), tuple(radii_out))


def tree_dot(t: ArborealTree) -> str:
    lines = ["digraph arboreal {", '  rankdir=BT;']
    for k, level in enumerate(t.levels):
        for idx, (re, im, parent) in enumerate(level):
            label = f"{re:.6g}{im:+.6g}i"
            lines.append(f'  n{k}_{idx} [label="{label}"];')
            if parent >= 0:
                lines.append(f"  n{k}_{idx} -> n{k - 1}_{parent};")
    lines.append("}")
    return "\n".join(lines)


def tree_json(t: ArborealTree) -> str:
    return json.dumps(
        {
            "degree": t.degree,
            "alpha": str(t.alpha),
            "tol": t.tol,
            "max_residual": t.max_residual,
            "levels": [
                [{"value": [re, im], "parent": parent} for re, im, parent in level]
                for level in t.levels
            ],
        }
    )
