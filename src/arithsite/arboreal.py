"""Truncated preimage trees for sequences of degree-d dynamical Belyi maps.

Level k holds the d^k complex roots of F_k - alpha, F_k = B_1 o ... o B_k.
They are distinct by a theorem: BelyiPoly proves exactly that each B_j fixes
0 and 1 with finite critical values in {0, 1}; by the chain rule so do the
critical values of F_k; and genericity_check demands 0 < alpha < 1.
(``squarefree_level`` decides the same fact exactly, for ``ar squarefree``.)

Each level is certified.  Under a float parent w within rho of the true
parent w*, the siblings z_1..z_d are the companion-matrix eigenvalues of the
float row of B_k - w, after one Newton step on that row.  With f = B_k - w*,
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
at level 0, exact through Fraction and rounded up.  Siblings are ordered by
(re, im), and ArborealTree.tol = max(1e-9, largest radius).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .belyi import BelyiPoly
from .ratpoly import MAX_EXACT_DEGREE, PolyQ, poly_gcd

# Size caps, each on a count that grows as d^n with the depth n.
# MAX_LEAVES bounds the numeric tree: the leaves of build_tree.
# MAX_EXACT_DEGREE (from ratpoly) bounds the exact composite of composite
# and squarefree_level.
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
    """True when no generator maps alpha to 0 or 1."""
    _check_gens(gens)
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    return all(g.poly(alpha) not in (0, 1) for g in gens)


def composite(gens: list[BelyiPoly], n: int) -> PolyQ:
    """B_{i_1} o ... o B_{i_n} with exact coefficients."""
    _check_size(_check_gens(gens), n, MAX_EXACT_DEGREE, "exact degree")
    f = PolyQ.x()
    for k in range(n, 0, -1):
        f = _factor(gens, k).poly.compose(f)
    return f


def squarefree_level(gens: list[BelyiPoly], alpha: Fraction, n: int) -> bool:
    """Exact certificate that the level-n composite minus alpha has simple roots."""
    if n < 1:
        raise ValueError("need n >= 1")
    f = composite(gens, n) - PolyQ.const(Fraction(alpha))
    return poly_gcd(f, f.derivative()).degree == 0


@dataclass(frozen=True)
class ArborealTree:
    degree: int
    alpha: Fraction
    # every node lies within tol of its true preimage
    tol: float
    # per level: list of (re, im, parent index at previous level)
    levels: tuple[tuple[tuple[float, float, int], ...], ...]
    max_residual: float
    # per level: the inclusion radius of each node, in the order of levels
    radii: tuple[tuple[float, ...], ...]

    def leaves(self) -> int:
        return len(self.levels[-1])


U = np.finfo(np.float64).eps / 2  # unit roundoff


def _disk_radii(row: np.ndarray, z: np.ndarray, w: np.ndarray, rho: np.ndarray) -> np.ndarray | None:
    """Radii of the sibling groups z (shape (P, d)) of roots of row - w, each w within rho
    of its true parent; None unless all are finite and each group's disks disjoint."""
    d = z.shape[1]
    eye = np.eye(d, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        resid = np.abs(kernels.horner(row, z) - w[:, None])
        size = kernels.horner(np.abs(row), np.abs(z)) + np.abs(w)[:, None]
        gaps = np.where(eye, 1.0, np.abs(z[:, :, None] - z[:, None, :]))
        den = np.abs(row[-1]) * np.prod(gaps, axis=2) * (1 - 4 * (d + 3) * U)
        radii = d * (resid + 8 * (d + 2) * U * size + rho[:, None]) / den
        apart = (gaps > radii[:, :, None] + radii[:, None, :]) | eye
    if not (np.all(np.isfinite(den)) and np.all(np.isfinite(radii)) and np.all(apart)):
        return None
    return radii


def build_tree(gens: list[BelyiPoly], alpha, n: int) -> ArborealTree:
    d = _check_gens(gens)
    alpha = Fraction(alpha)
    if n < 0:
        raise ValueError("need n >= 0")
    _check_size(d, n, MAX_LEAVES, "leaves")
    if not genericity_check(gens, alpha):
        raise ValueError("alpha is not generic for the generators")

    w = float(alpha)
    values = np.array([complex(w)])
    err = abs(alpha - Fraction(w))
    rho = np.array([float(err) if float(err) >= err else np.nextafter(float(err), 1.0)])
    levels = [((w, 0.0, -1),)]
    radii_out = [tuple(rho.tolist())]
    chain_rows: list[np.ndarray] = []
    max_residual = 0.0
    for k in range(1, n + 1):
        fk = _factor(gens, k).poly
        row = np.array([c / fk.den for c in fk.num], dtype=np.complex128)
        chain_rows.append(row)
        batch = np.tile(row, (len(values), 1))
        batch[:, 0] -= values
        # each child is solved under its own parent, so parenthood is exact
        parent_of = np.repeat(np.arange(len(values)), d)
        roots = kernels.dk_batch(batch).reshape(-1)
        roots = kernels.newton_chain(row[None, :], roots, values[parent_of], iters=1)
        if not np.all(np.isfinite(roots)):
            raise ValueError(f"polish failed at level {k}: non-finite root")
        roots = roots[np.lexsort((roots.imag, roots.real, parent_of))]
        radii = _disk_radii(row, roots.reshape(-1, d), values, rho)
        if radii is None:
            raise ValueError(f"sibling disks overlap at level {k}")
        rho = radii.reshape(-1)
        radii_out.append(tuple(rho.tolist()))
        residuals = np.abs(kernels.chain_values(np.vstack(chain_rows), roots) - complex(alpha))
        max_residual = max(max_residual, float(residuals.max()))
        values = roots
        levels.append(tuple(zip(roots.real.tolist(), roots.imag.tolist(), parent_of.tolist())))
    tol = max(1e-9, max(max(r) for r in radii_out))
    return ArborealTree(d, alpha, tol, tuple(levels), max_residual, tuple(radii_out))


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
