"""Truncated preimage trees for sequences of degree-d dynamical Belyi maps.

Level k of the tree holds the d^k complex roots of F_k - alpha, where
F_k = B_1 o ... o B_k.  They are distinct by a theorem: BelyiPoly proves
exactly that each B_j fixes 0 and 1 with finite critical values in {0, 1};
by the chain rule each critical value of F_k is B_1 o ... o B_{j-1}(c) for
a critical value c of some B_j, so it too lies in {0, 1}; and
genericity_check demands 0 < alpha < 1.  (``squarefree_level`` decides the
same fact exactly, for ``ar squarefree`` and the tests.)  Each level solves
the degree-d preimage polynomial under every parent as companion-matrix
eigenvalues and polishes the roots with one Newton step against the full
composition chain: the eigenvalues are backward stable (Edelman and Murakami,
Math. Comp. 64, 1995), so Newton starts in its quadratic regime and further
steps only move rounding noise.  A level is refused if a root is not finite,
and if its error scale tol * (1 + max|root|^d) is not below
min(alpha, 1 - alpha): a bound that large cannot tell alpha from the critical
values 0 and 1.  Parenthood is assigned by nearest-image matching with an
explicit ambiguity guard, so the reported tree shape is a checked output, not
an artifact of the solver.
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
    tol: float
    # per level: list of (re, im, parent index at previous level)
    levels: tuple[tuple[tuple[float, float, int], ...], ...]
    max_residual: float

    def leaves(self) -> int:
        return len(self.levels[-1])


def build_tree(gens: list[BelyiPoly], alpha, n: int, tol: float = 1e-9) -> ArborealTree:
    d = _check_gens(gens)
    alpha = Fraction(alpha)
    if n < 0:
        raise ValueError("need n >= 0")
    if tol <= 0:
        raise ValueError("tol must be positive")
    _check_size(d, n, MAX_LEAVES, "leaves")
    if not genericity_check(gens, alpha):
        raise ValueError("alpha is not generic for the generators")

    levels = [((float(alpha), 0.0, -1),)]
    values = [np.array([complex(alpha)], dtype=np.complex128)]
    chain_rows: list[np.ndarray] = []
    max_residual = 0.0
    for k in range(1, n + 1):
        fk = _factor(gens, k).poly
        row = np.array([c / fk.den for c in fk.num], dtype=np.complex128)
        chain_rows.append(row)
        parents = values[k - 1]
        batch = np.tile(row, (len(parents), 1))
        batch[:, 0] -= parents
        roots = kernels.dk_batch(batch).reshape(-1)
        chain = np.vstack(chain_rows)
        roots = kernels.newton_chain(chain, roots, complex(alpha), iters=1)
        # NaN trips none of the comparisons below
        if not np.all(np.isfinite(roots)):
            raise ValueError(f"polish failed at level {k}: non-finite root")
        # one error scale for matching and residuals: the float error of
        # evaluating a degree-d row grows with |root|^d; a float64 power
        # overflows to inf, which the vacuous-scale guard below refuses
        with np.errstate(over="ignore"):
            scale = tol * (1.0 + np.max(np.abs(roots)) ** d)

        gap = kernels.min_pairwise_gap(roots)
        if gap <= 2 * tol:
            raise ValueError(f"tolerance collision at level {k}: min root gap {gap:.3e}")
        images = kernels.chain_values(row[None, :], roots)
        dist = np.abs(images[:, None] - parents[None, :])
        nearest = np.argmin(dist, axis=1)
        best = dist[np.arange(len(roots)), nearest]
        if np.any(best >= scale):
            raise ValueError(f"matching ambiguity at level {k}: image off by {best.max():.3e}")
        dist[np.arange(len(roots)), nearest] = np.inf
        if len(parents) > 1 and np.any(dist.min(axis=1) <= 10 * scale):
            raise ValueError(f"matching ambiguity at level {k}: parents too close")

        if np.any(np.bincount(nearest, minlength=len(parents)) != d):
            raise ValueError(f"matching ambiguity at level {k}: sibling group != {d}")
        # group by parent, sort siblings by (re, im)
        roots = roots[np.lexsort((roots.imag, roots.real, nearest))]
        parent_of = np.repeat(np.arange(len(parents)), d)

        residuals = np.abs(kernels.chain_values(chain, roots) - complex(alpha))
        if np.any(residuals > scale):
            raise ValueError(f"polish failed at level {k}: residual {residuals.max():.3e}")
        # a scale this large cannot tell alpha from the critical values 0, 1
        if scale >= float(min(alpha, 1 - alpha)):
            raise ValueError(f"vacuous error scale at level {k}: {scale:.3e} >= min(alpha, 1 - alpha)")
        max_residual = max(max_residual, float(residuals.max()))
        values.append(roots)
        levels.append(tuple(zip(roots.real.tolist(), roots.imag.tolist(), parent_of.tolist())))
    return ArborealTree(d, alpha, tol, tuple(levels), max_residual)


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
