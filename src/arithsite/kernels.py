"""Floating-point kernels for the preimage-tree builder.

The only hot loops in this package are numeric: batched root solves under
one generator and one Horner rule for the Newton step and chain values, each
vectorised over its batch.  A ``Row`` holds what the kernels read of one
generator: its ascending float row, that row over its leading coefficient,
the derivative row and whether the monic row is real.  The tree builder makes
one per generator per tree, so no level rebuilds them.  ``dk_batch`` returns
finished roots: degree-2 rows by the quadratic formula in its cancellation-free
form, which gives each root to working accuracy and takes no Newton step
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
section 1.8); every other degree by the eigenvalues of the stacked companion
matrices, polished by one Newton step (``newton_chain``).  Per level, the tree
builder makes that one call; per tree, it finds every residual in one pass
(``chain_values``) and certifies every level with one ``horner`` pass over a
stack of each sibling group's coefficient row.  ``min_pairwise_gap`` stays
only as a traced name.

The caller owns ``np.errstate``: no kernel enters one, and build_tree ignores
every float error for a whole tree, since it refuses what overflows or turns
NaN.  A direct call with huge or non-finite input needs its own.
"""

from __future__ import annotations

import numpy as np

# no compiled kernel path exists; perfbench/run.py records this in every run
HAS_NUMBA = False


class Row:
    """One generator's ascending float row and what the kernels read of it.

    monic is the row over its leading coefficient, without that 1; real says
    whether monic is real above its constant term, which each parent replaces.
    """

    __slots__ = ("row", "monic", "drow", "real")

    def __init__(self, row) -> None:
        self.row = row = np.asarray(row, dtype=np.complex128)
        self.monic = row[:-1] / row[-1]
        self.drow = row[1:] * np.arange(1, len(row))
        self.real = bool((self.monic[1:].imag == 0).all())


def horner(row: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The polynomial with ascending coefficients row, evaluated at each of v.  row may be a
    coefficient stack, row[j] broadcasting against v: of shape (d + 1, G, 1), it evaluates
    each of the G rows of v under its own coefficients."""
    if len(row) == 1:
        return np.full_like(v, row[0])
    acc = v * row[-1] + row[-2]
    for c in row[-3::-1]:
        acc = acc * v + c
    return acc


def dk_batch(g: Row, values: np.ndarray) -> np.ndarray:
    """Roots of g.row - w for each parent value w of values, shape (len(values), d), finished.

    Each row is divided by its leading coefficient.  A degree-2 row
    z^2 + p z + r is solved in closed form without cancellation:
    q = -(p + s sqrt(p^2 - 4r)) / 2, the sign s making Re(conj(p) s sqrt(p^2 - 4r)) >= 0,
    and the roots q and r / q, or conj(q) when the row is real and q is not.
    These take no Newton step: near a double root a step would move them by
    rounding over a small derivative.  Other degrees, and the degree-2 rows
    where that is not finite (q = 0, the double root 0, p^2 or 4r overflowing,
    or a row that is not finite), take the eigenvalues of the stacked companion
    matrices (Edelman and Murakami, Math. Comp. 64, 1995), which LAPACK finds or
    raises LinAlgError, a ValueError, for a row that is not finite, and then one
    newton_chain step on g.row - w.  The name is the Durand-Kerner solver's that
    this replaced; perfbench traces it by name.
    """
    r = (g.row[0] - values) / g.row[-1]  # the constant term of each monic row
    if len(g.monic) != 2:
        return _companion_roots(g, r, values)
    # a one-element array, not the scalar monic[1]: numpy's complex array loops
    # may fuse a multiply and an add where its scalar arithmetic rounds twice
    p = g.monic[1:]
    root = np.sqrt(p * p - 4 * r)
    roots = np.empty((len(r), 2), dtype=np.complex128)
    roots[:, 0] = q = -0.5 * p - np.copysign(0.5, (p.conjugate() * root).real) * root
    mirror = (r.imag == 0) & (q.imag != 0) if g.real else False
    roots[:, 1] = np.where(mirror, q.conjugate(), r / q)
    if not np.isfinite(roots).all():
        wide = ~np.isfinite(roots).all(axis=1)
        roots[wide] = _companion_roots(g, r[wide], values[wide])
    return roots


def _companion_roots(g: Row, r: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrix of g.monic with each constant term of r, the
    monic row of g.row - w for the w of values, after one Newton step on that row."""
    m, d = len(r), len(g.monic)
    companion = np.zeros((m, d, d), dtype=np.complex128)
    companion[:, 0, :-1] = -g.monic[:0:-1]  # the first row is the monic row, reversed and negated
    companion[:, 0, -1] = -r
    companion.reshape(m, d * d)[:, d :: d + 1] = 1.0  # the subdiagonal
    return newton_chain(g, np.linalg.eigvals(companion), values[:, None])


def newton_chain(g: Row, xs: np.ndarray, targets) -> np.ndarray:
    """One Newton step from xs towards roots of g.row - targets (one target, or one per point)."""
    dv = horner(g.drow, xs)
    dv = np.where(dv == 0.0, 1.0, dv)
    return xs - (horner(g.row, xs) - targets) / dv


def chain_values(chain, levels: list[np.ndarray]) -> np.ndarray:
    """chain[0] o ... o chain[k] at each point of levels[k], in one pass from the innermost
    row, which the points of levels[k] join at chain[k]; in the order of np.concatenate(levels)."""
    v = np.empty(0, dtype=np.complex128)
    for row, points in zip(chain[::-1], levels[::-1]):
        v = horner(row, np.concatenate([points, v]))
    return v


def min_pairwise_gap(xs: np.ndarray) -> float:
    xs = np.ascontiguousarray(xs, dtype=np.complex128)
    if xs.shape[0] < 2:
        return np.inf
    d = np.abs(xs[:, None] - xs[None, :])
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def warmup() -> None:
    """Run every kernel once on tiny inputs, paying first-call costs outside timed runs:
    a degree-2 row for the closed form and a degree-3 row for the companion eigenvalues."""
    zero = np.zeros(1, dtype=np.complex128)
    with np.errstate(all="ignore"):
        g = Row([-1.0, 0.0, 1.0])
        r = dk_batch(g, zero)
        dk_batch(Row([-1.0, 0.0, 0.0, 1.0]), zero)
        newton_chain(g, r[0], 0.0)
        min_pairwise_gap(r[0])
