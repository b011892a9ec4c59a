"""Floating-point kernels for the preimage-tree builder.

The only hot loops in this package are numeric: batched root solves over
same-degree polynomials and one Horner rule for the Newton step and chain
values, each vectorised over its batch.  Degree-2 rows are solved by the
quadratic formula in its cancellation-free form; every other degree by the
eigenvalues of the stacked companion matrices.  The tree builder polishes
the roots with one Newton step per level (``newton_chain``) and finds every
residual in one pass per tree (``chain_values``).  ``min_pairwise_gap``
stays only as a traced name.
"""

from __future__ import annotations

import numpy as np

# no compiled kernel path exists; perfbench/run.py records this in every run
HAS_NUMBA = False


def horner(row: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The polynomial with ascending coefficients row, evaluated at each of v."""
    if len(row) == 1:
        return np.full_like(v, row[0])
    acc = v * row[-1] + row[-2]
    for c in row[-3::-1]:
        acc = acc * v + c
    return acc


def dk_batch(coeffs: np.ndarray) -> np.ndarray:
    """Roots of each row polynomial (ascending coefficients), shape (m, d).

    Each row is divided by its leading coefficient; a row where that is not
    finite raises LinAlgError, a ValueError.  A degree-2 row z^2 + p z + r
    is solved in closed form without cancellation: q = -(p + s sqrt(p^2 - 4r)) / 2,
    the sign s making Re(conj(p) s sqrt(p^2 - 4r)) >= 0, and the roots q and
    r / q.  Other degrees, and the degree-2 rows where that is not finite
    (q = 0, the double root 0, or p^2 or 4r overflowing), take the eigenvalues
    of the stacked companion matrices (Edelman and Murakami, Math. Comp. 64,
    1995), which LAPACK finds or raises LinAlgError.  The name is the
    Durand-Kerner solver's that this replaced; perfbench traces it by name.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    with np.errstate(all="ignore"):
        monic = coeffs[:, :-1] / coeffs[:, -1:]  # the companion's first row, reversed and negated
        if monic.shape[1] != 2:
            return _companion_eigvals(monic)
        if not np.isfinite(monic).all():
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
        r, p = monic.T
        root = np.sqrt(p * p - 4 * r)
        roots = np.empty_like(monic)
        roots[:, 0] = q = -0.5 * p - np.copysign(0.5, (p.conjugate() * root).real) * root
        roots[:, 1] = r / q
    if not np.isfinite(roots).all():
        wide = ~np.isfinite(roots).all(axis=1)
        roots[wide] = _companion_eigvals(monic[wide])
    return roots


def _companion_eigvals(monic: np.ndarray) -> np.ndarray:
    m, d = monic.shape
    companion = np.zeros((m, d, d), dtype=np.complex128)
    companion[:, 0, :] = -monic[:, ::-1]
    companion.reshape(m, d * d)[:, d :: d + 1] = 1.0  # the subdiagonal
    return np.linalg.eigvals(companion)


def newton_chain(row: np.ndarray, xs: np.ndarray, targets) -> np.ndarray:
    """One Newton step from xs towards roots of row - targets (one target, or one per point)."""
    drow = row[1:] * np.arange(1, len(row))
    # a huge point overflows to inf or nan without a warning; build_tree refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        dv = horner(drow, xs)
        dv = np.where(dv == 0.0, 1.0, dv)
        return xs - (horner(row, xs) - targets) / dv


def chain_values(chain, levels: list[np.ndarray]) -> np.ndarray:
    """chain[0] o ... o chain[k] at each point of levels[k], in one pass from the innermost
    row, which the points of levels[k] join at chain[k]; in the order of np.concatenate(levels)."""
    v = np.empty(0, dtype=np.complex128)
    # huge points saturate to inf or nan without a warning
    with np.errstate(over="ignore", invalid="ignore"):
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
    c = np.array([[-1.0, 0.0, 1.0]], dtype=np.complex128)
    r = dk_batch(c)
    dk_batch(np.array([[-1.0, 0.0, 0.0, 1.0]], dtype=np.complex128))
    newton_chain(c[0], r[0], 0.0)
    min_pairwise_gap(r[0])
