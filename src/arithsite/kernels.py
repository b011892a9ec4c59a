"""Floating-point kernels for the preimage-tree builder.

The only hot loops in this package are numeric: batched root solves over
same-degree polynomials (companion-matrix eigenvalues) and one Horner rule
for the Newton step and chain values, each one vectorised numpy routine.
The tree builder polishes the backward-stable eigenvalues with one Newton
step per level (``newton_chain``) and finds every residual in one pass per
tree (``chain_values``).  ``min_pairwise_gap`` stays only as a traced name.
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

    They are the eigenvalues of the stacked companion matrices (Edelman and
    Murakami, Math. Comp. 64, 1995).  LAPACK converges or raises LinAlgError,
    a ValueError, as it does on an inf or nan coefficient.  The name is the
    Durand-Kerner solver's that this replaced; perfbench traces it by name.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    m, d = coeffs.shape[0], coeffs.shape[1] - 1
    companion = np.zeros((m, d, d), dtype=np.complex128)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        companion[:, 0, :] = -coeffs[:, -2::-1] / coeffs[:, -1:]
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
    """Run every kernel once on tiny inputs, paying first-call costs outside timed runs."""
    c = np.array([[-1.0, 0.0, 1.0]], dtype=np.complex128)
    r = dk_batch(c)
    newton_chain(c[0], r[0], 0.0)
    min_pairwise_gap(r[0])
