"""Floating-point kernels for the preimage-tree builder.

The only hot loops in this package are numeric: batched root solves over
same-degree polynomials (companion-matrix eigenvalues), Newton polishing
against a composition chain, and pairwise root-distance scans.  Each is one
vectorised numpy routine.  The eigenvalues are backward stable, so the tree
builder polishes them with a single Newton step.
"""

from __future__ import annotations

import numpy as np

# no compiled kernel path exists; perfbench/run.py records this in every run
HAS_NUMBA = False


def _horner(row: np.ndarray, v: np.ndarray) -> np.ndarray:
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
    companion[:, 0, :] = -coeffs[:, -2::-1] / coeffs[:, -1:]
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    return np.linalg.eigvals(companion)


def newton_chain(chain: np.ndarray, xs: np.ndarray, alpha: complex, iters: int) -> np.ndarray:
    """Polish xs as roots of chain[0] o ... o chain[-1] - alpha."""
    chain = np.asarray(chain, dtype=np.complex128)
    dchain = chain[:, 1:] * np.arange(1, chain.shape[1])
    xs = xs.astype(np.complex128)
    alpha = complex(alpha)
    # diverging points saturate to inf and stop moving
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iters):
            v = xs
            dv = np.ones_like(xs)
            for row, drow in zip(chain[::-1], dchain[::-1]):
                dv = _horner(drow, v) * dv
                v = _horner(row, v)
            dv = np.where(dv == 0.0, 1.0, dv)
            xs = xs - (v - alpha) / dv
    return xs


def chain_values(chain: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate the composition chain[0] o ... o chain[-1] at xs (innermost last)."""
    v = xs.astype(np.complex128)
    # huge points saturate to inf or nan; build_tree's scale guard refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        for row in chain[::-1]:
            v = _horner(row, v)
    return v


def min_pairwise_gap(xs: np.ndarray) -> float:
    xs = np.ascontiguousarray(xs, dtype=np.complex128)
    if xs.shape[0] < 2:
        return np.inf
    d = np.abs(xs[:, None] - xs[None, :])
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def count_distinct(xs: np.ndarray, eps: float) -> int:
    """Number of eps-clusters of the points.

    A plain flood fill over the eps-neighbour graph: the tests use it as an
    independent oracle for the tree levels, which build_tree does not call.
    """
    xs = np.ascontiguousarray(xs, dtype=np.complex128)
    n = xs.shape[0]
    label = np.full(n, -1, dtype=np.int64)
    stack = np.empty(n, dtype=np.int64)
    count = 0
    for i in range(n):
        if label[i] >= 0:
            continue
        label[i] = count
        stack[0] = i
        top = 1
        while top > 0:
            top -= 1
            a = stack[top]
            for b in range(n):
                if label[b] < 0 and abs(xs[a] - xs[b]) <= eps:
                    label[b] = count
                    stack[top] = b
                    top += 1
        count += 1
    return count


def warmup() -> None:
    """Run every kernel once on tiny inputs, paying first-call costs outside timed runs."""
    c = np.array([[-1.0, 0.0, 1.0]], dtype=np.complex128)
    r = dk_batch(c)
    newton_chain(c, r[0], 0.0, iters=1)
    min_pairwise_gap(r[0])
    count_distinct(r[0], 1e-9)
