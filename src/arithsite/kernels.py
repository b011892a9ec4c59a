"""Floating-point kernels for the preimage-tree builder.

The only hot loops in this package are numeric: batched Durand-Kerner sweeps
over same-degree polynomials, Newton polishing against a composition chain,
and pairwise root-distance scans.  Each is one vectorised numpy routine.
"""

from __future__ import annotations

import numpy as np

# no compiled kernel path exists; perfbench/run.py records this in every run
HAS_NUMBA = False


# ---------------------------------------------------------------------------
# Durand-Kerner: batched simultaneous iteration
# ---------------------------------------------------------------------------


def initial_roots(coeffs: np.ndarray) -> np.ndarray:
    """Start points on per-polynomial circles; coeffs rows ascending, (m, d+1)."""
    m, n1 = coeffs.shape
    d = n1 - 1
    lead = coeffs[:, -1]
    radius = 1.0 + np.max(np.abs(coeffs[:, :-1] / lead[:, None]), axis=1) ** (1.0 / d)
    angles = 2.0 * np.pi * (np.arange(d) + 0.25) / d + 0.4
    return radius[:, None] * np.exp(1j * angles)[None, :]


def dk_batch(coeffs: np.ndarray, max_iter: int = 400, tol: float = 1e-14) -> np.ndarray:
    """Roots of each row polynomial (ascending coefficients), shape (m, d)."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    roots = initial_roots(coeffs)
    d = roots.shape[1]
    lead = coeffs[:, -1]
    eye = np.eye(d, dtype=bool)[None, :, :]
    for _ in range(max_iter):
        vals = np.zeros_like(roots)
        for k in range(coeffs.shape[1] - 1, -1, -1):
            vals = vals * roots + coeffs[:, k][:, None]
        diffs = roots[:, :, None] - roots[:, None, :]
        diffs = np.where(eye, 1.0, diffs)
        den = lead[:, None] * diffs.prod(axis=2)
        den = np.where(den == 0.0, 1e-300, den)
        w = vals / den
        roots = roots - w
        if np.max(np.abs(w)) < tol:
            break
    return roots


# ---------------------------------------------------------------------------
# Newton polish against a composition chain
# ---------------------------------------------------------------------------


def newton_chain(chain: np.ndarray, xs: np.ndarray, alpha: complex, iters: int = 6) -> np.ndarray:
    """Polish xs as roots of chain[0] o ... o chain[-1] - alpha."""
    chain = np.ascontiguousarray(chain, dtype=np.complex128)
    k, n1 = chain.shape
    dchain = np.zeros_like(chain)
    for c in range(1, n1):
        dchain[:, c - 1] = c * chain[:, c]
    xs = xs.astype(np.complex128).copy()
    alpha = complex(alpha)
    # diverging points saturate to inf and stop moving
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iters):
            v = xs.copy()
            dv = np.ones_like(xs)
            for t in range(k - 1, -1, -1):
                dvt = np.full_like(v, dchain[t, n1 - 2])
                for c in range(n1 - 3, -1, -1):
                    dvt = dvt * v + dchain[t, c]
                dv = dvt * dv
                vt = np.full_like(v, chain[t, n1 - 1])
                for c in range(n1 - 2, -1, -1):
                    vt = vt * v + chain[t, c]
                v = vt
            dv = np.where(dv == 0.0, 1.0, dv)
            xs = xs - (v - alpha) / dv
    return xs


def chain_values(chain: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate the composition chain[0] o ... o chain[-1] at xs (innermost last)."""
    v = xs.astype(np.complex128).copy()
    for t in range(chain.shape[0] - 1, -1, -1):
        acc = np.full_like(v, chain[t, -1])
        for c in range(chain.shape[1] - 2, -1, -1):
            acc = acc * v + chain[t, c]
        v = acc
    return v


# ---------------------------------------------------------------------------
# Pairwise distances
# ---------------------------------------------------------------------------


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
