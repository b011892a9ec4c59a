from fractions import Fraction

import numpy as np
import pytest

from arithsite import kernels
from arithsite.belyi import b_dk
from oracles import count_distinct


def _random_coeffs(rng, m, d):
    c = rng.normal(size=(m, d + 1)) + 1j * rng.normal(size=(m, d + 1))
    c[:, -1] += 2.0
    return c.astype(np.complex128)


def test_dk_batch_against_numpy_roots():
    rng = np.random.default_rng(1)
    coeffs = _random_coeffs(rng, 40, 3)
    roots = kernels.dk_batch(coeffs)
    for t in range(coeffs.shape[0]):
        expected = np.sort_complex(np.roots(coeffs[t, ::-1]))
        got = np.sort_complex(roots[t])
        assert np.max(np.abs(expected - got)) < 1e-9


def test_dk_batch_higher_degree():
    rng = np.random.default_rng(2)
    coeffs = _random_coeffs(rng, 10, 7)
    roots = kernels.dk_batch(coeffs)
    vals = np.zeros_like(roots)
    for k in range(coeffs.shape[1] - 1, -1, -1):
        vals = vals * roots + coeffs[:, k][:, None]
    assert np.max(np.abs(vals)) < 1e-8


def test_dk_batch_against_sympy_nroots():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    ws = [Fraction(1, 3), Fraction(1, 2), Fraction(5, 7)]
    for d in range(2, 11):
        for k in range(1, d):
            poly = b_dk(d, k).poly
            rows = np.tile(np.array([complex(c) for c in poly.coeffs]), (len(ws), 1))
            rows[:, 0] -= [float(w) for w in ws]
            expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(poly.coeffs))
            for w, got in zip(ws, kernels.dk_batch(rows)):
                oracle = sympy.Poly(expr - sympy.Rational(w.numerator, w.denominator), x)
                want = np.array([complex(r) for r in oracle.nroots(n=30)])
                # the roots are distinct, so nearness both ways is a bijection
                dist = np.abs(want[:, None] - got[None, :])
                assert len(got) == len(want) == d
                assert max(dist.min(axis=1).max(), dist.min(axis=0).max()) < 1e-8, (d, k, w)


def test_dk_batch_degree_one_rows():
    # the (m, 2) edge: a 1x1 companion matrix per row, the root -c0/c1
    coeffs = np.array([[-0.5, 1.0], [3.0, -2.0], [1j, 4.0]], dtype=np.complex128)
    roots = kernels.dk_batch(coeffs)
    assert roots.shape == (3, 1)
    assert np.allclose(roots[:, 0], -coeffs[:, 0] / coeffs[:, 1], rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(np.inf, 1.0)])
def test_dk_batch_refuses_non_finite_rows(bad):
    coeffs = np.array([[-1.0, 0.0, 1.0], [2.0, 3.0, 1.0]], dtype=np.complex128)
    coeffs[1, 1] = bad
    with pytest.raises(ValueError):
        kernels.dk_batch(coeffs)


def test_newton_chain_polishes():
    # (3x^2-2x^3) applied twice: perturb the roots of each level, then polish
    # each by repeated one-row steps, level 1 towards alpha and level 2
    # towards its parents; the composite then maps level 2 onto alpha
    row = np.array([0, 0, 3, -2], dtype=np.complex128)
    chain = np.vstack([row, row])
    alpha = 0.5
    lvl1 = kernels.dk_batch((row - np.array([alpha, 0, 0, 0]))[None, :]).reshape(-1) + 1e-6
    for _ in range(10):
        lvl1 = kernels.newton_chain(row, lvl1, alpha)
    batch = np.tile(row, (3, 1))
    batch[:, 0] -= lvl1
    polished = kernels.dk_batch(batch).reshape(-1) + 1e-6
    for _ in range(10):
        polished = kernels.newton_chain(row, polished, np.repeat(lvl1, 3))
    # level 1 joins the pass at chain[0], level 2 at chain[1]
    resid = np.abs(kernels.chain_values(chain, [lvl1, polished]) - alpha)
    assert resid.shape == (12,) and np.max(resid) < 1e-12


def test_chain_values_composition_order():
    # chain rows are outermost first: f(x) = row0(row1(x))
    sq = np.array([0, 0, 1], dtype=np.complex128)  # x^2
    cube = np.array([0, 0, 0, 1], dtype=np.complex128)  # x^3
    chain = np.vstack([np.pad(sq, (0, 1)), cube])
    x = np.array([2.0 + 0j])
    assert kernels.chain_values(chain, [np.empty(0), x]).tolist() == [64.0]  # (2^3)^2


def test_chain_values_levels_join_at_their_row():
    # a point of levels[0] is mapped by chain[0] alone, one of levels[1] by
    # chain[0] o chain[1]; the values come level by level
    sq = np.array([0, 0, 1, 0], dtype=np.complex128)  # x^2
    shift = np.array([1, 1, 0, 0], dtype=np.complex128)  # x + 1
    chain = np.vstack([sq, shift])
    levels = [np.array([3.0, 1j]), np.array([2.0, -1.0, 1j])]
    assert kernels.chain_values(chain, levels).tolist() == [9, -1, 9, 0, 2j]
    assert kernels.chain_values(chain, [np.empty(0), np.empty(0)]).shape == (0,)


def test_min_pairwise_gap():
    xs = np.array([0.0, 1.0, 1.5 + 2j], dtype=np.complex128)
    assert abs(kernels.min_pairwise_gap(xs) - 1.0) < 1e-15
    assert kernels.min_pairwise_gap(xs[:1]) > 1e100


def test_count_distinct():
    xs = np.array([0.0, 1e-12, 1.0, 1.0 + 5e-13, 2.0], dtype=np.complex128)
    assert count_distinct(xs, 1e-9) == 3
    assert count_distinct(xs, 1e-15) == 5


def test_warmup_runs():
    kernels.warmup()
