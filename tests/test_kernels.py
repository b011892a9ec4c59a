from fractions import Fraction

import numpy as np
import pytest

from arithsite import kernels
from arithsite.belyi import b_dk
from oracles import companion_roots, count_distinct

U = 2.0**-53


def _dk(row, values):
    """kernels.dk_batch under the error state that its caller owns, as in build_tree."""
    with np.errstate(all="ignore"):
        return kernels.dk_batch(kernels.Row(row), np.asarray(values, dtype=np.complex128))


def _dk_rows(coeffs):
    """The roots of each row of coeffs, each row solved under the parent value 0."""
    return np.vstack([_dk(c, [0.0]) for c in coeffs])


def _random_coeffs(rng, m, d):
    c = rng.normal(size=(m, d + 1)) + 1j * rng.normal(size=(m, d + 1))
    c[:, -1] += 2.0
    return c.astype(np.complex128)


def test_dk_batch_against_numpy_roots():
    rng = np.random.default_rng(1)
    coeffs = _random_coeffs(rng, 40, 3)
    roots = _dk_rows(coeffs)
    for t in range(coeffs.shape[0]):
        expected = np.sort_complex(np.roots(coeffs[t, ::-1]))
        got = np.sort_complex(roots[t])
        assert np.max(np.abs(expected - got)) < 1e-9


def test_dk_batch_higher_degree():
    rng = np.random.default_rng(2)
    coeffs = _random_coeffs(rng, 10, 7)
    roots = _dk_rows(coeffs)
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
            row = [complex(c) for c in poly.coeffs]
            expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(poly.coeffs))
            for w, got in zip(ws, _dk(row, [float(w) for w in ws])):
                oracle = sympy.Poly(expr - sympy.Rational(w.numerator, w.denominator), x)
                want = np.array([complex(r) for r in oracle.nroots(n=30)])
                # the roots are distinct, so nearness both ways is a bijection
                dist = np.abs(want[:, None] - got[None, :])
                assert len(got) == len(want) == d
                assert max(dist.min(axis=1).max(), dist.min(axis=0).max()) < 1e-8, (d, k, w)


def _assert_same_quadratic_roots(cases):
    # as sets, each root within 16 ulps of its condition |z| + (|p| |z| + |r|) / |z1 - z2|
    # for the monic row z^2 + p z + r of each row - w of the (row, parent values) cases,
    # which is 1 + 3 / gap at a near-double root 1
    coeffs = np.vstack([np.array(row, dtype=np.complex128) - np.outer(values, [1, 0, 0]) for row, values in cases])
    got = np.vstack([_dk(row, values) for row, values in cases])
    want = np.vstack([companion_roots(kernels.Row(row), np.asarray(values, dtype=np.complex128)) for row, values in cases])
    r, p = np.abs(coeffs[:, :-1] / coeffs[:, -1:]).T
    z = np.abs(want)
    tol = 16 * U * (z + (p[:, None] * z + r[:, None]) / np.abs(want[:, :1] - want[:, 1:]))
    straight = (np.abs(got - want) <= tol).all(axis=1)
    crossed = (np.abs(got[:, ::-1] - want) <= tol).all(axis=1)
    assert (straight | crossed).all(), coeffs[~(straight | crossed)]


def _rows(coeffs):
    """Each row of coeffs as a case of its own, under the parent value 0."""
    return [(c, [0.0]) for c in coeffs]


def _minus(g, ws):
    return [([complex(c) for c in g.poly.coeffs], ws)]


def test_dk_batch_degree_two_closed_form_against_companion_eigenvalues():
    rng = np.random.default_rng(26)
    _assert_same_quadratic_roots(_rows(_random_coeffs(rng, 2000, 2)))
    wild = _random_coeffs(rng, 2000, 2) * np.exp(10 * rng.normal(size=(2000, 3)))
    _assert_same_quadratic_roots(_rows(wild))
    # B_{2,1} - w = -z^2 + 2z - w: a near-double root at 1 as w -> 1, conjugate roots for w > 1
    near = [1 - 10.0**-j for j in range(1, 16)] + [1.0] + [1 + 10.0**-j for j in range(1, 16)]
    _assert_same_quadratic_roots(_minus(b_dk(2, 1), near + [2.0, 10.0, 1e3, 0.5 + 1j]))
    # B_{2,0} - w = z^2 - w: c1 = 0
    _assert_same_quadratic_roots(_minus(b_dk(2, 0), [1 / 3, 2.0, 1e-5, -1 / 3, -2.0, 1j, 1 - 1j]))


def _companion_rows(coeffs):
    return np.vstack([companion_roots(kernels.Row(c), np.zeros(1, dtype=np.complex128)) for c in coeffs])


def test_dk_batch_degree_two_double_root_at_zero():
    # c0 = c1 = 0: q = 0, and the double root 0 comes from the companion eigenvalues
    coeffs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -3j], [-1.0, 0.0, 1.0]], dtype=np.complex128)
    roots = _dk_rows(coeffs)
    assert roots[:2].tolist() == [[0, 0], [0, 0]] and sorted(roots[2].real.tolist()) == [-1, 1]


def test_dk_batch_falls_back_to_the_companion_eigenvalues():
    # p^2 or 4r overflows in the closed form: those rows, and every degree other
    # than 2, take the companion eigenvalues bit for bit
    wide = np.array([[1.0, 1e200, 1.0], [1e-300, 1e300, 1.0], [1e308, 0.0, 1.0], [-1.0, 0.0, 1.0]])
    got = _dk_rows(wide)
    assert np.array_equal(got[:3], _companion_rows(wide[:3])) and np.isfinite(got).all()
    assert abs(got[0]).max() == 1e200 and sorted(got[3].real.tolist()) == [-1, 1]
    rng = np.random.default_rng(27)
    for d in (1, 3, 4, 7):
        coeffs = _random_coeffs(rng, 50, d)
        assert np.array_equal(_dk_rows(coeffs), _companion_rows(coeffs))
    # and a degree-3 row under many parents, as build_tree solves a level
    row, ws = _random_coeffs(rng, 1, 3)[0], rng.normal(size=40) + 1j * rng.normal(size=40)
    assert np.array_equal(_dk(row, ws), companion_roots(kernels.Row(row), ws))


def test_dk_batch_degree_one_rows():
    # the (m, 2) edge: a 1x1 companion matrix per row, the root -c0/c1
    coeffs = np.array([[-0.5, 1.0], [3.0, -2.0], [1j, 4.0]], dtype=np.complex128)
    roots = _dk_rows(coeffs)
    assert roots.shape == (3, 1)
    assert np.allclose(roots[:, 0], -coeffs[:, 0] / coeffs[:, 1], rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(np.inf, 1.0)])
def test_dk_batch_refuses_non_finite_rows(bad):
    coeffs = np.array([[-1.0, 0.0, 1.0], [2.0, 3.0, 1.0]], dtype=np.complex128)
    coeffs[1, 1] = bad
    with pytest.raises(ValueError):
        _dk_rows(coeffs)
    # and a parent value that is not finite, under a finite row
    with pytest.raises(ValueError):
        _dk(coeffs[0], [0.5, bad])


def test_newton_chain_polishes():
    # (3x^2-2x^3) applied twice: perturb the roots of each level, then polish
    # each by repeated one-row steps, level 1 towards alpha and level 2
    # towards its parents; the composite then maps level 2 onto alpha
    row = np.array([0, 0, 3, -2], dtype=np.complex128)
    g = kernels.Row(row)
    chain = np.vstack([row, row])
    alpha = 0.5
    lvl1 = _dk(row, [alpha]).reshape(-1) + 1e-6
    with np.errstate(all="ignore"):
        for _ in range(10):
            lvl1 = kernels.newton_chain(g, lvl1, alpha)
    polished = _dk(row, lvl1).reshape(-1) + 1e-6
    with np.errstate(all="ignore"):
        for _ in range(10):
            polished = kernels.newton_chain(g, polished, np.repeat(lvl1, 3))
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


def test_horner_reads_one_row_per_group():
    # a coefficient stack of shape (d + 1, G, 1) evaluates each of the G groups of
    # points under its own row, bit for bit as horner on that row alone: the tree
    # certificate evaluates every sibling group of a tree so, complex and absolute
    rng = np.random.default_rng(3)
    for d in range(1, 13):
        for count in (1, 5, 64, 729):
            rows = _random_coeffs(rng, count, d) * 10.0 ** rng.integers(-3, 4, size=(count, 1))
            points = 2 * (rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d)))
            stack = rows.T[:, :, None]
            for coef, v in ((stack, points), (np.abs(stack), np.abs(points))):
                got = kernels.horner(coef, v)
                want = np.vstack([kernels.horner(c, z) for c, z in zip(coef[:, :, 0].T, v)])
                assert got.shape == (count, d) and np.array_equal(got, want), (d, count)


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
