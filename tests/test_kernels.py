import numpy as np

from arithsite import kernels


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


def test_newton_chain_polishes():
    # chain for (3x^2-2x^3) applied twice; perturb true roots of the composite
    chain = np.array([[0, 0, 3, -2], [0, 0, 3, -2]], dtype=np.complex128)
    alpha = 0.5
    xs = kernels.dk_batch(np.array([[0, 0, 3, -2]], dtype=np.complex128) - np.array([alpha, 0, 0, 0]))
    lvl1 = xs.reshape(-1)
    batch = np.tile(np.array([0, 0, 3, -2], dtype=np.complex128), (3, 1))
    batch[:, 0] -= lvl1
    lvl2 = kernels.dk_batch(batch).reshape(-1)
    noisy = lvl2 + 1e-6
    polished = kernels.newton_chain(chain, noisy, alpha, iters=10)
    resid = np.abs(kernels.chain_values(chain, polished) - alpha)
    assert np.max(resid) < 1e-12


def test_chain_values_composition_order():
    # chain rows are outermost first: f(x) = row0(row1(x))
    sq = np.array([0, 0, 1], dtype=np.complex128)  # x^2
    cube = np.array([0, 0, 0, 1], dtype=np.complex128)  # x^3
    chain = np.vstack([np.pad(sq, (0, 1)), cube])
    x = np.array([2.0 + 0j])
    assert kernels.chain_values(chain, x)[0] == 64.0  # (2^3)^2


def test_min_pairwise_gap():
    xs = np.array([0.0, 1.0, 1.5 + 2j], dtype=np.complex128)
    assert abs(kernels.min_pairwise_gap(xs) - 1.0) < 1e-15
    assert kernels.min_pairwise_gap(xs[:1]) > 1e100


def test_count_distinct():
    xs = np.array([0.0, 1e-12, 1.0, 1.0 + 5e-13, 2.0], dtype=np.complex128)
    assert kernels.count_distinct(xs, 1e-9) == 3
    assert kernels.count_distinct(xs, 1e-15) == 5


def test_warmup_runs():
    kernels.warmup()
