import random
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arithsite import arboreal, kernels
from arithsite.belyi import BelyiPoly, b_dk
from arithsite.ratpoly import PolyQ, parse_poly, squarefree_part
from oracles import (
    companion_roots,
    count_distinct,
    eight_step_tree,
    exact_squarefree_level,
    exact_weierstrass_bounds,
    mpmath_disk_problems,
    per_level_tree,
)

B31 = b_dk(3, 1)
HALF = Fraction(1, 2)


def test_genericity_examples():
    assert arboreal.genericity_check([B31], HALF)  # B(1/2) = 1/2
    assert arboreal.genericity_check([b_dk(3, 0)], HALF)  # 1/8 not in {0, 1}
    with pytest.raises(ValueError):
        arboreal.genericity_check([B31], Fraction(1))


def test_genericity_failure():
    # x(4x-3)^2 sends 3/4 to 0, so 3/4 is not generic for it
    from arithsite.belyi import BelyiPoly
    from arithsite.ratpoly import parse_poly

    dipper = BelyiPoly(parse_poly("16*x^3-24*x^2+9*x"))
    assert not arboreal.genericity_check([dipper], Fraction(3, 4))


def test_genericity_agrees_with_exact_evaluation():
    # the rational root theorem skips P(p/q) unless q divides the leading numerator
    gens = [b_dk(d, k) for d in range(2, 7) for k in range(d)]
    gens.append(BelyiPoly(parse_poly("16*x^3-24*x^2+9*x")))
    for g in gens:
        for q in range(2, 41):
            for p in range(1, q):
                alpha = Fraction(p, q)
                assert arboreal.genericity_check([g], alpha) == (g.poly(alpha) not in (0, 1))


def test_squarefree_level_one():
    assert arboreal.squarefree_level([B31], HALF, 1)
    f = arboreal.composite([B31], 1) - PolyQ.const(HALF)
    lin = PolyQ((-HALF, 1))
    q, r = f.divmod(lin)
    assert r.is_zero() and q == PolyQ((1, 2, -2))  # -2x^2+2x+1


def test_squarefree_level_two():
    assert arboreal.squarefree_level([B31], HALF, 2)


def test_squarefree_level_degenerate_base():
    # alpha = 0 is non-generic for x^d: multiplicity d at the root
    assert not arboreal.squarefree_level([b_dk(3, 0)], Fraction(0), 1)


def test_build_tree_level_one_roots():
    t = arboreal.build_tree([B31], HALF, 1)
    vals = sorted(re for re, im, _ in t.levels[1])
    s3 = 3**0.5
    expected = sorted([0.5, (1 + s3) / 2, (1 - s3) / 2])
    assert max(abs(a - b) for a, b in zip(vals, expected)) < 1e-12
    assert all(abs(im) < 1e-12 for _, im, _ in t.levels[1])


def test_build_tree_depth_zero():
    t = arboreal.build_tree([B31], HALF, 0)
    assert len(t.levels) == 1 and t.levels[0] == ((0.5, 0.0, -1),)


def test_build_tree_runs_no_exact_certificate(monkeypatch):
    def refuse(*args):
        raise AssertionError("build_tree must not run the exact certificate")

    monkeypatch.setattr(arboreal, "composite", refuse)
    monkeypatch.setattr(arboreal, "squarefree_level", refuse)
    t = arboreal.build_tree([b_dk(3, 1), b_dk(3, 2)], Fraction(1, 3), 4)
    assert t.leaves() == 81 and t.max_residual < 1e-8


@st.composite
def _gens_alpha(draw):
    d = draw(st.integers(2, 9))
    gens = [b_dk(d, draw(st.integers(0, d - 1))) for _ in range(draw(st.integers(1, 3)))]
    den = draw(st.integers(2, 50))
    return gens, Fraction(draw(st.integers(1, den - 1)), den)


@settings(max_examples=40, deadline=None)
@given(_gens_alpha())
def test_chain_rule_theorem_against_exact_oracle(case):
    # build_tree relies on F_k - alpha being squarefree for every alpha in (0, 1)
    gens, alpha = case
    d = gens[0].degree
    for n in range(1, 7):
        if d**n > 81:
            break
        assert exact_squarefree_level(gens, alpha, n)
        assert arboreal.squarefree_level(gens, alpha, n)


def test_squarefree_level_matches_exact_composite():
    # 1500 seeded cases: degrees 1-5 (x included), 1-3 generators, depth 1-3,
    # and alpha at both critical values and off them
    rng = random.Random(16)
    alphas = [Fraction(0), Fraction(1), HALF, Fraction(2), Fraction(-3, 7)]
    answers = []
    for _ in range(300):
        d = rng.randint(1, 5)
        pool = [BelyiPoly(PolyQ.x())] if d == 1 else [b_dk(d, k) for k in range(d)]
        gens = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        n = rng.randint(1, 3)
        for alpha in alphas:
            answers.append(arboreal.squarefree_level(gens, alpha, n))
            assert answers[-1] == exact_squarefree_level(gens, alpha, n), (gens, alpha, n)
    assert len(answers) == 1500 and 100 < answers.count(False) < 1000


def _matched_error(got, want):
    """Largest |z - w| / (1 + |z|) over a matching of the nodes of got to
    distinct nodes of want on the same level, under the matched parent; None
    when the nearest siblings do not pair off.  Sibling order is not compared:
    it may flip where real parts tie to rounding."""
    match = [0]
    worst = 0.0
    for k in range(1, len(got)):
        z = np.array([complex(re, im) for re, im, _ in got[k]])
        w = np.array([complex(re, im) for re, im, _ in want[k]])
        zp = np.array([p for _, _, p in got[k]])
        wp = np.array([p for _, _, p in want[k]])
        nxt = np.empty(len(z), dtype=np.int64)
        for p in range(len(got[k - 1])):
            mine, theirs = np.flatnonzero(zp == p), np.flatnonzero(wp == match[p])
            if len(mine) != len(theirs):
                return None
            rel = np.abs(z[mine, None] - w[None, theirs]) / (1 + np.abs(z[mine, None]))
            j = rel.argmin(axis=1)
            if len(set(j.tolist())) != len(j):
                return None
            worst = max(worst, float(rel[np.arange(len(mine)), j].max()))
            nxt[mine] = theirs[j]
        match = nxt
    return worst


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_gens_alpha())
def test_one_newton_step_matches_eight(case):
    # the eigenvalues are backward stable, so further steps move only rounding
    gens, alpha = case
    d = gens[0].degree
    n = max(k for k in range(1, 7) if d**k <= 81)
    err = _matched_error(arboreal.build_tree(gens, alpha, n).levels, eight_step_tree(gens, alpha, n).levels)
    assert err is not None and err <= 1e-12


def test_one_newton_step_is_needed():
    # B_{15,8} has coefficients near 1e5: the bare eigenvalues of level 2 lie
    # 1.3e-10 (1 + |z|) from the eight-step tree, and one step lands within
    # 1.6e-11 of it
    gens, alpha = [b_dk(15, 8)], Fraction(1, 3)
    t = arboreal.build_tree(gens, alpha, 2)
    assert _matched_error(t.levels, eight_step_tree(gens, alpha, 2).levels) < 5e-11


def test_sibling_order_on_1024_leaves():
    t = arboreal.build_tree([b_dk(2, 1)], Fraction(1, 3), 10)
    for level in t.levels[1:]:
        parents = [p for _, _, p in level]
        assert parents == [i // 2 for i in range(len(level))]
        for i in range(0, len(level), 2):
            assert level[i][:2] <= level[i + 1][:2]


def _tree_or_refusal(build, gens, alpha, n):
    try:
        t = build(gens, alpha, n)
    except ValueError as e:
        return str(e)
    return t.degree, t.alpha, t.tol, t.levels, t.radii, repr(t.max_residual)


def test_build_tree_equals_the_per_level_loop():
    # the (P, d) level and the one residual pass per tree give the flat
    # per-level loop's tree bit for bit: 300 seeded B_{d,k} sequences up to
    # the leaf cap, and its refusals at the same level with the same text
    rng = random.Random(18)
    shapes = []
    for _ in range(300):
        d = rng.randint(2, 12)
        gens = [b_dk(d, rng.randint(0, d - 1)) for _ in range(rng.randint(1, 3))]
        while True:
            q = rng.randint(2, 50)
            alpha = Fraction(rng.randint(1, q - 1), q)
            if arboreal.genericity_check(gens, alpha):
                break
        n = rng.randint(1, max(k for k in range(1, 12) if d**k <= arboreal.MAX_LEAVES))
        got = _tree_or_refusal(arboreal.build_tree, gens, alpha, n)
        assert got == _tree_or_refusal(per_level_tree, gens, alpha, n), (gens, alpha, n)
        shapes.append((d, n))
    assert len(set(shapes)) > 40 and max(d**n for d, n in shapes) > 1000
    refusals = {
        (128, 127, Fraction(1, 3), 1): "sibling disks overlap at level 1",
        (100, 50, Fraction(1, 3), 1): "sibling disks overlap at level 1",
        (72, 36, Fraction(2, 7), 1): "sibling disks overlap at level 1",
        (72, 71, Fraction(2, 7), 1): "sibling disks overlap at level 1",
        (512, 256, Fraction(1, 3), 1): "polish failed at level 1: non-finite root",
        (25, 12, Fraction(1, 2), 2): "sibling disks overlap at level 2",
        (25, 23, Fraction(1, 3), 2): "sibling disks overlap at level 2",
        (26, 25, Fraction(2, 7), 2): "sibling disks overlap at level 2",
        (36, 9, Fraction(1, 3), 2): "sibling disks overlap at level 2",
    }
    for (d, k, alpha, n), message in refusals.items():
        for build in (arboreal.build_tree, per_level_tree):
            assert _tree_or_refusal(build, [b_dk(d, k)], alpha, n) == message


@pytest.mark.parametrize("failure", ["nan", "raise"])
def test_an_overlap_is_named_before_a_later_failure(monkeypatch, failure):
    # the levels are certified after they are all solved, so a level solved
    # under one that overlaps must not hide that overlap: B_{25,12} at 1/2
    # overlaps at level 2, whatever happens to level 3's solve
    solve = kernels.dk_batch

    def fail_at_level_three(g, values):
        if len(values) != (len(g.row) - 1) ** 2:  # level 3 has d^2 parents
            return solve(g, values)
        if failure == "raise":
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
        return np.full((len(values), len(g.row) - 1), np.nan, dtype=np.complex128)

    monkeypatch.setattr(kernels, "dk_batch", fail_at_level_three)
    monkeypatch.setattr(arboreal, "MAX_LEAVES", 25**3)  # three levels of degree 25
    with pytest.raises(ValueError, match="^sibling disks overlap at level 2$"):
        arboreal.build_tree([b_dk(25, 12)], HALF, 3)
    # with no overlap below it, the failure itself is the refusal
    b = b_dk(5, 2)
    assert arboreal.build_tree([b], HALF, 2).leaves() == 25
    expected = "polish failed at level 3: non-finite root" if failure == "nan" else "must not contain"
    with pytest.raises(ValueError, match=expected):
        arboreal.build_tree([b], HALF, 3)


def test_one_certificate_per_tree(monkeypatch):
    # every level is certified in exactly one _disk_radii call, whatever the
    # depth and the number of generators
    calls = []
    certify = arboreal._disk_radii

    def counted(*args):
        calls.append(args)
        return certify(*args)

    monkeypatch.setattr(arboreal, "_disk_radii", counted)
    for gens in ([b_dk(2, 1)], [b_dk(2, 0), b_dk(2, 1)], [b_dk(3, 1), b_dk(3, 2), b_dk(3, 0)]):
        for n in range(1, 7):
            calls.clear()
            assert arboreal.build_tree(gens, Fraction(1, 3), n).leaves() == gens[0].degree**n
            assert len(calls) == 1, (gens, n)


def _degree_two_sweep(count, seed):
    """A seeded sample of the depth-10 degree-2 trees [B21], [B20, B21] and [B21, B20]
    at every alpha = p/q with q < 60."""
    b21, b20 = b_dk(2, 1), b_dk(2, 0)
    cases = [
        (gens, Fraction(p, q))
        for gens in ([b21], [b20, b21], [b21, b20])
        for q in range(2, 60)
        for p in range(1, q)
        if gcd(p, q) == 1
    ]
    assert len(cases) == 3255
    return random.Random(seed).sample(cases, count)


def test_degree_two_closed_form_matches_the_companion_eigenvalues(monkeypatch):
    # the closed form and the companion eigenvalues certify the same trees, and
    # refuse the same ones at the same level: float(alpha) = 1 makes 1 a double root
    tiny = Fraction(1, 10**20)
    cases = _degree_two_sweep(60, 26) + [([b_dk(2, 1)], 1 - tiny), ([b_dk(2, 0), b_dk(2, 1)], 1 - tiny)]
    got = [_tree_or_refusal(arboreal.build_tree, gens, alpha, 10) for gens, alpha in cases]
    assert got[-2:] == ["sibling disks overlap at level 1", "sibling disks overlap at level 2"]
    monkeypatch.setattr(kernels, "dk_batch", companion_roots)
    for (gens, alpha), mine in zip(cases, got):
        theirs = _tree_or_refusal(arboreal.build_tree, gens, alpha, 10)
        if isinstance(mine, str) or isinstance(theirs, str):
            assert mine == theirs, (gens, alpha)
        else:
            assert _matched_error(mine[3], theirs[3]) <= 1e-12, (gens, alpha)


def test_degree_two_conjugate_siblings_print_in_one_order():
    # under a real parent the siblings are real or a conjugate pair; the closed
    # form gives the pair equal real parts, so the negative imaginary part is first
    pairs = 0
    for gens, alpha in _degree_two_sweep(150, 6):
        levels = arboreal.build_tree(gens, alpha, 10).levels
        for k in range(1, len(levels)):
            for (re0, im0, parent), (re1, im1, _) in zip(levels[k][::2], levels[k][1::2]):
                if levels[k - 1][parent][1] == 0.0 and (im0, im1) != (0.0, 0.0):
                    pairs += 1
                    assert re0 == re1 and im0 < 0 < im1, (gens, alpha, k)
    assert pairs > 1000


def test_degree_two_conjugate_siblings_are_exact_mirrors():
    # a real row's roots are exact conjugates, and the Newton step keeps them
    # so: B_{2,1} at depth 8, every reduced alpha = a/b with b < 40
    pairs = 0
    for b in range(2, 40):
        for a in (a for a in range(1, b) if gcd(a, b) == 1):
            levels = arboreal.build_tree([b_dk(2, 1)], Fraction(a, b), 8).levels
            for k in range(1, len(levels)):
                for (re0, im0, parent), (re1, im1, _) in zip(levels[k][::2], levels[k][1::2]):
                    if levels[k - 1][parent][1] == 0.0 and im0 != 0.0:
                        pairs += 1
                        assert (re0, im0) == (re1, -im1), (a, b, k)
    assert pairs > 3000


def test_build_tree_depth_four():
    t = arboreal.build_tree([B31], HALF, 4)
    assert [len(lv) for lv in t.levels] == [1, 3, 9, 27, 81]
    assert t.max_residual < 1e-8
    # every non-root node points at a valid parent; sibling groups have size 3
    for k in range(1, 5):
        parents = [p for _, _, p in t.levels[k]]
        assert all(0 <= p < len(t.levels[k - 1]) for p in parents)
        for p in set(parents):
            assert parents.count(p) == 3


def test_exact_numeric_agreement():
    for n in (1, 2, 3):
        t = arboreal.build_tree([B31], HALF, n)
        roots = np.array([complex(re, im) for re, im, _ in t.levels[n]])
        f = arboreal.composite([B31], n) - PolyQ.const(HALF)
        assert count_distinct(roots, 2 * t.tol) == squarefree_part(f).degree == len(roots)


@pytest.mark.parametrize(
    "gens, alpha, n",
    [
        ([B31], HALF, 2),
        ([b_dk(2, 1)], Fraction(1, 3), 2),
        ([b_dk(4, 1), b_dk(4, 3)], Fraction(1, 3), 2),
        ([b_dk(5, 2)], Fraction(2, 7), 2),
        ([b_dk(12, 5)], Fraction(1, 3), 1),
        ([b_dk(17, 8)], Fraction(2, 7), 1),
        ([b_dk(20, 11)], Fraction(1, 3), 1),
    ],
    ids=["B3,1@1/2", "B2,1@1/3", "B4,1+B4,3@1/3", "B5,2@2/7", "B12,5@1/3", "B17,8@2/7", "B20,11@1/3"],
)
def test_disks_hold_one_root_each_to_80_digits(gens, alpha, n):
    pytest.importorskip("mpmath")
    t = arboreal.build_tree(gens, alpha, n)
    for k in range(1, n + 1):
        assert mpmath_disk_problems(gens, t, k) == []


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_gens_alpha())
def test_level_one_radii_bound_the_exact_weierstrass_corrections(case):
    gens, alpha = case
    t = arboreal.build_tree(gens, alpha, 1)
    assert all(w <= r for w, r in exact_weierstrass_bounds(gens, t))


def test_build_tree_refusals():
    with pytest.raises(ValueError, match="leaves"):
        arboreal.build_tree([b_dk(3, 1)], HALF, 8)
    with pytest.raises(ValueError, match="need n >= 0"):
        arboreal.build_tree([B31], HALF, -1)
    from arithsite.belyi import BelyiPoly
    from arithsite.ratpoly import parse_poly

    dipper = BelyiPoly(parse_poly("16*x^3-24*x^2+9*x"))
    with pytest.raises(ValueError, match="generic"):
        arboreal.build_tree([dipper], Fraction(3, 4), 2)
    # the caps hold before any d^n or exact composite is built: degree 1
    # keeps d^n = 1 at any depth, and level 6 of B31 has degree 729 > 512;
    # squarefree_level builds no composite, so it answers at level 6
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="refusing depth 3000"):
        arboreal.build_tree([BelyiPoly(parse_poly("x"))], HALF, 3000)
    assert arboreal.squarefree_level([B31], HALF, 6)
    with pytest.raises(ValueError, match="exact degree"):
        arboreal.composite([B31], 6)
    with pytest.raises(ValueError, match="exact degree"):
        arboreal.composite([B31], 10**9)
    assert time.perf_counter() - t0 < 1.0


def test_tree_dot_and_json():
    t1 = arboreal.build_tree([B31], HALF, 1)
    dot = arboreal.tree_dot(t1)
    assert dot.count("->") == 3 and dot.count("label=") == 4
    t2 = arboreal.build_tree([B31], HALF, 2)
    assert arboreal.tree_dot(t2).count("label=") == 13
    assert arboreal.tree_dot(t1) == arboreal.tree_dot(arboreal.build_tree([B31], HALF, 1))
    import json

    obj = json.loads(arboreal.tree_json(t2))
    assert obj["degree"] == 3 and len(obj["levels"][2]) == 9


def test_mixed_generator_sequence():
    gens = [b_dk(3, 1), b_dk(3, 2)]
    assert arboreal.genericity_check(gens, Fraction(1, 3))
    t = arboreal.build_tree(gens, Fraction(1, 3), 3)
    assert t.leaves() == 27
    # level k roots solve gens-cyclic composite exactly
    assert arboreal.squarefree_level(gens, Fraction(1, 3), 3)


def test_disk_radii_cover_residual_and_parent_error():
    # B31 - w* has the roots 1/2 and (1 +- sqrt 3)/2 at w* = 1/2; a disk must
    # hold its root when the point is off by 1e-6 (the residual term) and
    # when the true parent is off by 1e-6 (the parent radius)
    row = np.array([0, 0, 3, -2], dtype=np.complex128)
    exact = np.sort_complex(np.array([0.5, (1 + 3**0.5) / 2, (1 - 3**0.5) / 2], dtype=np.complex128))
    w = np.array([0.5 + 0j])
    for z, rho, w_true in ((exact + 1e-6, 0.0, 0.5), (exact, 1e-6, 0.5 + 1e-6j)):
        with np.errstate(all="ignore"):  # build_tree's, which _disk_radii's caller owns
            (radii,) = arboreal._disk_radii([kernels.Row(row)], [z[None, :]], [w], np.array([rho]))
        roots = np.roots([-2, 3, 0, -w_true])
        dist = np.abs(z[:, None] - roots[None, :]).min(axis=1)
        assert np.all(dist > 3e-7) and np.all(dist <= radii)


def test_coincident_siblings_are_refused(monkeypatch):
    # two equal siblings make a Weierstrass denominator 0: no disk separates them
    def coincident_roots(g, values):
        # 1/2 is a true root of B31 - 1/2, so the Newton step leaves both copies
        return np.tile(np.array([0.5, 0.5, 2.0], dtype=np.complex128), (len(values), 1))

    monkeypatch.setattr(kernels, "dk_batch", coincident_roots)
    with pytest.raises(ValueError, match="sibling disks overlap at level 1"):
        arboreal.build_tree([B31], HALF, 1)


def test_an_overlap_in_the_first_group_of_a_level_names_that_level(monkeypatch):
    # the first group of level 2 starts where level 1 ends in the certificate's
    # stack: coincident siblings under the first parent of level 2 name level 2
    solve = kernels.dk_batch

    def first_group_coincident(g, values):
        roots = solve(g, values)
        if len(values) > 1:
            roots[0] = roots[0, 0]
        return roots

    monkeypatch.setattr(kernels, "dk_batch", first_group_coincident)
    with pytest.raises(ValueError, match="^sibling disks overlap at level 2$"):
        arboreal.build_tree([B31], HALF, 2)


def test_huge_error_scales_are_refused():
    # float64 eigenvalues miss these roots: B_{100,50} - 1/3 gets a root near
    # 1.7e5 whose residual overflows, so its radius is not finite; the residuals
    # of the other two reach 5e33 and 3e97, so their disks meet
    for d, k, alpha in ((100, 50, Fraction(1, 3)), (72, 71, Fraction(2, 7)), (128, 127, Fraction(1, 3))):
        with pytest.raises(ValueError, match="sibling disks overlap at level 1"):
            arboreal.build_tree([b_dk(d, k)], alpha, 1)


def test_rejects_mixed_degrees():
    with pytest.raises(ValueError, match="one degree"):
        arboreal.build_tree([b_dk(3, 1), b_dk(2, 1)], HALF, 2)


def test_non_finite_root_is_refused(monkeypatch):
    # NaN trips none of build_tree's comparisons, so it is refused outright
    def nan_roots(g, values):
        return np.full((len(values), len(g.monic)), np.nan, dtype=np.complex128)

    monkeypatch.setattr(kernels, "dk_batch", nan_roots)
    with pytest.raises(ValueError, match="polish failed at level 1: non-finite root"):
        arboreal.build_tree([B31], HALF, 1)


def test_each_generator_row_is_built_once_per_tree(monkeypatch):
    # two generators over six levels: one Row per generator, and at each level
    # one dk_batch and one newton_chain, both on the Row of that level's generator
    seen = {"Row": [], "dk_batch": [], "newton_chain": []}
    for name in seen:

        def spy(g, *args, name=name, real=getattr(kernels, name)):
            out = real(g, *args)
            seen[name].append(out if name == "Row" else g)
            return out

        monkeypatch.setattr(kernels, name, spy)
    gens = [b_dk(2, 1), b_dk(2, 0)]
    assert arboreal.build_tree(gens, Fraction(1, 3), 6).leaves() == 64
    rows = seen["Row"]
    assert len(rows) == 2 and rows[0] is not rows[1]
    per_level = [id(rows[k % 2]) for k in range(6)]
    assert [id(g) for g in seen["dk_batch"]] == [id(g) for g in seen["newton_chain"]] == per_level
