import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from arithsite import dessins as ds
from arithsite.belyi import compose_passport
from arithsite.dessins import FramedDessin, Passport
from oracles import (
    bfs_anatomy,
    bfs_framed_key,
    bfs_unframed_key,
    canonical_form,
    random_tree_dessin,
    search_automorphisms,
)


def test_validate_single_edge():
    ds.validate(ds.UNIT)


def test_validate_e31():
    ds.validate(ds.e_dessin(3, 1))


def test_validate_rejects_forest():
    with pytest.raises(ValueError, match="not a tree"):
        ds.validate(FramedDessin(2, (0, 1), (0, 1), 0, 0))


def test_validate_rejects_non_permutation():
    with pytest.raises(ValueError, match="not a permutation"):
        ds.validate(FramedDessin(2, (0, 0), (0, 1), 0, 0))


def test_passport_examples():
    assert ds.passport(ds.e_dessin(8, 3)) == Passport((5, 1, 1, 1), (4, 1, 1, 1, 1))
    assert ds.passport(ds.UNIT) == Passport((1,), (1,))
    assert ds.passport(ds.e_dessin(3, 1)) == Passport((2, 1), (2, 1))


def test_e_dessin_structure():
    d = ds.e_dessin(3, 1)
    assert d.alpha == (1, 0, 2) and d.beta == (2, 1, 0)
    prod = tuple(d.beta[d.alpha[e]] for e in range(3))
    assert prod == (1, 2, 0)  # single 3-cycle
    star = ds.e_dessin(4, 0)
    assert ds.passport(star) == Passport((4,), (1, 1, 1, 1))
    assert ds.e_dessin(1, 0) == ds.UNIT
    assert ds.e_dessin(512, 3).n == 512
    with pytest.raises(ValueError, match="refusing degree 513 > 512"):
        ds.e_dessin(513, 3)


def test_anatomy_of_e_dk():
    # the paper's head, body and tail are checked on the search oracle, which
    # still builds them; dessins.anatomy keeps only the spine ends and valencies
    for d, k in ((3, 1), (5, 2), (8, 3)):
        e = ds.e_dessin(d, k)
        a = bfs_anatomy(e)
        assert a.head == Passport((), (1,) * (d - k - 1))
        assert a.body == Passport((), ())
        assert a.tail == Passport((1,) * k, ())
        assert ds.anatomy(e) == (0, 0, d - k, k + 1)  # edge 0 is the spine


def test_anatomy_single_edge():
    a = bfs_anatomy(ds.UNIT)
    assert a.spine == (0,)
    assert a.head == a.body == a.tail == Passport((), ())
    assert ds.anatomy(ds.UNIT) == ds.Anatomy(0, 0, 1, 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.randoms(use_true_random=False))
def test_anatomy_matches_the_search_oracle(n, rng):
    d = random_tree_dessin(n, rng)
    assert ds.anatomy(d) == bfs_anatomy(d).ends()


def test_anatomy_of_every_e_dk_matches_the_search_oracle():
    for d in range(1, 31):
        for k in range(d):
            e = ds.e_dessin(d, k)
            assert ds.anatomy(e) == bfs_anatomy(e).ends()


def _oracle_pool() -> list[FramedDessin]:
    """400 random trees of 1 to 9 edges, every e_dessin of degree up to 7, and
    each of those composed with each of degree up to 4."""
    rng = random.Random(17)
    pool = [random_tree_dessin(rng.randrange(1, 10), rng) for _ in range(400)]
    edk = [ds.e_dessin(d, k) for d in range(1, 8) for k in range(d)]
    return pool + edk + [ds.compose(a, b) for a in edk for b in edk if b.n <= 4]


def test_face_walk_invariants_match_the_oracles():
    pool = _oracle_pool()
    framed = [bfs_framed_key(d) for d in pool]
    unframed = [bfs_unframed_key(d) for d in pool]
    pairs = 0
    for i, d in enumerate(pool):
        assert sorted(ds.automorphisms(d)) == sorted(search_automorphisms(d))
        assert ds.anatomy(d) == bfs_anatomy(d).ends()
        for j in range(i + 1, len(pool)):
            if pool[j].n == d.n:
                pairs += 1
                assert ds.framed_iso(d, pool[j]) == (framed[i] == framed[j])
                assert ds.combinatorial_equiv(d, pool[j]) == (unframed[i] == unframed[j])
    assert pairs > 10000


def test_results_valid_by_theorem_skip_validate(monkeypatch):
    # compose, involution and e_dessin build trees by theorem, and the
    # automorphisms are powers of the face cycle: none of them re-checks
    t, t2 = random_tree_dessin(6, random.Random(11)), ds.e_dessin(5, 2)

    def refuse(d):
        raise AssertionError("validate was called")

    monkeypatch.setattr(ds, "validate", refuse)
    ds.compose(t, t2)
    ds.involution(t)
    ds.e_dessin(7, 3)
    ds.automorphisms(t2)
    with pytest.raises(AssertionError, match="validate was called"):
        FramedDessin(1, (0,), (0,), 0, 0)


def test_involution_and_e_dk_are_valid():
    # the constructor no longer checks these: validate them here
    rng = random.Random(12)
    for _ in range(40):
        ds.validate(ds.involution(random_tree_dessin(rng.randrange(1, 20), rng)))
    for d in range(1, 65):
        for k in range(d):
            ds.validate(ds.e_dessin(d, k))


def test_compose_unit_laws():
    rng = random.Random(1)
    for _ in range(20):
        d = random_tree_dessin(rng.randrange(1, 8), rng)
        assert ds.framed_iso(ds.compose(d, ds.UNIT), d)
        assert ds.framed_iso(ds.compose(ds.UNIT, d), d)


def test_compose_black_count():
    e31 = ds.e_dessin(3, 1)
    c = ds.compose(e31, e31)
    assert len(ds.perm_cycles(c.alpha)) == 3 * (2 - 1) + 2


def test_compose_edge_count_and_validity():
    rng = random.Random(2)
    for _ in range(30):
        t = random_tree_dessin(rng.randrange(1, 7), rng)
        t2 = random_tree_dessin(rng.randrange(1, 7), rng)
        c = ds.compose(t, t2)
        assert c.n == t.n * t2.n
        ds.validate(c)


def test_compose_valency_anchor():
    rng = random.Random(3)
    for _ in range(30):
        t = random_tree_dessin(rng.randrange(1, 7), rng)
        t2 = random_tree_dessin(rng.randrange(1, 7), rng)
        c = ds.compose(t, t2)
        at, at2, ac = ds.anatomy(t), ds.anatomy(t2), ds.anatomy(c)
        assert ac.valency0 == at.valency0 * at2.valency0
        assert ac.valency1 == at.valency1 * at2.valency1


def _predict(t: ds.FramedDessin, p2: ds.Passport, d2: int) -> tuple:
    """belyi.compose_passport with t's passport and the valencies of its marked vertices."""
    anat = ds.anatomy(t)
    return compose_passport(ds.passport(t), anat.valency0, anat.valency1, p2, d2)


def test_passport_compose_predict_e31_pair():
    e31 = ds.e_dessin(3, 1)
    predicted = _predict(e31, ds.passport(e31), 3)
    assert predicted[0] == (4, 2, 1, 1, 1)
    assert predicted == ds.passport(ds.compose(e31, e31))


def test_passport_compose_predict_unit():
    rng = random.Random(4)
    for _ in range(10):
        t = random_tree_dessin(rng.randrange(1, 8), rng)
        assert _predict(t, ds.passport(ds.UNIT), 1) == ds.passport(t)


def test_passport_compose_predict_cross_check():
    t, t2 = ds.e_dessin(8, 3), ds.e_dessin(3, 1)
    assert _predict(t, ds.passport(t2), t2.n) == ds.passport(ds.compose(t, t2))


def test_compose_associative_up_to_framed_iso():
    rng = random.Random(5)
    for _ in range(10):
        a = random_tree_dessin(rng.randrange(1, 4), rng)
        b = random_tree_dessin(rng.randrange(1, 4), rng)
        c = random_tree_dessin(rng.randrange(1, 4), rng)
        assert ds.framed_iso(ds.compose(ds.compose(a, b), c), ds.compose(a, ds.compose(b, c)))


def test_automorphisms_and_monodromy_single_edge():
    assert ds.automorphisms(ds.UNIT) == [(0,)]
    assert ds.monodromy_order(ds.UNIT) == 1


def _three_edge_path(frame_black, frame_white):
    # the 3-edge path w-b-w-b of the four framed realizations of x^2(3-2x)
    return FramedDessin(3, (1, 0, 2), (0, 2, 1), frame_black, frame_white)


def test_three_edge_path_automorphisms():
    auts = ds.automorphisms(_three_edge_path(0, 1))
    assert len(auts) <= 2
    # cyclic: some element generates the whole group
    n = len(auts)
    for g in auts:
        powers = {tuple(range(3))}
        cur = g
        while cur not in powers:
            powers.add(cur)
            cur = tuple(g[cur[e]] for e in range(3))
        if len(powers) == n:
            break
    else:
        raise AssertionError("no generator found")


def test_monodromy_e31():
    assert ds.monodromy_order(ds.e_dessin(3, 1)) == 6


def test_monodromy_cap(monkeypatch):
    # room for 5 permutations of the 6 edges
    monkeypatch.setattr(ds, "MAX_MONODROMY_ENTRIES", 5 * 6)
    assert ds.monodromy_order(ds.e_dessin(6, 3)) is None


def test_monodromy_transitive():
    rng = random.Random(6)
    for _ in range(15):
        d = random_tree_dessin(rng.randrange(1, 7), rng)
        orbit = {0}
        frontier = [0]
        while frontier:
            e = frontier.pop()
            for nxt in (d.alpha[e], d.beta[e]):
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        assert orbit == set(range(d.n))


def test_automorphisms_cyclic_on_random_trees():
    rng = random.Random(7)
    for _ in range(25):
        d = random_tree_dessin(rng.randrange(1, 9), rng)
        auts = ds.automorphisms(d)
        ident = tuple(range(d.n))
        found = False
        for g in auts:
            seen = set()
            cur = ident
            while cur not in seen:
                seen.add(cur)
                cur = tuple(g[cur[e]] for e in range(d.n))
            if seen == set(auts):
                found = True
                break
        assert found


def test_involution_is_involutive():
    rng = random.Random(8)
    for _ in range(20):
        d = random_tree_dessin(rng.randrange(1, 8), rng)
        assert ds.framed_iso(ds.involution(ds.involution(d)), d)


def test_involution_swaps_e_dk():
    for d in range(1, 8):
        for k in range(d):
            assert ds.framed_iso(ds.involution(ds.e_dessin(d, k)), ds.e_dessin(d, d - 1 - k))


def test_three_edge_path_four_framings():
    # four framed dessins on the same path: pairwise non-isomorphic, all
    # combinatorially equivalent
    framings = [(0, 1), (0, 0), (2, 1), (2, 0)]
    dss = [_three_edge_path(fb, fw) for fb, fw in framings]
    for i in range(4):
        ds.validate(dss[i])
        for j in range(i + 1, 4):
            assert not ds.framed_iso(dss[i], dss[j])
            assert ds.combinatorial_equiv(dss[i], dss[j])


def test_colour_swapped_paths_combinatorially_equivalent():
    path = _three_edge_path(0, 1)
    swapped = FramedDessin(3, path.beta, path.alpha, 1, 0)
    assert ds.combinatorial_equiv(path, swapped)


def test_canonical_form_is_invariant():
    rng = random.Random(9)
    for _ in range(20):
        d = random_tree_dessin(rng.randrange(1, 8), rng)
        c = canonical_form(d)
        ds.validate(c)
        assert ds.framed_iso(c, d)
        assert canonical_form(c) == c


def test_json_roundtrip():
    rng = random.Random(10)
    for _ in range(10):
        d = random_tree_dessin(rng.randrange(1, 8), rng)
        assert ds.from_json(ds.to_json(d)) == d
        json.loads(ds.to_json(d))


def test_dot_output():
    dot = ds.to_dot(ds.e_dessin(3, 1))
    assert 'label="0"' in dot and 'label="1"' in dot
    assert dot.count("--") == 3
