import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from arithsite import conway as cw, points as pt
from arithsite.conway import Letter
from arithsite.points import TruncatedChain
from arithsite.supernatural import adele_class_equiv, from_chain
from oracles import deep_tail_equiv, materialize, search_chain_equiv, search_chain_in_open, search_tail_equiv


def A(*entries, extend=False):
    return TruncatedChain("A", entries, extend)


P0 = Letter(2, 0)
P1 = Letter(2, 1)
Q1 = Letter(3, 1)


def test_chain_equiv_cofinal_subchain():
    assert pt.chain_equiv(A(2, 4, 8), A(4, 8))


def test_chain_equiv_incompatible_primes():
    assert not pt.chain_equiv(A(2, 4), A(3, 9))


def test_chain_equiv_site_c():
    c1 = TruncatedChain("C", ((P0,), (P0, P0)))
    c2 = TruncatedChain("C", (((P0, P0)),))
    c2 = TruncatedChain("C", ((P0, P0),))
    assert pt.chain_equiv(c1, c2)


def test_site_c_entries_are_normalized():
    raw = TruncatedChain("C", (((3, 1), (2, 0)),))
    assert raw.entries[0] == cw.normalize((Letter(3, 1), Letter(2, 0)))
    assert raw == TruncatedChain("C", (((2, 0), (3, 2)),))


def test_chain_equiv_rejects_mixed_sites():
    with pytest.raises(ValueError, match="different sites"):
        pt.chain_equiv(A(2), TruncatedChain("C", ((P0,),)))


def test_chain_order_validation():
    with pytest.raises(ValueError, match="order violation"):
        TruncatedChain("A", (4, 2))
    with pytest.raises(ValueError, match="order violation"):
        TruncatedChain("C", ((P0,), (P1, P1)))


def test_tail_equiv_finite_chains():
    assert pt.tail_equiv(A(2, 4, 8), A(12, 24))
    assert pt.tail_equiv(A(2, 4), A(3))
    assert pt.tail_equiv(
        TruncatedChain("C", ((P0,),)), TruncatedChain("C", ((Q1,), (Q1, Q1)))
    )


def test_tail_equiv_extended_site_a():
    assert pt.tail_equiv(A(2, 4, extend=True), A(12, 24, extend=True))
    assert not pt.tail_equiv(A(2, 4, extend=True), A(3, 9, extend=True))
    assert not pt.tail_equiv(A(2, 4, extend=True), A(3))


def test_tail_equiv_shifted_periodic_word_chain():
    w1 = (P0,)
    w2 = (P0, P0)
    w3 = (P0, P0, P0)
    c = TruncatedChain("C", (w1, w2, w3), extend=True)
    shifted = TruncatedChain("C", (w2, w3), extend=True)
    assert pt.tail_equiv(c, shifted)


def test_tail_equiv_at_the_truncation_end():
    # a step taken twice against the same step taken once: one limit, 1 0 0 0 ...,
    # which the window search finds one way round only
    twice = TruncatedChain("B", ((1, 0, 0), (1, 0, 0, 0, 0)), True, (2, 3))
    once = TruncatedChain("B", ((1, 0), (1, 0, 0)), True, (2, 3))
    assert pt.tail_equiv(twice, once) and search_tail_equiv(twice, once)
    assert pt.tail_equiv(once, twice) and not search_tail_equiv(once, twice)
    assert deep_tail_equiv(once, twice)


def test_tail_equiv_reads_the_whole_limit():
    # each pair of limits differs in one part only, so each answer is false
    def b(prev, last):
        return TruncatedChain("B", (prev, last), True, (2, 3))

    def c(prev, step):
        return TruncatedChain("C", (prev, cw.mul(step, prev)), True)

    R0, R1 = Letter(3, 0), Letter(3, 1)
    pairs = [
        # site B: 0 1 0 1 ... against 0 1 1 1 ..., equal on max(|L1|, |L2|) letters
        (b((), (0, 1)), b((0,), (0, 1))),
        # and (0 0 0 0 1)^2 0 0 0 ... against (0 0 0 0 1)^inf, equal on 14 letters
        (b((0, 0, 0, 0, 1) * 2, (0, 0, 0, 0, 1) * 2 + (0,)), b((), (0, 0, 0, 0, 1))),
        # site C, with r = 0 on both sides: the step primes differ,
        (c((), (P0,)), c((), (R0,))),
        # D = 1 against D = 3,
        (c((), (P0,)), c((R0,), (P0,))),
        # and N_L = 0 against 1 mod D = 3
        (c((R0,), (P0,)), c((R1,), (P0, P1))),
    ]
    for c1, c2 in pairs:
        assert not pt.tail_equiv(c1, c2) and not pt.tail_equiv(c2, c1)
        assert not deep_tail_equiv(c1, c2)
        assert pt.tail_equiv(c1, c1) and pt.tail_equiv(c2, c2)


def test_tail_equiv_matches_adele_classes():
    # small random chains, and extended ones whose ratios are high prime
    # powers, where a prime of one ratio can be missing from the other
    rng = random.Random(51)
    pairs = [(_random_a_chain(rng), _random_a_chain(rng)) for _ in range(60)]
    pairs += [(_prime_power_chain(rng), _prime_power_chain(rng)) for _ in range(200)]
    for c1, c2 in pairs:
        s1 = from_chain(list(c1.entries), limit=c1.extend)
        s2 = from_chain(list(c2.entries), limit=c2.extend)
        assert pt.tail_equiv(c1, c2) == adele_class_equiv(s1, s2)


def test_site_a_tails_factor_nothing(monkeypatch):
    # the ratios' primes decide site-A tails, by one pow each way: a 610-bit
    # semiprime N, past rho's bit cap, is never factored
    n = (2**89 - 1) * (2**521 - 1)
    monkeypatch.setattr(pt, "from_chain", None)
    assert pt.tail_equiv(A(n, 2 * n, extend=True), A(1, 2, extend=True))
    assert pt.tail_equiv(A(1, n, extend=True), A(1, n * n, extend=True))
    assert not pt.tail_equiv(A(1, n, extend=True), A(1, 2**89 - 1, extend=True))
    assert not pt.tail_equiv(A(1, 6, extend=True), A(1, 2 * n, extend=True))


def _prime_power_chain(rng):
    """An extended site-A chain whose ratio takes up to three primes to exponents up to 40."""
    ratio = 1
    for p in rng.sample((2, 3, 5, 7), rng.randint(1, 3)):
        ratio *= p ** rng.randint(1, 40)
    base = rng.randint(1, 30)
    return A(base, base * ratio, extend=True)


def _random_a_chain(rng, extend=None):
    entries = [rng.randint(1, 6)]
    for _ in range(rng.randint(1, 3)):
        entries.append(entries[-1] * rng.randint(1, 6))
    if extend is None:
        extend = rng.random() < 0.5 and entries[-2] < entries[-1]
    return TruncatedChain("A", tuple(entries), extend)


def _random_c_chain(rng):
    word = tuple()
    entries = []
    for _ in range(rng.randint(1, 3)):
        p = rng.choice([2, 3])
        word = cw.mul((Letter(p, rng.randrange(p)),), word)
        entries.append(word)
    return TruncatedChain("C", tuple(entries))


def test_project_site_c():
    c = TruncatedChain("C", ((P0,), (P1, P0)))
    assert pt.project(c) == A(2, 4)


def test_project_site_b():
    c = TruncatedChain("B", ((0,), (0, 1)), gen_degrees=(3, 3))
    assert pt.project(c) == A(3, 9)


def test_project_site_a_identity():
    c = A(2, 4, 8)
    assert pt.project(c) == c


def test_project_commutes_with_truncation():
    rng = random.Random(61)
    for _ in range(40):
        c = _random_c_chain(rng)
        if len(c.entries) < 2:
            continue
        cut = rng.randrange(1, len(c.entries))
        truncated = pt.TruncatedChain("C", c.entries[:cut])
        assert pt.project(truncated) == pt.TruncatedChain("A", pt.project(c).entries[:cut])


def test_project_preserves_equivalence():
    rng = random.Random(53)
    for _ in range(80):
        c1 = _random_c_chain(rng)
        c2 = _random_c_chain(rng)
        if pt.chain_equiv(c1, c2):
            assert pt.chain_equiv(pt.project(c1), pt.project(c2))
        if pt.tail_equiv(c1, c2):
            assert pt.tail_equiv(pt.project(c1), pt.project(c2))


def test_equiv_properties_random():
    rng = random.Random(57)
    chains = [_random_a_chain(rng, extend=False) for _ in range(15)]
    for c in chains:
        assert pt.chain_equiv(c, c)
    for c1 in chains:
        for c2 in chains:
            assert pt.chain_equiv(c1, c2) == pt.chain_equiv(c2, c1)
            for c3 in chains:
                if pt.chain_equiv(c1, c2) and pt.chain_equiv(c2, c3):
                    assert pt.chain_equiv(c1, c3)


def test_chain_equiv_implies_tail_equiv():
    rng = random.Random(59)
    for _ in range(50):
        c1 = _random_a_chain(rng, extend=False)
        c2 = _random_a_chain(rng, extend=False)
        if pt.chain_equiv(c1, c2):
            assert pt.tail_equiv(c1, c2)


def test_chain_to_supernatural():
    assert pt.chain_to_supernatural(A(2, 4, 12)) == from_chain([2, 4, 12])
    assert pt.chain_to_supernatural(A(2, 4, extend=True)) == from_chain([2, 4], limit=True)


def test_chain_in_open():
    assert pt.chain_in_open(A(2, 4, 8), 4)
    assert not pt.chain_in_open(A(2, 4, 8), 3)
    c = TruncatedChain("C", ((P0,), (P1, P0)))
    assert pt.chain_in_open(c, (P0,))
    assert not pt.chain_in_open(c, (Q1,))


def test_site_c_tests_each_prime_once(monkeypatch):
    # one pass over the letters of all entries, not one per letter or entry
    tested = []
    monkeypatch.setattr(cw, "is_prime", lambda p: tested.append(p) or True)
    words = [[[999999999989, 0]] * k for k in range(1, 31)]
    c = pt.from_json(json.dumps({"site": "C", "entries": words}))
    assert [len(w) for w in c.entries] == list(range(1, 31))
    assert tested == [999999999989]


def test_site_c_entries_are_checked_letters():
    # the constructor tests the letters that from_json passes through
    with pytest.raises(ValueError, match="4 is not prime"):
        TruncatedChain("C", [[(4, 1)], [(4, 1), (4, 1)]])
    with pytest.raises(ValueError, match="index 3 out of range"):
        TruncatedChain("C", [[(2, 1)], [(2, 3), (2, 1)]])


def test_site_c_entries_are_free():
    # a power letter leaves monoid C, also in a chain of one entry
    for entries in ([[(2, 2)]], [[(3, 1), (2, 2)]], [[(2, 1)], [(3, 3), (2, 1)]]):
        with pytest.raises(ValueError, match="outside monoid C"):
            TruncatedChain("C", entries)
    with pytest.raises(ValueError, match="outside monoid C"):
        pt.from_json(json.dumps({"site": "C", "entries": [[[2, 2]]]}))
    assert TruncatedChain("C", [[(2, 2), (2, 1)]]).entries == ((),)  # P[2,2] P[2,1] cancels


def test_site_c_order_builds_no_quotient(monkeypatch):
    # the site-C order compares the entries' balls; it spells out no quotient
    top = (Letter(2, 1),)
    low = cw.mul((Letter(3, 2), Letter(5, 4)), top)
    c1, c2 = TruncatedChain("C", (top, low)), TruncatedChain("C", (top,))

    def forbidden(*args):
        raise AssertionError("the site-C order built a normal word")

    monkeypatch.setattr(cw, "_normal_word", forbidden)
    assert pt._geq("C", top, low) and not pt._geq("C", low, top)
    assert pt.chain_in_open(c1, top) and not pt.chain_equiv(c1, c2)


def test_json_roundtrip():
    chains = [
        A(2, 4, 8),
        A(2, 4, extend=True),
        TruncatedChain("C", ((P0,), (P1, P0))),
        TruncatedChain("B", ((0,), (0, 1)), gen_degrees=(3, 4)),
    ]
    for c in chains:
        text = pt.to_json(c)
        json.loads(text)
        assert pt.from_json(text) == c


_FREE = st.sampled_from((2, 3, 5)).flatmap(lambda p: st.integers(0, p - 1).map(lambda i: Letter(p, i)))
_STEPS = {
    "A": st.integers(1, 4),
    "B": st.lists(st.integers(0, 1), max_size=2).map(tuple),
    "C": st.lists(_FREE, max_size=2).map(tuple),
}
_PROPER_STEPS = {
    "A": st.integers(2, 4),
    "B": st.lists(st.integers(0, 1), min_size=1, max_size=2).map(tuple),
    "C": st.lists(_FREE, min_size=1, max_size=2).map(tuple),
}


def _below(site, e, step):
    """An entry that e is >= in the site order."""
    if site == "A":
        return e * step
    return e + step if site == "B" else cw.mul(step, e)


def _chain(site, entries, extend):
    return TruncatedChain(site, tuple(entries), extend and len(entries) > 1, (2, 3) if site == "B" else ())


@st.composite
def _entries(draw, site, n_max=5):
    """A descending run of entries that ends on a proper step, continued by six periodic steps."""
    es = [draw(_STEPS[site])]
    for _ in range(draw(st.integers(0, n_max - 2))):
        es.append(_below(site, es[-1], draw(_STEPS[site])))
    es.append(_below(site, es[-1], draw(_PROPER_STEPS[site])))
    return list(materialize(_chain(site, es, True), 6))


@st.composite
def _window(draw, es):
    """Every first, second or third entry of es from some start, at most 5 of them."""
    start, stride = draw(st.integers(0, len(es) - 1)), draw(st.integers(1, 3))
    return es[start::stride][: draw(st.integers(1, 5))]


@st.composite
def _point(draw, site, base):
    """A window or a subchain of base or of a fresh run, of at most 5 entries
    and sometimes ending on a repeated entry.  On site C it sometimes first
    draws one word with a power letter, which the constructor refuses."""
    if site == "C" and draw(st.integers(0, 9)) == 7:
        with pytest.raises(ValueError, match="outside monoid C"):
            _chain("C", [draw(_STEPS["C"]) + (Letter(2, 2),)], False)
    es = base if draw(st.booleans()) else draw(_entries(site))
    if draw(st.booleans()):
        es = draw(_window(es))
    else:
        keep = draw(st.lists(st.sampled_from(range(len(es))), min_size=1, max_size=5, unique=True))
        es = [es[k] for k in sorted(keep)]
    if draw(st.integers(0, 3)) == 2:
        es = es[-4:] + es[-1:]
    return _chain(site, es, draw(st.booleans()))


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as e:
        return f"{type(e).__name__}: {e}"


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_order_facts_match_the_search_oracles(data):
    site = data.draw(st.sampled_from(pt.SITES))
    base = data.draw(_entries(site))
    c1, c2 = data.draw(_point(site, base)), data.draw(_point(site, base))
    odd = {"A": 0, "B": (1, 1, 1), "C": (Letter(3, 3),)}[site]
    target = data.draw(st.one_of(st.sampled_from(base), _STEPS[site], st.just(odd)))
    assert _outcome(pt.chain_equiv, c1, c2) == _outcome(search_chain_equiv, c1, c2)
    _assert_tails_match_the_oracles(c1, c2)
    assert _outcome(pt.chain_in_open, c1, target) == _outcome(search_chain_in_open, c1, target)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_periodic_tails_match_the_window_search(data):
    # two extended windows of one run, whose steps may differ in length
    site = data.draw(st.sampled_from(("B", "C")))
    base = data.draw(_entries(site))
    c1, c2 = (_chain(site, data.draw(_window(base)), True) for _ in range(2))
    _assert_tails_match_the_oracles(c1, c2)


def _assert_tails_match_the_oracles(c1, c2):
    # the deep oracle decides both ways; the window search only finds true ones
    answer = _outcome(pt.tail_equiv, c1, c2)
    assert answer == _outcome(deep_tail_equiv, c1, c2)
    assert _outcome(search_tail_equiv, c1, c2) in (answer, False)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_tail_equiv_is_symmetric(data):
    site = data.draw(st.sampled_from(pt.SITES))
    base = data.draw(_entries(site))
    c1, c2 = data.draw(_point(site, base)), data.draw(_point(site, base))
    assert _outcome(pt.tail_equiv, c1, c2) == _outcome(pt.tail_equiv, c2, c1)


def _fifty(site, k):
    """A 50-entry chain, extended: 49 copies of one entry, then a step below it."""
    if site == "A":
        return A(*[k + 2] * 49, (k + 2) ** 2, extend=True)
    if site == "B":
        return TruncatedChain("B", ((k,),) * 49 + ((k, 1 - k),), True, (2, 3))
    top = (Letter(2 + k, 1),)
    return TruncatedChain("C", (top,) * 49 + (cw.mul(top, top),), True)


@pytest.mark.parametrize("site", pt.SITES)
def test_queries_make_few_order_tests(monkeypatch, site):
    calls = []
    geq = pt._geq
    monkeypatch.setattr(pt, "_geq", lambda *a: calls.append(a) or geq(*a))
    c1, c2 = _fifty(site, 0), _fifty(site, 1)
    for x, y, equal in ((c1, c1, True), (c1, c2, False)):
        calls.clear()
        assert pt.chain_equiv(x, y) == equal and len(calls) <= 2
        calls.clear()
        # site A answers by adele classes, B and C by their limits
        assert pt.tail_equiv(x, y) == equal and not calls
