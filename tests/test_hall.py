"""Hall word generation against an independent brute-force oracle."""

import importlib
import itertools
import pkgutil
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import cechwedge
from cechwedge import hall, whitehead
from cechwedge.hall import (COUNTABLY_INFINITE, GradingSequence, HallWord,
                            StratumSizeError, bracket, dimension_truncation,
                            generate, height, height_class_census, heights,
                            is_hall, labels, letter, necklace_count,
                            word_letters)


# ---------------------------------------------------------------------------
# Independent oracle: enumerate every bracketing as nested tuples and check
# the Hall conditions with a from-scratch key function.  Shares no code with
# the library.


def _t_weight(t):
    return 1 if isinstance(t, int) else _t_weight(t[0]) + _t_weight(t[1])


def _t_max(t):
    return t if isinstance(t, int) else max(_t_max(t[0]), _t_max(t[1]))


def _t_key(t):
    if isinstance(t, int):
        return (1, t)
    return (_t_weight(t), _t_max(t), _t_key(t[0]), _t_key(t[1]))


def _t_is_hall(t):
    if isinstance(t, int):
        return True
    x, y = t
    if not (_t_is_hall(x) and _t_is_hall(y)):
        return False
    if not _t_key(x) < _t_key(y):
        return False
    if not isinstance(y, int) and not _t_key(y[0]) <= _t_key(x):
        return False
    return True


def _all_trees(k, j):
    if j == 1:
        return [i for i in range(1, k + 1)]
    out = []
    for a in range(1, j):
        for x in _all_trees(k, a):
            for y in _all_trees(k, j - a):
                out.append((x, y))
    return out


def _brute_stratum(k, j):
    found = [t for t in _all_trees(k, j) if _t_is_hall(t)]
    return sorted(found, key=_t_key)


def _as_tuple(w):
    if w.is_letter:
        return w.max_letter
    return (_as_tuple(w.left), _as_tuple(w.right))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
def test_generate_matches_brute_force(k, j):
    stratum = [w for w in generate(k, j).words() if w.length == j]
    assert [_as_tuple(w) for w in stratum] == _brute_stratum(k, j)


def _all_pairs_generate(k, max_weight):
    """Reference: for each new letter c, try every pair of words of the
    right weights and keep the Hall brackets whose maximal letter is c."""
    strata = [[] for _ in range(max_weight + 1)]
    for c in range(1, k + 1):
        strata[1].append(letter(c))
        for m in range(2, max_weight + 1):
            fresh = []
            for i in range(1, m):
                for x in strata[i]:
                    for y in strata[m - i]:
                        if max(x.max_letter, y.max_letter) != c:
                            continue
                        if not x < y:
                            continue
                        if not y.is_letter and not y.left <= x:
                            continue
                        fresh.append(bracket(x, y))
            fresh.sort()
            strata[m].extend(fresh)
    return [str(w) for s in strata[1:] for w in s]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("J", [1, 2, 3, 4, 5])
def test_generate_matches_all_pairs_reference(k, J):
    assert [str(w) for w in generate(k, J).words()] == _all_pairs_generate(k, J)


def _bracket_generate(k, max_weight):
    """Reference: the generator that built each word with bracket(),
    letter by letter.  The words with maximal letter c, found by pairing
    only (new x, any y) and (old x, new y), are sorted and appended."""
    if k == 1:
        return (letter(1),)
    strata = [[] for _ in range(max_weight + 1)]
    for c in range(1, k + 1):
        # start[j]: where the words of weight j with maximal letter c begin
        start = [len(s) for s in strata]
        strata[1].append(letter(c))
        for m in range(2, max_weight + 1):
            fresh = []
            for i in range(1, m // 2 + 1):
                xs, ys = strata[i], strata[m - i]
                pairs = itertools.chain(
                    itertools.product(xs[start[i]:], ys),
                    itertools.product(xs[:start[i]], ys[start[m - i]:]))
                for x, y in pairs:
                    if not x < y:
                        continue
                    if not y.is_letter and not y.left <= x:
                        continue
                    fresh.append(bracket(x, y))
            fresh.sort()
            strata[m].extend(fresh)
    return tuple(itertools.chain.from_iterable(strata))


@pytest.mark.parametrize("k,J", [(k, J) for k in range(1, 7) for J in (1, 3, 5)]
                         + [(40, 3), (4, 9)])
def test_columns_match_the_bracket_generator(k, J):
    listing, oracle = generate(k, J), _bracket_generate(k, J)
    assert listing.words() == oracle
    assert list(listing.weights()) == [w.length for w in oracle]
    assert labels(listing) == [str(w) for w in oracle]
    for spec in ("1", "1,2,3;4"):
        g = GradingSequence.parse(spec)
        assert heights(listing, g) == [height(w, g) for w in oracle]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_stratum_sizes_are_necklace_counts(k):
    words = generate(k, 7).words()
    for j in range(1, 8):
        assert sum(1 for w in words if w.length == j) == necklace_count(k, j)


def test_necklace_count_known_values():
    # M_k(j) = (1/j) sum_{d|j} mu(d) k^{j/d}
    assert necklace_count(2, 1) == 2
    assert necklace_count(2, 2) == 1
    assert necklace_count(2, 3) == 2
    assert necklace_count(2, 4) == 3
    assert necklace_count(2, 5) == 6
    assert necklace_count(2, 6) == 9
    assert necklace_count(3, 2) == 3
    assert necklace_count(3, 3) == 8
    assert necklace_count(1, 1) == 1
    assert necklace_count(1, 2) == 0


def test_two_letter_listing_through_weight_four():
    """The canonical order on two letters, first eight words."""
    assert [str(w) for w in generate(2, 4).words()] == [
        "a1", "a2", "[a1,a2]",
        "[a1,[a1,a2]]", "[a2,[a1,a2]]",
        "[a1,[a1,[a1,a2]]]", "[a2,[a1,[a1,a2]]]", "[a2,[a2,[a1,a2]]]",
    ]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_coherent_nesting(k):
    # stratum of the k-letter set is a prefix of the (k+1)-letter one,
    # and the new words are exactly those using the new letter
    small, big = generate(k, 6).words(), generate(k + 1, 6).words()
    for j in range(1, 7):
        a = [w for w in small if w.length == j]
        b = [w for w in big if w.length == j]
        assert b[:len(a)] == a
        assert all(w.max_letter == k + 1 for w in b[len(a):])


def test_is_hall_examples():
    a1, a2, a3 = letter(1), letter(2), letter(3)
    assert is_hall(bracket(a1, a2), 3)
    assert not is_hall(bracket(a2, a1), 3)              # order violated
    assert not is_hall(bracket(a1, a1), 3)              # not x < x
    assert not is_hall(bracket(bracket(a1, a2), a3), 3)  # heavier on the left
    assert is_hall(bracket(a1, bracket(a1, a2)), 3)
    assert not is_hall(bracket(a1, bracket(a2, a3)), 3)  # inner left > outer
    assert is_hall(bracket(a2, bracket(a1, a3)), 3)
    assert not is_hall(bracket(a1, a2), 1)              # letter out of range


def test_hall_word_structure():
    w = bracket(letter(1), bracket(letter(1), letter(2)))
    assert w.length == 3 and w.max_letter == 2
    # the fields are the canonical order key and nothing else
    assert HallWord._fields == ("length", "max_letter", "left", "right")
    assert tuple(w) == (3, 2, letter(1), bracket(letter(1), letter(2)))
    assert str(w) == "[a1,[a1,a2]]"
    assert w == bracket(letter(1), bracket(letter(1), letter(2)))
    assert letter(3) > w is False or True  # comparisons exist
    assert letter(1) < letter(2) < w


def test_letter_validation():
    with pytest.raises(ValueError):
        letter(0)


def _from_tuple(t):
    """Build a word afresh from its oracle tuple."""
    if isinstance(t, int):
        return letter(t)
    return bracket(_from_tuple(t[0]), _from_tuple(t[1]))


def test_word_order_is_the_oracle_order():
    # every stratum of three letters through weight 5, letters and
    # brackets mixed, in an order that sorted() has to undo
    words = list(generate(3, 5).words())
    shuffled = words[:]
    random.Random(0).shuffle(shuffled)
    oracle = {w: _t_key(_as_tuple(w)) for w in words}
    assert sorted(shuffled) == sorted(shuffled, key=oracle.get) == words
    for x, y in itertools.product(words, repeat=2):
        tx, ty = oracle[x], oracle[y]
        assert (x < y, x <= y, x == y) == (tx < ty, tx <= ty, tx == ty)


def test_word_equality_and_hash_are_structural():
    words = generate(3, 5).words()
    for w in words:
        again = _from_tuple(_as_tuple(w))
        assert again == w and hash(again) == hash(w)
    assert len(set(words)) == len(words)
    assert all(x != y for x, y in itertools.combinations(words, 2))


# ---------------------------------------------------------------------------
# Gradings and heights


def test_grading_parse_and_render():
    g = GradingSequence.parse("1,2;3")
    assert g.prefix == (1, 2) and g.tail == 3
    assert g.spec_string() == "1,2;3"
    assert GradingSequence.parse("2").tail == 2
    assert GradingSequence.parse("2").prefix == ()
    assert GradingSequence.constant(4) == GradingSequence.parse("4")
    assert hash(GradingSequence.constant(4)) == hash(GradingSequence.parse("4"))
    assert repr(g) == "GradingSequence(prefix=(1, 2), tail=3)"
    with pytest.raises(AttributeError):
        g.tail = 4


def test_grading_validation():
    with pytest.raises(ValueError):
        GradingSequence((2, 1), 1)     # decreasing
    with pytest.raises(ValueError):
        GradingSequence((0,), 1)       # below 1
    with pytest.raises(ValueError):
        GradingSequence.parse("")
    with pytest.raises(ValueError):
        GradingSequence.parse("1,2")   # tail must follow ';' unless bare


def test_grading_lookup():
    g = GradingSequence((1, 2), 5)
    assert [g.r(i) for i in (1, 2, 3, 4)] == [1, 2, 5, 5]


@given(prefix=st.lists(st.integers(1, 5), max_size=4), tail=st.integers(1, 6))
def test_grading_spec_round_trip(prefix, tail):
    prefix = tuple(sorted(prefix))
    if prefix and prefix[-1] > tail:
        tail = prefix[-1]
    g = GradingSequence(tuple(prefix), tail)
    assert GradingSequence.parse(g.spec_string()) == g


def test_height_examples():
    # heights add the grading value of every letter occurrence
    g = GradingSequence((1, 2, 4), 4)
    a1, a2, a3 = letter(1), letter(2), letter(3)
    assert height(bracket(a1, a2), g) == 3
    assert height(bracket(a1, bracket(a1, a2)), g) == 4
    assert height(bracket(a1, bracket(a2, a3)), g) == 7
    assert height(a3, g) == 4


_WORDS = st.recursive(
    st.integers(1, 8).map(letter),
    lambda sub: st.tuples(sub, sub).map(lambda xy: bracket(*xy)),
    max_leaves=8)


def _letter_walk(w):
    """The letters of w with multiplicity, left to right, walked here."""
    if w.left is None:
        return [w.max_letter]
    return _letter_walk(w.left) + _letter_walk(w.right)


@given(w=_WORDS, prefix=st.lists(st.integers(1, 5), max_size=4),
       tail=st.integers(1, 6))
def test_height_is_the_letter_walk(w, prefix, tail):
    prefix = tuple(sorted(prefix))
    g = GradingSequence(prefix, max((tail,) + prefix))
    assert height(w, g) == sum(g.r(i) for i in _letter_walk(w))


@given(w=_WORDS)
def test_cached_letters_are_the_letter_walk(w):
    # the first call may fill the cache, the second reads it
    assert word_letters(w) == tuple(_letter_walk(w))
    assert word_letters(w) == tuple(_letter_walk(w))


def _by_keyword(w):
    """w rebuilt bottom up by keyword calls of the HallWord class."""
    if w.left is None:
        return HallWord(length=1, max_letter=w.max_letter, left=None,
                        right=None)
    x, y = _by_keyword(w.left), _by_keyword(w.right)
    return HallWord(length=x.length + y.length,
                    max_letter=max(x.max_letter, y.max_letter), left=x,
                    right=y)


@given(w=_WORDS)
def test_positional_words_equal_keyword_words(w):
    k = _by_keyword(w)
    assert type(w) is HallWord
    assert k == w and hash(k) == hash(w) and str(k) == str(w)
    assert (k.length, k.max_letter) == (w.length, w.max_letter)


def _library_caches():
    """Every lru_cache in the cechwedge modules, each once, found as
    tools/ladder.py clear_caches finds them."""
    caches = {}
    for info in pkgutil.iter_modules(cechwedge.__path__):
        module = importlib.import_module("cechwedge." + info.name)
        for value in vars(module).values():
            if callable(getattr(value, "cache_parameters", None)):
                caches[id(value)] = value
    return sorted(caches.values(), key=lambda f: f.__name__)


_CACHES = _library_caches()


def test_the_cache_search_finds_the_word_caches():
    names = {f.__name__ for f in _CACHES}
    assert {"letter", "word_letters", "_hall_conditions", "_has_square",
            "_reduce", "_tensor_of_monomial", "parse_word"} <= names
    assert len(names) == len(_CACHES)  # each id names one cache


@pytest.mark.parametrize("cached", _CACHES, ids=lambda f: f.__name__)
def test_word_caches_are_bounded(cached):
    maxsize = cached.cache_parameters()["maxsize"]
    assert isinstance(maxsize, int) and 0 < maxsize <= 10**5
    assert cached.cache_info().currsize <= maxsize


def test_dimension_truncation_examples():
    g1 = GradingSequence.constant(1)
    words, hs = dimension_truncation(2, 3, g1)
    assert [str(w) for w in words.words()] == ["a1", "a2", "[a1,a2]"]
    assert hs == (1, 1, 2)
    # degree 2 sees only letters
    assert [str(w) for w in dimension_truncation(5, 2, g1)[0].words()] == (
        ["a%d" % i for i in range(1, 6)])
    # degrees n <= r(1) see nothing
    empty, hs = dimension_truncation(3, 2, GradingSequence.constant(2))
    assert (len(empty), empty.words(), hs) == (0, (), ())


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_truncation_compatible_with_letter_restriction(k, n):
    g = GradingSequence.constant(1)
    small = dimension_truncation(k, n, g)[0].words()
    big = dimension_truncation(k + 1, n, g)[0].words()
    assert tuple(w for w in big if w.max_letter <= k) == small


# Every grading the benchmark lists: its mixed wedge gradings, its Hall
# listing gradings and its hm gradings (-m 2 is the constant 1).
_LISTING_GRADINGS = sorted({
    "1,1,1,1;1", "1,1,1,1;2", "1,1,1,2;2", "1,1,1,2;3", "1,1,1,3;3",
    "1,1,1,3;4", "1,1,2,2;2", "1,1,2,2;3", "1,1,2,3;3", "1,1,2,3;4",
    "1,1,3,3;3", "1,1,3,3;4",
    "1", "2", "1;2", "1,1;3", "1,2;2", "2,2;3", "1,1,2;2", "1,2,3;4",
    "1;1", "1,1;1", "1,1,1;1"})


def _listings(g):
    for k in (1, 2, 3, 4, 5):
        for J in (1, 3, 5):
            yield generate(k, J)
    for k in (2, 3, 4):
        for n in (2, 4, 6, 8):
            words, hs = dimension_truncation(k, n, g)
            assert hs == tuple(height(w, g) for w in words.words())
            yield words


@pytest.mark.parametrize("spec", _LISTING_GRADINGS)
def test_listing_folds_match_the_per_word_routes(spec):
    # a truncation's own heights are checked as _listings yields it
    g = GradingSequence.parse(spec)
    for ws in _listings(g):
        assert heights(ws, g) == [height(w, g) for w in ws.words()]
        assert labels(ws) == [str(w) for w in ws.words()]


def test_listing_restriction_refuses_a_missing_factor():
    g = GradingSequence((1, 2), 3)
    listing = generate(3, 4)
    ws = listing.words()
    factors = {f for w in ws if not w.is_letter for f in (w.left, w.right)}
    dropped = [i for i, w in enumerate(ws) if w in factors]
    assert len(dropped) > 3
    for i in dropped:
        keep = [True] * len(ws)
        keep[i] = False
        with pytest.raises(ValueError, match="not closed under factors"):
            listing.restrict(keep)
    # dropping a word that is nobody's factor keeps the rest intact
    for i in set(range(len(ws))) - set(dropped):
        keep = [j != i for j in range(len(ws))]
        sub = listing.restrict(keep)
        assert sub.words() == ws[:i] + ws[i + 1:]
        assert labels(sub) == [str(w) for w in sub.words()]
        assert heights(sub, g) == [height(w, g) for w in sub.words()]


def test_stratum_size_guard():
    with pytest.raises(StratumSizeError):
        generate(40, 6)


def test_one_letter_needs_no_count_per_weight(monkeypatch):
    # a1 is the only Hall word on one letter at every weight, so neither
    # the cap check nor the weight loop has anything to look at
    import cechwedge.hall as hall
    calls = []

    def counted(k, j):
        calls.append((k, j))
        if len(calls) > 100:
            raise AssertionError("necklace_count called once per weight")
        return necklace_count(k, j)

    monkeypatch.setattr(hall, "necklace_count", counted)
    assert generate(1, 2000).words() == (letter(1),)
    assert calls == []


# ---------------------------------------------------------------------------
# Height class census (the two cases: heavy tail / usable tail)


def test_census_finite_when_tail_out_of_reach():
    # tail letters alone exceed the degree: only prefix words count
    g = GradingSequence((1, 1), 5)
    assert height_class_census(3, g) == {1: 2, 2: 1}


def test_census_countable_for_constant_grading():
    g = GradingSequence.constant(1)
    census = height_class_census(3, g)
    assert census == {1: COUNTABLY_INFINITE, 2: COUNTABLY_INFINITE}


def test_census_mixed_example():
    # one letter of grading 1, one of grading 2, tail 3: degree 3 sees
    # exactly a1 (height 1) and a2 (height 2)
    g = GradingSequence((1, 2), 3)
    assert height_class_census(3, g) == {1: 1, 2: 1}


def test_census_matches_truncation_when_finite():
    g = GradingSequence((1, 2), 9)
    for n in (2, 3, 4, 5):
        census = height_class_census(n, g)
        words = dimension_truncation(2, n, g)[0].words()
        tally = {}
        for w in words:
            tally[height(w, g)] = tally.get(height(w, g), 0) + 1
        assert {h: c for h, c in census.items() if c} == tally


def test_census_countable_classes_have_tail_witnesses():
    # grading (1;2), degree 6: heights needing an odd contribution can
    # only come from the single prefix letter, so they stay finite
    g = GradingSequence((1,), 2)
    census = height_class_census(6, g)
    assert census[1] == 1                       # a1 alone
    assert census[2] is COUNTABLY_INFINITE      # a2, a3, ...
    assert census[3] is COUNTABLY_INFINITE      # [a1, a_i]
    assert census[4] is COUNTABLY_INFINITE
    assert census[5] is COUNTABLY_INFINITE


def test_only_a_small_census_is_kept():
    g = GradingSequence.constant(1)
    hall._kept_census.cache_clear()
    small = height_class_census(hall.CENSUS_CACHE_SIZE + 1, g)
    assert height_class_census(hall.CENSUS_CACHE_SIZE + 1, g) is small
    large = height_class_census(hall.CENSUS_CACHE_SIZE + 2, g)
    assert len(large) == hall.CENSUS_CACHE_SIZE + 1
    assert hall._kept_census.cache_info().currsize == 1
    with pytest.raises(TypeError):
        small[1] = 0  # a kept census is read-only


def test_census_table_sized_by_its_classes_not_its_degree():
    # two height classes in degree 10^6 + 2: the table of reachable
    # sums covers h - tail, not every degree below n (16 MB at 8 bytes
    # a slot)
    g = GradingSequence.constant(10**6)
    tracemalloc.start()
    try:
        census = height_class_census(10**6 + 2, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census == {10**6: COUNTABLY_INFINITE, 10**6 + 1: 0}
    assert peak < 10**6


# ---------------------------------------------------------------------------
# Property tests


@given(k=st.integers(1, 4), j=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_generated_words_satisfy_conditions(k, j):
    stratum = [w for w in generate(k, j).words() if w.length == j]
    assert all(is_hall(w, k) for w in stratum)
    assert all(w.length == j and w.max_letter <= k for w in stratum)
    assert stratum == sorted(stratum)
    assert len(set(stratum)) == len(stratum)


@given(k=st.integers(1, 4), n=st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_truncation_is_height_filtered_prefix(k, n):
    g = GradingSequence.constant(1)
    words = dimension_truncation(k, n, g)[0].words()
    assert all(height(w, g) + 1 <= n for w in words)
    full = [w for w in generate(k, n - 1).words() if height(w, g) + 1 <= n]
    assert tuple(full) == tuple(words)
