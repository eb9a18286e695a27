"""Coherent coordinate families, their algebra, and the realizations."""

import random
from types import SimpleNamespace

import pytest

from cechwedge.groups import (CYCLIC_2, GroupElement, ZERO,
                              integer_element, render_text)
from cechwedge.elements import (CoherentElement, ElementFormatError,
                                UnresolvedGroupError, check_coherence,
                                finite_support_element,
                                min_letter_element, min_letter_subgroup_expr,
                                parse_element_file,
                                random_min_letter_elements, random_sparse_epsilon,
                                render_element_file,
                                verify_composition_additivity,
                                verify_weight2_realization,
                                weight_one_coordinates, weight_one_element,
                                weight_one_part_vanishes, weight_two_element)
from cechwedge import elements as elements_module, hall, hilton
from cechwedge.hall import bracket, letter
from cechwedge.spheres import parse_table, seed_table
from cechwedge.whitehead import (SparseEpsilon, parse_word, project_level,
                                 project_levels)

from random_elements import random_element, random_weight_two_element

TABLE = seed_table()


# ---------------------------------------------------------------------------
# Levels


def test_finite_support_level_filters_by_letter():
    e = finite_support_element(3, 2, [("[a1,a3]", 2)], TABLE)
    assert e.level(2) == {}
    assert e.level(3) == {parse_word("[a1,a3]"): integer_element(2)}


def test_weight2_band_level():
    e = weight_two_element(2, SparseEpsilon(bands=((1, 1),)))
    assert e.level(3) == {parse_word("[a1,a2]"): integer_element(1),
                          parse_word("[a2,a3]"): integer_element(1)}
    assert e.level(1) == {}


def test_gtuple_level_needs_both_letters():
    e = min_letter_element(3, 2, {1: [("[a1,a2]", 1)]}, TABLE)
    assert e.level(1) == {}
    assert e.level(2) == {parse_word("[a1,a2]"): integer_element(1)}


def test_zero_element_levels():
    e = CoherentElement(4, 2)
    for k in (1, 3, 6):
        assert e.level(k) == {}


# ---------------------------------------------------------------------------
# Construction validation


def test_constructors_validate_words():
    # a word is a tuple, so each message must format it as one argument
    with pytest.raises(ValueError, match=r"^support word \[a2,a1\] is not"):
        finite_support_element(3, 2, [("[a2,a1]", 1)], TABLE)
    with pytest.raises(ValueError, match=r"weight >= 2, got a1$"):
        min_letter_element(3, 2, {1: [("a1", 1)]}, TABLE)       # weight 1
    with pytest.raises(ValueError, match=r"^word \[a1,a2\] has least letter a1"):
        min_letter_element(3, 2, {2: [("[a1,a2]", 1)]}, TABLE)  # wrong least letter
    with pytest.raises(UnresolvedGroupError, match=r"^support word a1 needs"):
        finite_support_element(9, 2, [("a1", 1)], TABLE)        # pi_9(S^2) unknown
    with pytest.raises(ValueError):
        CoherentElement(4, 2, eps=SparseEpsilon(((1, 2, 1),)))  # must be 2m-1


def test_constructors_drop_zero_values():
    e = finite_support_element(4, 2, [("a1", (0,)), ("[a1,a2]", (1,))], TABLE)
    assert not e.eps
    assert [str(w) for w, _ in e.coords] == ["[a1,a2]"]
    # pi_4(S^2) = Z/2, so a doubled coordinate vanishes
    e2 = finite_support_element(4, 2, [("a1", (1,)), ("a1", (1,))], TABLE)
    assert e2.coords == ()
    assert e2 == CoherentElement(4, 2)


def test_no_matrix_is_the_zero_matrix():
    e = CoherentElement(3, 2)
    assert e.eps == SparseEpsilon() and not e.eps
    assert e == CoherentElement(3, 2, eps=SparseEpsilon())
    assert weight_two_element(2, {}) == e == weight_two_element(2, {(1, 2): 0})
    # a zero matrix lives in any degree, however it is listed
    cancelled = SparseEpsilon(((1, 2, 1), (1, 2, -1)), ((2, 1), (2, -1)))
    assert CoherentElement(4, 2, eps=cancelled) == CoherentElement(4, 2)
    a = weight_two_element(2, {(1, 2): 1})
    assert (a + (-a)) == e and (a + e) == a


def test_element_refuses_an_eps_that_is_no_matrix():
    for eps in (None, {(1, 2): 1}, ((1, 2, 1),)):
        with pytest.raises(TypeError, match="eps must be a SparseEpsilon"):
            CoherentElement(3, 2, eps=eps)


def test_value_coercion():
    g = TABLE.lookup(4, 2)
    e = finite_support_element(4, 2, [("a1", GroupElement(g, (1,)))], TABLE)
    assert e.level(1)[parse_word("a1")].coords == (1,)
    with pytest.raises(ValueError):
        finite_support_element(
            3, 2, [("a1", GroupElement(CYCLIC_2, (0,)))], TABLE)


# ---------------------------------------------------------------------------
# Level parts


def _level_from_scratch(e, k):
    """Level k by its definition: eps_{i,j} on [a_i, a_j] for i < j <= k
    plus every coordinate on letters up to k, summed."""
    acc = {}
    if e.eps:
        for j in range(2, k + 1):
            for i in range(1, j):
                if e.eps.value(i, j):
                    acc[bracket(letter(i), letter(j))] = integer_element(
                        e.eps.value(i, j))
    for w, f in e.coords:
        if w.max_letter <= k:
            acc[w] = acc[w] + f if w in acc else f
    return {w: f for w, f in acc.items() if f}


def _level_cases():
    rng = random.Random(23)
    cases = [random_element(rng, 3, 2, TABLE, kind=kind)
             for kind in ("finite", "gtuple", "weight2") for _ in range(4)]
    cases += [random_element(rng, 4, 2, TABLE) for _ in range(4)]
    band = weight_two_element(2, SparseEpsilon(bands=((3, 2),)))
    mixed = weight_two_element(2, SparseEpsilon(bands=((2, -1),))
                               + SparseEpsilon.from_dict({(1, 3): 1, (2, 7): 4}))
    assert mixed.eps.entries and mixed.eps.bands
    cancel = finite_support_element(3, 2, [("[a1,a3]", -1), ("a2", 1)],
                                    TABLE)
    return cases + [band, mixed, band + cancel, mixed + (-band) + cancel]


def test_levels_out_of_order_match_definition():
    for e in _level_cases():
        walked = list(e.walk(8))
        assert len(walked) == 8
        for k in (8, 2, 5, 1, 8, 3):
            assert e.level(k) == _level_from_scratch(e, k), (e, k)
            assert walked[k - 1] == _level_from_scratch(e, k), (e, k)


def test_level_returns_a_fresh_dict():
    e = (weight_two_element(2, SparseEpsilon(bands=((2, 1),)))
         + finite_support_element(3, 2, [("a3", 1)], TABLE))
    first = e.level(4)
    want = dict(first)
    first.clear()
    e.level(3)[parse_word("[a1,a2]")] = integer_element(7)
    assert e.level(4) == want == _level_from_scratch(e, 4)
    assert e.level(3) == _level_from_scratch(e, 3)
    # clearing a yielded level leaves the walk's next level whole
    walk = e.walk(4)
    for k in range(1, 5):
        got = next(walk)
        assert got == _level_from_scratch(e, k), k
        got.clear()
    with pytest.raises(ValueError, match="levels start at 1"):
        e.level(0)
    assert list(e.walk(0)) == []


def test_levelled_elements_keep_equality_and_hash():
    for e in _level_cases():
        twin = CoherentElement(e.n, e.m, e.coords, e.eps)
        e.level(6)
        assert e == twin and hash(e) == hash(twin) and repr(e) == repr(twin)


def test_sparse_epsilon_value_matches_scan():
    def scan(entries, i, j):
        return sum(c for a, b, c in entries if (a, b) == (i, j))

    rng = random.Random(4)
    listed = ((1, 2, 5), (2, 4, 1), (1, 2, -3), (3, 5, 2), (3, 5, -2))
    repeated = SparseEpsilon(listed)
    assert repeated.entries == ((1, 2, 2), (2, 4, 1))
    cases = [(listed, repeated)] + [(e.entries, e) for e in (
        random_sparse_epsilon(rng) for _ in range(10))]
    for entries, eps in cases:
        for j in range(2, 9):
            for i in range(1, j):
                assert eps.value(i, j) == scan(entries, i, j)
        assert eps == SparseEpsilon(eps.entries)
        assert repr(eps) == "SparseEpsilon(entries=%r, bands=())" % (eps.entries,)
    with pytest.raises(ValueError):
        repeated.value(2, 2)


# ---------------------------------------------------------------------------
# Addition


def test_add_is_levelwise():
    rng = random.Random(11)
    for _ in range(20):
        e1 = random_element(rng, 3, 2, TABLE)
        e2 = random_element(rng, 3, 2, TABLE)
        s = e1 + e2
        for k in range(1, 7):
            want = dict(e1.level(k))
            for w, f in e2.level(k).items():
                want[w] = (want[w] + f) if w in want else f
            want = {w: f for w, f in want.items() if f}
            assert s.level(k) == want


def test_add_weight2_families_adds_matrices():
    a = weight_two_element(2, {(1, 2): 1, (1, 3): 2})
    b = weight_two_element(2, {(1, 2): 2})
    s = a + b
    assert s.coords == ()
    assert s.eps.value(1, 2) == 3
    assert s.eps.value(1, 3) == 2


def test_add_eps_and_gtuple_is_levelwise():
    w2 = weight_two_element(2, {(1, 2): 1})
    gt = min_letter_element(3, 2, {1: [("[a1,a2]", 1)]}, TABLE)
    w12 = parse_word("[a1,a2]")
    s = w2 + gt
    assert s.level(1) == {}
    for k in (2, 4):
        assert s.level(k) == {w12: integer_element(2)}
    # a gtuple coordinate cancels the matrix entry on the same word
    assert (w2 + (-gt)).level(4) == {}
    wide = weight_two_element(2, {(2, 3): 2}) + min_letter_element(
        3, 2, {1: [("[a1,a3]", 1)]}, TABLE)
    assert (s + wide).level(3) == {
        w12: integer_element(2), parse_word("[a1,a3]"): integer_element(1),
        parse_word("[a2,a3]"): integer_element(2)}
    # finite support combines with either
    fs = finite_support_element(3, 2, [("a1", 1)], TABLE)
    assert (fs + w2).level(2) == {
        parse_word("a1"): integer_element(1),
        parse_word("[a1,a2]"): integer_element(1)}
    assert (fs + gt).level(2) == (fs + w2).level(2)


def test_add_requires_same_degrees():
    with pytest.raises(ValueError):
        CoherentElement(3, 2) + CoherentElement(4, 2)


def test_negation_cancels():
    rng = random.Random(5)
    for _ in range(10):
        e = random_element(rng, 3, 2, TABLE)
        z = e + (-e)
        for k in range(1, 7):
            assert z.level(k) == {}


def test_gtuple_cancellation_drops_pairs():
    g = integer_element(1)
    a = min_letter_element(3, 2, {1: [("[a1,a2]", g)]}, TABLE)
    b = min_letter_element(3, 2, {1: [("[a1,a2]", -g)]}, TABLE)
    s = a + b
    assert s.coords == ()
    assert s == CoherentElement(3, 2)


# ---------------------------------------------------------------------------
# Coherence


def test_coherence_all_kinds():
    rng = random.Random(7)
    for _ in range(15):
        for kind in ("finite", "gtuple"):
            e = random_element(rng, 4, 2, TABLE, kind=kind)
            assert check_coherence(e, 6).ok
    for _ in range(15):
        e = random_weight_two_element(rng, 2)
        assert check_coherence(e, 6).ok


def _stream(e, levels, asked=None):
    """A level stream over a list of levels 1, 2, ... of e, which the
    caller may corrupt; asked, if given, records each level read."""

    def walk(kmax):
        for k in range(1, kmax + 1):
            if asked is not None:
                asked.append(k)
            yield levels[k - 1]

    return SimpleNamespace(n=e.n, m=e.m, walk=walk)


def test_coherence_negative_control():
    e = weight_two_element(2, {(1, 2): 1, (2, 3): 2})
    levels = list(e.walk(5))
    w = parse_word("[a1,a2]")
    levels[2][w] = integer_element(9)   # corrupt one coordinate of level 3
    rep = check_coherence(_stream(e, levels), 5)
    assert not rep.ok
    assert (2, w) in rep.failures and (3, w) in rep.failures
    assert all(word == w for _, word in rep.failures)


def test_coherence_asks_each_level_once():
    e = weight_two_element(2, {(1, 2): 1, (2, 3): 2})
    levels = list(e.walk(6))
    w12, w23 = parse_word("[a1,a2]"), parse_word("[a2,a3]")
    levels[1][w12] = integer_element(0)
    levels[3].update({w23: integer_element(5), w12: integer_element(7)})
    asked = []
    rep = check_coherence(_stream(e, levels, asked), 6)
    assert asked == [1, 2, 3, 4, 5, 6]
    assert rep.failures == ((2, w12), (3, w12), (3, w23), (4, w12), (4, w23))


def test_coherence_lists_no_hall_set(monkeypatch):
    # Bonding maps test membership word by word, so walking the tower
    # never enumerates a Hall set.  dimension_truncation is cached, so it
    # is refused too: a cached stage would hide an enumeration.
    elements = [
        finite_support_element(3, 2, [("a1", 1), ("[a1,a3]", 2),
                                      ("[a4,a7]", -1)], TABLE),
        min_letter_element(5, 2, {1: [("[a1,[a1,a2]]", 1)],
                                  3: [("[a3,[a3,a6]]", 1)]}, TABLE),
        weight_two_element(2, {(1, 2): 1, (2, 3): -2, (4, 9): 3}),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the tower walk listed a Hall set")

    monkeypatch.setattr(hall, "generate", refuse)
    for module in (hall, hilton):
        monkeypatch.setattr(module, "dimension_truncation", refuse)
    for e in elements:
        rep = check_coherence(e, 10)
        assert rep.ok and rep.checked_levels == 10, e


def test_raw_stream_matches_source():
    # check_coherence takes any object with n, m and walk(kmax)
    e = finite_support_element(4, 2, [("[a1,a2]", 1)], TABLE)
    assert check_coherence(_stream(e, list(e.walk(4))), 4).ok


# ---------------------------------------------------------------------------
# Weight-1 splitting


def test_weight_one_round_trip():
    g = TABLE.lookup(3, 2)
    coords = {1: GroupElement(g, (1,)),
              4: GroupElement(g, (-2,))}
    e = weight_one_element(3, 2, coords, TABLE)
    assert weight_one_coordinates(e) == coords
    assert e.level(2) == {parse_word("a1"): coords[1]}
    assert not weight_one_part_vanishes(e, 6)
    assert weight_one_part_vanishes(e + (-e), 6)


def test_weight_one_empty_gives_zero():
    e = weight_one_element(3, 2, {}, TABLE)
    assert e.level(5) == {}


def test_kernel_membership_by_kind():
    assert weight_one_part_vanishes(weight_two_element(2, {(1, 2): 3}), 6)
    gt = min_letter_element(3, 2, {1: [("[a1,a2]", 1)]}, TABLE)
    assert weight_one_part_vanishes(gt, 6)


# ---------------------------------------------------------------------------
# Realizations


def test_weight2_realization_projection():
    rep = verify_weight2_realization(weight_two_element(2, {(1, 2): 1}), 4)
    assert rep.ok and rep.checked_levels == 4


def test_weight2_realization_zero_matrix():
    e = weight_two_element(2, {})
    for k in range(1, 5):
        assert project_level(e, k) == {}


def test_weight2_realization_random_sweep():
    rng = random.Random(3)
    for _ in range(10):
        for m in (2, 3):
            eps = random_sparse_epsilon(rng)
            assert verify_weight2_realization(weight_two_element(m, eps), 6).ok


def test_composition_additivity():
    draws = random_min_letter_elements(random.Random(9), 4, 2, TABLE)
    for _ in range(10):
        e1, e2 = next(draws), next(draws)
        assert verify_composition_additivity(e1, e2, 5).ok


def test_realization_additivity_takes_mixed_elements():
    fs = finite_support_element(3, 2, [("a1", 1), ("[a1,a2]", 2)], TABLE)
    w2 = weight_two_element(2, {(1, 2): -2, (2, 4): 1})
    rep = verify_composition_additivity(fs, w2, 5)
    assert rep.ok and rep.checked_levels == 5


def dropping(walk, word, target=None):
    """A walk like `walk` that loses `word` from every level of the
    element `target` (of every element when target is None)."""
    def lossy(e, kmax):
        for level in walk(e, kmax):
            if target is None or e == target:
                level.pop(word, None)
            yield level
    return lossy


W12, W13, W23 = (parse_word(t) for t in ("[a1,a2]", "[a1,a3]", "[a2,a3]"))
EDGE = weight_two_element(2, {(1, 2): 1, (1, 3): -2, (2, 3): 3})


def test_weight2_realization_fails_on_a_lossy_projection(monkeypatch):
    monkeypatch.setattr(elements_module, "project_levels",
                        dropping(project_levels, W12))
    rep = verify_weight2_realization(EDGE, 3)
    assert not rep.ok and rep.checked_levels == 3
    assert rep.failures == (
        "level 2: projection {} != coordinates {[a1,a2]: 1}",
        "level 3: projection {[a1,a3]: -2, [a2,a3]: 3} != coordinates "
        "{[a1,a2]: 1, [a1,a3]: -2, [a2,a3]: 3}")


def test_weight2_realization_fails_on_lossy_coordinates(monkeypatch):
    walk = CoherentElement.walk
    monkeypatch.setattr(CoherentElement, "walk",
                        dropping(walk, W23))
    rep = verify_weight2_realization(EDGE, 3)
    assert rep.failures == (
        "level 3: projection {[a1,a2]: 1, [a1,a3]: -2, [a2,a3]: 3} != "
        "coordinates {[a1,a2]: 1, [a1,a3]: -2}",)


def _additivity_pair():
    e1 = weight_two_element(2, {(1, 2): 1, (2, 3): 2})
    e2 = weight_two_element(2, {(1, 3): -1})
    return e1, e2, e1 + e2


def test_additivity_fails_on_a_lossy_projection_of_one_summand(monkeypatch):
    e1, e2, _ = _additivity_pair()
    monkeypatch.setattr(elements_module, "project_levels",
                        dropping(project_levels, W23, target=e1))
    rep = verify_composition_additivity(e1, e2, 3)
    assert not rep.ok and rep.checked_levels == 3
    assert rep.failures == (
        "level 3: projection {[a1,a2]: 1, [a1,a3]: -1} != coordinates "
        "{[a1,a2]: 1, [a1,a3]: -1, [a2,a3]: 2}",)


def test_additivity_fails_on_a_lossy_projection_of_the_second_summand(
        monkeypatch):
    e1, e2, _ = _additivity_pair()
    monkeypatch.setattr(elements_module, "project_levels",
                        dropping(project_levels, W13, target=e2))
    rep = verify_composition_additivity(e1, e2, 4)
    assert rep.failures == tuple(
        "level %d: projection {[a1,a2]: 1, [a2,a3]: 2} != coordinates "
        "{[a1,a2]: 1, [a1,a3]: -1, [a2,a3]: 2}" % k for k in (3, 4))


def test_additivity_fails_on_lossy_coordinates_of_the_sum(monkeypatch):
    e1, e2, s = _additivity_pair()
    monkeypatch.setattr(CoherentElement, "walk",
                        dropping(CoherentElement.walk, W13, target=s))
    rep = verify_composition_additivity(e1, e2, 4)
    assert rep.failures == tuple(
        "level %d: projection {[a1,a2]: 1, [a1,a3]: -1, [a2,a3]: 2} != "
        "coordinates {[a1,a2]: 1, [a2,a3]: 2}" % k for k in (3, 4))


def test_distinct_gtuples_separate():
    a = min_letter_element(3, 2, {1: [("[a1,a2]", 1)]}, TABLE)
    b = min_letter_element(3, 2, {1: [("[a1,a3]", 1)]}, TABLE)
    assert any(a.level(k) != b.level(k) for k in range(1, 6))


# ---------------------------------------------------------------------------
# Subgroup shapes


def test_min_letter_subgroup_expr_goldens():
    forms = min_letter_subgroup_expr(4, 2, TABLE)
    assert render_text(forms.weight_split) == "PROD_N SUM_N Z/2 (+) PROD_N SUM_N Z"
    assert render_text(forms.per_letter) == "PROD_N (SUM_N Z/2 (+) SUM_N Z)"
    assert forms.equal

    single = min_letter_subgroup_expr(3, 2, TABLE)
    assert render_text(single.weight_split) == "PROD_N SUM_N Z"
    assert single.equal

    empty = min_letter_subgroup_expr(2, 2, TABLE)
    assert empty.per_letter == ZERO and empty.weight_split == ZERO
    assert empty.equal


# ---------------------------------------------------------------------------
# Element files


def test_element_file_round_trip():
    text = (
        "element n=3 m=2\n"
        "support a1 = 2\n"
        "support [a1,a2] = -1\n"
        "eps 1 3 = 4\n"
    )
    e = parse_element_file(text, TABLE)
    assert e.n == 3 and e.m == 2
    assert e.level(3) == {
        parse_word("a1"): integer_element(2),
        parse_word("[a1,a2]"): integer_element(-1),
        parse_word("[a1,a3]"): integer_element(4)}
    again = parse_element_file(render_element_file(e), TABLE)
    for k in range(1, 7):
        assert again.level(k) == e.level(k)


def test_element_file_gtuple_round_trip():
    text = (
        "element n=4 m=2\n"
        "# two least-letter rows\n"
        "gtuple 1 [a1,[a1,a2]] = 3\n"
        "gtuple 2 [a2,[a2,a3]] = -1\n"
    )
    e = parse_element_file(text, TABLE)
    assert not e.eps and [str(w) for w, _ in e.coords] == [
        "[a1,[a1,a2]]", "[a2,[a2,a3]]"]
    again = parse_element_file(render_element_file(e), TABLE)
    assert again == e


def test_element_file_errors():
    with pytest.raises(ValueError, match="header"):
        parse_element_file("support a1 = 2\n", TABLE)
    with pytest.raises(ValueError, match="Hall word"):
        parse_element_file("element n=3 m=2\nsupport [a2,a1] = 1\n", TABLE)
    with pytest.raises(ValueError, match="line 2"):
        parse_element_file("element n=3 m=2\nwhatever\n", TABLE)
    with pytest.raises(ValueError, match="line 2"):
        parse_element_file("element n=3 m=2\nsupport a1\n", TABLE)
    # exactly one header, of exactly the form element n=<n> m=<m>
    for text, lineno in (("element n=3\n", 1),
                         ("element n=3 m=2 extra\n", 1),
                         ("element n=3 m=2 q=1\n", 1),
                         ("element n=3 m=2\nsupport a1 = 1\n"
                          "element n=5 m=3\n", 3)):
        with pytest.raises(ElementFormatError) as exc:
            parse_element_file(text, TABLE)
        assert exc.value.lineno == lineno
        assert str(exc.value).startswith("line %d: " % lineno)
        assert "'element n=<n> m=<m>'" in str(exc.value)
    # errors found only when the element is built name their line too,
    # also when the header comes after the entry
    for text, lineno, message in (
            ("element n=3 m=2\ngtuple 1 a1 = 1\n", 2, "need weight >= 2"),
            ("element n=4 m=2\n\ngtuple 2 [a1,[a1,a2]] = 1\n", 3,
             "least letter a1, filed under a2"),
            ("element n=3 m=2\nsupport [a2,a1] = 1\n", 2, "not a Hall word"),
            ("support [a1,[a1,a2]] = 1\nelement n=9 m=2\n", 1,
             "needs pi_9(S^4), which the table does not resolve"),
            ("element n=4 m=2\nsupport a1 = 1\nsupport [a1,[a1,a2]] = 1,2\n",
             3, "needs 1 coordinates, got 2"),
            # header values are checked on the header line itself
            ("element n=1 m=2\n", 1, "need n >= 2 and m >= 2"),
            ("# one-spheres\nelement n=3 m=1\n", 2, "need n >= 2 and m >= 2"),
            # a nonzero matrix in the wrong degree: the first eps line
            ("element n=4 m=2\n\neps 1 2 = 1\neps 2 3 = 1\n", 3,
             "weight-2 families live in degree 2m - 1 = 3, not 4"),
            ("eps 1 2 = 1\nelement n=4 m=2\n", 1, "2m - 1 = 3, not 4")):
        with pytest.raises(ElementFormatError) as exc:
            parse_element_file(text, TABLE)
        assert exc.value.lineno == lineno, text
        assert str(exc.value).startswith("line %d: " % lineno)
        assert message in str(exc.value)


def test_element_file_adds_repeated_eps_lines():
    e = parse_element_file("element n=3 m=2\neps 1 2 = 1\neps 2 3 = 4\n"
                           "eps 1 2 = 2\n", TABLE)
    assert e == weight_two_element(2, {(1, 2): 3, (2, 3): 4})
    zero = parse_element_file("element n=4 m=2\neps 1 2 = 1\n"
                              "eps 1 2 = -1\n", TABLE)
    assert zero == CoherentElement(4, 2)
    with pytest.raises(ValueError, match="2m - 1 = 3, not 4"):
        parse_element_file("element n=4 m=2\neps 1 2 = 1\n", TABLE)
    with pytest.raises(ValueError, match="no file form"):
        render_element_file(weight_two_element(2, SparseEpsilon(bands=((1, 1),))))


def test_element_file_mixes_eps_and_gtuple():
    e = parse_element_file("element n=3 m=2\neps 1 2 = 1\neps 1 3 = 2\n"
                           "gtuple 1 [a1,a2] = 1\n", TABLE)
    w12, w13 = parse_word("[a1,a2]"), parse_word("[a1,a3]")
    assert e.level(2) == {w12: integer_element(2)}
    assert e.level(3) == {w12: integer_element(2),
                          w13: integer_element(2)}
    assert e == (weight_two_element(2, {(1, 2): 1, (1, 3): 2})
                 + min_letter_element(3, 2, {1: [("[a1,a2]", 1)]}, TABLE))


def test_element_file_prints_no_word_unless_it_refuses(monkeypatch):
    # a word is printed back to text only for an error message
    printed = []
    word_str = hall.HallWord.__str__

    def counted_str(w):
        printed.append(None)
        return word_str(w)

    monkeypatch.setattr(hall.HallWord, "__str__", counted_str)
    e = parse_element_file("element n=3 m=2\nsupport a1 = 1\n"
                           "support [a1,a3] = 2\ngtuple 1 [a1,a2] = 1\n"
                           "eps 1 2 = 1\neps 2 3 = -1\n", TABLE)
    assert printed == []
    assert e.level(3) == {letter(1): integer_element(1),
                          parse_word("[a1,a2]"): integer_element(2),
                          parse_word("[a1,a3]"): integer_element(2),
                          parse_word("[a2,a3]"): integer_element(-1)}
    with pytest.raises(ElementFormatError) as exc:
        parse_element_file("support [a1,[a1,a2]] = 1\nelement n=9 m=2\n",
                           TABLE)
    assert str(exc.value) == ("line 1: support word [a1,[a1,a2]] needs "
                              "pi_9(S^4), which the table does not resolve")
    assert printed


def test_multi_coordinate_values():
    table = parse_table("pi 7 4 = Z + Z/12\n")
    e = parse_element_file("element n=7 m=2\nsupport [a1,[a1,a2]] = 2,7\n", table)
    f = e.level(2)[parse_word("[a1,[a1,a2]]")]
    assert f.coords == (2, 7)


# ---------------------------------------------------------------------------
# Random generator determinism


def test_random_generators_are_seed_deterministic():
    a = random_element(random.Random(42), 4, 2, TABLE)
    b = random_element(random.Random(42), 4, 2, TABLE)
    assert a == b
    for k in range(1, 6):
        assert a.level(k) == b.level(k)


# every pi_n(S^q) below the diagonal: 0 for odd q, Z/q for even q, and
# unresolved when 3 divides n + q
_ZERO_AND_GAPS = parse_table("".join(
    "pi %d %d = %s\n" % (n, q, "0" if q % 2 else "Z/%d" % q)
    for n in range(3, 10) for q in range(2, n) if (n + q) % 3))


@pytest.mark.parametrize("table,dropped", [(TABLE, {None}),
                                           (_ZERO_AND_GAPS, {None, ZERO})],
                         ids=["seed", "zero-and-gaps"])
def test_resolvable_pool_matches_the_per_word_route(table, dropped):
    # the pool reads the wedge decomposition; the route here looks each
    # word's group up by its own height
    seen = set()
    for n in range(2, 10):
        for m in range(2, 6):
            g = hall.GradingSequence.constant(m - 1)
            want = []
            for w in hall.dimension_truncation(4, n, g)[0].words():
                if w.length >= 2:
                    group = table.lookup(n, hall.height(w, g) + 1)
                    seen.add(group)
                    if group is not None and group != ZERO:
                        want.append((w, group))
            assert elements_module._resolvable_pool(n, m, table) == want, (n, m)
    assert dropped <= seen and len(seen) > len(dropped)
