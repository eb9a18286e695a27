"""Wedge decompositions, the bonding tower, and the closed limit forms."""

import pytest

from cechwedge.groups import (CYCLIC_2, DirectSum, FGAbelianGroup, Pow, ProdN,
                              SphereSymbol, SumN, Z, ZERO, has_symbol,
                              normalize, render_text)
from cechwedge.hall import (GradingSequence, bracket, dimension_truncation,
                            generate, height, letter)
from cechwedge.hilton import (SupportError, apply_bonding,
                              bonding, cech_decompose, decompose_wedge,
                              earring_formula, sphere_group_expr,
                              stabilization_report, weight_summand)
from cechwedge.spheres import SphereGroupTable, seed_table
from cechwedge.whitehead import parse_word

TABLE = seed_table()
G1 = GradingSequence.constant(1)


def test_decompose_wedge_degree3():
    dec = decompose_wedge(3, 2, G1, TABLE)
    assert [str(w) for w in dec.listing.words()] == ["a1", "a2", "[a1,a2]"]
    assert [g for _, g in dec.summands] == [Z] * 3
    # summand identity is kept: no merging into a power
    assert render_text(dec.total()) == "Z (+) Z (+) Z"


def test_decompose_wedge_degree2_only_letters():
    dec = decompose_wedge(2, 5, G1, TABLE)
    assert [str(w) for w in dec.listing.words()] == ["a1", "a2", "a3", "a4", "a5"]
    assert all(g == Z for _, g in dec.summands)


def test_decompose_wedge_degree4():
    dec = decompose_wedge(4, 2, G1, TABLE)
    assert [str(w) for w in dec.listing.words()] == [
        "a1", "a2", "[a1,a2]", "[a1,[a1,a2]]", "[a2,[a1,a2]]"]
    assert [g for _, g in dec.summands] == [
        CYCLIC_2, CYCLIC_2, CYCLIC_2,
        Z, Z]


def test_decompose_wedge_trivial_by_connectivity():
    # n <= r(1): no summand at all, so the total is the trivial group
    dec = decompose_wedge(2, 3, GradingSequence.constant(2), TABLE)
    assert dec.summands == () and dec.heights == ()
    assert dec.total() == ZERO
    assert dec == decompose_wedge(2, 3, GradingSequence.constant(2), TABLE)
    assert dec != decompose_wedge(2, 3, GradingSequence.constant(1), TABLE)


def test_decompose_wedge_summand_count_matches_truncation():
    for n in range(2, 7):
        for k in range(1, 6):
            dec = decompose_wedge(n, k, G1, TABLE)
            assert len(dec.summands) == len(dimension_truncation(k, n, G1)[0])


def test_a_repeated_decomposition_builds_no_word_again(monkeypatch):
    # a stage asked for again reads the words its cached listing built
    import cechwedge.hall as hall
    built = []
    bracket = hall.bracket

    def counted_bracket(x, y):
        built.append(None)
        return bracket(x, y)

    monkeypatch.setattr(hall, "bracket", counted_bracket)
    hall.generate.cache_clear()
    hall.dimension_truncation.cache_clear()
    g = GradingSequence.constant(2)
    first = decompose_wedge(9, 6, g, TABLE)
    assert built == []
    assert len(first.summands) == len(first.listing)
    assert len(built) == len(first.listing) - 6   # one per bracket
    built.clear()
    again = decompose_wedge(9, 6, g, TABLE)
    assert len(again.summands) == len(first.summands) and built == []
    assert again.summands == first.summands


def test_decompose_wedge_symbol_passthrough():
    dec = decompose_wedge(6, 2, G1, TABLE)
    by_word = {str(w): g for w, g in dec.summands}
    assert by_word["a1"] == SphereSymbol(6, 2)     # pi_6(S^2) unseeded
    assert by_word["[a2,[a1,a2]]"] == SphereSymbol(6, 4)


@pytest.mark.parametrize("spec", ["1,1,2,3;3", "1,2;3", "1,1,1,3;4", "1;2"])
def test_decompose_wedge_groups_follow_each_word_height(spec):
    # pi_n(S^q) = Z/q below the diagonal: a different group per height
    # (the built-in rules decide q >= n)
    table = SphereGroupTable({(n, q): FGAbelianGroup(0, (q,))
                              for n in range(3, 9) for q in range(2, n)})
    g = GradingSequence.parse(spec)
    for n in (5, 6, 8):
        for k in (2, 3, 4):
            dec = decompose_wedge(n, k, g, table)
            assert dec.summands
            assert dec.heights == tuple(height(w, g) for w in dec.listing.words())
            assert [grp for _, grp in dec.summands] == [
                sphere_group_expr(n, height(w, g) + 1, table)
                for w in dec.listing.words()]


# ---------------------------------------------------------------------------
# Bonding tower


def test_bonding_partitions_truncation():
    # the 3-stage summands split into the 2-stage ones, which are kept,
    # and the words on a3, which are killed
    top = dimension_truncation(3, 4, G1)[0].words()
    pushed = apply_bonding(bonding(4, 2, G1), {w: 1 for w in top})
    assert list(pushed) == list(dimension_truncation(2, 4, G1)[0].words())
    assert {str(w) for w in top if w not in pushed} == {
        "a3", "[a1,a3]", "[a2,a3]",
        "[a1,[a1,a3]]", "[a2,[a1,a3]]", "[a2,[a2,a3]]",
        "[a3,[a1,a2]]", "[a3,[a1,a3]]", "[a3,[a2,a3]]"}


def _bracket_trees(letters, weight):
    """Every bracket tree over a1..a<letters> of exactly this weight,
    Hall or not."""
    if weight == 1:
        return [letter(i) for i in range(1, letters + 1)]
    return [bracket(x, y) for i in range(1, weight)
            for x in _bracket_trees(letters, i)
            for y in _bracket_trees(letters, weight - i)]


@pytest.mark.parametrize("spec", ["1", "2", "1;2", "1,1;3", "1,2;2"])
def test_bonding_membership_matches_enumeration(spec):
    g = GradingSequence.parse(spec)
    for n in range(2, 7):
        for k in (1, 2, 3):
            b = bonding(n, k, g)
            domain = dimension_truncation(k + 1, n, g)[0].words()
            # candidates: the Hall words one letter and one weight past
            # the domain, and every tree of weight <= 3, Hall or not
            max_w = (n - 1) // g.r(1) + 1
            candidates = set(generate(k + 2, max_w).words())
            for j in (1, 2, 3):
                candidates.update(_bracket_trees(k + 2, j))
            accepted = set()
            for w in candidates:
                try:
                    apply_bonding(b, {w: 1})
                except SupportError:
                    continue
                accepted.add(w)
            assert accepted == set(domain), (spec, n, k)
            pushed = apply_bonding(b, {w: 1 for w in domain})
            assert list(pushed) == list(dimension_truncation(k, n, g)[0].words())


def test_apply_bonding_examples():
    w13, w12 = parse_word("[a1,a3]"), parse_word("[a1,a2]")
    a1, a3 = parse_word("a1"), parse_word("a3")
    b = bonding(3, 2, G1)
    assert apply_bonding(b, {w13: 5}) == {}
    assert apply_bonding(b, {w12: 5}) == {w12: 5}
    assert apply_bonding(b, {a3: 1, a1: 2}) == {a1: 2}


def test_apply_bonding_rejects_unknown_words():
    b = bonding(3, 2, G1)
    with pytest.raises(SupportError):
        apply_bonding(b, {parse_word("[a1,a4]"): 1})   # beyond level 3
    with pytest.raises(SupportError):
        apply_bonding(b, {parse_word("[a1,[a1,a2]]"): 1})  # height too big
    b4 = bonding(4, 2, G1)   # heights fit, the bracket order does not
    for text in ("[a2,a1]", "[[a1,a2],a1]"):
        with pytest.raises(SupportError):
            apply_bonding(b4, {parse_word(text): 1})


def test_bonding_composition_matches_direct_kill():
    # pushing k+2 -> k+1 -> k equals filtering by max letter <= k
    for n in (3, 4, 5):
        for k in (1, 2, 3):
            top = {w: 1 for w in dimension_truncation(k + 2, n, G1)[0].words()}
            two_step = apply_bonding(bonding(n, k, G1),
                                     apply_bonding(bonding(n, k + 1, G1), top))
            direct = {w: 1 for w in top if w.max_letter <= k}
            assert two_step == direct


# ---------------------------------------------------------------------------
# Closed forms and the census route


def test_earring_goldens():
    assert render_text(earring_formula(3, 2, TABLE)) == "Z^N (+) Z^N"
    assert render_text(earring_formula(4, 2, TABLE)) == (
        "(Z/2)^N (+) (Z/2)^N (+) Z^N")
    assert render_text(earring_formula(2, 2, TABLE)) == "Z^N"
    for n in (3, 4, 5, 6):
        assert render_text(earring_formula(n + 1, n, TABLE)) == "(Z/2)^N"
    assert earring_formula(2, 3, TABLE) == ZERO


def test_earring_vanishes_below_connectivity():
    for m in (2, 3, 4, 5):
        for n in range(2, m):
            assert earring_formula(n, m, TABLE) == ZERO


def test_two_routes_agree():
    for m in range(2, 6):
        for n in range(2, 9):
            closed = earring_formula(n, m, TABLE)
            census = cech_decompose(n, GradingSequence.constant(m - 1), TABLE)
            assert closed == census, (n, m)


def test_cech_decompose_mixed_grading():
    # pi_3(S^2) (+) pi_3(S^3): one word in each height class
    from cechwedge.groups import DirectSum
    g = GradingSequence((1, 2), 3)
    expr = cech_decompose(3, g, TABLE)
    assert render_text(expr) == "Z (+) Z"
    assert expr == DirectSum((Z, Z))


def test_weight_summand():
    assert render_text(weight_summand(3, 2, 2, TABLE)) == "Z^N"
    assert weight_summand(3, 2, 5, TABLE) == ZERO
    assert render_text(weight_summand(4, 2, 1, TABLE)) == "(Z/2)^N"
    with pytest.raises(ValueError):
        weight_summand(3, 2, 0, TABLE)
    # past the range the sphere S^((m-1)j+1) is above degree n, where the
    # built-in rule n < q forces 0 whatever a table says
    above = SphereGroupTable({(n, q): Z for n in range(2, 14)
                              for q in range(n + 1, 60)})
    for m in (2, 3, 4, 7):
        for n in range(2, 14):
            last = (n - 1) // (m - 1)
            for j in range(1, last + 5):
                for table in (TABLE, above):
                    got = weight_summand(n, m, j, table)
                    assert got == normalize(ProdN(sphere_group_expr(
                        n, (m - 1) * j + 1, table))), (n, m, j)
                    if j > last:
                        assert got == ZERO, (n, m, j)


def test_unresolved_groups_stay_symbolic():
    expr = earring_formula(9, 2, TABLE)
    assert "pi_9(S^2)" in render_text(expr)


# ---------------------------------------------------------------------------
# Stabilization


def test_stabilization_first_stem():
    rep = stabilization_report(1, range(3, 7), TABLE)
    assert rep.stable
    assert render_text(rep.stable_value) == "(Z/2)^N"
    assert [m for m, _ in rep.entries] == [3, 4, 5, 6]
    assert rep.warnings == ()


def test_stabilization_zero_offset():
    rep = stabilization_report(0, range(2, 7), TABLE)
    assert rep.stable
    assert render_text(rep.stable_value) == "Z^N"
    assert all(render_text(g) == "Z^N" for _, g in rep.entries)


def test_stabilization_below_range_entry_differs():
    rep = stabilization_report(1, range(2, 7), TABLE)
    assert rep.stable                       # verdict ignores m < s + 2
    low = dict(rep.entries)[2]
    assert render_text(low) == "Z^N (+) Z^N"
    assert low != rep.stable_value


def test_stabilization_warns_on_unresolved():
    rep = stabilization_report(2, range(3, 6), TABLE)
    assert rep.warnings
    assert not rep.stable


def test_stabilization_validation():
    with pytest.raises(ValueError):
        stabilization_report(-1, range(3, 5), TABLE)
    with pytest.raises(ValueError):
        stabilization_report(1, [], TABLE)
    with pytest.raises(ValueError):
        stabilization_report(1, [1, 3], TABLE)
    # one dimension with m >= s + 2 leaves nothing to compare
    with pytest.raises(ValueError):
        stabilization_report(1, range(2, 4), TABLE)


@pytest.mark.parametrize("wrap", [
    lambda e: e, SumN, ProdN, lambda e: Pow(e, 2),
    lambda e: DirectSum((Z, e)), lambda e: ProdN(SumN(e)),
])
def test_has_symbol_sees_every_shape(wrap):
    assert has_symbol(wrap(SphereSymbol(9, 3)))
    assert not has_symbol(wrap(Z))
