"""Bracket rewriting against the tensor-algebra oracle."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cechwedge.elements import CoherentElement, weight_two_element
from cechwedge.groups import Z, integer_element
from cechwedge.hall import GradingSequence, bracket, letter
from cechwedge.whitehead import (BandEpsilon, FormalSum, SizeLimitError,
                                 SparseEpsilon, WeightLimitError, expand,
                                 generator_monomial, graded_swap,
                                 hall_normalize, monomial_bracket,
                                 monomial_of_word, parse_bracket_expr,
                                 parse_word, project_level, tensor_expansion,
                                 word_of_monomial)


def _gen(i, d=2):
    return generator_monomial(i, d)


def _br(x, y):
    return monomial_bracket(x, y)


# ---------------------------------------------------------------------------
# Oracle self-tests: the tensor embedding must kill the three relations.


@given(p=st.integers(2, 5), q=st.integers(2, 5))
@settings(max_examples=30)
def test_tensor_kills_graded_symmetry(p, q):
    x, y = _gen(1, p), _gen(2, q)
    sign = -1 if (p * q) % 2 else 1
    s = FormalSum.single(_br(x, y)) - FormalSum.single(_br(y, x)).scale(sign)
    assert tensor_expansion(s) == {}


@given(p=st.integers(2, 5), q=st.integers(2, 5), r=st.integers(2, 5))
@settings(max_examples=60)
def test_tensor_kills_graded_jacobi(p, q, r):
    x, y, z = _gen(1, p), _gen(2, q), _gen(3, r)
    sgn = lambda e: -1 if e % 2 else 1
    s = (FormalSum.single(_br(_br(x, y), z)).scale(sgn(p * r))
         + FormalSum.single(_br(_br(y, z), x)).scale(sgn(p * q))
         + FormalSum.single(_br(_br(z, x), y)).scale(sgn(r * q)))
    assert tensor_expansion(s) == {}


def test_tensor_golden_weight_two():
    # even degrees make the bracket symmetric, so its image must be too:
    # twist +1, Koszul sign -1 gives xy + yx
    t = tensor_expansion(FormalSum.single(_br(_gen(1), _gen(2))))
    g1, g2 = _gen(1).generator, _gen(2).generator
    assert t == {(g1, g2): 1, (g2, g1): 1}
    # odd-degree pair: twist -1, Koszul +1 gives yx - xy
    t2 = tensor_expansion(FormalSum.single(_br(_gen(1, 3), _gen(2, 3))))
    h1, h2 = _gen(1, 3).generator, _gen(2, 3).generator
    assert t2 == {(h1, h2): -1, (h2, h1): 1}


def test_tensor_size_guards():
    deep = _br(_br(_gen(1), _gen(2)), _br(_gen(3), _gen(3)))
    with pytest.raises(SizeLimitError):
        tensor_expansion(FormalSum.single(_br(deep, _gen(1))))
    wide = _br(_gen(1), _br(_gen(2), _br(_gen(3), _gen(4))))
    with pytest.raises(SizeLimitError):
        tensor_expansion(FormalSum.single(wide))


# ---------------------------------------------------------------------------
# expand / graded_swap


DEG2 = {1: 2, 2: 2, 3: 2}


def test_expand_bilinearity():
    s = expand(parse_bracket_expr("[a1, 2*a2 + a3]", DEG2))
    assert s == (FormalSum.single(_br(_gen(1), _gen(2))).scale(2)
                 + FormalSum.single(_br(_gen(1), _gen(3))))


def test_expand_zero_annihilates():
    assert expand(parse_bracket_expr("[a1, 0]", DEG2)) == FormalSum.zero()
    e = parse_bracket_expr("[3*a1, -a2]", DEG2)
    assert expand(e) == FormalSum.single(_br(_gen(1), _gen(2))).scale(-3)


def test_graded_swap_signs():
    assert graded_swap(_br(_gen(2, 2), _gen(1, 2)))[0] == 1
    assert graded_swap(_br(_gen(2, 3), _gen(1, 3)))[0] == -1
    assert graded_swap(_br(_gen(1, 2), _gen(2, 3)))[0] == 1
    sign, m = graded_swap(_br(_gen(2), _gen(1)))
    assert m == _br(_gen(1), _gen(2))
    with pytest.raises(ValueError):
        graded_swap(_gen(1))


@given(p=st.integers(2, 5), q=st.integers(2, 5))
@settings(max_examples=30)
def test_graded_swap_involution(p, q):
    m = _br(_gen(1, p), _gen(2, q))
    s1, m1 = graded_swap(m)
    s2, m2 = graded_swap(m1)
    assert m2 == m and s1 * s2 == 1


# ---------------------------------------------------------------------------
# hall_normalize


def test_normalize_swap_golden():
    hall, residual = hall_normalize(FormalSum.single(_br(_gen(2), _gen(1))))
    assert hall == {bracket(letter(1), letter(2)): 1}
    assert not residual


def test_normalize_jacobi_golden():
    # all degrees even: [a1,[a2,a3]] -> -[a2,[a1,a3]] - [a3,[a1,a2]]
    hall, residual = hall_normalize(
        FormalSum.single(_br(_gen(1), _br(_gen(2), _gen(3)))))
    a1, a2, a3 = letter(1), letter(2), letter(3)
    assert hall == {bracket(a2, bracket(a1, a3)): -1,
                    bracket(a3, bracket(a1, a2)): -1}
    assert not residual


def test_normalize_square_residual():
    hall, residual = hall_normalize(FormalSum.single(_br(_gen(1), _gen(1))))
    assert hall == {}
    assert residual == FormalSum.single(_br(_gen(1), _gen(1)))


def test_normalize_weight_guard():
    deep = _br(_br(_gen(1), _gen(2)), _br(_gen(1), _gen(3)))
    with pytest.raises(WeightLimitError):
        hall_normalize(FormalSum.single(deep))


def test_normalize_letter_guard():
    with pytest.raises(ValueError):
        hall_normalize(FormalSum.single(_br(_gen(1), _gen(4))), letters=3)


def test_normalize_rejects_mixed_degrees():
    s = (FormalSum.single(_br(_gen(1, 2), _gen(2, 2)))
         + FormalSum.single(_br(_gen(1, 3), _gen(2, 3))))
    with pytest.raises(ValueError):
        hall_normalize(s)


def _all_monomials(letters, weight):
    if weight == 1:
        return [(i,) for i in letters]
    shapes = []
    for a in range(1, weight):
        for lx in _all_monomials(letters, a):
            for ly in _all_monomials(letters, weight - a):
                shapes.append((lx, ly))
    return shapes


def _build(shape, degree_of):
    if len(shape) == 1:
        return _gen(shape[0], degree_of[shape[0]])
    return _br(_build(shape[0], degree_of), _build(shape[1], degree_of))


def _letters_of(shape):
    if len(shape) == 1:
        return {shape[0]}
    return _letters_of(shape[0]) | _letters_of(shape[1])


def test_normalize_sound_against_tensor_exhaustive():
    """input = hall part + residual, certified in the tensor ring."""
    checked = 0
    for weight in (1, 2, 3):
        for shape in _all_monomials((1, 2, 3), weight):
            used = sorted(_letters_of(shape))
            for degs in itertools.product((2, 3, 4), repeat=len(used)):
                degree_of = dict(zip(used, degs))
                mono = _build(shape, degree_of)
                hall, residual = hall_normalize(FormalSum.single(mono))
                back = residual
                for w, c in hall.items():
                    back = back + FormalSum.single(
                        monomial_of_word(w, degree_of)).scale(c)
                assert tensor_expansion(FormalSum.single(mono)) == \
                    tensor_expansion(back), "failed on %s with %s" % (mono, degree_of)
                checked += 1
    assert checked > 200


def test_normalize_idempotent_on_hall_output():
    mono = _br(_gen(1), _br(_gen(2), _gen(3)))
    hall, _ = hall_normalize(FormalSum.single(mono))
    acc = FormalSum.zero()
    for w, c in hall.items():
        acc = acc + FormalSum.single(
            monomial_of_word(w, GradingSequence.constant(1))).scale(c)
    hall2, residual2 = hall_normalize(acc)
    assert hall2 == hall and not residual2


def test_degree_preserved_by_normalization():
    mono = _br(_gen(1, 3), _br(_gen(2, 2), _gen(3, 4)))
    hall, _ = hall_normalize(FormalSum.single(mono))
    degree_of = {1: 3, 2: 2, 3: 4}
    for w in hall:
        assert monomial_of_word(w, degree_of).degree == mono.degree


# ---------------------------------------------------------------------------
# Text syntax


def test_parse_bracket_expr():
    g = GradingSequence.constant(1)
    e = parse_bracket_expr("2*[a1,[a1,a2]] + a3 - a1", g)
    s = expand(e)
    w = _br(_gen(1), _br(_gen(1), _gen(2)))
    assert s.coefficient(w) == 2
    assert s.coefficient(_gen(3)) == 1
    assert s.coefficient(_gen(1)) == -1
    assert expand(parse_bracket_expr("0", g)) == FormalSum.zero()


def test_parse_bracket_expr_errors():
    g = GradingSequence.constant(1)
    for bad in ("", "[a1,a2", "a1 +", "5", "a0", "b2", "[a1 a2]"):
        with pytest.raises(ValueError):
            parse_bracket_expr(bad, g)


def test_parse_word_round_trip():
    for text in ("a1", "[a1,a2]", "[a2,[a1,[a1,a3]]]"):
        assert str(parse_word(text)) == text
    with pytest.raises(ValueError):
        parse_word("a1 + a2")   # sums are not single words
    with pytest.raises(ValueError):
        parse_word("2*a1")


# ---------------------------------------------------------------------------
# Epsilon oracles and symbolic infinite sums


def test_sparse_epsilon():
    eps = SparseEpsilon.from_dict({(1, 2): 3, (2, 5): -1, (1, 4): 0})
    assert eps.value(1, 2) == 3
    assert eps.value(2, 5) == -1
    assert eps.value(1, 4) == 0
    assert eps.value(3, 9) == 0
    assert eps.scale(-2).value(1, 2) == -6
    with pytest.raises(ValueError):
        eps.value(2, 2)
    with pytest.raises(ValueError):
        SparseEpsilon(((2, 1, 5),))


def test_band_and_sum_epsilon():
    band = BandEpsilon(2, 1)
    assert band.value(3, 4) == 2
    assert band.value(3, 5) == 0
    mixed = band + SparseEpsilon.from_dict({(3, 4): 1})
    assert mixed.value(3, 4) == 3
    assert mixed.value(1, 2) == 2
    assert mixed.scale(2).value(3, 4) == 6
    sparse = SparseEpsilon.from_dict({(1, 2): 1}) + SparseEpsilon.from_dict({(1, 2): -1})
    assert isinstance(sparse, SparseEpsilon) and sparse.entries == ()


def test_weight2_sum_algebra():
    a = weight_two_element(2, {(1, 2): 1})
    b = weight_two_element(2, {(1, 2): 2, (1, 3): 1})
    assert (a + b).eps.value(1, 2) == 3
    assert (-a).eps.value(1, 2) == -1
    assert a.n == 3
    with pytest.raises(ValueError):
        a + weight_two_element(3, SparseEpsilon())


def test_composition_sum_algebra():
    g = integer_element(1)
    w = parse_word("[a1,a2]")
    a = CoherentElement(3, 2, ((w, g),))
    b = CoherentElement(3, 2, ((w, -g),))
    assert (a + b).coords == ()
    assert (-a).coords == ((w, -g),)


def test_project_level_weight2():
    expr = weight_two_element(2, {(1, 2): 1})
    w12 = parse_word("[a1,a2]")
    assert project_level(expr, 1) == {}
    for k in (2, 3, 4):
        assert project_level(expr, k) == {w12: integer_element(1)}


def test_project_level_weight2_collects_coefficients():
    # [a1, a2 + a3] and [a2, a3] pieces at k=3
    expr = weight_two_element(2, {(1, 2): 2, (1, 3): -1, (2, 3): 5})
    got = project_level(expr, 3)
    assert got == {parse_word("[a1,a2]"): integer_element(2),
                   parse_word("[a1,a3]"): integer_element(-1),
                   parse_word("[a2,a3]"): integer_element(5)}
    assert project_level(expr, 2) == {parse_word("[a1,a2]"): integer_element(2)}


def test_project_level_theta():
    w = parse_word("[a1,a2]")
    expr = CoherentElement(3, 2, ((w, integer_element(1)),))
    assert project_level(expr, 1) == {}
    assert project_level(expr, 2) == {w: integer_element(1)}


def test_project_level_band_rule():
    expr = weight_two_element(2, BandEpsilon(1, 1))
    got = project_level(expr, 3)
    assert got == {parse_word("[a1,a2]"): integer_element(1),
                   parse_word("[a2,a3]"): integer_element(1)}


def test_project_level_adds_both_sums():
    w12, deep = parse_word("[a1,a2]"), parse_word("[a1,[a1,a3]]")
    e = CoherentElement(3, 2, ((w12, integer_element(4)),
                               (deep, integer_element(1))),
                        SparseEpsilon.from_dict({(1, 2): -4, (2, 3): 1}))
    assert project_level(e, 2) == {}
    assert project_level(e, 3) == {parse_word("[a2,a3]"): integer_element(1),
                                   deep: integer_element(1)}
    for k in range(1, 6):
        assert project_level(e, k) == e.level(k)


def test_project_level_resolves_brackets_in_the_elements_degree():
    # [a_i, a_j] of 2-spheres lives in pi_3(S^3) = Z in degree n = 2m - 1
    e = CoherentElement(3, 2, eps=SparseEpsilon.from_dict({(1, 2): 1}))
    got = project_level(e, 2)
    assert got == {parse_word("[a1,a2]"): integer_element(1)}
    assert all(f.group == Z for f in got.values())
    # and in pi_4(S^3) = Z/2 when n = 4: such an element is refused
    with pytest.raises(ValueError, match="2m - 1 = 3, not 4"):
        CoherentElement(4, 2, eps=SparseEpsilon.from_dict({(1, 2): 1}))


# ---------------------------------------------------------------------------
# FormalSum laws


_monos = st.sampled_from([
    _gen(1), _gen(2), _br(_gen(1), _gen(2)),
    _br(_gen(1), _br(_gen(1), _gen(2))), _br(_gen(2), _br(_gen(1), _gen(2)))])
_sums = st.builds(
    lambda pairs: FormalSum({m: c for m, c in pairs if c}),
    st.lists(st.tuples(_monos, st.integers(-5, 5)), max_size=4))


@given(a=_sums, b=_sums, c=_sums)
@settings(max_examples=80)
def test_formal_sum_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a - a == FormalSum.zero()
    assert a.scale(0) == FormalSum.zero()
    assert a.scale(2) == a + a
    assert -(-a) == a


@given(a=_sums)
@settings(max_examples=40)
def test_formal_sum_no_zero_coefficients(a):
    assert all(c != 0 for _, c in a.items())
