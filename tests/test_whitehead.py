"""Bracket rewriting against the tensor-algebra oracle."""

import re

import pytest
from hypothesis import given, settings, strategies as st

import parse_oracle
from cechwedge import elements, whitehead
from cechwedge.elements import (CoherentElement, SparseEpsilon,
                                add_coordinates, parse_word, project_level,
                                project_levels, verify_weight2_realization,
                                weight_two_element)
from cechwedge.groups import (CYCLIC_2, FGAbelianGroup, GroupElement, Z,
                              integer_element)
from cechwedge.hall import bracket, letter
from cechwedge.whitehead import (BracketMonomial, FormalSum, WeightLimitError,
                                 expand, hall_normalize, monomial_of_word,
                                 parse_bracket_expr, tensor_expansion)


DEG2 = {1: 2, 2: 2, 3: 2}


def _mono(text, degrees=DEG2):
    return monomial_of_word(parse_word(text), degrees)


def _sum(*terms, degrees=DEG2):
    """The FormalSum of (bracket text, coefficient) pairs."""
    return FormalSum([(_mono(text, degrees), c) for text, c in terms])


def _single(text, degrees=DEG2):
    return _sum((text, 1), degrees=degrees)


# ---------------------------------------------------------------------------
# Oracle self-tests: the tensor embedding must kill the three relations.


@given(p=st.integers(2, 5), q=st.integers(2, 5))
@settings(max_examples=30)
def test_tensor_kills_graded_symmetry(p, q):
    d = {1: p, 2: q}
    sign = -1 if (p * q) % 2 else 1
    s = _sum(("[a1,a2]", 1), ("[a2,a1]", -sign), degrees=d)
    assert tensor_expansion(s) == {}


@given(p=st.integers(2, 5), q=st.integers(2, 5), r=st.integers(2, 5))
@settings(max_examples=60)
def test_tensor_kills_graded_jacobi(p, q, r):
    d = {1: p, 2: q, 3: r}
    sgn = lambda e: -1 if e % 2 else 1
    s = _sum(("[[a1,a2],a3]", sgn(p * r)), ("[[a2,a3],a1]", sgn(p * q)),
             ("[[a3,a1],a2]", sgn(r * q)), degrees=d)
    assert tensor_expansion(s) == {}


def test_tensor_golden_weight_two():
    # even degrees make the bracket symmetric, so its image must be too:
    # twist +1, Koszul sign -1 gives xy + yx
    t = tensor_expansion(_single("[a1,a2]"))
    assert t == {((1, 2), (2, 2)): 1, ((2, 2), (1, 2)): 1}
    # odd-degree pair: twist -1, Koszul +1 gives yx - xy
    t2 = tensor_expansion(_single("[a1,a2]", {1: 3, 2: 3}))
    assert t2 == {((1, 3), (2, 3)): -1, ((2, 3), (1, 3)): 1}
    # a letter of two degrees is two generators
    both = _single("a1", {1: 2}) + _single("a1", {1: 3})
    assert tensor_expansion(both) == {((1, 2),): 1, ((1, 3),): 1}


def test_tensor_size_guards():
    # Four letters at weight 4 expand, worked by hand with all degrees 2:
    # [a3,a4] -> a3a4 + a4a3 (twist +1, Koszul -1); [a2, Y] with Y of
    # degree 3 -> a2 Y - Y a2 (Koszul +1); [a1, Z] with Z of degree 4
    # -> a1 Z + Z a1 (Koszul -1).
    got = tensor_expansion(_single("[a1,[a2,[a3,a4]]]",
                                   {1: 2, 2: 2, 3: 2, 4: 2}))
    words = {"1234": 1, "1243": 1, "1342": -1, "1432": -1,
             "2341": 1, "2431": 1, "3421": -1, "4321": -1}
    assert got == {tuple((int(i), 2) for i in w): c for w, c in words.items()}
    with pytest.raises(WeightLimitError):
        tensor_expansion(_single("[[[a1,a2],[a3,a3]],a1]"))


# ---------------------------------------------------------------------------
# expand / the graded swap


def test_expand_bilinearity():
    s = expand(parse_bracket_expr("[a1, 2*a2 + a3]", DEG2))
    assert s == _sum(("[a1,a2]", 2), ("[a1,a3]", 1))


def test_expand_zero_annihilates():
    assert expand(parse_bracket_expr("[a1, 0]", DEG2)) == FormalSum()
    e = parse_bracket_expr("[3*a1, -a2]", DEG2)
    assert expand(e) == _sum(("[a1,a2]", -3))


def test_graded_swap_signs():
    # [a2, a1] = (-1)**(p*q) [a1, a2]
    w12 = parse_word("[a1,a2]")
    for p, q, sign in ((2, 2, 1), (3, 3, -1), (2, 3, 1), (3, 2, 1)):
        hall, residual = hall_normalize(_mono("[a2,a1]", {1: p, 2: q}))
        assert hall == {w12: sign} and not residual


@given(p=st.integers(2, 5), q=st.integers(2, 5))
@settings(max_examples=30)
def test_graded_swap_involution(p, q):
    w12 = parse_word("[a1,a2]")
    s_pq = hall_normalize(_mono("[a2,a1]", {1: p, 2: q}))[0][w12]
    s_qp = hall_normalize(_mono("[a2,a1]", {1: q, 2: p}))[0][w12]
    assert s_pq == s_qp and s_pq * s_qp == 1
    assert hall_normalize(_mono("[a1,a2]", {1: p, 2: q}))[0] == {w12: 1}


# ---------------------------------------------------------------------------
# hall_normalize


def test_normalize_swap_golden():
    hall, residual = hall_normalize(_single("[a2,a1]"))
    assert hall == {bracket(letter(1), letter(2)): 1}
    assert not residual


def test_normalize_jacobi_golden():
    # all degrees even: [a1,[a2,a3]] -> -[a2,[a1,a3]] - [a3,[a1,a2]]
    hall, residual = hall_normalize(_single("[a1,[a2,a3]]"))
    a1, a2, a3 = letter(1), letter(2), letter(3)
    assert hall == {bracket(a2, bracket(a1, a3)): -1,
                    bracket(a3, bracket(a1, a2)): -1}
    assert not residual


def test_normalize_weight_four_golden():
    # Jacobi on [a1,[a2,[a1,a2]]] yields the self-bracket [[a1,a2],[a1,a2]]
    for d, c in ((2, -1), (3, 1)):
        degrees = {1: d, 2: d}
        hall, residual = hall_normalize(_mono("[a1,[a2,[a1,a2]]]", degrees))
        assert hall == {parse_word("[a2,[a1,[a1,a2]]]"): c}
        square = _mono("[[a1,a2],[a1,a2]]", degrees)
        assert square.has_square()
        assert residual == FormalSum([(square, c)])
    hall, residual = hall_normalize(_single("[[a1,a2],[a1,a3]]"))
    assert hall == {parse_word("[[a1,a2],[a1,a3]]"): 1} and not residual


def test_normalize_square_residual():
    for text in ("[a1,a1]", "[[a1,a2],[a1,a2]]", "[a3,[a2,a2]]",
                 "[[a2,a1],[a3,a3]]"):
        hall, residual = hall_normalize(_single(text))
        assert hall == {}
        assert residual == _single(text)


def test_normalize_weight_guard():
    with pytest.raises(WeightLimitError):
        hall_normalize(_single("[[a1,a2],[a1,[a1,a3]]]"))


def test_normalize_rejects_mixed_degrees():
    s = _single("[a1,a2]", {1: 2, 2: 2}) + _single("[a1,a2]", {1: 3, 2: 3})
    with pytest.raises(ValueError):
        hall_normalize(s)


def test_normalize_idempotent_on_hall_output():
    hall, _ = hall_normalize(_single("[a1,[a2,a3]]"))
    acc = FormalSum([(monomial_of_word(w, DEG2), c) for w, c in hall.items()])
    hall2, residual2 = hall_normalize(acc)
    assert hall2 == hall and not residual2


def test_degree_preserved_by_normalization():
    degree_of = {1: 3, 2: 2, 3: 4}
    mono = _mono("[a1,[a2,a3]]", degree_of)
    hall, _ = hall_normalize(mono)
    for w in hall:
        assert monomial_of_word(w, degree_of).degree == mono.degree


# ---------------------------------------------------------------------------
# Text syntax


def test_parse_bracket_expr():
    g = DEG2
    e = parse_bracket_expr("2*[a1,[a1,a2]] + a3 - a1", g)
    s = expand(e)
    assert dict(s.items())[_mono("[a1,[a1,a2]]", g)] == 2
    assert dict(s.items())[_mono("a3", g)] == 1
    assert dict(s.items())[_mono("a1", g)] == -1
    assert expand(parse_bracket_expr("0", g)) == FormalSum()


# junk before, between and after tokens, each refused where it starts
JUNK = (("[a1,#a2]", "'#a2]'"), ("a1 x", "' x'"), ("[a1,a2]!", "'!'"),
        ("a1\tb2", "'\\tb2'"), ("[a1, a]", "' a]'"), ("a", "'a'"))


def test_parse_bracket_expr_errors():
    g = DEG2
    for bad in ("", "[a1,a2", "a1 +", "5", "a0", "b2", "[a1 a2]", "(a1",
                "2*-a1", "2*0", "a1)", "[a1,a2]]", "[a1;a2]", "- "):
        with pytest.raises(ValueError):
            parse_bracket_expr(bad, g)
    for bad, rest in JUNK:
        with pytest.raises(ValueError, match=re.escape("bad token at " + rest)):
            parse_bracket_expr(bad, g)
    # a letter without a degree is refused by name, after a0 is refused;
    # a bracket word read whole is refused as its tokens were
    for bad, message in (("[a1,a5]", "letter a5 has no degree"),
                         ("[a1,a0]", "letter indices start at 1"),
                         ("[a1,a2", "unexpected end of expression"),
                         ("[a1,a2]]", "trailing input after expression: ']'"),
                         ("a1 + [ a1 , a5 ]", "letter a5 has no degree")):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            parse_bracket_expr(bad, {1: 2, 2: 2})
    with pytest.raises(ValueError, match="^letter a5 has no degree$"):
        monomial_of_word(parse_word("[a1,a5]"), {1: 2})
    with pytest.raises(ValueError, match="^generator degrees must be >= 2$"):
        parse_bracket_expr("[a2,a1]", {1: 1, 2: 2})


def test_word_span_keeps_the_degrees_of_its_letters_in_order():
    # a bracket word read whole carries its letters' degrees as the
    # text lists them, the same monomial as bracketing letter by letter
    degrees = {1: 2, 2: 3, 3: 4}
    for text, ds in (("[a1,[a2,a3]]", (2, 3, 4)), ("[[a3,a1],a2]", (4, 2, 3)),
                     ("[ a3 ,\t[ a2,a1 ] ]", (4, 3, 2))):
        got = parse_bracket_expr("2*" + text, degrees)
        word = parse_word(text)
        assert got == FormalSum({BracketMonomial(word, ds): 2})
        assert got == parse_oracle.parse_bracket_expr("2*" + text, degrees)


def test_parse_word_refuses_a_text_again():
    # the reader keeps the words it read, never a refusal
    for bad in ("[a1,a2", "a0", "a1 x"):
        for _ in range(2):
            with pytest.raises(ValueError):
                parse_word(bad)
    assert parse_word("[a1,a2]") is parse_word("[a1,a2]")


def test_parse_word_round_trip():
    for text in ("a1", "[a1,a2]", "[a2,[a1,[a1,a3]]]"):
        assert str(parse_word(text)) == text
    assert parse_word(" [ a2 ,\t[a1,a3]]\n") == parse_word("[a2,[a1,a3]]")
    for bad in ("a1 + a2",   # sums are not single words
                "2*a1", "", "[a1,a2", "[a1]", "[a1,a2,a3]", "a1 a2", "(a1)",
                "[[a1,a2]", "a0", "]"):
        with pytest.raises(ValueError):
            parse_word(bad)
    for bad, rest in JUNK:
        with pytest.raises(ValueError, match=re.escape("bad token at " + rest)):
            parse_word(bad)


class _CyclicDegrees:
    """Degrees for every letter index, cycling through a short list."""

    def __init__(self, ds):
        self.ds = ds

    def __getitem__(self, i):
        return self.ds[i % len(self.ds)]


def _read(f, *args):
    """("ok", what f returns) or ("refused", its ValueError's message)."""
    try:
        return "ok", f(*args)
    except ValueError as exc:
        return "refused", str(exc)


_PIECES = ("a", "0", "1", "2", "13", "[", "]", ",", "+", "-", "*", "(", ")",
           " ", "\t")
# not a token: '#', 'b', '!' and '.'; whitespace: no-break space; a
# decimal digit, as \d and int() take it: '\u0663', Arabic-Indic three
_ODD = ("#", "b", "!", ".", "\u00a0", "\u0663")
_junk_texts = st.sampled_from(_ODD).flatmap(lambda odd: st.lists(
    st.sampled_from(_PIECES + (odd,)), max_size=24).map("".join))


def _expr_nodes(sub):
    """Brackets, sums, coefficients, negations and parentheses of sub."""
    return st.one_of(
        st.tuples(sub, sub).map(lambda xy: "[%s,%s]" % xy),
        st.tuples(sub, st.sampled_from((" + ", " - ", "+-")), sub).map("".join),
        st.tuples(st.integers(0, 3), sub).map(lambda cx: "%d*%s" % cx),
        sub.map(lambda x: "-" + x), sub.map(lambda x: "( %s )" % x))


# well formed expressions, whose leaves are letters, 0 and whole words,
# and words of weight up to 8, and those with one piece more
_WORDS = st.recursive(
    st.integers(1, 12).map(letter),
    lambda sub: st.tuples(sub, sub).map(lambda xy: bracket(*xy)),
    max_leaves=8)


def _spaced(draw, w) -> str:
    """The text of w with drawn whitespace around each of its tokens."""
    tokens = re.findall(r"a\d+|\S", str(w))
    gaps = draw(st.lists(st.sampled_from(("", " ", "\t", " \t ")),
                         min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return "".join(map("".join, zip(gaps, tokens))) + gaps[-1]


# whole bracket words, with whitespace inside their brackets
_spaced_words = st.composite(lambda draw: _spaced(draw, draw(_WORDS)))()
_exprs = st.recursive(
    st.one_of(st.sampled_from(("a1", "a2", "a3", "a12", "0")), _spaced_words),
    _expr_nodes, max_leaves=8)
_well_formed = st.one_of(_exprs, _WORDS.map(str))
_texts = st.one_of(_junk_texts, _well_formed, st.builds(
    lambda text, at, piece: text[:at] + piece + text[at:],
    _well_formed, st.integers(0, 60), st.sampled_from(_PIECES + _ODD)))


def _scanned_tokens(text):
    """The reader's scan, its tokens' text written as the oracle's
    ("letter", i), ("int", c) and ("sym", s) tokens."""
    return [("letter", int(t[1:])) if t[0] == "a" else
            ("int", int(t)) if t[0] not in "[],+-*()" else ("sym", t)
            for t in elements._scan(text)]


@given(text=_texts, ds=st.lists(st.integers(2, 4), min_size=1, max_size=4))
@settings(max_examples=400)
def test_text_reader_matches_the_token_by_token_oracle(text, ds):
    # the same tokens or the same refusal, and the same words and sums
    assert _read(_scanned_tokens, text) == _read(parse_oracle.tokenize, text)
    # an expression's runs of letters, commas and brackets hold the
    # same tokens
    runs = _read(elements._scan, text, whitehead._EXPR_TOKEN_RE)
    assert _read(elements._scan, text)[1] == (
        [t for run in runs[1] for t in elements._TOKEN_RE.findall(run)]
        if runs[0] == "ok" else runs[1])
    degrees = _CyclicDegrees(ds)
    for new, old, args in ((parse_word, parse_oracle.parse_word, ()),
                           (parse_bracket_expr, parse_oracle.parse_bracket_expr,
                            (degrees,))):
        got, want = _read(new, text, *args), _read(old, text, *args)
        assert got[0] == want[0], (text, got, want)
        if got[0] == "ok":
            assert got == want


@given(x=_WORDS, y=_WORDS,
       ds=st.lists(st.integers(2, 4), min_size=1, max_size=4))
@settings(max_examples=100)
def test_positional_monomials_equal_keyword_monomials(x, y, ds):
    degrees = _CyclicDegrees(ds)
    mx, my = monomial_of_word(x, degrees), monomial_of_word(y, degrees)
    xy = mx.bracket(my)
    for got, word in ((mx, x), (my, y), (xy, bracket(x, y))):
        # the degrees of the letters as the printed word lists them
        ds_of_text = tuple(degrees[int(i)]
                           for i in re.findall(r"a(\d+)", str(word)))
        by_keyword = BracketMonomial(word=word, degrees=ds_of_text)
        assert type(got) is BracketMonomial
        assert got == by_keyword and hash(got) == hash(by_keyword)
    assert xy.factors() == (mx, my)


@given(w=_WORDS, data=st.data())
@settings(max_examples=100)
def test_parse_word_reads_back_its_text_with_whitespace(w, data):
    assert w.length <= 8
    assert parse_word(_spaced(data.draw, w)) == w
    assert parse_word(str(w)) == w


@pytest.mark.parametrize("text, products", [
    # the inner bracket multiplies {a3: 2} by a3 once; the outer one
    # multiplies {a1, a2} by {[a3,a3]}
    ("[a1 + a1 - a1 + a2, [a2 + 2*a3 - a2, a3]]", 1 + 2),
    ("[a1, a2 + a2 - a2]", 1),
    ("[a1 + a2, a3 - a3]", 0),
    # the words [a2,a3] are read whole and cancel, so only {a1: 2}
    # and a3 are multiplied
    ("[(a1 + a2) + (a1 - a2), 3*[a2,a3] - [a2,a3] - 2*[a2,a3] + a3]", 1),
    ("[[a1, 0*a2 + a3 + a3], (a1 - a1) + [a2, a3 + a2 - a2]]", 1 + 1 + 1),
    # a lone term with coefficient 0 is no term
    ("[0*a1, a2] + [a3, -0*a2] + [a1, 0]", 0),
    # single terms multiply their coefficients once; [a1,a2] is whole
    ("[-a1, 3*a2] - 2*[2*[a1,a2], -a3]", 1 + 1),
    # a bracket word with no sum inside makes no product at all
    ("[[a1,a2],[a1,[a1,a3]]] - 2*[ a2 ,[a2,a3] ]", 0),
    # a word that ends a bracket holding a sum, and two words side by
    # side in one, are each read whole
    ("[a1 + a2, [a2,a3]]", 2),
    ("[-[a1,a2],[a2,a3] + a1]", 2),
])
def test_brackets_multiply_summed_factors(monkeypatch, text, products):
    # A bracket multiplies its factors' distinct nonzero terms, one
    # monomial bracket per pair, as the recursive parser's sums do; a
    # bracket word with no sum inside is read whole, with no product.
    calls = []
    monomial_bracket = BracketMonomial.bracket

    def counted(self, other):
        calls.append((self, other))
        return monomial_bracket(self, other)

    monkeypatch.setattr(BracketMonomial, "bracket", counted)
    got = parse_bracket_expr(text, DEG2)
    assert len(calls) == products
    monkeypatch.undo()
    assert parse_oracle.parse_bracket_expr(text, DEG2) == got


# ---------------------------------------------------------------------------
# Weight-2 matrices and symbolic infinite sums


def test_sparse_epsilon():
    eps = SparseEpsilon.from_dict({(1, 2): 3, (2, 5): -1, (1, 4): 0})
    assert eps.value(1, 2) == 3
    assert eps.value(2, 5) == -1
    assert eps.value(1, 4) == 0
    assert eps.value(3, 9) == 0
    assert (-eps).value(1, 2) == -3
    with pytest.raises(ValueError):
        eps.value(2, 2)
    with pytest.raises(ValueError):
        SparseEpsilon(((2, 1, 5),))


def test_band_and_sum_epsilon():
    band = SparseEpsilon(bands=((1, 2),))
    assert band.value(3, 4) == 2
    assert band.value(3, 5) == 0
    mixed = band + SparseEpsilon.from_dict({(3, 4): 1})
    assert mixed == SparseEpsilon(((3, 4, 1),), ((1, 2),))
    assert mixed.value(3, 4) == 3
    assert mixed.value(1, 2) == 2
    assert (-mixed).value(3, 4) == -3
    # both summands' bands add, and repeated widths add up
    wide = SparseEpsilon() + SparseEpsilon(bands=((3, -1), (1, 1), (3, 4)))
    assert (band + wide).bands == ((1, 3), (3, 3))
    assert [(band + wide).value(1, j) for j in (2, 3, 4, 5)] == [6, 3, 3, 0]
    sparse = SparseEpsilon.from_dict({(1, 2): 1}) + SparseEpsilon.from_dict({(1, 2): -1})
    assert sparse == SparseEpsilon() and not sparse and band
    assert band + (-band) == SparseEpsilon()
    with pytest.raises(ValueError, match="band width"):
        SparseEpsilon(bands=((0, 1),))


_pairs = st.tuples(st.integers(1, 3), st.integers(2, 4)).filter(
    lambda p: p[0] < p[1])
_matrices = st.builds(
    SparseEpsilon,
    st.lists(st.builds(lambda p, c: p + (c,), _pairs, st.integers(-2, 2)),
             max_size=4).map(tuple),
    st.lists(st.tuples(st.integers(1, 3), st.integers(-2, 2)),
             max_size=3).map(tuple))


@given(a=_matrices, kmax=st.integers(0, 7))
@settings(max_examples=200)
def test_nonzero_matches_a_scan_of_entries_and_bands(a, kmax):
    want = {}
    for j in range(2, kmax + 1):
        for i in range(1, j):
            v = (sum(c for p, q, c in a.entries if (p, q) == (i, j))
                 + sum(c for w, c in a.bands if j - i <= w))
            if v:
                want[(i, j)] = v
    assert a.nonzero(kmax) == want


def _agree(a, b):
    """Whether a and b have the same value at every i < j <= N, where
    N lies one diagonal band beyond every explicit index."""
    top = (1 + max([j for e in (a, b) for _, j, _ in e.entries], default=1)
           + max([w for e in (a, b) for w, _ in e.bands], default=0))
    return all(a.value(i, j) == b.value(i, j)
               for j in range(2, top + 1) for i in range(1, j))


@given(a=_matrices, b=_matrices)
@settings(max_examples=200)
def test_sparse_epsilon_equality_is_matrix_equality(a, b):
    assert (a == b) == _agree(a, b)
    assert hash(a) == hash(b) or a != b
    # the same matrix listed another way is the same record
    twin = SparseEpsilon(a.entries[::-1] + ((1, 2, 1), (1, 2, -1)),
                         a.bands[::-1] + ((2, 3), (2, -3)))
    assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)


@given(a=_matrices, b=_matrices)
@settings(max_examples=100)
def test_sparse_epsilon_sums_are_entrywise(a, b):
    assert a + (-a) == SparseEpsilon() and -(-a) == a
    assert bool(a) == (a != SparseEpsilon())
    s = a + b
    assert s == b + a
    for j in range(2, 9):
        for i in range(1, j):
            assert s.value(i, j) == a.value(i, j) + b.value(i, j)
            assert (-a).value(i, j) == -a.value(i, j)


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
    expr = weight_two_element(2, SparseEpsilon(bands=((1, 1),)))
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


def _reference_level(e, k):
    """Level k the long way: the whole double sum
    sum_{i<j<=k} eps_{i,j} [a_i, a_j], hall-normalized in one go, plus
    the coordinates on words with no letter beyond k."""
    gens = {i: monomial_of_word(letter(i), {i: e.m}) for i in range(1, k + 1)}
    hall, residual = hall_normalize(FormalSum(
        (gens[i].bracket(gens[j]), e.eps.value(i, j))
        for j in range(2, k + 1) for i in range(1, j)))
    assert not residual
    acc = {w: f for w, f in e.coords if w.max_letter <= k}
    for w, c in hall.items():
        acc[w] = acc[w] + integer_element(c) if w in acc else integer_element(c)
    return {w: f for w, f in acc.items() if f}


_CANCELLED = parse_word("[a1,a3]")


@pytest.mark.parametrize("e", [
    weight_two_element(2, {(1, 2): 3, (2, 5): -1, (4, 7): 2, (1, 7): 1}),
    weight_two_element(3, SparseEpsilon(bands=((2, -2),))),
    weight_two_element(2, SparseEpsilon(bands=((1, 1),))
                       + SparseEpsilon.from_dict({(1, 2): -1, (3, 6): 4})),
    # coordinates mixed with eps; eps cancels the one on [a1,a3]
    CoherentElement(3, 2, ((letter(2), integer_element(5)),
                           (_CANCELLED, integer_element(-2)),
                           (parse_word("[a2,a6]"), integer_element(1))),
                    SparseEpsilon.from_dict({(1, 3): 2, (2, 6): 1, (5, 6): -3})),
], ids=["sparse", "band", "sum", "mixed"])
def test_project_levels_match_the_double_sum(e):
    kmax = 8
    levels = list(project_levels(e, kmax))
    assert len(levels) == kmax
    for k, got in enumerate(levels, start=1):
        assert got == _reference_level(e, k), k
        assert got == project_level(e, k)
        if e.coords:
            assert _CANCELLED not in got


def test_project_levels_yields_fresh_dicts():
    e = weight_two_element(2, {(1, 2): 1, (2, 3): -1, (1, 4): 2})
    walk = project_levels(e, 4)
    for k in range(1, 5):
        got = next(walk)
        assert got == _reference_level(e, k)
        got.clear()
        got[_CANCELLED] = integer_element(9)


def test_project_level_refuses_level_zero():
    e = weight_two_element(2, {(1, 2): 1})
    with pytest.raises(ValueError, match="levels start at 1"):
        project_level(e, 0)
    assert list(project_levels(e, 0)) == []


def test_walk_brackets_each_column_once(monkeypatch):
    # One projection walk takes the matrix's stored terms as they stand:
    # no rewriting, no SparseEpsilon.value or nonzero, no coordinate sum
    # and no element walk, so that it shares no level builder with the
    # levels it is checked against.  The verifier then reads the matrix
    # once, in the element's own walk.
    kmax = 12
    eps = SparseEpsilon.from_dict({(1, 2): 1, (2, 5): -2, (3, 5): 1,
                                   (4, 9): 3, (1, 12): 1, (11, 13): 5})
    e = weight_two_element(2, eps)
    # coordinates alone need no matrix entry either
    theta = CoherentElement(3, 2, ((parse_word("[a1,a2]"), integer_element(1)),))
    reads = []
    nonzero = SparseEpsilon.nonzero

    def counted_nonzero(self, k):
        reads.append(k)
        return nonzero(self, k)

    def refused(*args):
        raise AssertionError("a projection called a refused function")

    monkeypatch.setattr(whitehead, "hall_normalize", refused)
    monkeypatch.setattr(elements, "add_coordinates", refused)
    monkeypatch.setattr(elements, "_summed", refused)
    monkeypatch.setattr(SparseEpsilon, "value", refused)
    monkeypatch.setattr(SparseEpsilon, "nonzero", refused)
    monkeypatch.setattr(CoherentElement, "walk", refused)
    last = list(project_levels(e, kmax))[-1]
    theta_last = list(project_levels(theta, kmax))[-1]
    monkeypatch.undo()
    assert theta_last == theta.level(kmax)
    monkeypatch.setattr(SparseEpsilon, "value", refused)
    monkeypatch.setattr(SparseEpsilon, "nonzero", counted_nonzero)
    assert verify_weight2_realization(e, kmax).ok
    assert reads == [kmax]
    monkeypatch.undo()
    # the five entries with j <= 12, each a Hall word as it stands
    assert last == {bracket(letter(i), letter(j)): integer_element(c)
                    for (i, j), c in eps.nonzero(kmax).items()}
    assert len(last) == 5
    assert last == _reference_level(e, kmax)


# ---------------------------------------------------------------------------
# FormalSum laws


_monos = st.sampled_from([_mono(text) for text in (
    "a1", "a2", "[a1,a2]", "[a1,[a1,a2]]", "[a2,[a1,a2]]")])
# five monomials and up to six pairs: repeats and zeros are common
_pair_lists = st.lists(st.tuples(_monos, st.integers(-5, 5)), max_size=6)
_sums = _pair_lists.map(FormalSum)


def test_formal_sum_str():
    # a coefficient of -1 prints as a bare minus sign
    s = FormalSum([(_mono("[a1,a2]"), 1), (_mono("a1"), -1),
                   (_mono("[a1,[a1,a2]]"), 3), (_mono("a2"), -2)])
    assert str(s) == "-a1 - 2*a2 + [a1,a2] + 3*[a1,[a1,a2]]"
    assert str(_sum(("a1", -1))) == "-a1" and str(FormalSum()) == "0"


@given(a=_sums, b=_sums, c=_sums)
@settings(max_examples=80)
def test_formal_sum_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + FormalSum() == a
    assert a + FormalSum([(m, -k) for m, k in a.items()]) == FormalSum()


@given(pairs=_pair_lists)
@settings(max_examples=40)
def test_formal_sum_no_zero_coefficients(pairs):
    want = {}
    for m, c in pairs:
        want[m] = want.get(m, 0) + c
    got = FormalSum(pairs)
    assert all(c != 0 for _, c in got.items())
    assert dict(got.items()) == {m: c for m, c in want.items() if c != 0}


# ---------------------------------------------------------------------------
# add_coordinates on group-valued coordinates


_WORD_GROUPS = ((letter(1), Z), (parse_word("[a1,a2]"), CYCLIC_2),
                (parse_word("[a1,[a1,a2]]"), FGAbelianGroup(1, (4,))))
_coordinate_pairs = st.lists(st.builds(
    lambda wg, cs: (wg[0], GroupElement(
        wg[1], cs[:wg[1].rank + len(wg[1].torsion)])),
    st.sampled_from(_WORD_GROUPS),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3))), max_size=5)
# each part is a dict or a list of pairs
_coordinate_parts = st.lists(st.one_of(_coordinate_pairs,
                                       _coordinate_pairs.map(dict)), max_size=3)


def _reference_coordinates(parts):
    """The sum computed on raw coordinates, reduced by hand, zeros
    dropped; values as (group, coordinates)."""
    acc = {}
    for part in parts:
        for w, f in (part.items() if isinstance(part, dict) else part):
            old = acc.get(w, (0,) * len(f.coords))
            acc[w] = tuple(a + b for a, b in zip(old, f.coords))
    out = {}
    for w, cs in acc.items():
        g = dict(_WORD_GROUPS)[w]
        cs = cs[:g.rank] + tuple(c % d for c, d in zip(cs[g.rank:], g.torsion))
        if any(cs):
            out[w] = (g, cs)
    return out


@given(parts=_coordinate_parts)
@settings(max_examples=80)
def test_add_coordinates_matches_a_reference_sum(parts):
    got = add_coordinates(*parts)
    assert {w: (f.group, f.coords) for w, f in got.items()} \
        == _reference_coordinates(parts)


def test_add_coordinates_cancels_and_wraps_around():
    w, v = letter(1), parse_word("[a1,a2]")
    x, one = integer_element(3), GroupElement(CYCLIC_2, (1,))
    # a word that cancels drops out, and comes back when added again
    assert add_coordinates({w: x}, [(w, -x)]) == {}
    assert add_coordinates([(w, x), (w, -x), (w, x)]) == {w: x}
    assert add_coordinates({w: x}, [(w, -x)], {w: x}) == {w: x}
    # 1 + 1 = 0 in Z/2
    assert add_coordinates([(v, one)], {v: one}) == {}
    assert add_coordinates([(v, one), (w, x)], [(v, one), (v, one)]) \
        == {w: x, v: one}
    # zero values never enter
    assert add_coordinates([(v, one + one), (w, x + (-x))]) == {}
