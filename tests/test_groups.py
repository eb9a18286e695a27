"""Abelian group normal forms, elements, and group shape expressions."""

import json
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cechwedge.groups import (CYCLIC_2, AmbientMismatchError, DirectSum,
                              FGAbelianGroup, GroupElement, Pow,
                              ProdN, SphereSymbol, SumN, Z, ZERO,
                              distribute_product_over_sum, integer_element,
                              invariant_factors, normalize, render_text,
                              to_machine)


# ---------------------------------------------------------------------------
# invariant_factors, checked against the order-counting invariant:
# two finite abelian groups are isomorphic iff for every prime power p^e
# they have the same number of elements of order dividing p^e, and that
# count for sum Z/o_i is the product of gcd(o_i, p^e).


def _count_killed_by(orders, q):
    out = 1
    for o in orders:
        out *= math.gcd(o, q)
    return out


def _same_group(orders_a, orders_b):
    n = 1
    for o in orders_a:
        n *= o
    primes = set()
    for o in orders_a + orders_b:
        d, x = 2, o
        while d * d <= x:
            while x % d == 0:
                primes.add(d)
                x //= d
            d += 1
        if x > 1:
            primes.add(x)
    for p in primes:
        q = p
        while q <= n:
            if _count_killed_by(orders_a, q) != _count_killed_by(orders_b, q):
                return False
            q *= p
    return _count_killed_by(orders_a, n) == _count_killed_by(orders_b, n)


@given(orders=st.lists(st.integers(2, 10**4), max_size=10))
@settings(max_examples=200)
def test_invariant_factors_against_counting_oracle(orders):
    factors = invariant_factors(orders)
    # divisibility chain, ascending
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert all(d >= 2 for d in factors)
    assert _same_group(tuple(orders), tuple(factors))


def test_invariant_factors_examples():
    assert invariant_factors([2, 2]) == (2, 2)
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([4, 6]) == (2, 12)
    assert invariant_factors([2, 2, 3]) == (2, 6)
    assert invariant_factors([1, 1]) == ()
    assert invariant_factors([]) == ()


def test_invariant_factors_refuse_a_factor_past_the_digit_limit():
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        # 2**639 * 5**640 = 5 * 10**639 has 640 digits, 10**640 has 641
        assert invariant_factors([2**639, 5**640]) == (2**639 * 5**640,)
        with pytest.raises(ValueError, match="more than 640 digits"):
            invariant_factors([2**640, 5**640])
        sys.set_int_max_str_digits(0)  # no limit
        assert invariant_factors([2**640, 5**640]) == (10**640,)
    finally:
        sys.set_int_max_str_digits(old)


def test_group_constructors_and_render():
    assert FGAbelianGroup(2).render() == "Z^2"
    assert FGAbelianGroup(0, (2,)).render() == "Z/2"
    assert FGAbelianGroup().render() == "0"
    assert FGAbelianGroup() == ZERO
    g = FGAbelianGroup(1, (2, 6))
    assert g.render() == "Z (+) Z/2 (+) Z/6"
    assert g.render(" + ") == "Z + Z/2 + Z/6"
    assert FGAbelianGroup(0, (2, 2)).render() == "(Z/2)^2"
    assert FGAbelianGroup.from_cyclic(0, [4, 6]).torsion == (2, 12)


def test_group_validation():
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (4, 2))   # chain must ascend by divisibility
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (3, 4))
    with pytest.raises(ValueError):
        FGAbelianGroup(-1, ())


# ---------------------------------------------------------------------------
# Elements


_small_group = st.builds(
    lambda r, t: FGAbelianGroup(r, tuple(invariant_factors(t))),
    st.integers(0, 3), st.lists(st.integers(2, 12), max_size=3))


@st.composite
def _group_and_elements(draw, count=3):
    g = draw(_small_group)
    dim = g.rank + len(g.torsion)
    els = [GroupElement(
        g, [draw(st.integers(-20, 20)) for _ in range(dim)])
        for _ in range(count)]
    return g, els


@given(_group_and_elements())
@settings(max_examples=100)
def test_element_arithmetic_laws(data):
    g, (x, y, z) = data
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + GroupElement(
        g, (0,) * (g.rank + len(g.torsion))) == x
    assert not x + (-x)
    assert bool(x) == any(x.coords)
    assert -(-x) == x


def test_torsion_reduction():
    g = FGAbelianGroup(1, (4,))
    x = GroupElement(g, (5, 7))
    assert x.coords == (5, 3)
    assert not GroupElement(g, (0, 4))


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        integer_element(1) + GroupElement(CYCLIC_2, (0,))
    with pytest.raises(ValueError):
        GroupElement(Z, (1, 2))


def test_integer_element():
    assert integer_element(5).group == Z
    assert integer_element(5).coords == (5,)


# ---------------------------------------------------------------------------
# Group shape expressions


def test_render_text_goldens():
    z = Z
    z2 = CYCLIC_2
    assert render_text(ZERO) == "0"
    assert render_text(z) == "Z"
    assert render_text(ProdN(z)) == "Z^N"
    assert render_text(ProdN(z2)) == "(Z/2)^N"
    assert render_text(SumN(z2)) == "SUM_N Z/2"
    assert render_text(ProdN(SumN(z2))) == "PROD_N SUM_N Z/2"
    assert render_text(DirectSum((ProdN(z2), ProdN(z)))) == "(Z/2)^N (+) Z^N"
    assert render_text(Pow(z, 3)) == "Z^3"
    assert render_text(Pow(z2, 2)) == "(Z/2)^2"
    assert render_text(SphereSymbol(9, 2)) == "pi_9(S^2)"
    assert render_text(ProdN(SphereSymbol(9, 2))) == "(pi_9(S^2))^N"
    assert render_text(ProdN(DirectSum((SumN(z2), SumN(z))))) == (
        "PROD_N (SUM_N Z/2 (+) SUM_N Z)")


def test_normalize_flattens_and_sorts():
    z = Z
    z2 = CYCLIC_2
    e = DirectSum((DirectSum((ProdN(z), ZERO)), ProdN(z2)))
    n = normalize(e)
    assert n == DirectSum((ProdN(z2), ProdN(z)))
    assert render_text(n) == "(Z/2)^N (+) Z^N"


def test_normalize_collapses_trivial_wrappers():
    z = Z
    assert normalize(Pow(z, 1)) == z
    assert normalize(DirectSum((z,))) == z
    assert normalize(DirectSum(())) == ZERO
    assert normalize(DirectSum((ZERO, ZERO))) == ZERO
    assert normalize(FGAbelianGroup()) == ZERO
    assert normalize(ProdN(ZERO)) == ZERO
    assert normalize(SumN(ZERO)) == ZERO


def test_normalize_keeps_sum_and_product_distinct():
    z2 = CYCLIC_2
    assert normalize(SumN(z2)) != normalize(ProdN(z2))
    # same field, different class
    assert ProdN(Z) != SumN(Z)
    assert FGAbelianGroup() == ZERO and hash(FGAbelianGroup()) == hash(ZERO)


def test_normalize_does_not_merge_countable_powers():
    # Z^N (+) Z^N stays a two-summand expression
    z = Z
    n = normalize(DirectSum((ProdN(z), ProdN(z))))
    assert isinstance(n, DirectSum) and len(n.parts) == 2


def test_pow_validation():
    with pytest.raises(ValueError):
        Pow(Z, 0)


_leaf = st.one_of(
    st.just(ZERO),
    _small_group,
    st.builds(SphereSymbol, st.integers(2, 9), st.integers(2, 9)))

_expr = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.builds(lambda ps: DirectSum(tuple(ps)), st.lists(inner, max_size=4)),
        st.builds(Pow, inner, st.integers(1, 5)),
        st.builds(ProdN, inner),
        st.builds(SumN, inner)),
    max_leaves=12)


@given(e=_expr)
@settings(max_examples=150, deadline=None)
def test_normalize_idempotent(e):
    n = normalize(e)
    assert normalize(n) == n


def _from_machine(doc):
    """Rebuild a shape from its JSON form; the CLI only encodes, so the
    decoder lives here, to show the encoding loses nothing."""
    kind = doc["kind"]
    if kind == "zero":
        return ZERO
    if kind == "finite":
        return FGAbelianGroup(doc["rank"], tuple(doc["torsion"]))
    if kind == "sphere":
        return SphereSymbol(doc["n"], doc["q"])
    children = [_from_machine(c) for c in doc["children"]]
    if kind == "direct_sum":
        return DirectSum(tuple(children))
    if kind == "pow":
        return Pow(children[0], doc["exponent"])
    return {"sum_n": SumN, "prod_n": ProdN}[kind](children[0])


@given(e=_expr)
@settings(max_examples=150, deadline=None)
def test_machine_round_trip(e):
    n = normalize(e)
    # the machine form is plain JSON and determines the shape
    text = json.dumps(to_machine(n), sort_keys=True)
    assert _from_machine(json.loads(text)) == n


@given(ps=st.lists(_expr, max_size=4))
@settings(max_examples=80, deadline=None)
def test_normalize_order_independent(ps):
    a = normalize(DirectSum(tuple(ps)))
    b = normalize(DirectSum(tuple(reversed(ps))))
    assert a == b


def test_machine_format_shape():
    blob = to_machine(ProdN(CYCLIC_2))
    assert blob["kind"] == "prod_n"
    assert blob["children"][0] == {"kind": "finite", "rank": 0, "torsion": [2]}
    sym = to_machine(SphereSymbol(4, 3))
    assert sym == {"kind": "sphere", "n": 4, "q": 3}
    # the trivial group has one encoding, normalized or not
    assert to_machine(FGAbelianGroup()) == to_machine(ZERO) == {"kind": "zero"}


def test_distribute_product_over_sum():
    z, z2 = Z, CYCLIC_2
    e = ProdN(DirectSum((SumN(z2), SumN(z))))
    out = distribute_product_over_sum(e)
    assert out == normalize(DirectSum((ProdN(SumN(z2)), ProdN(SumN(z)))))
    # anything else passes through normalized
    assert distribute_product_over_sum(ProdN(z)) == ProdN(z)
