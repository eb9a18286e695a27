"""Sphere group tables: built-in rules, parsing, seed contents."""

import functools
import math
import random
import time

import pytest

from cechwedge.groups import CYCLIC_2, FGAbelianGroup, Z, ZERO
from cechwedge.spheres import (ENV_TABLE_VAR, MAX_TORSION_FACTORS,
                               TableConsistencyError, TableParseError,
                               builtin_rule, load_table, parse_group,
                               parse_table, seed_table)


def test_builtin_rules():
    assert builtin_rule(3, 4) == (ZERO, "n < q forces 0")
    assert builtin_rule(5, 5) == (Z, "n = q forces Z")
    assert builtin_rule(7, 1) == (ZERO, "q = 1, n >= 2 forces 0")
    assert builtin_rule(1, 1) == (Z, "n = q forces Z")
    assert builtin_rule(4, 2) is None        # no rule: table territory
    with pytest.raises(ValueError):
        builtin_rule(0, 1)


def test_builtin_precedence_over_entries():
    t = seed_table()
    assert t.lookup(3, 2) == Z               # from the table
    assert t.lookup(2, 3) == FGAbelianGroup()
    assert t.lookup(6, 6) == Z
    assert t.lookup(9, 2) is None            # honest unknown


def test_seed_table_contents():
    t = seed_table()
    assert t.entries == {
        (3, 2): Z,
        (4, 2): CYCLIC_2,
        (4, 3): CYCLIC_2,
        (5, 4): CYCLIC_2,
        (6, 5): CYCLIC_2,
        (7, 6): CYCLIC_2,
    }
    assert all(t.provenance[k] for k in t.entries)


def test_parse_group_terms():
    assert parse_group("Z") == Z
    assert parse_group("0") == FGAbelianGroup()
    assert parse_group("Z^3") == FGAbelianGroup(3)
    assert parse_group("Z/4") == FGAbelianGroup(0, (4,))
    assert parse_group("(Z/2)^3") == FGAbelianGroup(0, (2, 2, 2))
    assert parse_group("Z + Z/12") == FGAbelianGroup(1, (12,))
    assert parse_group("Z/2 + Z/12 + Z^2") == FGAbelianGroup(2, (2, 12))
    for bad in ("Q", "Z/", "Z/1", "2Z", "Z^0", "Z^0 {", "(Z/2)^0", ""):
        with pytest.raises(ValueError):
            parse_group(bad)


def test_parse_table_and_render_round_trip():
    text = "# first stems\npi 4 2 = Z/2\n\npi 7 4 = Z + Z/12  # Hopf\n"
    t = parse_table(text, source="inline")
    assert t.lookup(4, 2) == CYCLIC_2
    assert t.lookup(7, 4) == FGAbelianGroup(1, (12,))
    assert t.provenance[(4, 2)] == "inline:2"


def test_parse_table_errors():
    with pytest.raises(TableParseError) as err:
        parse_table("pi 4 2 = Z/2\nwhat is this\n")
    assert err.value.lineno == 2
    with pytest.raises(TableParseError) as err:
        parse_table("pi 4 2 = Z/nope\n")
    assert err.value.lineno == 1
    with pytest.raises(TableParseError):
        parse_table("pi 0 2 = Z\n")
    # conflicting duplicates rejected, agreeing ones tolerated
    with pytest.raises(TableParseError):
        parse_table("pi 4 2 = Z/2\npi 4 2 = Z\n")
    t = parse_table("pi 4 2 = Z/2\npi 4 2 = Z/2\n")
    assert t.lookup(4, 2) == CYCLIC_2


def test_torsion_factor_cap():
    cap = MAX_TORSION_FACTORS
    t = parse_table("pi 9 2 = Z^3 + (Z/2)^%d\n" % cap)
    assert t.lookup(9, 2) == FGAbelianGroup(3, (2,) * cap)
    for group in ("(Z/2)^%d" % (cap + 1), "Z/3 + (Z/2)^%d" % cap,
                  " + ".join(["Z/2"] * (cap + 1))):
        with pytest.raises(TableParseError) as err:
            parse_table("pi 4 2 = Z/2\npi 9 2 = %s\n" % group)
        assert err.value.lineno == 2
        assert "more than %d cyclic torsion factors" % cap in str(err.value)


@functools.lru_cache(maxsize=None)
def primes_from(start, count):
    """The first count primes >= start."""
    out, n = [], start
    while len(out) < count:
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
        n += 1
    return tuple(out)


@pytest.mark.parametrize("group, want", [
    ("Z/99999999999999999989", (99999999999999999989,)),
    ("(Z/99999999999999999989)^%d" % MAX_TORSION_FACTORS,
     (99999999999999999989,) * MAX_TORSION_FACTORS),
    ("(Z/1000000000039)^%d" % MAX_TORSION_FACTORS,
     (1000000000039,) * MAX_TORSION_FACTORS),
    ("(Z/2)^5000 + (Z/4)^5000", (2,) * 5000 + (4,) * 5000),
    (" + ".join("Z/%d" % (2 * p) for p in primes_from(3, 20)),
     (2,) * 19 + (2 * math.prod(primes_from(3, 20)),)),
    (" + ".join("Z/%d" % (2 * p) for p in primes_from(3, 4000)), 2),
    (" + ".join("Z/%d" % t for t in random.Random(18).choices(
        range(10**17, 10**18), k=MAX_TORSION_FACTORS)), 2),
    (" + ".join("Z/%d" % p for p in primes_from(10**6, 800)), 2),
], ids=["prime", "prime-power", "13-digit-power", "two-runs", "2p",
        "2p-past-the-limit", "18-digit", "800-primes"])
def test_table_groups_load_in_bounded_time(default_digit_limit, group, want):
    # no order is factored: a line loads, or is refused with its line
    # number when an invariant factor passes the digit limit, at once
    start = time.perf_counter()
    if isinstance(want, int):
        with pytest.raises(TableParseError) as err:
            parse_table("pi 4 2 = Z/2\npi 5 3 = %s\n" % group)
        assert err.value.lineno == want
        assert "more than 4300 digits" in str(err.value)
    else:
        t = parse_table("pi 5 3 = %s\n" % group)
        assert t.lookup(5, 3) == FGAbelianGroup(0, want)
    assert time.perf_counter() - start < 2.0


def test_consistency_against_builtin_rules():
    for text, claim, rule in (
            ("pi 3 4 = Z", "pi_3(S^4) = Z", "n < q forces 0"),
            ("pi 4 4 = Z/2", "pi_4(S^4) = Z/2", "n = q forces Z"),
            ("pi 5 1 = Z", "pi_5(S^1) = Z", "q = 1, n >= 2 forces 0")):
        with pytest.raises(TableConsistencyError) as exc:
            parse_table(text + "\n")
        assert exc.value.rule == rule
        assert str(exc.value) == ("line 1: %s contradicts a built-in rule (%s)"
                                  % (claim, rule))
    # restating a rule's value is allowed
    t = parse_table("pi 4 4 = Z\npi 2 5 = 0\n")
    assert t.lookup(4, 4) == Z


def test_load_table_specs(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_TABLE_VAR, raising=False)
    assert load_table(None).entries == seed_table().entries
    assert load_table("seed").entries == seed_table().entries

    path = tmp_path / "mini.table"
    path.write_text("pi 9 2 = Z/3\n", encoding="utf-8")
    assert load_table(str(path)).lookup(9, 2) == FGAbelianGroup(0, (3,))

    monkeypatch.setenv(ENV_TABLE_VAR, str(path))
    assert load_table(None).lookup(9, 2) == FGAbelianGroup(0, (3,))
    # explicit spec still wins over the environment
    assert load_table("seed").lookup(9, 2) is None

    with pytest.raises(OSError):
        load_table(str(tmp_path / "missing.table"))
