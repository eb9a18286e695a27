"""Homotopy decompositions of finite wedges and their inverse limit.

The degree-n homotopy of a finite wedge of spheres splits as a direct
sum indexed by the Hall words whose height stays below n; the summand
of a word w of height h is the degree-n homotopy of a single
(h + 1)-sphere.  Dropping the last wedge sphere kills exactly the
summands whose word mentions the last letter and is the identity on
the rest, so the limit over all finite stages is the direct product
over the full Hall set, organized here by height classes.

For the shrinking wedge of m-spheres (constant grading m - 1) the
product collapses to the closed form

    sum over 1 <= j <= (n-1)/(m-1) of (pi_n(S^{m j - j + 1}))^N,

and the two routes (closed form versus height-class census) are kept
as separate code paths so they can check each other.
"""

from __future__ import annotations

import functools
from collections import Counter

from .groups import (DirectSum, GroupExpr, Pow, ProdN, SphereSymbol, ZERO,
                     canonical_sum, has_symbol, is_trivial, normalize,
                     sort_key)
from .hall import (COUNTABLY_INFINITE, WORD_CACHE_SIZE, GradingSequence,
                   HallWord, check_cap, dimension_truncation, height,
                   height_class_census, is_hall)
from .records import Frozen


class SupportError(ValueError):
    """Coordinates mention a word outside the decomposition."""


def sphere_group_expr(n: int, q: int, table) -> GroupExpr:
    group = table.lookup(n, q)
    return _symbol(n, q) if group is None else group


# One symbol per unresolved (n, q): both limit formulas name each, so
# one session pass meets 72 of them 487 times, and building each anew
# took 2.3 % of the pass.
_symbol = functools.lru_cache(maxsize=WORD_CACHE_SIZE)(SphereSymbol)


class WedgeDecomposition(Frozen):
    """Degree-n homotopy of a k-sphere wedge, summand by summand.

    The summands are indexed by the words of listing; heights holds
    the height of each word, in the same order, and groups pairs each
    height that occurs with the sphere group of its summands.
    """

    __slots__ = _fields = ("n", "k", "grading", "listing", "heights",
                           "groups")

    @property
    def summands(self) -> tuple[tuple[HallWord, GroupExpr], ...]:
        """(word, group) of every summand, in listing order."""
        return tuple(zip(self.listing.words(),
                         map(dict(self.groups).__getitem__, self.heights)))

    def total_parts(self) -> list[tuple[GroupExpr, int]]:
        """The distinct nonzero groups of the summands, each with the
        number of summands it is, in the order normalize() puts them."""
        group_of = dict(self.groups)
        count: Counter = Counter()
        for h, c in Counter(self.heights).items():
            count[group_of[h]] += c
        del count[ZERO]
        return sorted(count.items(), key=lambda gc: sort_key(gc[0]))

    def total(self) -> GroupExpr:
        """The direct sum of the summands' groups, one part per summand."""
        return normalize(DirectSum(tuple(
            g for g, c in self.total_parts() for _ in range(c))))


def decompose_wedge(n: int, k: int, grading: GradingSequence,
                    table) -> WedgeDecomposition:
    """Split the degree-n homotopy of the k-fold wedge along Hall words.

    A word of height h gets the group of pi_n(S^{h+1}), looked up once
    per height.  The decomposition is empty exactly in the degrees
    n <= r(1), where the wedge is trivial by connectivity; beyond them
    the letter a1 is always a summand.
    """
    if n < 2:
        raise ValueError("degree must be >= 2")
    if k < 1:
        raise ValueError("need at least one wedge sphere")
    listing, hs = dimension_truncation(k, n, grading)
    groups = tuple((h, sphere_group_expr(n, h + 1, table))
                   for h in sorted(set(hs)))
    return WedgeDecomposition(n, k, grading, listing, hs, groups)


class BondingMap(Frozen):
    """Coordinate action of dropping sphere k + 1 from a (k+1)-wedge."""

    __slots__ = _fields = ("n", "k", "grading")


def bonding(n: int, k: int, grading: GradingSequence) -> BondingMap:
    """The map from the (k+1)-stage to the k-stage in degree n: identity
    on words avoiding the new letter, zero on words using it."""
    if k < 1:
        raise ValueError("stages start at 1")
    if n < 2:
        raise ValueError("degree must be >= 2")
    return BondingMap(n, k, grading)


def apply_bonding(b: BondingMap, coords: dict, accepted=frozenset()) -> dict:
    """Push level-(k+1) coordinates down to level k.

    Every word must index a summand of the (k+1)-stage, i.e. be a Hall
    word on k + 1 letters with height + 1 <= n; membership is tested
    directly, without listing the stage's Hall set.  The words of
    accepted, which an earlier stage of the same degree and grading has
    accepted, are not tested again: a summand of one stage is a summand
    of every later one.
    """
    for w in coords:
        if w in accepted:
            continue
        if not (is_hall(w, b.k + 1) and height(w, b.grading) + 1 <= b.n):
            raise SupportError("word %s is not a degree-%d summand at stage %d"
                               % (w, b.n, b.k + 1))
    return {w: f for w, f in coords.items() if w.max_letter <= b.k}


def cech_decompose(n: int, grading: GradingSequence, table) -> GroupExpr:
    """Limit decomposition over all finite stages, via the height-class
    census: each finite height class contributes a finite power, each
    countable class a countable product."""
    if n < 2:
        raise ValueError("degree must be >= 2")
    parts: list[GroupExpr] = []
    census = height_class_census(n, grading)
    for h in sorted(census):
        expr = sphere_group_expr(n, h + 1, table)
        count = census[h]
        if count is COUNTABLY_INFINITE:
            parts.append(ProdN(expr))
        elif count:
            parts.append(Pow(expr, count))
    return normalize(DirectSum(tuple(parts)))


def weight_range(n: int, m: int, start: int = 1) -> range:
    """The weights j >= start of the closed form's blocks: those with
    (m - 1) j <= n - 1.  Refused past STRATUM_CAP weights."""
    if m < 2:
        raise ValueError("need m >= 2")
    weights = range(start, (n - 1) // (m - 1) + 1)
    size = _size(weights)
    check_cap(size, "degree %d on %d-spheres has %d weights", n, m, size)
    return weights


def _size(values) -> int:
    """len(values), counted by arithmetic for a range: len() of a range
    longer than sys.maxsize raises OverflowError."""
    if isinstance(values, range):
        return max(0, -((values.start - values.stop) // values.step))
    return len(values)


def earring_formula(n: int, m: int, table) -> GroupExpr:
    """Closed form for the shrinking wedge of m-spheres in degree n:
    one countable power of pi_n(S^{m j - j + 1}) per weight j with
    (m - 1) j <= n - 1.  Independent of cech_decompose by design."""
    if n < 2 or m < 2:
        raise ValueError("need n >= 2 and m >= 2")
    return canonical_sum([weight_summand(n, m, j, table)
                          for j in weight_range(n, m)])


def weight_summand(n: int, m: int, j: int, table) -> GroupExpr:
    """The weight-j block of the closed form; ZERO beyond the range,
    where the sphere S^((m-1)j+1) is above degree n."""
    if j < 1:
        raise ValueError("weights start at 1")
    group = sphere_group_expr(n, (m - 1) * j + 1, table)
    return ZERO if is_trivial(group) else ProdN(group)


class StabilizationReport(Frozen):
    """Closed-form values of degree m + s across a range of m."""

    __slots__ = _fields = ("offset", "entries", "stable", "stable_value",
                           "warnings")


def stabilization_report(s: int, m_range, table) -> StabilizationReport:
    """Compare the degree-(m+s) closed forms as m runs over m_range.

    Once m >= s + 2 only the weight-1 block survives and its group is a
    stable one, so all those entries should agree; the verdict records
    whether they do, and m_range must hold at least two such m.
    Unresolved table entries are reported as warnings rather than
    errors.  An m_range longer than STRATUM_CAP is refused.
    """
    if s < 0:
        raise ValueError("offset must be >= 0")
    size = _size(m_range)
    check_cap(size, "an m-range of %d dimensions", size)
    ms = sorted(set(m_range))
    if not ms or ms[0] < 2:
        raise ValueError("need sphere dimensions >= 2")
    entries = []
    warnings = []
    for m in ms:
        expr = earring_formula(m + s, m, table)
        if has_symbol(expr):
            warnings.append("pi_%d of the %d-sphere wedge has unresolved entries"
                            % (m + s, m))
        entries.append((m, expr))
    in_range = [expr for m, expr in entries if m >= s + 2]
    if len(in_range) < 2:
        raise ValueError("need at least two dimensions m >= s + 2 = %d to "
                         "compare" % (s + 2))
    stable = all(expr == in_range[0] for expr in in_range)
    stable_value = in_range[0] if stable else None
    return StabilizationReport(s, tuple(entries), stable, stable_value,
                               tuple(warnings))
