"""Coherent families of Hilton coordinates across all finite stages.

An element of the limit group is a compatible choice of coordinates at
every finite wedge stage.  Every element here is one finitary,
coherent-by-construction description:

  * coords: finitely many Hall words carry a fixed coordinate.  Words
    of weight >= 2 grouped by least letter are the input tuples of the
    composition sum; weight-1 words are the product-of-spheres part;
  * eps: every pair i < j carries eps_{i,j} times the degree-one
    class on the weight-2 word [a_i, a_j] (an upper triangular matrix,
    entries plus bands, realized by one infinite bracket sum); an
    element without a matrix holds the zero matrix.

Levels are plain Hilton coordinates, so the bonding maps of the tower
act on them; check_coherence replays those maps against the stream.
All sphere groups a description mentions must resolve in the given
table when the element is built, so levels never need the table again.
"""

from __future__ import annotations

import itertools
import random
import re

from .groups import (DirectSum, GroupElement, GroupExpr, ProdN, SphereSymbol,
                     SumN, ZERO, distribute_product_over_sum, integer_element,
                     normalize)
from .hall import (GradingSequence, HallWord, _hall_conditions, bracket,
                   height, letter)
from .hilton import (apply_bonding, bonding, decompose_wedge,
                     sphere_group_expr, weight_range)
from .records import Frozen, Record
from .whitehead import (SparseEpsilon, _check_pair, add_coordinates,
                        coordinate_tuple, parse_word, project_levels)


class UnresolvedGroupError(LookupError):
    """A needed sphere group is not in the table."""


class ElementFormatError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


class CoherentElement(Frozen):
    """A finite set of word coordinates plus a weight-2 matrix.

    coords and eps are both kept canonical (coords sorted by word with
    no zero values, eps a canonical SparseEpsilon), so equal data gives
    equal elements.  eps defaults to the zero matrix.  An element with
    a nonzero eps lives in degree n = 2m - 1, where the weight-2 sphere
    groups are infinite cyclic.
    """

    __slots__ = _fields = ("n", "m", "coords", "eps")

    def __init__(self, n: int, m: int,
                 coords: tuple[tuple[HallWord, GroupElement], ...] = (),
                 eps: SparseEpsilon = SparseEpsilon()):
        if n < 2 or m < 2:
            raise ValueError("need n >= 2 and m >= 2")
        if not isinstance(eps, SparseEpsilon):
            raise TypeError("eps must be a SparseEpsilon, got %r" % (eps,))
        if eps and n != 2 * m - 1:
            raise ValueError("weight-2 families live in degree 2m - 1 = %d, "
                             "not %d" % (2 * m - 1, n))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coords", coordinate_tuple(coords))
        object.__setattr__(self, "eps", eps)

    def walk(self, kmax: int):
        """Walk the element up the tower: yield its coordinates at the
        1, 2, ..., kmax-sphere stages, each in a fresh dict that the
        caller may change.

        Level k is level k - 1 plus part k: the eps column
        {[a_i, a_k]: eps_{i,k} : i < k} plus the coordinates on words
        whose maximal letter is k.  Parts are disjoint, so a walk to
        kmax builds each part once.
        """
        by_letter: dict[int, list] = {}
        for w, f in self.coords:
            by_letter.setdefault(w.max_letter, []).append((w, f))
        level: dict[HallWord, GroupElement] = {}
        for k in range(1, kmax + 1):
            column = {}
            if self.eps:
                for i in range(1, k):
                    v = self.eps.value(i, k)
                    if v:
                        column[bracket(letter(i), letter(k))] = integer_element(v)
            if k in by_letter:
                column = add_coordinates(column, by_letter[k])
            level.update(column)
            yield dict(level)

    def level(self, k: int) -> dict[HallWord, GroupElement]:
        """Coordinates at the k-sphere stage: the last level of
        walk(k), in a fresh dict."""
        if k < 1:
            raise ValueError("levels start at 1")
        for level in self.walk(k):
            pass
        return level

    def __add__(self, other: "CoherentElement") -> "CoherentElement":
        if not isinstance(other, CoherentElement):
            return NotImplemented
        if (other.n, other.m) != (self.n, self.m):
            raise ValueError("cannot add elements of different (n, m)")
        return CoherentElement(self.n, self.m, self.coords + other.coords,
                               self.eps + other.eps)

    def __neg__(self) -> "CoherentElement":
        return CoherentElement(self.n, self.m,
                               tuple((w, -f) for w, f in self.coords),
                               -self.eps)


# ---------------------------------------------------------------------------
# Constructors


def _as_element(group, val) -> GroupElement:
    if isinstance(val, GroupElement):
        if val.group != group:
            raise ValueError("element of %s given where %s was needed"
                             % (val.group, group))
        return val
    if isinstance(val, int):
        val = (val,)
    return GroupElement(group, val)


def finite_support_element(n: int, m: int, entries, table) -> CoherentElement:
    """Element supported on finitely many Hall words.

    Entries are (word, value) pairs; words parse from text, values may
    be GroupElements or raw coordinate tuples in the resolved group.
    Words whose sphere group is trivial only admit the zero value.
    """
    grading = GradingSequence.constant(m - 1)
    return CoherentElement(n, m, tuple(
        _coordinate(n, grading, w, val, table) for w, val in entries))


def _coordinate(n: int, grading, w, val, table) -> tuple[HallWord, GroupElement]:
    """One support entry as a (Hall word, value in its group) pair."""
    if isinstance(w, str):
        w = parse_word(w)
    if not _hall_conditions(w):
        raise ValueError("support word %s is not a Hall word" % (w,))
    q = height(w, grading) + 1
    group = table.lookup(n, q)
    if group is None:
        raise UnresolvedGroupError("support word %s needs pi_%d(S^%d), which "
                                   "the table does not resolve" % (w, n, q))
    return w, _as_element(group, val)


def weight_two_element(m: int, eps) -> CoherentElement:
    """Element carrying eps_{i,j} times the generator on each [a_i, a_j].

    Lives in degree n = 2m - 1, where the weight-2 sphere groups are
    infinite cyclic by the diagonal rule; no table is needed.
    """
    if isinstance(eps, dict):
        eps = SparseEpsilon.from_dict(eps)
    return CoherentElement(2 * m - 1, m, eps=eps)


def min_letter_element(n: int, m: int, families, table) -> CoherentElement:
    """Element given by finitely many coordinates per least letter.

    `families` maps a letter index i to (word, value) pairs where each
    word has weight >= 2 and least letter i.
    """
    return finite_support_element(n, m, [
        (_family_word(i, w), val) for i in sorted(families)
        for w, val in families[i]], table)


def _family_word(i: int, w) -> HallWord:
    """A word of a least-letter family filed under letter i."""
    if isinstance(w, str):
        w = parse_word(w)
    if w.length < 2:
        raise ValueError("least-letter families need weight >= 2, got %s" % (w,))
    if w.min_letter != i:
        raise ValueError("word %s has least letter a%d, filed under a%d"
                         % (w, w.min_letter, i))
    return w


def weight_one_element(n: int, m: int, coords, table) -> CoherentElement:
    """Right inverse of the product projection: the element whose only
    coordinates are the given weight-1 ones, realized by one infinite
    sum.  coords maps letter index to a value of pi_n(S^m)."""
    return finite_support_element(
        n, m, [(letter(i), val) for i, val in sorted(coords.items())], table)


def weight_one_coordinates(e) -> dict[int, GroupElement]:
    """Per-letter projection to the product of spheres."""
    return {w.max_letter: f for w, f in e.coords if w.is_letter}


def weight_one_part_vanishes(e, kmax: int) -> bool:
    """Whether e projects to zero in the product, letters up to kmax."""
    return all(i > kmax for i in weight_one_coordinates(e))


# ---------------------------------------------------------------------------
# Coherence


class VerificationReport(Record):
    """Verdict of a level-by-level check.  failures holds (level, word)
    pairs for check_coherence and messages for the realization checks."""

    __slots__ = _fields = ("ok", "checked_levels", "failures")

    def __init__(self, ok: bool, checked_levels: int, failures: tuple = ()):
        self.ok = ok
        self.checked_levels = checked_levels
        self.failures = failures


def check_coherence(e, kmax: int) -> VerificationReport:
    """Replay the tower's bonding maps against the element's levels.

    For each k < kmax, pushing the level-(k+1) coordinates through the
    bonding map must reproduce the level-k coordinates exactly.  Works
    for any object with fields n, m and a walk(kmax) method, so a
    corrupted list of levels can be checked too.  The levels are walked
    once, and the bonding maps test each word's membership directly,
    so no Hall set is listed.
    """
    if kmax < 1:
        raise ValueError("need kmax >= 1")
    grading = GradingSequence.constant(e.m - 1)
    failures = []
    walk = e.walk(kmax)
    actual = next(walk)
    for k, upper in enumerate(walk, start=1):
        pushed = apply_bonding(bonding(e.n, k, grading), upper)
        for w in sorted(set(pushed) | set(actual)):
            if pushed.get(w) != actual.get(w):
                failures.append((k, w))
        actual = upper
    return VerificationReport(ok=not failures, checked_levels=kmax,
                              failures=tuple(failures))


# ---------------------------------------------------------------------------
# Realization maps and their verifiers


def _compare_levels(projected, own, kmax: int) -> VerificationReport:
    """Zip a walk of projections with a walk of element levels and
    record each level where they differ, rendering both sides."""
    failures = []
    for k, (got, want) in enumerate(zip(projected, own), start=1):
        if got != want:
            failures.append("level %d: projection %s != coordinates %s"
                            % (k, _render_coords(got), _render_coords(want)))
    return VerificationReport(ok=not failures, checked_levels=kmax,
                              failures=tuple(failures))


def _render_coords(coords) -> str:
    return "{%s}" % ", ".join("%s: %s" % (w, ",".join(map(str, f.coords)))
                              for w, f in sorted(coords.items()))


def verify_weight2_realization(e: CoherentElement, kmax: int) -> VerificationReport:
    """Check that projecting any element's two infinite sums gives its
    own coordinates at each level; for a weight-2 family those are the
    double sum of eps_{i,j} [a_i, a_j]."""
    return _compare_levels(project_levels(e, kmax), e.walk(kmax), kmax)


def verify_composition_additivity(e1: CoherentElement, e2: CoherentElement,
                                  kmax: int) -> VerificationReport:
    """Check additivity of the realization level by level: the two
    elements' projections must add up to the coordinates of their sum."""
    added = map(add_coordinates, project_levels(e1, kmax),
                project_levels(e2, kmax))
    return _compare_levels(added, (e1 + e2).walk(kmax), kmax)


class SubgroupForms(Record):
    """The least-letter subgroup shape, before and after regrouping."""

    __slots__ = _fields = ("per_letter", "weight_split", "equal")

    def __init__(self, per_letter: GroupExpr, weight_split: GroupExpr,
                 equal: bool):
        self.per_letter = per_letter
        self.weight_split = weight_split
        self.equal = equal


def min_letter_subgroup_expr(n: int, m: int, table) -> SubgroupForms:
    """Shape of the subgroup spanned by weight >= 2 families.

    The per-letter form is a countable product (over least letters) of
    the same finite sum of countable blocks, one block per weight; the
    weight-split form groups by weight first.  They agree by the
    finite-sum/product interchange, checked structurally.
    """
    if n < 2 or m < 2:
        raise ValueError("need n >= 2 and m >= 2")
    blocks = [SumN(sphere_group_expr(n, (m - 1) * j + 1, table))
              for j in weight_range(n, m, start=2)]
    per_letter = normalize(ProdN(DirectSum(tuple(blocks))))
    weight_split = normalize(DirectSum(tuple(ProdN(b) for b in blocks)))
    equal = distribute_product_over_sum(per_letter) == weight_split
    return SubgroupForms(per_letter, weight_split, equal)


# ---------------------------------------------------------------------------
# Element description files


def parse_element_file(text: str, table) -> CoherentElement:
    """Build an element from its text description.

    Grammar, one directive per line ('#' starts a comment):

        element n=<n> m=<m>
        support <word> = <c1,c2,...>
        eps <i> <j> = <c>
        gtuple <i> <word> = <c1,c2,...>

    Any directives may be mixed: the element is the sum of all of them.
    """
    n = m = None
    # (line number, word, coordinates) of the support and gtuple lines
    support: list[tuple[int, HallWord, tuple[int, ...]]] = []
    eps: list[tuple[int, int, int]] = []
    eps_lineno = None  # the first eps line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "element":
                header = re.fullmatch(r"element n=(-?\d+) m=(-?\d+)",
                                      " ".join(fields))
                if n is not None or header is None:
                    raise ValueError("expected one 'element n=<n> m=<m>' header")
                n, m = int(header[1]), int(header[2])
                if n < 2 or m < 2:
                    raise ValueError("need n >= 2 and m >= 2")
            elif fields[0] in ("support", "gtuple"):
                head, value_text = _split_assignment(line[len(fields[0]):])
                if fields[0] == "gtuple":
                    i, head = head.split(None, 1)
                    w = _family_word(int(i), parse_word(head))
                else:
                    w = parse_word(head)
                support.append((lineno, w, _parse_ints(value_text)))
            elif fields[0] == "eps":
                head, value_text = _split_assignment(line[len("eps"):])
                i, j = (int(t) for t in head.split())
                _check_pair(i, j)
                eps.append((i, j, _parse_ints(value_text)[0]))
                eps_lineno = eps_lineno or lineno
            else:
                raise ValueError("unknown directive %r" % fields[0])
        except ElementFormatError:
            raise
        except Exception as exc:
            raise ElementFormatError(lineno, str(exc)) from None
    if n is None or m is None:
        raise ElementFormatError(0, "missing 'element n=<n> m=<m>' header")
    grading = GradingSequence.constant(m - 1)
    coords = []
    for lineno, w, val in support:
        try:
            coords.append(_coordinate(n, grading, w, val, table))
        except (ValueError, UnresolvedGroupError) as exc:
            raise ElementFormatError(lineno, str(exc)) from None
    try:
        return CoherentElement(n, m, tuple(coords), SparseEpsilon(eps))
    except ValueError as exc:  # a nonzero matrix in the wrong degree
        raise ElementFormatError(eps_lineno, str(exc)) from None


def _split_assignment(rest: str) -> tuple[str, str]:
    if "=" not in rest:
        raise ValueError("expected '=' in directive")
    head, _, value = rest.partition("=")
    return head.strip(), value.strip()


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def render_element_file(e: CoherentElement) -> str:
    """Inverse of parse_element_file for elements without bands: one
    support line per coordinate, then the eps entries."""
    lines = ["element n=%d m=%d" % (e.n, e.m)]
    for w, f in e.coords:
        lines.append("support %s = %s" % (w, ",".join(map(str, f.coords))))
    if e.eps.bands:
        raise ValueError("epsilon bands have no file form")
    for i, j, c in e.eps.entries:
        lines.append("eps %d %d = %d" % (i, j, c))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Seeded random draws of the verify commands


def random_sparse_epsilon(rng: random.Random) -> SparseEpsilon:
    entries = {}
    for i in range(1, 6):
        for j in range(i + 1, 7):
            if rng.random() < 0.5:
                c = rng.randint(-3, 3)
                if c:
                    entries[(i, j)] = c
    return SparseEpsilon.from_dict(entries)


def random_group_element(rng: random.Random, group) -> GroupElement:
    return GroupElement(group, [rng.randint(-3, 3) for _ in range(group.rank)]
                        + [rng.randrange(d) for d in group.torsion])


def _resolvable_pool(n: int, m: int, table) -> list:
    """The Hall words on letters a1..a4 of weight >= 2 whose sphere
    group resolves to a nonzero group, each with that group."""
    dec = decompose_wedge(n, 4, GradingSequence.constant(m - 1), table)
    return [(w, g) for w, g in dec.summands if w.length >= 2
            and not isinstance(g, SphereSymbol) and g != ZERO]


def _draw(rng: random.Random, pool) -> list[tuple[HallWord, GroupElement]]:
    """Up to three distinct pool words, each with a random value."""
    picked = rng.sample(pool, min(len(pool), rng.randint(0, 3))) if pool else []
    return [(w, random_group_element(rng, group)) for w, group in picked]


def random_min_letter_elements(rng: random.Random, n: int, m: int, table):
    """An endless iterator of random least-letter families drawn with rng.

    The pool of resolvable words (weight >= 2, letters up to 4) and
    their groups is built once, when the iterator is made.  An empty
    pool raises ValueError, since every element drawn would be zero.
    """
    pool = _resolvable_pool(n, m, table)
    if not pool:
        raise ValueError("no Hall word of weight >= 2 on a1..a4 has a "
                         "nonzero resolved group in degree %d, so every "
                         "random element would be zero" % n)
    return (CoherentElement(n, m, tuple(_draw(rng, pool)))
            for _ in itertools.count())
