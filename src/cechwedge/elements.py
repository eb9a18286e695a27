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

import functools
import itertools
import re

from .groups import (DirectSum, GroupElement, ProdN, SphereSymbol, SumN, ZERO,
                     distribute_product_over_sum, integer_element, normalize)
from .hall import (WORD_CACHE_SIZE, GradingSequence, HallWord,
                   _hall_conditions, bracket, height, letter, word_letters)
from .hilton import (apply_bonding, bonding, decompose_wedge,
                     sphere_group_expr, weight_range)
from .records import Frozen, Record


_HEADER_RE = re.compile(r"element n=(-?\d+) m=(-?\d+)")


class UnresolvedGroupError(LookupError):
    """A needed sphere group is not in the table."""


class ElementFormatError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


def _summed(pairs) -> dict:
    """Add up the values of repeated keys and drop the zeros, in one pass."""
    acc: dict = {}
    for key, c in pairs:
        if key in acc:
            c = acc.pop(key) + c
        if c:
            acc[key] = c
    return acc


def _check_pair(i, j):
    if not (1 <= i < j):
        raise ValueError("epsilon entries need 1 <= i < j, got (%d, %d)" % (i, j))


class SparseEpsilon(Frozen):
    """Upper-triangular integer matrix (epsilon_{i,j})_{i<j}, total.

    Stored in a standard sparse form: finitely many explicit entries
    (i, j, c), each adding c at (i, j), plus bands (w, c), each adding c
    to every entry with j - i <= w, as in band-matrix storage.  The
    constructor adds up repeated pairs and repeated widths, drops zeros
    and sorts both tuples.  A matrix is its bands' constant diagonals
    plus a finite correction, so this form is canonical and == is
    matrix equality.  The default is the zero matrix, which is false.
    """

    __slots__ = _fields = ("entries", "bands")

    def __init__(self, entries: tuple[tuple[int, int, int], ...] = (),
                 bands: tuple[tuple[int, int], ...] = ()):
        acc: dict = {}  # each pair checked and added up in one pass
        for i, j, c in entries:
            _check_pair(i, j)
            acc[i, j] = acc.get((i, j), 0) + c
        for w, _ in bands:
            if w < 1:
                raise ValueError("band width must be >= 1")
        super().__init__(
            tuple(sorted([(i, j, c) for (i, j), c in acc.items() if c])),
            tuple(sorted(_summed(bands).items())) if bands else ())

    @classmethod
    def from_dict(cls, d: dict[tuple[int, int], int]) -> "SparseEpsilon":
        return cls((i, j, c) for (i, j), c in d.items())

    def nonzero(self, kmax: int) -> dict[tuple[int, int], int]:
        """The nonzero values at the pairs i < j <= kmax, by pair: each
        explicit entry plus every band that reaches the pair.  A band of
        width w reaches (i, j) when j - i <= w."""
        return _summed(itertools.chain(
            (((i, j), c) for i, j, c in self.entries if j <= kmax),
            (((i, j), c) for w, c in self.bands for j in range(2, kmax + 1)
             for i in range(max(1, j - w), j))))

    def value(self, i, j):
        """The entry at (i, j): its explicit entry plus every band that
        reaches it, read straight from the stored tuples."""
        _check_pair(i, j)
        return (sum(c for p, q, c in self.entries if (p, q) == (i, j))
                + sum(c for w, c in self.bands if j - i <= w))

    def __add__(self, other: "SparseEpsilon") -> "SparseEpsilon":
        return SparseEpsilon(self.entries + other.entries,
                             self.bands + other.bands)

    def __neg__(self) -> "SparseEpsilon":
        return SparseEpsilon(tuple((i, j, -c) for i, j, c in self.entries),
                             tuple((w, -c) for w, c in self.bands))

    def __bool__(self):
        return bool(self.entries or self.bands)


def add_coordinates(*parts) -> dict[HallWord, GroupElement]:
    """Add coordinate maps word -> group element, each given as a dict or
    as (word, value) pairs; words whose sum is zero drop out."""
    return _summed(itertools.chain.from_iterable(
        p.items() if isinstance(p, dict) else p for p in parts))


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
        super().__init__(n, m, tuple(sorted(_summed(coords).items())), eps)

    def blocks(self, kmax: int) -> dict[int, dict[HallWord, GroupElement]]:
        """The element's coordinates to the kmax-sphere stage by maximal
        letter, so level k is the blocks under 1, ..., k: eps_{i,j} on
        each [a_i, a_j], with no rewriting, plus coords, zeros dropped."""
        by_letter: dict[int, dict] = {}
        for (i, j), c in (self.eps.nonzero(kmax).items() if self.eps else ()):
            by_letter.setdefault(j, {})[bracket(letter(i), letter(j))] = \
                integer_element(c)
        for w, f in self.coords:
            filed = by_letter.setdefault(w.max_letter, {})
            f = filed.pop(w) + f if w in filed else f
            if f:
                filed[w] = f
        return by_letter

    def walk(self, kmax: int):
        """Walk the element up the tower: yield its coordinates at the 1,
        ..., kmax-sphere stages, each a fresh dict the caller may change."""
        by_letter = self.blocks(kmax)
        level: dict[HallWord, GroupElement] = {}
        for k in range(1, kmax + 1):
            level.update(by_letter.get(k, ()))
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
    if min(word_letters(w)) != i:
        raise ValueError("word %s has least letter a%d, filed under a%d"
                         % (w, min(word_letters(w)), i))
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


def check_coherence(e, kmax: int) -> VerificationReport:
    """Replay the tower's bonding maps against the element's levels.

    For each k < kmax, pushing the level-(k+1) coordinates through the
    bonding map must reproduce the level-k coordinates exactly.  Works
    for any object with fields n, m and a walk(kmax) method, so a
    corrupted list of levels can be checked too.  The levels are walked
    once, and the bonding maps test each word's membership directly,
    so no Hall set is listed.  A word a map has accepted is accepted
    and kept by every later one, so each word is tested once, at the
    first level that holds it, and a level of accepted words is pushed
    as it stands.  The words of a level are sorted and compared one by
    one only when the two sides differ.
    """
    if kmax < 1:
        raise ValueError("need kmax >= 1")
    grading = GradingSequence.constant(e.m - 1)
    failures = []
    accepted: set = set()
    walk = e.walk(kmax)
    actual = next(walk)
    for k, upper in enumerate(walk, start=1):
        pushed = upper
        if not upper.keys() <= accepted:
            pushed = apply_bonding(bonding(e.n, k, grading), upper, accepted)
            accepted.update(upper)
        if pushed != actual:
            failures += ((k, w) for w in sorted(set(pushed) | set(actual))
                         if pushed.get(w) != actual.get(w))
        actual = upper
    return VerificationReport(not failures, kmax, tuple(failures))


# ---------------------------------------------------------------------------
# Realization maps and their verifiers


def project_blocks(e, kmax: int) -> dict[int, dict[HallWord, GroupElement]]:
    """Push an element's two infinite sums down the tower to kmax, its
    terms added up, zeros dropped, and filed by largest letter: the
    collapse map to the wedge of k spheres sends every letter beyond k
    to zero, so it keeps the terms filed under 1, ..., k.

    Works for anything with fields n, m, coords and eps, such as a
    CoherentElement.  The terms are its coordinates, and eps_{i,j} on
    [a_i, a_j] for each entry (i, j, c) with j <= kmax and each pair a
    band (w, c) reaches, j - i <= w: a Hall word with a value in Z, the
    group of weight-2 words in the degree 2m - 1 of a nonzero eps.
    """
    pairs = [(i, j, c) for i, j, c in e.eps.entries if j <= kmax]
    pairs += [(i, j, c) for w, c in e.eps.bands for j in range(2, kmax + 1)
              for i in range(max(1, j - w), j)]
    # each term under its largest letter: the first level that keeps it
    by_top: dict[int, dict] = {}
    for w, f in itertools.chain(e.coords, (
            (bracket(letter(i), letter(j)), integer_element(c))
            for i, j, c in pairs)):
        kept = by_top.setdefault(max(word_letters(w)), {})
        f = kept.pop(w) + f if w in kept else f
        if f:
            kept[w] = f
    return by_top


def project_levels(e, kmax: int):
    """Walk an element's two infinite sums down the tower: yield its
    projections to the wedges of 1, ..., kmax spheres, each a fresh dict."""
    by_top = project_blocks(e, kmax)
    level: dict[HallWord, GroupElement] = {}
    for k in range(1, kmax + 1):
        level.update(by_top.get(k, ()))
        yield dict(level)


def project_level(e, k: int) -> dict[HallWord, GroupElement]:
    """Push an element's two infinite sums down to the k-sphere wedge:
    the last level of the walk project_levels(e, k)."""
    if k < 1:
        raise ValueError("levels start at 1")
    for level in project_levels(e, k):
        pass
    return level


def _compare_blocks(projected, own, kmax: int) -> VerificationReport:
    """Compare the projection's blocks with the element's up to kmax,
    each word once: level k agrees exactly when blocks 1, ..., k do.
    The levels are added up alongside, to render the failing ones."""
    failures, got, want = [], {}, {}
    for k in range(1, kmax + 1):
        block, own_block = projected.get(k, {}), own.get(k, {})
        got.update(block)
        want.update(own_block)
        if block != own_block or failures:
            failures.append("level %d: projection %s != coordinates %s"
                            % (k, _render_coords(got), _render_coords(want)))
    return VerificationReport(not failures, kmax, tuple(failures))


def _render_coords(coords) -> str:
    return "{%s}" % ", ".join("%s: %s" % (w, ",".join(map(str, f.coords)))
                              for w, f in sorted(coords.items()))


def verify_weight2_realization(e: CoherentElement, kmax: int) -> VerificationReport:
    """Check that projecting any element's two infinite sums gives its
    own coordinates at each level; for a weight-2 family those are the
    double sum of eps_{i,j} [a_i, a_j]."""
    return _compare_blocks(project_blocks(e, kmax), e.blocks(kmax), kmax)


def verify_composition_additivity(e1: CoherentElement, e2: CoherentElement,
                                  kmax: int) -> VerificationReport:
    """Check additivity of the realization level by level: the two
    elements' projections must add up to the coordinates of their sum."""
    added = project_blocks(e1, kmax)
    for k, block in project_blocks(e2, kmax).items():
        added[k] = add_coordinates(added[k], block) if k in added else block
    return _compare_blocks(added, (e1 + e2).blocks(kmax), kmax)


class SubgroupForms(Record):
    """The least-letter subgroup shape, before and after regrouping."""

    __slots__ = _fields = ("per_letter", "weight_split", "equal")


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


# one token: a symbol, a letter a<i> or an integer; no group, so that
# findall returns the tokens' text
_TOKEN_RE = re.compile(r"[\[\],+\-*()]|a\d+|\d+")
# where a scan token by token would stop: a character no token starts
# with, or an 'a' without its index
_JUNK_RE = re.compile(r"[^\s\d\[\],+\-*()a]|a(?!\d)")


def _scan(text: str, tokens=_TOKEN_RE) -> list[str]:
    """The tokens of text, with whitespace allowed between them, each
    as its text: a<i>, the digits of an integer, one symbol, or for
    whitehead's _EXPR_TOKEN_RE a run."""
    junk = _JUNK_RE.search(text)
    if junk:
        pos = len(text[:junk.start()].rstrip())
        raise ValueError("bad token at %r" % text[pos:pos + 10])
    return tokens.findall(text)


def _shown(token: str) -> int | str | None:
    """A token as an error message names it: the index of a letter, an
    integer, a symbol or a run's first, or None for the end of text."""
    if token[:1] == "a" or token.isdigit():
        return int(token.lstrip("a"))
    return token[:1] or None


@functools.lru_cache(maxsize=WORD_CACHE_SIZE)
def parse_word(text: str) -> HallWord:
    """Parse a bare bracket word: a<i> or [word,word], no sums.  Words
    recur across element files, so each text is read once."""
    stack: list = []  # per open '[': its left factor once read, else None
    word = None       # the word just read, until a ',' or ']' takes it
    for tok in _scan(text):
        if word is None:
            if tok[0] == "a":
                word = letter(int(tok[1:]))
            elif tok == "[":
                stack.append(None)
            else:
                raise ValueError("expected a letter or bracket, got %r"
                                 % (_shown(tok),))
        elif not stack:
            raise ValueError("trailing input after word: %r" % (_shown(tok),))
        else:
            end = "," if stack[-1] is None else "]"
            if tok != end:
                raise ValueError("expected %r, got %r" % (end, _shown(tok)))
            if end == ",":
                stack[-1], word = word, None
            else:
                word = bracket(stack.pop(), word)
    if word is None or stack:
        raise ValueError("unexpected end of word")
    return word


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
        directive = line.split(None, 1)[0]
        try:
            if directive == "element":
                header = _HEADER_RE.fullmatch(" ".join(line.split()))
                if n is not None or header is None:
                    raise ValueError("expected one 'element n=<n> m=<m>' header")
                n, m = int(header[1]), int(header[2])
                if n < 2 or m < 2:
                    raise ValueError("need n >= 2 and m >= 2")
                continue
            if directive not in _ASSIGNMENTS:
                raise ValueError("unknown directive %r" % directive)
            head, eq, value_text = line[len(directive):].partition("=")
            if not eq:
                raise ValueError("expected '=' in directive")
            head = head.strip()
            if directive == "eps":
                i, j = map(int, head.split())
                _check_pair(i, j)
            elif directive == "gtuple":
                i, head = head.split(None, 1)
                w = _family_word(int(i), parse_word(head))
            else:
                w = parse_word(head)
            values = tuple(map(int, value_text.strip().split(",")))
            if directive != "eps":
                support.append((lineno, w, values))
                continue
            if len(values) != 1:
                raise ValueError("an eps line takes one value, got %d"
                                 % len(values))
            eps.append((i, j, values[0]))
            eps_lineno = eps_lineno or lineno
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


_ASSIGNMENTS = ("support", "gtuple", "eps")


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
    entries = []
    for i in range(1, 6):
        for j in range(i + 1, 7):
            if rng.random() < 0.5:
                c = rng.randint(-3, 3)
                if c:
                    entries.append((i, j, c))
    return SparseEpsilon(entries)


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
