"""Coherently nested Hall sets on a growing alphabet.

A Hall word over the letters a1, a2, ... is a nested formal bracket.
Every letter is a Hall word of weight 1, and a bracket w = [x, y] is a
Hall word of weight L(x) + L(y) when

  1. x and y are Hall words,
  2. x < y in the canonical order, and
  3. if y = [a, b] then a <= x.

The canonical order puts lighter words first and orders each weight
stratum by maximal letter index, then left factor, then right factor,
each factor compared in the same order.  Because the maximal letter is
the leading component inside a stratum, the Hall words on k letters
form an initial segment of the Hall words on k + 1 letters and every
word in the difference mentions the new letter: the sets are coherently
nested.

Each word also carries a height once a grading r1 <= r2 <= ... is
fixed: h(w) = sum over letter occurrences i of r_i.  The grading is
given as a finite prefix plus an eventually constant tail.

A whole listing gets its heights and labels in one pass: generate puts
both factors of every bracket before the bracket, so each word's value
is built from its factors' values, found by object identity, instead
of by walking the word's letters again.  dimension_truncation makes
that heights pass once per listing and hands the heights out with the
words, so its callers never fold them again.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from typing import NamedTuple

from .records import Frozen

STRATUM_CAP = 10**6


class StratumSizeError(RuntimeError):
    """A requested weight stratum would hold more than STRATUM_CAP words."""


class HallWord(NamedTuple):
    """Immutable binary bracket tree over positive letter indices.

    The fields are laid out so that plain tuple order is the canonical
    order: weight, maximal letter, then the two factors compared in the
    same way.  A letter a_i is (1, i, None, None, i).  min_letter is
    fixed by the factors, so it never decides a comparison, and None is
    never compared with a word because a letter and a bracket differ in
    weight.  Build words with letter() and bracket() only.
    """

    length: int  # weight: the number of letter occurrences
    max_letter: int
    left: HallWord | None
    right: HallWord | None
    min_letter: int

    @property
    def is_letter(self):
        return self.left is None

    @property
    def letter_index(self):
        if self.left is not None:
            raise ValueError("%s is not a single letter" % (self,))
        return self.max_letter

    def iter_letters(self):
        """Yield letter indices with multiplicity, left to right."""
        if self.left is None:
            yield self.max_letter
        else:
            yield from self.left.iter_letters()
            yield from self.right.iter_letters()

    def __str__(self):
        if self.left is None:
            return "a%d" % self.max_letter
        return "[%s,%s]" % (self.left, self.right)

    __repr__ = __str__


@functools.lru_cache(maxsize=None)
def letter(i: int) -> HallWord:
    if i < 1:
        raise ValueError("letter indices start at 1")
    return HallWord(length=1, max_letter=i, left=None, right=None,
                    min_letter=i)


def bracket(x: HallWord, y: HallWord) -> HallWord:
    """Free bracket constructor; does not check the Hall conditions."""
    return HallWord(length=x.length + y.length,
                    max_letter=max(x.max_letter, y.max_letter),
                    left=x, right=y,
                    min_letter=min(x.min_letter, y.min_letter))


def is_hall(w: HallWord, k: int) -> bool:
    """Whether w is a Hall word on the first k letters."""
    if w.max_letter > k:
        return False
    return _hall_conditions(w)


def _hall_conditions(w: HallWord) -> bool:
    if w.is_letter:
        return True
    x, y = w.left, w.right
    if not (_hall_conditions(x) and _hall_conditions(y)):
        return False
    if not x < y:
        return False
    if not y.is_letter and not y.left <= x:
        return False
    return True


@functools.lru_cache(maxsize=256)
def generate(k: int, max_weight: int) -> tuple[HallWord, ...]:
    """The Hall words on k letters up to the given weight, in canonical
    order: lighter strata first, so the words on k letters are a
    stratum-wise prefix of the words on k + 1 letters.

    Letters are introduced one at a time; the words whose maximal
    letter is the new one are generated, sorted, and appended after the
    existing stratum contents.  This realizes the nesting property by
    construction.

    Appending by maximal letter makes the words of each lighter stratum
    whose maximal letter is the new letter c a contiguous suffix of that
    stratum.  A bracket [x, y] has maximal letter c exactly when x or y
    lies in such a suffix, so each step pairs only (suffix x whole
    stratum) and (older prefix x suffix) instead of every pair of
    words.  Since a Hall word [x, y] has x < y, and lighter words come
    first, x never comes from the heavier stratum.
    """
    if k < 1:
        raise ValueError("need at least one letter")
    if max_weight < 1:
        raise ValueError("need at least weight 1")
    if k == 1:
        # [a1, a1] fails x < y, so one letter brackets with nothing
        return (letter(1),)
    for j in range(1, max_weight + 1):
        predicted = necklace_count(k, j)
        if predicted > STRATUM_CAP:
            raise StratumSizeError(
                "stratum %d on %d letters holds %d words, cap is %d"
                % (j, k, predicted, STRATUM_CAP))
    strata: list[list[HallWord]] = [[] for _ in range(max_weight + 1)]
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


def _mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius needs a positive integer")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        else:
            p += 1
    if n > 1:
        result = -result
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def necklace_count(k: int, j: int) -> int:
    """Number of Hall words of weight j on k letters.

    Computed as (1/j) * sum over d | j of mobius(d) * k**(j//d).
    """
    if k < 1 or j < 1:
        raise ValueError("necklace_count needs k >= 1 and j >= 1")
    if k == 1:
        # the sum of mobius(d) over d | j is 1 for j = 1 and 0 beyond
        return 1 if j == 1 else 0
    total = sum(_mobius(d) * k ** (j // d) for d in _divisors(j))
    assert total % j == 0
    return total // j


class GradingSequence(Frozen):
    """Monotone sequence r1 <= r2 <= ... with an eventually constant tail.

    r(i) is prefix[i-1] for i <= len(prefix) and tail beyond.  The word
    a_i contributes r(i) to the height of every word containing it.
    """

    __slots__ = _fields = ("prefix", "tail")

    def __init__(self, prefix: tuple[int, ...] = (), tail: int = 1):
        if tail < 1 or any(p < 1 for p in prefix):
            raise ValueError("grading entries must be >= 1")
        seq = prefix + (tail,)
        if any(a > b for a, b in zip(seq, seq[1:])):
            raise ValueError("grading must be monotone nondecreasing")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", tail)

    @classmethod
    def constant(cls, r: int) -> "GradingSequence":
        return cls(prefix=(), tail=r)

    @classmethod
    def parse(cls, text: str) -> "GradingSequence":
        """Parse "p1,...,pk;t" or a bare constant "t"."""
        text = text.strip()
        if ";" in text:
            head, _, tail_text = text.partition(";")
            prefix = tuple(int(p) for p in head.split(",")) if head else ()
        else:
            prefix, tail_text = (), text
        try:
            tail = int(tail_text)
        except ValueError:
            raise ValueError("bad grading spec %r" % text) from None
        return cls(prefix=prefix, tail=tail)

    def spec_string(self) -> str:
        if not self.prefix:
            return str(self.tail)
        return "%s;%d" % (",".join(str(p) for p in self.prefix), self.tail)

    def r(self, i: int) -> int:
        if i < 1:
            raise ValueError("letter indices start at 1")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.tail


def height(w: HallWord, grading: GradingSequence) -> int:
    """h(w) = sum of r(i) over the letter occurrences of w."""
    if w.min_letter > len(grading.prefix):
        return grading.tail * w.length
    return sum(grading.r(i) for i in w.iter_letters())


def _fold(words, leaf, node) -> list:
    """The value of every word of a listing, in listing order: leaf(i)
    for a letter a_i and node(value(x), value(y)) for a bracket [x, y].

    The listing must be in canonical order and hold both factors of
    each bracket, as the output of generate and dimension_truncation
    does; a factor missing from it raises KeyError.  A factor's value
    is found by the identity of the factor object.  Words of the top
    weight are nobody's factor here, so they stay out of the memo.
    """
    top = words[-1].length if words else 0
    memo = {}
    values = []
    for w in words:
        length, i, x, y, _ = w
        v = leaf(i) if x is None else node(memo[id(x)], memo[id(y)])
        if length < top:
            memo[id(w)] = v
        values.append(v)
    return values


def heights(words, grading: GradingSequence) -> list[int]:
    """height(w, grading) of every word of a factor-closed listing."""
    return _fold(words, grading.r, operator.add)


def labels(words) -> list[str]:
    """str(w) of every word of a factor-closed listing."""
    return _fold(words, "a{}".format, "[{},{}]".format)


@functools.lru_cache(maxsize=4096)
def dimension_truncation(k: int, n: int, grading: GradingSequence
                         ) -> tuple[tuple[HallWord, ...], tuple[int, ...]]:
    """The Hall words on k letters with height + 1 <= n, in canonical
    order, and their heights: two parallel tuples.

    The words index the summands of the degree-n homotopy of a finite
    wedge, so n must be at least 2.  The result is always finite
    because every letter has grading value >= 1, and it is empty
    exactly when n <= r(1).
    """
    if n < 2:
        raise ValueError("degree must be >= 2")
    max_w = (n - 1) // grading.r(1)
    if max_w < 1:
        return (), ()
    words = generate(k, max_w)
    hs = heights(words, grading)
    return (tuple(itertools.compress(words, map(n.__gt__, hs))),
            tuple(filter(n.__gt__, hs)))


class _CountablyInfinite:
    """Marker cardinality for countably infinite height classes."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "N"


COUNTABLY_INFINITE = _CountablyInfinite()


def height_class_census(n: int, grading: GradingSequence):
    """Cardinality of each height class of Hall words below degree n.

    Returns a map from h in [r(1), n - 1] to the number of Hall words
    of height h on the full infinite alphabet.  Infinite classes map to
    COUNTABLY_INFINITE.

    A class is infinite exactly when some multiset of letters of total
    grading h uses at least one letter from the constant tail: the tail
    letter can then be varied over the infinitely many letters beyond
    the prefix, and every multiset that is not a single repeated letter
    supports at least one Hall word.  Every other class holds only
    prefix letters with r(i) <= n - 1, which are the first ones, so it
    is counted on the Hall words over those letters.
    """
    if n < 2:
        raise ValueError("degree must be >= 2")
    usable = sum(1 for r in grading.prefix if r <= n - 1)
    tally = Counter(dimension_truncation(usable, n, grading)[1]
                    if usable else ())
    # reachable[s]: some multiset of grading values sums to s
    reachable = [True] + [False] * (n - 1)
    for v in set(grading.prefix) | {grading.tail}:
        for s in range(v, n):
            if reachable[s - v]:
                reachable[s] = True
    return {h: (COUNTABLY_INFINITE
                if h >= grading.tail and reachable[h - grading.tail]
                else tally.get(h, 0))
            for h in range(grading.r(1), n)}
