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

A whole listing is a HallListing: two columns of integers that hold,
for each bracket, the positions of its two factors, which come before
it.  A word's position is its rank in the canonical order, so generate
tests the Hall conditions by comparing integers and builds no word
object.  The heights and labels of a listing are folded over the
columns, a stratum at a time, from the values of lighter words.
dimension_truncation folds the heights once per listing and hands them
out with the words, so its callers never fold them again.  The
HallWords of a listing are built only when asked for, once per listing.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from collections import Counter
from types import MappingProxyType
from typing import NamedTuple

from .records import Frozen

STRATUM_CAP = 10**6


class StratumSizeError(RuntimeError):
    """A requested listing would hold more than STRATUM_CAP entries."""


def check_cap(size: int, message: str, *args) -> None:
    """Raise StratumSizeError, with the text message % args and the
    cap, when size passes STRATUM_CAP as it is at the time of the call."""
    if size > STRATUM_CAP:
        raise StratumSizeError("%s, cap is %d" % (message % args, STRATUM_CAP))


class HallWord(NamedTuple):
    """Immutable binary bracket tree over positive letter indices.

    The fields are exactly the canonical order key, so plain tuple order
    is the canonical order: weight, maximal letter, then the two factors
    compared in the same way.  A letter a_i is (1, i, None, None).  None
    is never compared with a word because a letter and a bracket differ
    in weight.  Build words with letter() and bracket() only.
    """

    length: int  # weight: the number of letter occurrences
    max_letter: int
    left: HallWord | None
    right: HallWord | None

    @property
    def is_letter(self):
        return self.left is None

    def __str__(self):
        if self.left is None:
            return "a%d" % self.max_letter
        return "[%s,%s]" % (self.left, self.right)

    __repr__ = __str__


# Builds a named tuple from its fields in order, with no keyword call.
_new = tuple.__new__

# Bound on each per-word cache below.  The keys are words, and the
# queries of one computation meet far fewer distinct words than this.
WORD_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=WORD_CACHE_SIZE)
def letter(i: int) -> HallWord:
    if i < 1:
        raise ValueError("letter indices start at 1")
    return _new(HallWord, (1, i, None, None))


def bracket(x: HallWord, y: HallWord) -> HallWord:
    """Free bracket constructor; does not check the Hall conditions."""
    # a conditional, not max(): this builds every bracket
    hi = x.max_letter
    return _new(HallWord, (x.length + y.length,
                           hi if hi > y.max_letter else y.max_letter, x, y))


@functools.lru_cache(maxsize=WORD_CACHE_SIZE)
def word_letters(w: HallWord) -> tuple[int, ...]:
    """The letter indices of w with multiplicity, left to right."""
    if w.left is None:
        return (w.max_letter,)
    return word_letters(w.left) + word_letters(w.right)


def is_hall(w: HallWord, k: int) -> bool:
    """Whether w is a Hall word on the first k letters."""
    if w.max_letter > k:
        return False
    return _hall_conditions(w)


@functools.lru_cache(maxsize=WORD_CACHE_SIZE)
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


class HallListing(Frozen):
    """Hall words in canonical order, held as two columns of integers.

    Word i is a letter a_j when left[i] == -1 and right[i] == j, and
    otherwise the bracket [x, y] of the words at the positions
    left[i] = x and right[i] = y, which come before it.  The words of
    weight j are those at ends[j - 1] <= i < ends[j], with ends[0] == 0;
    stratum 1, the letters, is always there, and may be empty.  The
    position of a word is its rank: one word comes before another in
    the canonical order exactly when its position is smaller.

    len() is the number of words.  words() builds the HallWords, once.
    """

    __slots__ = ("ends", "left", "right", "_words")
    _fields = ("ends", "left", "right")

    def __init__(self, ends: tuple[int, ...], left: tuple[int, ...],
                 right: tuple[int, ...]):
        super().__init__(ends, left, right)
        object.__setattr__(self, "_words", None)

    def __len__(self):
        return len(self.left)

    def words(self) -> tuple[HallWord, ...]:
        """The HallWord of every word, in listing order, built on the
        first call and kept."""
        if self._words is None:
            object.__setattr__(self, "_words",
                               tuple(_fold(self, letter, bracket)))
        return self._words

    def weights(self):
        """The weight of every word, in listing order."""
        return itertools.chain.from_iterable(
            itertools.repeat(j, hi - lo)
            for j, (lo, hi) in enumerate(zip(self.ends, self.ends[1:]), 1))

    def restrict(self, keep: list[bool]) -> HallListing:
        """The words whose keep flag is true, in listing order.

        Raises ValueError unless the kept words hold both factors of
        each kept bracket.
        """
        if all(keep):
            return self
        ends, left, right = self.ends, self.left, self.right
        n1 = ends[1]
        x = list(itertools.compress(left[n1:], keep[n1:]))
        y = list(itertools.compress(right[n1:], keep[n1:]))
        if not all(map(keep.__getitem__, itertools.chain(x, y))):
            raise ValueError("a kept bracket has a dropped factor: the "
                             "listing is not closed under factors")
        # at[i]: the kept words before word i, its new position if kept
        at = list(itertools.accumulate(keep, initial=0))
        letters = tuple(itertools.compress(right[:n1], keep[:n1]))
        return HallListing(tuple(map(at.__getitem__, ends)),
                           (-1,) * len(letters) + tuple(map(at.__getitem__, x)),
                           letters + tuple(map(at.__getitem__, y)))


@functools.lru_cache(maxsize=256)
def generate(k: int, max_weight: int) -> HallListing:
    """The Hall words on k letters up to the given weight, in canonical
    order: lighter strata first, so the words on k letters are a
    stratum-wise prefix of the words on k + 1 letters.

    Each stratum is built whole from the lighter ones, block by block:
    block c holds the words whose maximal letter is a_(c+1), so a
    bracket [x, y] in it has x or y in block c of its own stratum.  A
    Hall bracket has x < y, so x is the lighter factor or, at equal
    weight, the earlier word.  Within a block the words run in the
    order of their left factors, so for a given x the y of each block
    with y.left <= x form a run at the block's start, found by
    bisection.  Walking x upwards and each run upwards writes the
    brackets of a block in canonical order, with no sort.
    """
    if k < 1:
        raise ValueError("need at least one letter")
    if max_weight < 1:
        raise ValueError("need at least weight 1")
    if k == 1:
        # [a1, a1] fails x < y, so one letter brackets with nothing
        return HallListing((0, 1), (-1,), (1,))
    for j in range(1, max_weight + 1):
        predicted = necklace_count(k, j)
        check_cap(predicted, "stratum %d on %d letters holds %d words",
                  j, k, predicted)
    left, right = [-1] * k, list(range(1, k + 1))
    # starts[j][c]: where block c of stratum j begins; starts[j][k] ends it
    starts = [[0] * (k + 1), list(range(k + 1))]
    for m in range(2, max_weight + 1):
        here = []
        for c in range(k):
            here.append(len(left))
            for i in range(1, m // 2 + 1):
                xs, ys = starts[i], starts[m - i]
                # x from an older block: y brings the block's letter
                runs = [(x, ys[c], ys[c + 1]) for x in range(xs[0], xs[c])]
                for x in range(xs[c], xs[c + 1]):
                    if i == m - i:  # same weight: only y after x
                        runs.append((x, x + 1, ys[c + 1]))
                    else:
                        runs += ((x, ys[b], ys[b + 1]) for b in range(c + 1))
                for x, lo, hi in runs:
                    hi = bisect.bisect_right(left, x, lo, hi)
                    left += [x] * (hi - lo)
                    right += range(lo, hi)
        here.append(len(left))
        starts.append(here)
    return HallListing(tuple(s[k] for s in starts), tuple(left), tuple(right))


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
        seq = prefix + (tail,)
        if min(seq) < 1:
            raise ValueError("grading entries must be >= 1")
        if any(map(operator.gt, seq, seq[1:])):
            raise ValueError("grading must be monotone nondecreasing")
        super().__init__(prefix, tail)

    @classmethod
    def constant(cls, r: int) -> "GradingSequence":
        """The grading r, r, r, ...: one object per r."""
        return _constant_grading(r)

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


# Few values of r recur: one session pass asks for five of them 244
# times, and building and checking each anew took 2.7 % of the pass.
@functools.lru_cache(maxsize=WORD_CACHE_SIZE)
def _constant_grading(r: int) -> GradingSequence:
    return GradingSequence((), r)


def height(w: HallWord, grading: GradingSequence) -> int:
    """h(w) = sum of r(i) over the letter occurrences of w."""
    if not grading.prefix:
        return grading.tail * w.length
    return sum(map(grading.r, word_letters(w)))


def _fold(listing: HallListing, leaf, node) -> list:
    """The value of every word of a listing, in listing order: leaf(i)
    for a letter a_i and node(value(x), value(y)) for a bracket [x, y].

    A stratum's factors all lie in lighter strata, so the values of a
    stratum are mapped in one go from values already there.
    """
    ends, left, right = listing.ends, listing.left, listing.right
    values = list(map(leaf, right[:ends[1]]))
    get = values.__getitem__
    for lo, hi in zip(ends[1:], ends[2:]):
        values += map(node, map(get, left[lo:hi]), map(get, right[lo:hi]))
    return values


def heights(listing: HallListing, grading: GradingSequence) -> list[int]:
    """height(w, grading) of every word of a listing."""
    return _fold(listing, grading.r, operator.add)


def labels(listing: HallListing) -> list[str]:
    """str(w) of every word of a listing."""
    return _fold(listing, "a{}".format, "[{},{}]".format)


@functools.lru_cache(maxsize=4096)
def dimension_truncation(k: int, n: int, grading: GradingSequence
                         ) -> tuple[HallListing, tuple[int, ...]]:
    """The Hall words on k letters with height + 1 <= n, as a listing
    in canonical order, and their heights in the same order.

    The words index the summands of the degree-n homotopy of a finite
    wedge, so n must be at least 2.  The result is always finite
    because every letter has grading value >= 1, and it is empty
    exactly when n <= r(1).  A factor is lower than its bracket, so
    the listing holds the factors of its brackets.
    """
    if n < 2:
        raise ValueError("degree must be >= 2")
    max_w = (n - 1) // grading.r(1)
    if max_w < 1:
        return HallListing((0, 0), (), ()), ()
    words = generate(k, max_w)
    hs = heights(words, grading)
    keep = list(map(n.__gt__, hs))
    return words.restrict(keep), tuple(itertools.compress(hs, keep))


class _CountablyInfinite:
    """Marker cardinality for countably infinite height classes."""

    __slots__ = ()

    def __repr__(self):
        return "N"


COUNTABLY_INFINITE = _CountablyInfinite()


# The most censuses kept, and the most classes a kept census holds.
CENSUS_CACHE_SIZE = 256


def height_class_census(n: int, grading: GradingSequence):
    """Cardinality of each height class of Hall words below degree n.

    Returns a read-only map from h in [r(1), n - 1] to the number of
    Hall words of height h on the full infinite alphabet.  Infinite
    classes map to COUNTABLY_INFINITE.  A census of at most
    CENSUS_CACHE_SIZE classes is kept per (n, grading); a larger one
    is counted anew on each call, so the kept maps stay small.

    A class is infinite exactly when some multiset of letters of total
    grading h uses at least one letter from the constant tail: the tail
    letter can then be varied over the infinitely many letters beyond
    the prefix, and every multiset that is not a single repeated letter
    supports at least one Hall word.  Every other class holds only
    prefix letters with r(i) <= n - 1, which are the first ones, so it
    is counted on the Hall words over those letters.  More than
    STRATUM_CAP classes raise StratumSizeError before any is counted.
    """
    if n < 2:
        raise ValueError("degree must be >= 2")
    classes = n - grading.r(1)
    check_cap(classes, "degree %d has %d height classes", n, classes)
    if classes > CENSUS_CACHE_SIZE:
        return _count_classes(n, grading)
    return _kept_census(n, grading)


def _count_classes(n: int, grading: GradingSequence):
    """height_class_census past its checks and its cache."""
    usable = sum(1 for r in grading.prefix if r <= n - 1)
    tally = Counter(dimension_truncation(usable, n, grading)[1]
                    if usable else ())
    # reachable[s]: some multiset of grading values sums to s; only
    # 0 <= s = h - tail < n - tail is read, and the class cap bounds that
    size = max(0, n - grading.tail)
    reachable = [True] + [False] * (size - 1)
    for v in set(grading.prefix) | {grading.tail}:
        for s in range(v, size):
            if reachable[s - v]:
                reachable[s] = True
    return MappingProxyType({
        h: (COUNTABLY_INFINITE
            if h >= grading.tail and reachable[h - grading.tail]
            else tally.get(h, 0))
        for h in range(grading.r(1), n)})


_kept_census = functools.lru_cache(maxsize=CENSUS_CACHE_SIZE)(_count_classes)
