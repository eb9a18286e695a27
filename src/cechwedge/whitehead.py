"""Integer-linear algebra of graded bracket monomials.

A monomial is a bracket word whose letters a_i carry spherical degrees
d_i >= 2; a bracket of degrees p and q has degree p + q - 1.  The
relations the rewriting engine is allowed to use are, for degrees
p, q, r >= 2:

    [x, 0] = 0 and bilinearity,
    [x, y] = (-1)**(p*q) [y, x],
    (-1)**(p*r) [[x,y],z] + (-1)**(p*q) [[y,z],x] + (-1)**(r*q) [[z,x],y] = 0.

Rewriting normalizes both factors of a bracket and then fixes its root
by two moves: a swap when x > y, and Jacobi when [x, [u, v]] has u > x.
It reaches the Hall basis for every weight up to MAX_TENSOR_WEIGHT, the
weight to which the tensor oracle below certifies it.  Self-brackets
[x, x] of any word are deliberately never rewritten: the engine returns
them (and any monomial containing one) untouched as a residual part,
because the relations above do not determine them.

The tensor expansion gives an independent check of every rewrite.  It
embeds monomials into the free associative ring on the generators by

    T(a_i) = a_i,
    T([x, y]) = (-1)**p * (T(x) T(y) - (-1)**((p-1)*(q-1)) T(y) T(x)),

where p, q are the degrees of x and y.  Under this embedding all of
the relations above expand to zero identically (the degree shift and
the (-1)**p twist are exactly what the listed sign convention needs),
so equal tensor expansions certify equality modulo the relations.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import NamedTuple

from .groups import GroupElement, integer_element
from .hall import (WORD_CACHE_SIZE, HallWord, _hall_conditions, _new, bracket,
                   letter, word_letters)
from .records import Frozen

MAX_TENSOR_WEIGHT = 4


class WeightLimitError(ValueError):
    """Bracket rewriting and the tensor oracle stop at MAX_TENSOR_WEIGHT."""


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def _summed(pairs) -> dict:
    """Add up the values of repeated keys and drop the zeros, in one pass."""
    acc: dict = {}
    for key, c in pairs:
        if key in acc:
            c = acc.pop(key) + c
        if c:
            acc[key] = c
    return acc


class BracketMonomial(NamedTuple):
    """A bracket word and the degree of each of its letter occurrences,
    left to right."""

    word: HallWord
    degrees: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.degrees) - len(self.degrees) + 1

    def factors(self) -> tuple["BracketMonomial", "BracketMonomial"]:
        w, cut = self.word, self.word.left.length
        return (_new(BracketMonomial, (w.left, self.degrees[:cut])),
                _new(BracketMonomial, (w.right, self.degrees[cut:])))

    def bracket(self, other: "BracketMonomial") -> "BracketMonomial":
        return _new(BracketMonomial, (bracket(self.word, other.word),
                                      self.degrees + other.degrees))

    def has_square(self) -> bool:
        """Whether some sub-bracket is a self-bracket [x, x]."""
        return _has_square(self.word)

    def __str__(self):
        return str(self.word)


@functools.lru_cache(maxsize=WORD_CACHE_SIZE)
def _has_square(w: HallWord) -> bool:
    return not w.is_letter and (w.left == w.right or _has_square(w.left)
                                or _has_square(w.right))


def monomial_of_word(w: HallWord, degrees) -> BracketMonomial:
    """Attach degrees to a bare word; degrees maps letter index to
    degree."""
    ds = tuple(map(degrees.__getitem__, word_letters(w)))
    if min(ds) < 2:
        raise ValueError("generator degrees must be >= 2")
    return _new(BracketMonomial, (w, ds))


@functools.lru_cache(maxsize=WORD_CACHE_SIZE)
def _letter_monomial(i: int, d: int) -> BracketMonomial:
    """The letter a_i of degree d as a monomial."""
    if d < 2:
        raise ValueError("generator degrees must be >= 2")
    return _new(BracketMonomial, (letter(i), (d,)))


class FormalSum:
    """An integer combination of finitely many bracket monomials."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        """terms maps monomials to coefficients, or lists (monomial,
        coefficient) pairs, which may repeat a monomial."""
        if isinstance(terms, dict):
            self._terms = {m: c for m, c in terms.items() if c}
        else:
            self._terms = _summed(terms)

    @classmethod
    def _of(cls, terms: dict) -> "FormalSum":
        """The sum of a dict that holds no zero coefficient, kept as it is."""
        s = cls.__new__(cls)
        s._terms = terms
        return s

    def items(self):
        return sorted(self._terms.items())

    def __add__(self, other: "FormalSum") -> "FormalSum":
        acc = dict(self._terms)
        for m, c in other._terms.items():
            if m in acc:
                c += acc.pop(m)
            if c:
                acc[m] = c
        return FormalSum._of(acc)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self._terms == other._terms

    def __str__(self):
        if not self._terms:
            return "0"
        bits = []
        for m, c in self.items():
            if c == 1:
                bits.append(str(m))
            elif c == -1:
                bits.append("-%s" % (m,))
            else:
                bits.append("%d*%s" % (c, m))
        return " + ".join(bits).replace("+ -", "- ")


def expand(e) -> FormalSum:
    """A FormalSum as it is, or a single monomial as a one-term sum."""
    if isinstance(e, FormalSum):
        return e
    if isinstance(e, BracketMonomial):
        return FormalSum({e: 1})
    raise TypeError("cannot expand %r" % (e,))


@functools.lru_cache(maxsize=WORD_CACHE_SIZE)
def _reduce(mono: BracketMonomial) -> tuple[tuple[BracketMonomial, int], ...]:
    """Rewrite one monomial into Hall monomials, leaving anything that
    contains a self-bracket untouched."""
    if mono.word.is_letter or mono.has_square():
        return ((mono, 1),)
    xs, ys = (_reduce(f) for f in mono.factors())
    acc = _summed((m, cx * cy * c) for x, cx in xs for y, cy in ys
                  for m, c in _reduce_root(x, y))
    assert all(m.has_square() or _hall_conditions(m.word) for m in acc), \
        "reduction produced a non-Hall word"
    return tuple(acc.items())


def _reduce_root(x: BracketMonomial, y: BracketMonomial):
    """Rewrite [x, y] whose factors are already rewritten."""
    if x.word > y.word:
        sign = _sign(x.degree * y.degree)
        return tuple((t, sign * c) for t, c in _reduce_root(y, x))
    if y.word.is_letter or y.word.left <= x.word:
        return ((x.bracket(y), 1),)
    # Jacobi on [x, [u, v]] with u > x
    u, v = y.factors()
    p, q = x.degree, u.degree
    jacobi = ((x.bracket(u).bracket(v), _sign(p + 1)),
              (u.bracket(x.bracket(v)), _sign((p + 1) * (q + 1))))
    return tuple((t, s * c) for j, s in jacobi for t, c in _reduce(j))


def hall_normalize(s):
    """Split a combination of weight <= MAX_TENSOR_WEIGHT into Hall
    coordinates and a residual.

    Returns (hall, residual) where hall maps HallWord -> int and
    residual is a FormalSum of monomials containing a self-bracket.
    The input equals the sum of both parts modulo the stated relations;
    the tensor expansion can certify this.
    """
    terms = expand(s)._terms
    degree_by_letter: dict[int, int] = {}
    for mono in terms:
        if mono.word.length > MAX_TENSOR_WEIGHT:
            raise WeightLimitError("no rewriting above weight %d: %s"
                                   % (MAX_TENSOR_WEIGHT, mono))
        for i, d in zip(word_letters(mono.word), mono.degrees):
            seen = degree_by_letter.setdefault(i, d)
            if seen != d:
                raise ValueError("letter a%d carries degrees %d and %d"
                                 % (i, seen, d))
    acc: dict[BracketMonomial, int] = {}
    for mono, c in terms.items():
        for m, c2 in _reduce(mono):
            acc[m] = acc.get(m, 0) + c * c2
    hall, residual = {}, {}
    for m, c in acc.items():
        if not c:
            continue
        if _has_square(m.word):
            residual[m] = c
        else:
            hall[m.word] = c
    return hall, FormalSum._of(residual)


# ---------------------------------------------------------------------------
# Tensor expansion oracle


@functools.lru_cache(maxsize=WORD_CACHE_SIZE)
def _tensor_of_monomial(m: BracketMonomial):
    if m.word.is_letter:
        return {((m.word.max_letter, m.degrees[0]),): 1}
    x, y = m.factors()
    a = _tensor_of_monomial(x)
    b = _tensor_of_monomial(y)
    p, q = x.degree, y.degree
    twist = _sign(p)
    koszul = _sign((p - 1) * (q - 1))
    out: dict[tuple, int] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            k1 = wa + wb
            out[k1] = out.get(k1, 0) + twist * ca * cb
            k2 = wb + wa
            out[k2] = out.get(k2, 0) - twist * koszul * ca * cb
    return {w: c for w, c in out.items() if c}


def tensor_expansion(s) -> dict[tuple, int]:
    """Expand a FormalSum into the free associative ring.

    Keys are tuples of (letter, degree) generators.  A monomial of
    weight w expands to at most 2**(w - 1) words on any number of
    letters; like hall_normalize, this stops above MAX_TENSOR_WEIGHT.
    """
    acc: dict[tuple, int] = {}
    for mono, c in expand(s)._terms.items():
        if mono.word.length > MAX_TENSOR_WEIGHT:
            raise WeightLimitError("no tensor expansion above weight %d: %s"
                                   % (MAX_TENSOR_WEIGHT, mono))
        for word, k in _tensor_of_monomial(mono).items():
            acc[word] = acc.get(word, 0) + c * k
    return {w: c for w, c in acc.items() if c}


# ---------------------------------------------------------------------------
# Text syntax


# one token: a symbol, a letter a<i> or an integer; no group, so that
# findall returns the tokens' text
_TOKEN_RE = re.compile(r"[\[\],+\-*()]|a\d+|\d+")
# where a scan token by token would stop: a character no token starts
# with, or an 'a' without its index
_JUNK_RE = re.compile(r"[^\s\d\[\],+\-*()a]|a(?!\d)")


def _scan(text: str) -> list[str]:
    """The tokens of text, with whitespace allowed between them, each
    as its text: a<i>, the digits of an integer, or one symbol."""
    junk = _JUNK_RE.search(text)
    if junk:
        pos = len(text[:junk.start()].rstrip())
        raise ValueError("bad token at %r" % text[pos:pos + 10])
    return _TOKEN_RE.findall(text)


def _letter_of(tok: str, degrees) -> BracketMonomial:
    """The monomial of a letter token a<i>: the letter a_i with the
    degree that degrees gives it."""
    i = int(tok[1:])
    if i < 1:
        raise ValueError("letter indices start at 1")
    try:
        d = degrees[i]
    except LookupError:
        raise ValueError("letter a%d has no degree" % i) from None
    return _letter_monomial(i, d)


def _shown(token: str) -> int | str | None:
    """A token as an error message names it: the index of a letter, an
    integer, a symbol, or None for the empty text past the end."""
    if token[:1] == "a" or token.isdigit():
        return int(token.lstrip("a"))
    return token or None


def parse_bracket_expr(text: str, degrees) -> FormalSum:
    """Parse the bracket syntax a<i>, [x,y], c*x, x + y, -x, (x), 0 and
    expand it by bilinearity into a FormalSum of monomials.

    One walk over the tokens.  The terms of the innermost open sum are
    a list of (monomial, coefficient) pairs; each open '[' or '(' keeps
    the list it interrupted and its own term's coefficient.  A bracket
    adds up each factor of several pairs just before it multiplies them
    out, so that no monomial of a factor is bracketed twice; a factor of
    one pair is multiplied as it is, and a zero coefficient makes no
    product.  The whole list is added up once at the end.
    """
    tokens = _scan(text)
    tokens.append("")  # past the end
    pairs: list = []
    # per open '[' or '(': the token that ends its part, the outer
    # pairs, the coefficient of its term and, after ',', the left factor
    stack: list = []
    letters: dict = {}  # letter token -> its monomial, within this call
    c, i = 1, 0
    while True:
        # one term: signs, then "<int>*" and an atom, a lone 0 or an atom
        tok = tokens[i]
        if tok == "-":
            c, i = -c, i + 1
            continue
        if tok.isdigit():
            i += 1
            if tokens[i] != "*":
                if int(tok):
                    raise ValueError("bare integer %d (only 0 stands alone)"
                                     % int(tok))
                tok = None  # a lone 0, no atom
            else:
                c, i = c * int(tok), i + 1
                tok = tokens[i]
        if tok is not None:
            mono = letters.get(tok)
            if mono is None:
                if tok == "[" or tok == "(":
                    stack.append(("," if tok == "[" else ")", pairs, c, None))
                    pairs, c, i = [], 1, i + 1
                    continue
                if tok[:1] != "a":
                    raise ValueError("expected a letter, bracket, or 0, "
                                     "got %r" % (_shown(tok),))
                mono = letters[tok] = _letter_of(tok, degrees)
            pairs.append((mono, c))
            i += 1
        # after a term: close what ends here, then read the next term
        while True:
            tok = tokens[i]
            i += 1
            if tok == "+" or tok == "-":
                c = 1 if tok == "+" else -1
                break
            if not tok:
                if stack:
                    raise ValueError("unexpected end of expression")
                return FormalSum(pairs)
            if not stack:
                raise ValueError("trailing input after expression: %r"
                                 % (_shown(tok),))
            end, outer, k, left = stack[-1]
            if tok != end:
                raise ValueError("expected %r, got %r" % (end, _shown(tok)))
            if tok == ",":
                stack[-1] = ("]", outer, k, pairs)
                pairs, c = [], 1
                break
            stack.pop()
            if tok == "]":
                # a loop, not a comprehension: most factors are one pair
                xs = left if len(left) == 1 else _summed(left).items()
                ys = pairs if len(pairs) == 1 else _summed(pairs).items()
                pairs = []
                for x, cx in xs:
                    for y, cy in ys:
                        if cx and cy:
                            pairs.append((x.bracket(y), cx * cy))
            outer += pairs if k == 1 else [(m, k * v) for m, v in pairs]
            pairs = outer


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


# ---------------------------------------------------------------------------
# Weight-2 matrices and the projection of an element to one level


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
        for i, j, _ in entries:
            _check_pair(i, j)
        for w, _ in bands:
            if w < 1:
                raise ValueError("band width must be >= 1")
        super().__init__(
            tuple(sorted((i, j, c) for (i, j), c in
                         _summed(((i, j), c) for i, j, c in entries).items())),
            tuple(sorted(_summed(bands).items())))

    @classmethod
    def from_dict(cls, d: dict[tuple[int, int], int]) -> "SparseEpsilon":
        return cls(tuple((i, j, c) for (i, j), c in d.items()))

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


def coordinate_tuple(*parts) -> tuple[tuple[HallWord, GroupElement], ...]:
    """The canonical form of a sum of coordinate maps: (word, value)
    pairs sorted by word, no zero values."""
    return tuple(sorted(add_coordinates(*parts).items()))


def project_levels(e, kmax: int):
    """Walk an element's two infinite sums down the tower: yield its
    projections to the wedges of 1, 2, ..., kmax spheres, each in a
    fresh dict that the caller may change.

    Works for anything with fields n, m, coords and eps, such as a
    CoherentElement.  The projection is the collapse map: it sends
    every letter beyond k to zero, so a term survives at level k
    exactly when every one of its letters is <= k.  The terms are read
    as the element stores them: its coordinates, and eps_{i,j} [a_i, a_j]
    for each entry (i, j, c) with j <= kmax and each pair that a band
    (w, c) reaches, j - i <= w.  With i < j each such word is already a
    Hall word, and its coefficient lies in Z, the group of every weight-2
    word in the degree n = 2m - 1 of an element with a nonzero eps.
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
        kept[w] = kept[w] + f if w in kept else f
    level: dict[HallWord, GroupElement] = {}
    for k in range(1, kmax + 1):
        level.update((w, f) for w, f in by_top.get(k, {}).items() if f)
        yield dict(level)


def project_level(e, k: int) -> dict[HallWord, GroupElement]:
    """Push an element's two infinite sums down to the k-sphere wedge:
    the last level of the walk project_levels(e, k)."""
    if k < 1:
        raise ValueError("levels start at 1")
    for level in project_levels(e, k):
        pass
    return level
