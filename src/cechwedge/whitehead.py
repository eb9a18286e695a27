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
import re
from typing import NamedTuple

# SparseEpsilon and project_level: the benchmark's tracer looks them up here
from .elements import (_TOKEN_RE, SparseEpsilon, _scan, _shown,  # noqa: F401
                       _summed, parse_word, project_level)
from .hall import (WORD_CACHE_SIZE, HallWord, _hall_conditions, _new, bracket,
                   word_letters)

MAX_TENSOR_WEIGHT = 4


class WeightLimitError(ValueError):
    """Bracket rewriting and the tensor oracle stop at MAX_TENSOR_WEIGHT."""


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


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
    degree.  A letter without a degree is refused by name."""
    letters, ds = word_letters(w), []
    try:
        ds.extend(map(degrees.__getitem__, letters))
    except LookupError:  # ds keeps the degrees read before the missing one
        raise ValueError("letter a%d has no degree"
                         % letters[len(ds)]) from None
    if min(ds) < 2:
        raise ValueError("generator degrees must be >= 2")
    return _new(BracketMonomial, (w, tuple(ds)))


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


# an expression's tokens, where a '[' and the letters, commas and
# brackets after it are one run; it never backtracks, so stays linear
_EXPR_TOKEN_RE = re.compile(r"\[(?:[\[\],]|a\d+|\s+(?=[\[\],a]))*|"
                            + _TOKEN_RE.pattern)


def _groups(run: str) -> list[str]:
    """The tokens of a run, each bracket that closes within it joined
    with what it holds into one token."""
    out, opened = [], []  # opened: where each unclosed '[' sits in out
    for tok in _TOKEN_RE.findall(run):
        if tok == "]" and opened:
            k = opened.pop()
            out[k:] = ["".join(out[k:]) + "]"]
        else:
            if tok == "[":
                opened.append(len(out))
            out.append(tok)
    return out


def parse_bracket_expr(text: str, degrees) -> FormalSum:
    """Parse the bracket syntax a<i>, [x,y], c*x, x + y, -x, (x), 0 and
    expand it by bilinearity into a FormalSum of monomials.

    One walk over the tokens, where a bracket word with no sum inside is
    one token, read whole by parse_word; a run of letters, commas and
    brackets that is no one word is split into its words and tokens.
    The terms of the innermost open sum are a list of (monomial,
    coefficient) pairs; each open '[' or '(' keeps the list it
    interrupted and its own term's coefficient.  A bracket adds up each
    factor of several pairs just before it multiplies them out, so that
    no monomial of a factor is bracketed twice, and a zero coefficient
    makes no product.  The whole list is added up once at the end.
    """
    tokens = _scan(text, _EXPR_TOKEN_RE)
    tokens.append("")  # past the end
    pairs: list = []
    # per open '[' or '(': the token that ends its part, the outer
    # pairs, the coefficient of its term and, after ',', the left factor
    stack: list = []
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
            if tok == "[" or tok == "(":
                stack.append(("," if tok == "[" else ")", pairs, c, None))
                pairs, c, i = [], 1, i + 1
                continue
            if tok[:1] != "a" and tok[:1] != "[":
                raise ValueError("expected a letter, bracket, or 0, "
                                 "got %r" % (_shown(tok),))
            try:  # a letter, or a run that may be one bracket word
                word = (parse_word(tok) if tok.count("[") == tok.count("]")
                        else None)
            except ValueError:
                if len(_groups(tok)) == 1:  # one bracket and no word
                    raise
                word = None
            if word is None:  # a run that is no one word: its parts
                tokens[i:i + 1] = _groups(tok)
                continue
            pairs.append((monomial_of_word(word, degrees), c))
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
