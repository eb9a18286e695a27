"""Integer-linear algebra of graded bracket monomials.

A monomial is a nested bracket whose leaves are generators a_i of
spherical degree d_i >= 2; a bracket of degrees p and q has degree
p + q - 1.  The relations the rewriting engine is allowed to use are,
for degrees p, q, r >= 2:

    [x, 0] = 0 and bilinearity,
    [x, y] = (-1)**(p*q) [y, x],
    (-1)**(p*r) [[x,y],z] + (-1)**(p*q) [[y,z],x] + (-1)**(r*q) [[z,x],y] = 0.

Self-brackets [a_i, a_i] are deliberately never rewritten: the engine
returns them (and any monomial containing one) untouched as a residual
part, because the relations above do not determine them.

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
from dataclasses import dataclass

from .groups import GroupElement, integer_element
from .hall import (GradingSequence, HallWord, bracket, letter,
                   _hall_conditions)


class WeightLimitError(ValueError):
    """Bracket rewriting is only implemented up to weight 3."""


class SizeLimitError(RuntimeError):
    """Tensor expansion refused an input beyond its desk-scale guards."""


class ResidualBracketError(ValueError):
    """A projection ran into a monomial the engine cannot normalize."""


@dataclass(frozen=True)
class Generator:
    """A wedge-sphere generator: letter index and spherical degree."""

    letter: int
    degree: int

    def __post_init__(self):
        if self.letter < 1:
            raise ValueError("letter indices start at 1")
        if self.degree < 2:
            raise ValueError("generator degrees must be >= 2")

    def __str__(self):
        return "a%d" % self.letter


class BracketMonomial:
    """Immutable bracket tree over Generator leaves."""

    __slots__ = ("_gen", "_left", "_right", "_weight", "_degree",
                 "_max_letter", "_has_square", "_key", "_hash")

    def __init__(self, gen=None, left=None, right=None):
        if gen is not None:
            self._gen = gen
            self._left = None
            self._right = None
            self._weight = 1
            self._degree = gen.degree
            self._max_letter = gen.letter
            self._has_square = False
            self._key = (1, gen.letter, gen.degree)
        else:
            if left is None or right is None:
                raise ValueError("a bracket needs two factors")
            self._gen = None
            self._left = left
            self._right = right
            self._weight = left._weight + right._weight
            self._degree = left._degree + right._degree - 1
            self._max_letter = max(left._max_letter, right._max_letter)
            square_here = (left.is_generator and right.is_generator
                           and left.generator.letter == right.generator.letter)
            self._has_square = (square_here or left._has_square
                                or right._has_square)
            self._key = (self._weight, left._key, right._key)
        self._hash = hash(self._key)

    @property
    def is_generator(self):
        return self._gen is not None

    @property
    def generator(self):
        if self._gen is None:
            raise ValueError("%s is not a single generator" % self)
        return self._gen

    @property
    def left(self):
        return self._left

    @property
    def right(self):
        return self._right

    @property
    def weight(self):
        return self._weight

    @property
    def degree(self):
        return self._degree

    @property
    def max_letter(self):
        return self._max_letter

    def has_square(self):
        """Whether some sub-bracket is [a_i, a_i] on equal letters."""
        return self._has_square

    def iter_generators(self):
        if self._gen is not None:
            yield self._gen
        else:
            yield from self._left.iter_generators()
            yield from self._right.iter_generators()

    @property
    def key(self):
        return self._key

    def __eq__(self, other):
        if not isinstance(other, BracketMonomial):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __str__(self):
        if self._gen is not None:
            return str(self._gen)
        return "[%s,%s]" % (self._left, self._right)

    __repr__ = __str__


@functools.lru_cache(maxsize=None)
def generator_monomial(letter_index: int, degree: int) -> BracketMonomial:
    return BracketMonomial(gen=Generator(letter_index, degree))


def monomial_bracket(x: BracketMonomial, y: BracketMonomial) -> BracketMonomial:
    return BracketMonomial(left=x, right=y)


def _degree_of(degrees, i: int) -> int:
    if isinstance(degrees, GradingSequence):
        return degrees.sphere_dimension(i)
    return degrees[i]


def monomial_of_word(w: HallWord, degrees) -> BracketMonomial:
    """Attach degrees to a bare word; degrees is a GradingSequence or a
    mapping from letter index to degree."""
    if w.is_letter:
        return generator_monomial(w.letter_index, _degree_of(degrees, w.letter_index))
    return monomial_bracket(monomial_of_word(w.left, degrees),
                            monomial_of_word(w.right, degrees))


def word_of_monomial(m: BracketMonomial) -> HallWord:
    if m.is_generator:
        return letter(m.generator.letter)
    return bracket(word_of_monomial(m.left), word_of_monomial(m.right))


class FormalSum:
    """Finite integer combination of bracket monomials."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        acc: dict[BracketMonomial, int] = {}
        if terms:
            for mono, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    acc[mono] = acc.get(mono, 0) + c
                    if not acc[mono]:
                        del acc[mono]
        self._terms = acc

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    @classmethod
    def single(cls, mono: BracketMonomial, c: int = 1) -> "FormalSum":
        return cls({mono: c})

    def items(self):
        return sorted(self._terms.items(), key=lambda mc: mc[0].key)

    def coefficient(self, mono: BracketMonomial) -> int:
        return self._terms.get(mono, 0)

    def scale(self, c: int) -> "FormalSum":
        return FormalSum({m: c * k for m, k in self._terms.items()})

    @classmethod
    def sum_of(cls, parts) -> "FormalSum":
        """Sum of any number of FormalSums, built in one pass."""
        return cls(mc for s in parts for mc in s._terms.items())

    def bracket(self, other: "FormalSum") -> "FormalSum":
        """Bilinear bracket: [sum c_x x, sum c_y y] = sum c_x c_y [x, y]."""
        acc: dict[BracketMonomial, int] = {}
        for mx, cx in self._terms.items():
            for my, cy in other._terms.items():
                mono = monomial_bracket(mx, my)
                acc[mono] = acc.get(mono, 0) + cx * cy
        return FormalSum(acc)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum.sum_of((self, other))

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(-1)

    def __neg__(self) -> "FormalSum":
        return self.scale(-1)

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        if not self._terms:
            return "0"
        bits = []
        for m, c in self.items():
            if c == 1:
                bits.append(str(m))
            elif c == -1:
                bits.append("-%s" % m)
            else:
                bits.append("%d*%s" % (c, m))
        return " + ".join(bits).replace("+ -", "- ")


def expand(e) -> FormalSum:
    """A FormalSum as it is, or a single monomial as a one-term sum."""
    if isinstance(e, FormalSum):
        return e
    if isinstance(e, BracketMonomial):
        return FormalSum.single(e)
    raise TypeError("cannot expand %r" % (e,))


def graded_swap(m: BracketMonomial) -> tuple[int, BracketMonomial]:
    """Swap the top bracket: [x, y] = sign * [y, x] with
    sign = (-1)**(deg x * deg y)."""
    if m.is_generator:
        raise ValueError("cannot swap a single generator")
    sign = -1 if (m.left.degree * m.right.degree) % 2 else 1
    return sign, monomial_bracket(m.right, m.left)


@functools.lru_cache(maxsize=None)
def _reduce(mono: BracketMonomial) -> FormalSum:
    """Rewrite one monomial of weight <= 3 into Hall monomials, leaving
    anything containing a self-bracket untouched."""
    if mono.has_square():
        return FormalSum.single(mono)
    if mono.is_generator:
        return FormalSum.single(mono)
    x, y = mono.left, mono.right
    if mono.weight == 2:
        if x.generator.letter < y.generator.letter:
            return FormalSum.single(mono)
        sign, swapped = graded_swap(mono)
        return FormalSum.single(swapped, sign)
    if mono.weight != 3:
        raise WeightLimitError("no rewriting above weight 3: %s" % mono)
    if x.weight == 2:
        sign, swapped = graded_swap(mono)
        return _reduce(swapped).scale(sign)
    # x is a generator and y = [u, v] with u, v generators
    u, v = y.left, y.right
    if u.generator.letter > v.generator.letter:
        sign = -1 if (u.degree * v.degree) % 2 else 1
        return _reduce(monomial_bracket(x, monomial_bracket(v, u))).scale(sign)
    if u.generator.letter <= x.generator.letter:
        return FormalSum.single(mono)  # already a Hall monomial
    # Here x < u < v: apply the Jacobi relation to [[u,v],x] with
    # alpha = u, beta = v, gamma = x, then reduce the two new shapes.
    p, q, r = u.degree, v.degree, x.degree
    s_root = -1 if (r * (p + q - 1)) % 2 else 1       # [x,[u,v]] -> [[u,v],x]
    s1 = -(-1 if (p * q + p * r) % 2 else 1)          # on [[v,x],u]
    s2 = -(-1 if (r * q + p * r) % 2 else 1)          # on [[x,u],v]
    t1 = monomial_bracket(monomial_bracket(v, x), u)
    t2 = monomial_bracket(monomial_bracket(x, u), v)
    return (_reduce(t1).scale(s_root * s1)
            + _reduce(t2).scale(s_root * s2))


def hall_normalize(s, letters: int | None = None):
    """Split a weight <= 3 combination into Hall coordinates and a residual.

    Returns (hall, residual) where hall maps HallWord -> int and
    residual is a FormalSum of monomials containing a self-bracket.
    The input equals the sum of both parts modulo the stated relations;
    the tensor expansion can certify this.
    """
    s = expand(s)
    degree_by_letter: dict[int, int] = {}
    for mono, _ in s.items():
        if mono.weight > 3:
            raise WeightLimitError("no rewriting above weight 3: %s" % mono)
        if letters is not None and mono.max_letter > letters:
            raise ValueError("monomial %s uses letters beyond a%d" % (mono, letters))
        for g in mono.iter_generators():
            seen = degree_by_letter.setdefault(g.letter, g.degree)
            if seen != g.degree:
                raise ValueError("letter a%d carries degrees %d and %d"
                                 % (g.letter, seen, g.degree))
    hall: dict[HallWord, int] = {}
    residual: dict[BracketMonomial, int] = {}
    for mono, c in s.items():
        for m2, c2 in _reduce(mono).items():
            if m2.has_square():
                residual[m2] = residual.get(m2, 0) + c * c2
            else:
                w = word_of_monomial(m2)
                assert _hall_conditions(w), "reduction produced a non-Hall word"
                hall[w] = hall.get(w, 0) + c * c2
    hall = {w: c for w, c in hall.items() if c}
    return hall, FormalSum(residual)


# ---------------------------------------------------------------------------
# Tensor expansion oracle

MAX_TENSOR_WEIGHT = 4
MAX_TENSOR_LETTERS = 3


@functools.lru_cache(maxsize=None)
def _tensor_of_monomial(m: BracketMonomial):
    if m.is_generator:
        return {(m.generator,): 1}
    a = _tensor_of_monomial(m.left)
    b = _tensor_of_monomial(m.right)
    p, q = m.left.degree, m.right.degree
    twist = -1 if p % 2 else 1
    koszul = -1 if ((p - 1) * (q - 1)) % 2 else 1
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

    Keys are tuples of Generators.  Guarded to weight <= 4 and at most
    3 distinct letters per monomial; inputs beyond that raise
    SizeLimitError.
    """
    s = expand(s)
    acc: dict[tuple, int] = {}
    for mono, c in s.items():
        if mono.weight > MAX_TENSOR_WEIGHT:
            raise SizeLimitError("tensor expansion capped at weight %d"
                                 % MAX_TENSOR_WEIGHT)
        if len({g.letter for g in mono.iter_generators()}) > MAX_TENSOR_LETTERS:
            raise SizeLimitError("tensor expansion capped at %d distinct letters"
                                 % MAX_TENSOR_LETTERS)
        for word, k in _tensor_of_monomial(mono).items():
            acc[word] = acc.get(word, 0) + c * k
    return {w: c for w, c in acc.items() if c}


# ---------------------------------------------------------------------------
# Text syntax


_TOKEN_RE = re.compile(r"\s*(?:(?P<letter>a(\d+))|(?P<int>\d+)|(?P<sym>[\[\],+\-*()]))")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError("bad token at %r" % text[pos:pos + 10])
            break
        if m.group("letter"):
            out.append(("letter", int(m.group(2))))
        elif m.group("int"):
            out.append(("int", int(m.group("int"))))
        else:
            out.append(("sym", m.group("sym")))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self, kind=None, value=None):
        tok = self.peek()
        if tok[0] is None:
            raise ValueError("unexpected end of expression")
        if kind is not None and tok[0] != kind:
            raise ValueError("expected %s, got %r" % (kind, tok[1]))
        if value is not None and tok[1] != value:
            raise ValueError("expected %r, got %r" % (value, tok[1]))
        self.pos += 1
        return tok

    def expr(self, degrees) -> FormalSum:
        terms = [self.term(degrees)]
        while self.peek() == ("sym", "+") or self.peek() == ("sym", "-"):
            _, op = self.take("sym")
            t = self.term(degrees)
            terms.append(-t if op == "-" else t)
        return FormalSum.sum_of(terms)

    def term(self, degrees) -> FormalSum:
        kind, val = self.peek()
        if kind == "sym" and val == "-":
            self.take()
            return -self.term(degrees)
        if kind == "int":
            self.take()
            if self.peek() == ("sym", "*"):
                self.take()
                return self.atom(degrees).scale(val)
            if val == 0:
                return FormalSum.zero()
            raise ValueError("bare integer %d (only 0 stands alone)" % val)
        return self.atom(degrees)

    def atom(self, degrees) -> FormalSum:
        kind, val = self.peek()
        if kind == "letter":
            self.take()
            return FormalSum.single(generator_monomial(val, _degree_of(degrees, val)))
        if kind == "sym" and val == "[":
            self.take()
            x = self.expr(degrees)
            self.take("sym", ",")
            y = self.expr(degrees)
            self.take("sym", "]")
            return x.bracket(y)
        if kind == "sym" and val == "(":
            self.take()
            e = self.expr(degrees)
            self.take("sym", ")")
            return e
        raise ValueError("expected a letter, bracket, or 0, got %r" % (val,))


def parse_bracket_expr(text: str, degrees) -> FormalSum:
    """Parse the bracket syntax a<i>, [x,y], c*x, x + y, -x, 0 and expand
    it by bilinearity into a FormalSum of monomials."""
    parser = _Parser(_tokenize(text))
    e = parser.expr(degrees)
    if parser.peek()[0] is not None:
        raise ValueError("trailing input after expression: %r" % (parser.peek()[1],))
    return e


def parse_word(text: str) -> HallWord:
    """Parse a bare bracket word: a<i> or [word,word], no sums."""

    def walk(p: _Parser) -> HallWord:
        kind, val = p.peek()
        if kind == "letter":
            p.take()
            return letter(val)
        if kind == "sym" and val == "[":
            p.take()
            x = walk(p)
            p.take("sym", ",")
            y = walk(p)
            p.take("sym", "]")
            return bracket(x, y)
        raise ValueError("expected a letter or bracket, got %r" % (val,))

    parser = _Parser(_tokenize(text))
    w = walk(parser)
    if parser.peek()[0] is not None:
        raise ValueError("trailing input after word: %r" % (parser.peek()[1],))
    return w


# ---------------------------------------------------------------------------
# Epsilon oracles and the projection of an element to one level


class EpsilonOracle:
    """Upper-triangular integer matrix (epsilon_{i,j})_{i<j}, total."""

    __slots__ = ()

    def value(self, i: int, j: int) -> int:
        raise NotImplementedError

    def __add__(self, other: "EpsilonOracle") -> "EpsilonOracle":
        if isinstance(self, SparseEpsilon) and isinstance(other, SparseEpsilon):
            acc = dict(self.as_dict())
            for key, c in other.as_dict().items():
                acc[key] = acc.get(key, 0) + c
            return SparseEpsilon.from_dict(acc)
        parts: list[EpsilonOracle] = []
        for part in (self, other):
            parts.extend(part.parts if isinstance(part, SumEpsilon) else (part,))
        return SumEpsilon(tuple(parts))

    def scale(self, c: int) -> "EpsilonOracle":
        raise NotImplementedError


def _check_pair(i, j):
    if not (1 <= i < j):
        raise ValueError("epsilon entries need 1 <= i < j, got (%d, %d)" % (i, j))


@dataclass(frozen=True)
class SparseEpsilon(EpsilonOracle):
    """Finitely many explicit entries; everything else is zero."""

    entries: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        for i, j, _ in self.entries:
            _check_pair(i, j)
        # A plain attribute, not a field: equality, hash and repr still
        # see only the entries.  Built in reverse so that, as in a scan,
        # the first entry for a repeated pair wins.
        object.__setattr__(self, "_by_pair",
                           {(i, j): c for i, j, c in reversed(self.entries)})

    @classmethod
    def from_dict(cls, d: dict[tuple[int, int], int]) -> "SparseEpsilon":
        return cls(tuple(sorted((i, j, c) for (i, j), c in d.items() if c)))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): c for i, j, c in self.entries}

    def value(self, i, j):
        _check_pair(i, j)
        return self._by_pair.get((i, j), 0)

    def scale(self, c):
        if c == 0:
            return SparseEpsilon()
        return SparseEpsilon(tuple((i, j, c * k) for i, j, k in self.entries))


@dataclass(frozen=True)
class BandEpsilon(EpsilonOracle):
    """Constant value on the band j - i <= width, zero beyond it."""

    coeff: int
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("band width must be >= 1")

    def value(self, i, j):
        _check_pair(i, j)
        return self.coeff if j - i <= self.width else 0

    def scale(self, c):
        return BandEpsilon(c * self.coeff, self.width)


@dataclass(frozen=True)
class SumEpsilon(EpsilonOracle):
    parts: tuple[EpsilonOracle, ...]

    def value(self, i, j):
        return sum(p.value(i, j) for p in self.parts)

    def scale(self, c):
        return SumEpsilon(tuple(p.scale(c) for p in self.parts))


def add_coordinates(*parts) -> dict[HallWord, GroupElement]:
    """Add coordinate maps word -> group element, each given as a dict or
    as (word, value) pairs; words whose sum is zero drop out."""
    acc: dict[HallWord, GroupElement] = {}
    for part in parts:
        for w, f in (part.items() if isinstance(part, dict) else part):
            acc[w] = (acc[w] + f) if w in acc else f
    return {w: f for w, f in acc.items() if not f.is_zero()}


def coordinate_tuple(*parts) -> tuple[tuple[HallWord, GroupElement], ...]:
    """The canonical form of a sum of coordinate maps: (word, value)
    pairs sorted by word, no zero values."""
    return tuple(sorted(add_coordinates(*parts).items(), key=lambda wf: wf[0].key))


def project_level(e, k: int) -> dict[HallWord, GroupElement]:
    """Push an element's two infinite sums down to the k-sphere wedge.

    Works for anything with fields n, m, coords and eps, such as a
    CoherentElement.  Letters beyond k map to zero.  The eps part is
    the bracket sum sum_i [l_i, sum_{j>i} eps_{i,j} l_j]: its finite
    remainder expands by bilinearity, is hall-normalized, and its
    coefficients land in Z, the group of every weight-2 word in the
    degree n = 2m - 1 that an element with eps has.  The coords part
    is the composition sum sum_w l_w o f_w, which needs no rewriting: a
    term survives exactly when its word avoids the trivialized letters.
    """
    if k < 1:
        raise ValueError("levels start at 1")
    coords = {w: f for w, f in e.coords if w.max_letter <= k}
    if e.eps is None:
        return coords
    rows = []
    for i in range(1, k):
        tail = FormalSum((generator_monomial(j, e.m), e.eps.value(i, j))
                         for j in range(i + 1, k + 1))
        rows.append(FormalSum.single(generator_monomial(i, e.m)).bracket(tail))
    hall, residual = hall_normalize(FormalSum.sum_of(rows))
    if residual:
        raise ResidualBracketError("projection left non-Hall monomials: %s"
                                   % residual)
    return add_coordinates(coords, ((w, integer_element(c))
                                    for w, c in hall.items()))
