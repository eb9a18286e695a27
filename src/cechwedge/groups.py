"""Abelian groups (finitely generated), their elements, and group shapes.

Groups are stored in invariant factor form: a free rank together with
torsion orders d1 | d2 | ... | dt.  Such a group is itself a group
shape (GroupExpr), and ZERO is the trivial one; the other shapes add
unresolved sphere-group symbols, finite powers, countable direct sums
(SumN), and countable direct products (ProdN); shapes normalize to a
canonical sorted form so that equality of shapes is structural
equality after normalize().

SumN and ProdN of the same group are deliberately kept distinct, and
repeated countable powers are never merged: the identity of each
summand is part of the answer.

>>> FGAbelianGroup.from_cyclic(1, [2, 12]).render()
'Z (+) Z/2 (+) Z/12'
>>> render_text(normalize(DirectSum((ProdN(CYCLIC_2), ZERO, ProdN(Z)))))
'(Z/2)^N (+) Z^N'
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_left

from .records import Frozen


def invariant_factors(orders) -> tuple[int, ...]:
    """Collapse a list of cyclic orders into the divisibility chain.

    Z/a (+) Z/b is Z/gcd(a, b) (+) Z/lcm(a, b), so each order t merges
    into the chain from its largest factor down, and nothing is
    factored.  The factors t divides keep their value and form one run
    at the top, which a bisection skips.  The next factor d becomes
    lcm(d, t) and t carries on as gcd(d, t), skipping its own run, until
    the carry is 1 or becomes the new smallest factor.  A factor with
    more digits than the interpreter prints (sys.get_int_max_str_digits())
    raises ValueError."""
    limit = sys.get_int_max_str_digits()  # 0 means no limit
    chain: list[int] = []  # largest factor first
    for t in orders:
        if t < 1:
            raise ValueError("cyclic orders must be >= 1")
        i = 0
        while t > 1:
            i = bisect_left(chain, True, lo=i, key=lambda d: d % t != 0)
            if i == len(chain):
                chain.append(t)
                break
            d = chain[i]
            g = math.gcd(d, t)
            chain[i] = lcm = d * (t // g)
            # 10**limit has more than 3 * limit bits
            if limit and lcm.bit_length() > 3 * limit and lcm >= 10**limit:
                raise ValueError("an invariant factor has more than %d "
                                 "digits, too many to print" % limit)
            t = g
    return tuple(reversed(chain))


class GroupExpr(Frozen):
    """Base class for group shapes: frozen records compared by class and
    fields."""

    __slots__ = ()


class FGAbelianGroup(GroupExpr):
    """rank copies of Z plus cyclic groups of the invariant factors: the
    one shape of a known group, ZERO included."""

    __slots__ = _fields = ("rank", "torsion")

    def __init__(self, rank: int = 0, torsion: tuple[int, ...] = ()):
        if rank < 0:
            raise ValueError("rank must be >= 0")
        if any(t < 2 for t in torsion):
            raise ValueError("torsion orders must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion must form a divisibility chain")
        super().__init__(rank, torsion)

    @classmethod
    def from_cyclic(cls, rank: int, orders) -> "FGAbelianGroup":
        return cls(rank, invariant_factors(orders))

    def render(self, joiner: str = " (+) ") -> str:
        """E.g. "Z^2 (+) Z/2 (+) (Z/4)^3"; the trivial group is "0"."""
        if self == ZERO:
            return "0"
        parts = []
        if self.rank:
            parts.append("Z" if self.rank == 1 else "Z^%d" % self.rank)
        for order, run in itertools.groupby(self.torsion):
            mult = len(list(run))
            parts.append("Z/%d" % order if mult == 1
                         else "(Z/%d)^%d" % (order, mult))
        return joiner.join(parts)

    def __str__(self):
        return self.render()


ZERO = FGAbelianGroup()
Z = FGAbelianGroup(1)
CYCLIC_2 = FGAbelianGroup(0, (2,))


class AmbientMismatchError(ValueError):
    """Two elements of different ambient groups were combined."""


class GroupElement:
    """An element of a fixed FGAbelianGroup.

    coords holds one integer per free generator, then one residue per
    invariant factor (stored reduced mod the factor).
    """

    __slots__ = ("group", "coords")

    def __init__(self, group: FGAbelianGroup, coords):
        coords = tuple(map(int, coords))
        if len(coords) != group.rank + len(group.torsion):
            raise ValueError(
                "%s needs %d coordinates, got %d"
                % (group, group.rank + len(group.torsion), len(coords)))
        if group.torsion:
            coords = coords[:group.rank] + tuple(
                c % d for c, d in zip(coords[group.rank:], group.torsion))
        self.group = group
        self.coords = coords

    def __bool__(self):
        return any(self.coords)

    def _check(self, other):
        if not isinstance(other, GroupElement):
            raise TypeError("cannot combine GroupElement with %r" % (other,))
        if other.group != self.group:
            raise AmbientMismatchError(
                "elements of %s and %s" % (self.group, other.group))

    def __add__(self, other):
        self._check(other)
        return GroupElement(self.group,
                            (a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return GroupElement(self.group, (-a for a in self.coords))

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return ((self.group is other.group or self.group == other.group)
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.group, self.coords))

    def __repr__(self):
        return "<%s in %s>" % (",".join(map(str, self.coords)) or "0", self.group)


def integer_element(c: int) -> GroupElement:
    """The integer c as an element of Z."""
    return GroupElement(Z, (c,))


# ---------------------------------------------------------------------------
# The other group shapes


class SphereSymbol(GroupExpr):
    """Unresolved symbol for the degree-n homotopy group of a q-sphere."""

    __slots__ = _fields = ("n", "q")


class DirectSum(GroupExpr):
    __slots__ = _fields = ("parts",)


class Pow(GroupExpr):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base: GroupExpr, exponent: int):
        if exponent < 1:
            raise ValueError("finite powers need exponent >= 1")
        super().__init__(base, exponent)


class SumN(GroupExpr):
    """Countable direct sum of copies of the base shape."""

    __slots__ = _fields = ("base",)


class ProdN(GroupExpr):
    """Countable direct product of copies of the base shape."""

    __slots__ = _fields = ("base",)


def sort_key(e: GroupExpr):
    """The order normalize() puts direct summands in."""
    if isinstance(e, FGAbelianGroup):
        return (0, e.rank, e.torsion)
    if isinstance(e, SphereSymbol):
        return (1, e.n, e.q)
    if isinstance(e, DirectSum):
        return (2, tuple(sort_key(p) for p in e.parts))
    if isinstance(e, Pow):
        return (3, sort_key(e.base), e.exponent)
    if isinstance(e, SumN):
        return (4, sort_key(e.base))
    if isinstance(e, ProdN):
        return (5, sort_key(e.base))
    raise TypeError("not a group shape: %r" % (e,))


def normalize(e: GroupExpr) -> GroupExpr:
    """Canonical form: flatten sums, drop zeros, collapse Pow(x, 1),
    sort direct summands by a fixed structural key.  A shape already in
    canonical form comes back as the same object."""
    if isinstance(e, (FGAbelianGroup, SphereSymbol)):
        return e
    if isinstance(e, Pow):
        base = normalize(e.base)
        if base == ZERO:
            return ZERO
        if e.exponent == 1:
            return base
        return e if base is e.base else Pow(base, e.exponent)
    if isinstance(e, SumN):
        base = normalize(e.base)
        return ZERO if base == ZERO else e if base is e.base else SumN(base)
    if isinstance(e, ProdN):
        base = normalize(e.base)
        return ZERO if base == ZERO else e if base is e.base else ProdN(base)
    if isinstance(e, DirectSum):
        flat: list[GroupExpr] = []
        for part in e.parts:
            p = normalize(part)
            if p == ZERO:
                continue
            if isinstance(p, DirectSum):
                flat.extend(p.parts)
            else:
                flat.append(p)
        if not flat:
            return ZERO
        if len(flat) == 1:
            return flat[0]
        flat.sort(key=sort_key)
        parts = tuple(flat)
        return e if parts == e.parts else DirectSum(parts)
    raise TypeError("not a group shape: %r" % (e,))


def distribute_product_over_sum(e: GroupExpr) -> GroupExpr:
    """Rewrite ProdN(A (+) B (+) ...) as ProdN(A) (+) ProdN(B) (+) ...

    A countable product of a finite direct sum regroups coordinatewise;
    this is the only product/sum interchange the engine performs.
    """
    if isinstance(e, ProdN) and isinstance(e.base, DirectSum):
        return normalize(DirectSum(tuple(ProdN(p) for p in e.base.parts)))
    return normalize(e)


def has_symbol(e: GroupExpr) -> bool:
    """Whether an unresolved sphere group occurs anywhere in e."""
    if isinstance(e, SphereSymbol):
        return True
    if isinstance(e, DirectSum):
        return any(has_symbol(p) for p in e.parts)
    if isinstance(e, (Pow, ProdN, SumN)):
        return has_symbol(e.base)
    return False


def _atom_text(e: GroupExpr) -> str | None:
    """Rendering of shapes that may take a ^ exponent directly."""
    if isinstance(e, FGAbelianGroup):
        return e.render()
    if isinstance(e, SphereSymbol):
        return "pi_%d(S^%d)" % (e.n, e.q)
    return None


def _powered(base_text: str, suffix: str) -> str:
    if any(ch in base_text for ch in " /^"):
        return "(%s)%s" % (base_text, suffix)
    return base_text + suffix


def render_text(e: GroupExpr) -> str:
    atom = _atom_text(e)
    if atom is not None:
        return atom
    if isinstance(e, DirectSum):
        return " (+) ".join(render_text(p) for p in e.parts)
    if isinstance(e, Pow):
        inner = _atom_text(e.base)
        if inner is None:
            return "(%s)^%d" % (render_text(e.base), e.exponent)
        return _powered(inner, "^%d" % e.exponent)
    if isinstance(e, ProdN):
        inner = _atom_text(e.base)
        if inner is not None:
            return _powered(inner, "^N")
        if isinstance(e.base, DirectSum):
            return "PROD_N (%s)" % render_text(e.base)
        return "PROD_N %s" % render_text(e.base)
    if isinstance(e, SumN):
        if isinstance(e.base, DirectSum):
            return "SUM_N (%s)" % render_text(e.base)
        return "SUM_N %s" % render_text(e.base)
    raise TypeError("not a group shape: %r" % (e,))


def to_machine(e: GroupExpr) -> dict:
    if isinstance(e, FGAbelianGroup):
        if e == ZERO:
            return {"kind": "zero"}
        return {"kind": "finite", "rank": e.rank, "torsion": list(e.torsion)}
    if isinstance(e, SphereSymbol):
        return {"kind": "sphere", "n": e.n, "q": e.q}
    if isinstance(e, DirectSum):
        return {"kind": "direct_sum",
                "children": [to_machine(p) for p in e.parts]}
    if isinstance(e, Pow):
        return {"kind": "pow", "exponent": e.exponent,
                "children": [to_machine(e.base)]}
    if isinstance(e, SumN):
        return {"kind": "sum_n", "children": [to_machine(e.base)]}
    if isinstance(e, ProdN):
        return {"kind": "prod_n", "children": [to_machine(e.base)]}
    raise TypeError("not a group shape: %r" % (e,))
