"""Lookup table for homotopy groups of spheres pi_n(S^q).

Three facts are built in and always take precedence over table entries:
pi_n(S^q) = 0 for n < q, pi_n(S^n) = Z, and pi_n(S^1) = 0 for n >= 2.
Everything else comes from a table of exact values; a missing entry is
an honest Unknown (None), never a guess.

Table files are plain text, one entry per line:

    # comment
    pi 4 2 = Z/2
    pi 7 4 = Z + Z/12

with groups written as `0` or as `+`-joined terms Z, Z^a, Z/t, (Z/t)^a,
holding at most MAX_TORSION_FACTORS cyclic torsion factors in all and
no invariant factor longer than the interpreter prints.
"""

from __future__ import annotations

import os
import re

from .groups import CYCLIC_2, FGAbelianGroup, Z, ZERO
from .records import Record

ENV_TABLE_VAR = "CECHWEDGE_TABLE"


class TableParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


class TableConsistencyError(ValueError):
    def __init__(self, lineno: int, rule: str, message: str):
        super().__init__("line %d: %s (%s)" % (lineno, message, rule))
        self.lineno = lineno
        self.rule = rule


def builtin_rule(n: int, q: int) -> tuple[FGAbelianGroup, str] | None:
    """The forced value of pi_n(S^q) with the name of the rule that
    forces it, or None when no rule applies."""
    if n < 1 or q < 1:
        raise ValueError("pi_n(S^q) needs n >= 1 and q >= 1")
    if n < q:
        return ZERO, "n < q forces 0"
    if n == q:
        return Z, "n = q forces Z"
    if q == 1:
        return ZERO, "q = 1, n >= 2 forces 0"
    return None


class SphereGroupTable(Record):
    """Exact values for pi_n(S^q) beyond the built-in rules."""

    __slots__ = _fields = ("entries", "provenance")

    def __init__(self, entries: dict[tuple[int, int], FGAbelianGroup] | None = None,
                 provenance: dict[tuple[int, int], str] | None = None):
        self.entries = {} if entries is None else entries
        self.provenance = {} if provenance is None else provenance

    def lookup(self, n: int, q: int) -> FGAbelianGroup | None:
        forced = builtin_rule(n, q)
        if forced is not None:
            return forced[0]
        return self.entries.get((n, q))


# A torsion power (Z/t)^a expands to a cyclic factors, each merged into
# the invariant factors, so loading costs time linear in a.  A group
# line with more factors than this is refused before any is expanded.
MAX_TORSION_FACTORS = 10**4

# Z, Z^a, Z/t and (Z/t)^a, each power a >= 1
_TERM_RE = re.compile(
    r"^(?:Z(?:\^(?P<rexp>0*[1-9]\d*))?|Z/(?P<t1>\d+)"
    r"|\(Z/(?P<t2>\d+)\)\^(?P<texp>0*[1-9]\d*))$")


def parse_group(text: str) -> FGAbelianGroup:
    text = text.strip()
    if text == "0":
        return ZERO
    rank = 0
    orders: list[int] = []
    for raw in text.split("+"):
        term = raw.strip()
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError("bad group term %r" % term)
        if m.group("t1"):
            order, power = int(m.group("t1")), 1
        elif m.group("t2"):
            order, power = int(m.group("t2")), int(m.group("texp"))
        else:
            rank += int(m.group("rexp") or 1)
            continue
        if len(orders) + power > MAX_TORSION_FACTORS:
            raise ValueError("more than %d cyclic torsion factors in %r"
                             % (MAX_TORSION_FACTORS, text))
        orders.extend([order] * power)
    if any(t < 2 for t in orders):
        raise ValueError("torsion orders must be >= 2 in %r" % text)
    return FGAbelianGroup.from_cyclic(rank, orders)


_LINE_RE = re.compile(r"^pi\s+(\d+)\s+(\d+)\s*=\s*(.+)$")


def parse_table(text: str, source: str = "table") -> SphereGroupTable:
    table = SphereGroupTable()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise TableParseError(lineno, "expected 'pi <n> <q> = <group>', got %r" % raw.strip())
        n, q = int(m.group(1)), int(m.group(2))
        if n < 1 or q < 1:
            raise TableParseError(lineno, "n and q must be >= 1")
        try:
            group = parse_group(m.group(3))
        except ValueError as exc:
            raise TableParseError(lineno, str(exc)) from None
        forced = builtin_rule(n, q)
        if forced is not None and forced[0] != group:
            raise TableConsistencyError(lineno, forced[1],
                                        "pi_%d(S^%d) = %s contradicts a built-in rule"
                                        % (n, q, group.render(" + ")))
        if (n, q) in table.entries and table.entries[(n, q)] != group:
            raise TableParseError(lineno, "conflicting duplicate entry for pi_%d(S^%d)" % (n, q))
        table.entries[(n, q)] = group
        table.provenance[(n, q)] = "%s:%d" % (source, lineno)
    return table


_SEED_VALUES = (
    # (n, q, group, provenance)
    (3, 2, Z, "seed: pi_3(S^2), degree of the Hopf class"),
    (4, 2, CYCLIC_2, "seed: pi_4(S^2)"),
    (4, 3, CYCLIC_2, "seed: first stable stem, pi_{n+1}(S^n) for n >= 3"),
    (5, 4, CYCLIC_2, "seed: first stable stem, pi_{n+1}(S^n) for n >= 3"),
    (6, 5, CYCLIC_2, "seed: first stable stem, pi_{n+1}(S^n) for n >= 3"),
    (7, 6, CYCLIC_2, "seed: first stable stem, pi_{n+1}(S^n) for n >= 3"),
)


def seed_table() -> SphereGroupTable:
    """The bundled table: exactly the classical values the engine's
    worked examples rely on, nothing speculative."""
    table = SphereGroupTable()
    for n, q, group, source in _SEED_VALUES:
        table.entries[(n, q)] = group
        table.provenance[(n, q)] = source
    return table


def load_table(spec: str | None) -> SphereGroupTable:
    """Load a table by CLI-style spec: None or "seed" gives the bundled
    seed table, anything else is read as a file path.  The environment
    variable CECHWEDGE_TABLE supplies the default when spec is None."""
    if spec is None:
        spec = os.environ.get(ENV_TABLE_VAR, "seed")
    if spec == "seed":
        return seed_table()
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError("cannot read table %s: %s" % (spec, exc)) from None
    return parse_table(text, source=os.path.basename(spec))
