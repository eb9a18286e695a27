"""Seeded random elements of every kind, for the test suite only.

The library keeps the two draws the verify commands make
(random_sparse_epsilon and random_min_letter_elements); these build on
them and on the library's word draw, `_draw`.
"""

import random

from cechwedge.elements import (CoherentElement, _draw,
                                finite_support_element,
                                random_min_letter_elements,
                                random_sparse_epsilon, weight_two_element)
from cechwedge.groups import ZERO
from cechwedge.hall import GradingSequence, dimension_truncation, height


def _finite_support_pool(n: int, m: int, table) -> list:
    """The Hall words on letters a1..a6, of any weight, whose sphere
    group resolves to a nonzero group, each with that group."""
    grading = GradingSequence.constant(m - 1)
    out = []
    for w in dimension_truncation(6, n, grading)[0].words():
        group = table.lookup(n, height(w, grading) + 1)
        if group is not None and group != ZERO:
            out.append((w, group))
    return out


def random_finite_support_element(rng: random.Random, n: int, m: int,
                                  table) -> CoherentElement:
    return finite_support_element(
        n, m, _draw(rng, _finite_support_pool(n, m, table)), table)


def random_weight_two_element(rng: random.Random, m: int) -> CoherentElement:
    return weight_two_element(m, random_sparse_epsilon(rng))


def random_element(rng: random.Random, n: int, m: int, table,
                   kind: str | None = None) -> CoherentElement:
    if kind is None:
        kinds = ["finite", "gtuple"]
        if n == 2 * m - 1:
            kinds.append("weight2")
        kind = rng.choice(kinds)
    if kind == "finite":
        return random_finite_support_element(rng, n, m, table)
    if kind == "weight2":
        if n != 2 * m - 1:
            raise ValueError("weight-2 families need n = 2m - 1")
        return random_weight_two_element(rng, m)
    if kind == "gtuple":
        try:
            return next(random_min_letter_elements(rng, n, m, table))
        except ValueError:  # no word to draw from: the family is zero
            return CoherentElement(n, m)
    raise ValueError("unknown element kind %r" % kind)
