"""Seeded inputs for the cechwedge benchmark.

Every CLI workload is a list of slots.  A slot is one size step of one
command and owns a finite list of variants (flag choices, CLI seeds,
generated input files) that cost about the same.  A pass over a
workload takes one seeded variant per slot, in seeded order, so two
workload seeds give different inputs at the same size steps while the
golden corpus (golden.json) can still freeze the output of every
variant.

The session workload is a seeded stream of library queries for one
long-lived process; it has no golden corpus, every query carries its
own cross-check instead.

Nothing here imports cechwedge: the inputs must not depend on the
program under test.  Hall words for element files come from a small
enumerator of our own.
"""

from __future__ import annotations

import functools
import itertools
import random

FILE_VARIANTS = 8      # generated files per file slot
CLI_SEEDS = 16         # --seed values per random-verifier slot


class Slot:
    """One size step of one command.

    `variants` holds tuples of argv lists (two argv lists for a
    cross-check pair).  An argv entry "@name" stands for a generated
    input file; `files[name]` is its text.  `check` names the pair
    check: "same_stdout" or "count_rows".
    """

    def __init__(self, name, variants, check=None, expect="golden"):
        self.name = name
        self.variants = variants
        self.check = check
        self.expect = expect
        self.files = {}


def rng_for(workload: str, seed: int) -> random.Random:
    """The random stream of one workload seed; str seeds hash stably."""
    return random.Random("%s/%d" % (workload, seed))


def op_key(argv) -> str:
    """Golden-corpus key of one CLI invocation."""
    return " ".join(argv)


# ---------------------------------------------------------------------------
# Independent Hall words (for element files only)


def _hall_words(k: int, max_weight: int):
    """Hall words on k letters by weight, as (key, text) pairs.

    Same definition as the package: lighter words first, then maximal
    letter, then left and right factor keys; [x, y] is Hall when x < y
    and, for y = [u, v], u <= x.
    """
    strata = {1: [((1, i), "a%d" % i, None) for i in range(1, k + 1)]}
    for w in range(2, max_weight + 1):
        out = []
        for i in range(1, w):
            for x in strata[i]:
                for y in strata[w - i]:
                    if not x[0] < y[0]:
                        continue
                    if y[2] is not None and not y[2][0] <= x[0]:
                        continue
                    key = (w, max(x[0][1], y[0][1]), x[0], y[0])
                    out.append((key, "[%s,%s]" % (x[1], y[1]), x))
        out.sort()
        strata[w] = out
    return {w: [(key, text) for key, text, _ in s] for w, s in strata.items()}


def _min_letter(text: str) -> int:
    return min(int(t) for t in text.replace("[", " ").replace("]", " ")
               .replace(",", " ").replace("a", " ").split())


def necklace(k: int, j: int) -> int:
    """Hall words of weight j on k letters, by Witt's formula."""
    def mobius(n):
        result, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                result = -result
            p += 1
        return -result if n > 1 else result
    return sum(mobius(d) * k ** (j // d) for d in range(1, j + 1) if j % d == 0) // j


# ---------------------------------------------------------------------------
# Element and eps files.  Sphere groups must resolve in the seed table:
#   m = 2, n = 6: weight 4 lands in pi_6(S^5) = Z/2, weight 5 in pi_6(S^6) = Z;
#   m = 3, n = 7: weight 3 lands in pi_7(S^7) = Z;
#   n = 2m - 1:   weight 2 lands in pi_n(S^n) = Z.


def _nonzero(rng, bound=3):
    return rng.choice([c for c in range(-bound, bound + 1) if c])


def eps_file(rng, m: int, index: int, dense: bool = True) -> str:
    lines = ["element n=%d m=%d" % (2 * m - 1, m)]
    for i in range(1, index):
        for j in range(i + 1, index + 1):
            if dense or rng.random() < 0.5:
                lines.append("eps %d %d = %d" % (i, j, _nonzero(rng)))
    return "\n".join(lines) + "\n"


def weight2_element_file(rng, m: int, index: int) -> str:
    text = eps_file(rng, m, index, dense=False)
    pairs = [(i, j) for i in range(1, index) for j in range(i + 1, index + 1)]
    for i, j in rng.sample(pairs, 2):
        text += "support [a%d,a%d] = %d\n" % (i, j, _nonzero(rng))
    return text


@functools.lru_cache(maxsize=None)
def _pool(m: int):
    """Resolvable words as (text, torsion order or 0 for Z)."""
    if m == 2:
        hs = _hall_words(5, 5)
        return [(t, 2) for _, t in hs[4]] + [(t, 0) for _, t in hs[5]]
    return [(t, 0) for _, t in _hall_words(6, 3)[3]]


def _value(rng, torsion: int) -> int:
    return rng.randrange(1, torsion) if torsion else _nonzero(rng)


def finite_element_file(rng, m: int, n: int, terms: int) -> str:
    lines = ["element n=%d m=%d" % (n, m)]
    for text, torsion in rng.sample(_pool(m), terms):
        lines.append("support %s = %d" % (text, _value(rng, torsion)))
    return "\n".join(lines) + "\n"


def gtuple_element_file(rng, m: int, n: int, terms: int) -> str:
    lines = ["element n=%d m=%d" % (n, m)]
    for text, torsion in rng.sample(_pool(m), terms):
        lines.append("gtuple %d %s = %d" % (_min_letter(text), text,
                                            _value(rng, torsion)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Workload catalogues

GRADINGS_MIXED = ["1,1,%d,%d;%d" % (b, c, t)
                  for b, c in itertools.combinations_with_replacement((1, 2, 3), 2)
                  for t in (c, c + 1)]
GRADINGS_HEIGHT = ["1", "2", "1;2", "1,1;3", "1,2;2", "2,2;3", "1,1,2;2",
                   "1,2,3;4"]
HM_GRADINGS = [["-m", "2"], ["--grading", "1"], ["--grading", "1;1"],
               ["--grading", "1,1;1"], ["--grading", "1,1,1;1"]]
EARRING_GRID = [(m, n) for m in range(2, 7) for n in range(2, 13)]
COUNT_GRID = [(k, j) for k in range(2, 6) for j in range(2, 6)]
STABILIZE = [(s, lo, hi) for s in range(0, 4) for lo, hi in
             ((2, 6), (3, 6), (3, 8), (4, 9))]


def _single(argvs):
    return [(argv,) for argv in argvs]


def formula_slots():
    slots = []
    for _ in range(5):
        slots.append(Slot("earring", _single(
            [["cech", "earring", "-m", str(m), "-n", str(n)]
             for m, n in EARRING_GRID])))
    for _ in range(3):
        slots.append(Slot("earring=wedge", [
            (["cech", "earring", "-m", str(m), "-n", str(n)],
             ["cech", "wedge", "--grading", str(m - 1), "-n", str(n)])
            for m, n in EARRING_GRID], check="same_stdout"))
    for n in (8, 9, 10):
        slots.append(Slot("wedge-mixed-n%d" % n, _single(
            [["cech", "wedge", "--grading", g, "-n", str(n)]
             for g in GRADINGS_MIXED])))
    # Four n = 7 stages put the 90th latency percentile inside one
    # block of equal-cost ops instead of on the gap below it.
    for n, fmt in ((6, "text"), (7, "text"), (7, "text"), (6, "json"),
                   (7, "json"), (7, "json")):
        slots.append(Slot("hm-n%d-k6-%s" % (n, fmt), _single(
            [["hm", "-n", str(n), "-k", "6"] + g + ["--format", fmt]
             for g in HM_GRADINGS])))
    for k, j in ((10, 3), (20, 3), (40, 3), (3, 7), (3, 8), (3, 9)):
        slots.append(Slot("hall-k%d-J%d" % (k, j), _single(
            [["hall", "-k", str(k), "-J", str(j), "--grading", g]
             for g in GRADINGS_HEIGHT])))
    for _ in range(4):
        slots.append(Slot("count=hall", [
            (["count", "-k", str(k), "-j", str(j)],
             ["hall", "-k", str(k), "-J", str(j)]) for k, j in COUNT_GRID],
            check="count_rows"))
    for _ in range(2):
        slots.append(Slot("stabilize", _single(
            [["verify", "stabilize", "-s", str(s), "--m-range", "%d..%d" % (lo, hi)]
             for s, lo, hi in STABILIZE])))
    # Beyond the stratum cap: the contract is exit 2 with a message.
    for argv in (["cech", "wedge", "--grading", "1,1,1,1;2", "-n", "13"],
                 ["hall", "-k", "40", "-J", "6"],
                 ["hm", "-n", "60", "-k", "3", "-m", "2"]):
        slots.append(Slot("over-cap", [(argv,)], expect="clean_exit_2"))
    return slots


def _file_slot(name, argv_of, make_text):
    """A slot whose variants each read one generated file."""
    slot = Slot(name, [])
    for v in range(FILE_VARIANTS):
        fname = "%s-v%d.txt" % (name, v)
        slot.files[fname] = make_text(random.Random("%s/%d" % (name, v)))
        slot.variants.append((argv_of("@" + fname),))
    return slot


def verify_slots():
    slots = []
    for m, levels, count in ((2, 4, 20), (2, 6, 50), (2, 8, 100), (2, 10, 60),
                             (3, 8, 150), (4, 8, 150)):
        slots.append(Slot("edge-random-m%d-L%d-c%d" % (m, levels, count), [
            (["verify", "edge", "--random", "--seed", str(s), "--m", str(m),
              "--levels", str(levels), "--count", str(count)],)
            for s in range(CLI_SEEDS)]))
    for levels in (8, 12, 16):
        slots.append(_file_slot(
            "edge-file-L%d" % levels,
            lambda f, levels=levels: ["verify", "edge", "--file", f, "--m", "2",
                                      "--levels", str(levels)],
            lambda rng, levels=levels: eps_file(rng, 2, levels)))
    for n, m, levels in ((4, 2, 5), (6, 2, 8), (7, 3, 8)):
        slots.append(Slot("theta-random-n%d-m%d-L%d" % (n, m, levels), [
            (["verify", "theta", "--random", "--seed", str(s), "--n", str(n),
              "--m", str(m), "--levels", str(levels), "--count", "20"],)
            for s in range(CLI_SEEDS)]))
    coherence = (
        ("weight2-m3", 20, lambda rng: weight2_element_file(rng, 3, 16)),
        ("weight2-m3", 40, lambda rng: weight2_element_file(rng, 3, 32)),
        ("gtuple-m3", 10, lambda rng: gtuple_element_file(rng, 3, 7, 6)),
        ("gtuple-m3", 20, lambda rng: gtuple_element_file(rng, 3, 7, 6)),
        ("finite-m2", 6, lambda rng: finite_element_file(rng, 2, 6, 5)),
        ("finite-m2", 8, lambda rng: finite_element_file(rng, 2, 6, 5)),
        ("finite-m2", 10, lambda rng: finite_element_file(rng, 2, 6, 5)),
        ("gtuple-m2", 8, lambda rng: gtuple_element_file(rng, 2, 6, 5)),
    )
    for kind, levels, make in coherence:
        slots.append(_file_slot(
            "coherence-%s-L%d" % (kind, levels),
            lambda f, levels=levels: ["verify", "coherence", "--file", f,
                                      "--levels", str(levels)],
            make))
    return slots


CLI_WORKLOADS = {"formula": formula_slots, "verify": verify_slots}


def cli_pass(slots, rng):
    """One pass: a seeded variant of every slot, in seeded order."""
    picks = [(slot, rng.randrange(len(slot.variants))) for slot in slots]
    rng.shuffle(picks)
    return picks


# ---------------------------------------------------------------------------
# Session stream

TOWERS = ((4, 2, 6), (5, 2, 6), (6, 2, 5), (5, 3, 8), (7, 3, 8), (9, 4, 8),
          (7, 4, 10))


def _random_bracket(rng, letters, weight):
    if weight == 1:
        return rng.choice(letters)
    left = rng.randint(1, weight - 1)
    return "[%s,%s]" % (_random_bracket(rng, letters, left),
                        _random_bracket(rng, letters, weight - left))


def random_expression(rng, terms: int) -> tuple[str, dict[int, int]]:
    """A sum of brackets on three letters, of weights 3, 2, 3, 2, ..."""
    idx = rng.sample(range(1, 7), 3)
    letters = ["a%d" % i for i in idx]
    parts = []
    for t in range(terms):
        c = _nonzero(rng)
        body = _random_bracket(rng, letters, 3 - t % 2)
        parts.append(body if c == 1 else "%d*%s" % (c, body))
    degrees = {i: rng.randint(2, 4) for i in idx}
    return " + ".join(parts), degrees


def session_stream(rng):
    """The query stream of one session, as JSON-ready dicts.

    The mix is fixed and only the queries' contents are seeded: one
    walk up every tower (K consecutive decompose_wedge queries, each
    carrying the summand count Witt's formula predicts), one cross-route
    check per (n, m) of a fixed grid, 64 coherence checks (16 of each
    element kind) and 200 rewritings with 1 to 4 terms (50 of each).
    """
    items = []
    for n, m, top in TOWERS:
        weights = range(1, (n - 1) // (m - 1) + 1)
        items.append([{"op": "tower", "n": n, "m": m, "k": k,
                       "count": sum(necklace(k, j) for j in weights)}
                      for k in range(1, top + 1)])
    for n in range(2, 15):
        for m in range(2, 7):
            items.append([{"op": "cross", "n": n, "m": m}])
    makers = ((lambda r: weight2_element_file(r, 2, 6), 6),
              (lambda r: gtuple_element_file(r, 3, 7, 4), 6),
              (lambda r: finite_element_file(r, 2, 6, 3), 5),
              (lambda r: gtuple_element_file(r, 2, 6, 3), 5))
    for make, levels in makers:
        for _ in range(16):
            items.append([{"op": "coherence", "text": make(rng), "levels": levels}])
    for terms in range(1, 5):
        for _ in range(50):
            expr, degrees = random_expression(rng, terms)
            items.append([{"op": "normalize", "expr": expr,
                           "degrees": {str(i): d for i, d in degrees.items()}}])
    rng.shuffle(items)
    return [op for item in items for op in item]
