#!/usr/bin/env python3
"""Time the library calls of a long-lived session, layer by layer.

    python3 tools/ladder.py [--repeat N]
    python3 tools/ladder.py --against PATH [--passes P] [--repeat N]

The first form prints one JSON line per (layer, size) point.  A layer
is one library call: generate with the heights and labels of its
listing on the grading 1,2,3;4, as the hall command makes its rows, on
2 letters up to weights 12 to 21 and on 4 letters up to weights 6 to
10, its size the number of words; parse_bracket_expr, hall_normalize and
tensor_expansion on sums of 1 to 16 brackets, parse_element_file on
weight-2 element files on 2 to 8 letters, check_coherence on an
element with an infinite band up to 32 levels, CoherentElement.walk,
project_levels, verify_weight2_realization and
verify_composition_additivity on elements with bands, entries and
coordinates from 4 to 32 levels, earring_formula and cech_decompose
up to degree 64, height_class_census on the grading 1,1,1,1;2 at
degrees 8 to 12, invariant_factors on 10 to 10,000 seeded cyclic
orders from 2 to 30, and the summand count of decompose_wedge in
degree 7 on 3-spheres for 2 to 10 wedge spheres, as the tower query
of a session asks it.  A walk is run to its end, and generate and
height_class_census skip their caches, so each call lists or counts
anew.  Before each point every lru_cache of the library is cleared;
then the call runs N times.  cold_s is the first, cache-cold call and
best_s the fastest of the N.

The second form compares this tree with a second checkout at PATH.
Two long-lived worker processes, one importing each tree's src/, take
turns point by point, alternating which goes first, so a burst of host
load lands on both sides of a point rather than on one side's whole
pass.  A pass is every point once on each side.  It prints one JSON
line per layer, and one for all layers, with the quartiles of the
pass-time ratio this tree / PATH.  A ratio below 1 means this tree is
faster.

Stdlib only, and not part of Tier-1: tests/test_ladder.py runs the
smallest point of every layer.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("generate", "parse_bracket_expr", "hall_normalize",
          "tensor_expansion", "parse_element_file", "check_coherence",
          "walk", "project_levels", "verify_weight2_realization",
          "verify_composition_additivity", "earring_formula",
          "cech_decompose", "height_class_census", "invariant_factors",
          "decompose_wedge")
MODULES = ("groups", "hall", "hilton", "spheres", "whitehead", "elements")


def library():
    """The cechwedge modules, as imported from sys.path, by short name."""
    return {name: importlib.import_module("cechwedge." + name)
            for name in MODULES}


def clear_caches(lib) -> None:
    for module in lib.values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _bracket_text(rng, letters, weight):
    if weight == 1:
        return rng.choice(letters)
    left = rng.randint(1, weight - 1)
    return "[%s,%s]" % (_bracket_text(rng, letters, left),
                        _bracket_text(rng, letters, weight - left))


def _expression(terms: int):
    """A seeded sum of terms brackets of weights 3, 2, 3, ... on three
    letters, and the letters' degrees.  Every fourth term brackets a
    sum of two letters with a letter, so that both kinds of bracket,
    of single terms and of sums, are read."""
    rng = random.Random(terms)
    idx = rng.sample(range(1, 7), 3)
    letters = ["a%d" % i for i in idx]
    parts = ["%d*%s" % (rng.choice((-2, -1, 2, 3)),
                        "[%s - %s,%s]" % tuple(rng.sample(letters, 3))
                        if t % 4 == 3 else
                        _bracket_text(rng, letters, 3 - t % 2))
             for t in range(terms)]
    return " + ".join(parts), {i: rng.randint(2, 4) for i in idx}


def _element_file(letters: int) -> str:
    """A weight-2 element on the given letters: every eps entry and a
    support line on each [a_i, a_(i+1)]."""
    rng = random.Random(letters)
    lines = ["element n=3 m=2"]
    for j in range(2, letters + 1):
        lines += ["eps %d %d = %d" % (i, j, rng.choice((-2, -1, 1, 3)))
                  for i in range(1, j)]
        lines.append("support [a%d,a%d] = %d" % (j - 1, j, rng.randint(1, 3)))
    return "\n".join(lines) + "\n"


def run_out(walk):
    """walk as one call that runs it to its end: the list of its levels."""
    @functools.wraps(walk)
    def levels(*args):
        return list(walk(*args))
    return levels


def summand_count(decompose_wedge):
    """decompose_wedge as one call that counts the summands it lists."""
    @functools.wraps(decompose_wedge)
    def count(*args):
        return len(decompose_wedge(*args).summands)
    return count


def uncached_census(hall):
    """height_class_census past its cache, in a tree that keeps one."""
    return getattr(hall, "_count_classes", hall.height_class_census)


def hall_rows(hall):
    """generate, heights and labels as one call: the listing, its
    heights and its labels.  generate's cache is skipped."""
    make = hall.generate.__wrapped__

    def rows(k, max_weight, grading):
        listing = make(k, max_weight)
        return listing, hall.heights(listing, grading), hall.labels(listing)
    return rows


def steps(lib) -> dict[str, list[tuple[int, object, tuple]]]:
    """Per layer, its points (size, function, arguments) in growing size."""
    wh, el, hl = lib["whitehead"], lib["elements"], lib["hilton"]
    table = lib["spheres"].load_table("seed")
    exprs = {t: _expression(t) for t in (1, 2, 4, 8, 16)}
    sums = {t: wh.parse_bracket_expr(*exprs[t]) for t in exprs}
    band = el.weight_two_element(2, wh.SparseEpsilon((), ((3, 1),)))
    mixed = (el.weight_two_element(2, wh.SparseEpsilon(((1, 5, 2),),
                                                       ((2, -1),)))
             + el.finite_support_element(3, 2, [("[a1,a3]", 1), ("a2", 1)],
                                         table))
    levels = (4, 8, 16, 32)
    hall = lib["hall"]
    grading = hall.GradingSequence.constant(1)
    mixed_grading = hall.GradingSequence.parse("1,1,1,1;2")
    orders = {k: random.Random(k).choices(range(2, 31), k=k)
              for k in (10, 100, 1000, 10000)}
    listings = ([(2, j) for j in range(12, 22)]
                + [(4, j) for j in range(6, 11)])
    rows, row_grading = hall_rows(hall), hall.GradingSequence.parse("1,2,3;4")
    return {
        # sized by the number of words listed
        "generate": sorted(
            ((sum(hall.necklace_count(k, i) for i in range(1, j + 1)), rows,
              (k, j, row_grading)) for k, j in listings),
            key=lambda point: point[0]),
        "parse_bracket_expr": [(t, wh.parse_bracket_expr, exprs[t])
                               for t in exprs],
        "hall_normalize": [(t, wh.hall_normalize, (sums[t],)) for t in sums],
        "tensor_expansion": [(t, wh.tensor_expansion, (sums[t],))
                             for t in sums],
        "parse_element_file": [(k, el.parse_element_file,
                                (_element_file(k), table))
                               for k in (2, 3, 4, 6, 8)],
        "check_coherence": [(k, el.check_coherence, (band, k))
                            for k in (2, 4, 8, 16, 32)],
        "walk": [(k, run_out(el.CoherentElement.walk), (mixed, k))
                 for k in levels],
        "project_levels": [(k, run_out(el.project_levels), (mixed, k))
                           for k in levels],
        "verify_weight2_realization": [
            (k, el.verify_weight2_realization, (mixed, k)) for k in levels],
        "verify_composition_additivity": [
            (k, el.verify_composition_additivity, (mixed, band, k))
            for k in levels],
        "earring_formula": [(n, hl.earring_formula, (n, 2, table))
                            for n in (4, 8, 16, 32, 64)],
        "cech_decompose": [(n, hl.cech_decompose, (n, grading, table))
                           for n in (4, 8, 16, 32, 64)],
        "height_class_census": [(n, uncached_census(hall),
                                 (n, mixed_grading))
                                for n in (8, 9, 10, 11, 12)],
        "invariant_factors": [(k, lib["groups"].invariant_factors,
                               (orders[k],)) for k in orders],
        "decompose_wedge": [(k, summand_count(hl.decompose_wedge),
                             (7, k, hall.GradingSequence.constant(2), table))
                            for k in range(2, 11)],
    }


def measure(lib, fn, args, repeat: int):
    """Clear the caches, then call fn(*args) repeat times: (the first
    call's seconds, the fastest call's seconds, the last result)."""
    clear_caches(lib)
    clock = time.perf_counter
    times = []
    for _ in range(repeat):
        start = clock()
        result = fn(*args)
        times.append(clock() - start)
    return times[0], min(times), result


def _worker(args) -> int:
    """Print the layer of every point, in order, as one JSON line; then
    answer each line holding a point's index with one line holding the
    fastest of that point's calls, in seconds."""
    lib = library()
    points = [(layer, fn, fargs) for layer, pts in steps(lib).items()
              for _, fn, fargs in pts]
    print(json.dumps([layer for layer, _, _ in points]), flush=True)
    for line in sys.stdin:
        _, fn, fargs = points[int(line)]
        print(measure(lib, fn, fargs, args.repeat)[1], flush=True)
    return 0


def _spawn(src: Path, args):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--repeat", str(args.repeat)]
    return subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)


def _answer(proc) -> str:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError("a worker stopped before answering")
    return line


def _ask(proc, i: int) -> float:
    proc.stdin.write("%d\n" % i)
    proc.stdin.flush()
    return float(_answer(proc))


def _quartiles(values) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return [round(q, 4) for q in statistics.quantiles(values, n=4)]


def _paired(args) -> int:
    other = Path(args.against).resolve()
    if not (other / "src" / "cechwedge").is_dir():
        print("error: %s holds no src/cechwedge" % other, file=sys.stderr)
        return 2
    here, there = _spawn(ROOT / "src", args), _spawn(other / "src", args)
    try:
        layers = json.loads(_answer(here))
        if json.loads(_answer(there)) != layers:
            raise RuntimeError("the two workers list different points")
        for i in range(len(layers)):  # warm both, untimed
            _ask(here, i), _ask(there, i)
        ratios: dict[str, list[float]] = {layer: [] for layer in LAYERS}
        ratios["all"] = []
        for p in range(args.passes):
            a, b = dict.fromkeys(LAYERS, 0.0), dict.fromkeys(LAYERS, 0.0)
            for i, layer in enumerate(layers):
                if (p + i) % 2:
                    b[layer] += _ask(there, i)
                    a[layer] += _ask(here, i)
                else:
                    a[layer] += _ask(here, i)
                    b[layer] += _ask(there, i)
            for layer in LAYERS:
                ratios[layer].append(a[layer] / b[layer])
            ratios["all"].append(sum(a.values()) / sum(b.values()))
    finally:
        for proc in (here, there):
            proc.stdin.close()
            proc.wait()
    for layer, rs in ratios.items():
        print(json.dumps({"layer": layer, "passes": len(rs),
                          "ratio_quartiles": _quartiles(rs)}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5,
                    help="calls per point; the fastest is kept (default 5)")
    ap.add_argument("--against", metavar="PATH",
                    help="compare with the checkout at PATH")
    ap.add_argument("--passes", type=int, default=20,
                    help="timed passes per side with --against (default 20)")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.repeat < 1 or args.passes < 1:
        ap.error("--repeat and --passes need at least 1")
    if args.worker:
        return _worker(args)
    if args.against:
        return _paired(args)
    sys.path.insert(0, str(ROOT / "src"))
    lib = library()
    for layer, pts in steps(lib).items():
        for size, fn, fargs in pts:
            cold, best, _ = measure(lib, fn, fargs, args.repeat)
            print(json.dumps({"layer": layer, "size": size,
                              "repeat": args.repeat, "cold_s": round(cold, 7),
                              "best_s": round(best, 7)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
