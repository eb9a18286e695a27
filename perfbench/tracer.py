"""Spans around the public functions of each cechwedge module.

The tracer patches from outside the package: every module namespace
that holds one of the traced functions (modules import them with
`from .hall import generate`) gets a wrapper, and the traced class
methods are replaced on their classes.  Nothing under src/ changes.

A span is (op id, span id, parent span id, name index, start, end).
Spans stay in memory and are written as JSON by dump() at exit,
together with call counts, work counters and cache_info() of
hall.generate and hall.dimension_truncation.  A call to a function
whose own span is innermost (recursion) is counted but opens no span,
and count-only boundaries never open spans: their time stays with the
caller.

Run one traced CLI operation in a fresh process (src on PYTHONPATH):

    python perfbench/tracer.py OUT.json OP_ID -- hall -k 3 -J 4
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

SPAN, COUNT = "span", "count"

# (module, attribute path, metric name, mode)
TRACED = (
    ("cli", "main", "cli.main", SPAN),
    ("spheres", "load_table", "spheres.load_table", SPAN),
    ("spheres", "SphereGroupTable.lookup", "spheres.lookup", COUNT),
    ("groups", "render_text", "groups.render_text", SPAN),
    ("groups", "to_machine", "groups.to_machine", SPAN),
    ("groups", "normalize", "groups.normalize", SPAN),
    ("hall", "generate", "hall.generate", SPAN),
    ("hall", "dimension_truncation", "hall.dimension_truncation", SPAN),
    ("hall", "height_class_census", "hall.height_class_census", SPAN),
    ("hall", "necklace_count", "hall.necklace_count", COUNT),
    ("hilton", "cech_decompose", "hilton.cech_decompose", SPAN),
    ("hilton", "earring_formula", "hilton.earring_formula", SPAN),
    ("hilton", "decompose_wedge", "hilton.decompose_wedge", SPAN),
    ("hilton", "bonding", "hilton.bonding", SPAN),
    ("hilton", "apply_bonding", "hilton.apply_bonding", SPAN),
    ("whitehead", "project_level", "whitehead.project_level", SPAN),
    ("whitehead", "expand", "whitehead.expand", SPAN),
    ("whitehead", "hall_normalize", "whitehead.hall_normalize", SPAN),
    ("whitehead", "SparseEpsilon.value", "whitehead.SparseEpsilon.value", COUNT),
    ("whitehead", "tensor_expansion", "whitehead.tensor_expansion", SPAN),
    ("elements", "CoherentElement.level", "elements.level", SPAN),
    ("elements", "check_coherence", "elements.check_coherence", SPAN),
    ("elements", "verify_weight2_realization",
     "elements.verify_weight2_realization", SPAN),
    ("elements", "verify_composition_additivity",
     "elements.verify_composition_additivity", SPAN),
    ("elements", "parse_element_file", "elements.parse_element_file", SPAN),
)

CACHED = ("hall.generate", "hall.dimension_truncation")


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name, _ in TRACED]
        self.calls = [0] * len(self.names)
        self.spans = []
        self.stack = []
        self.op = 0
        self.counters = {"hall.words_generated": 0,
                         "whitehead.monomials_normalized": 0,
                         "elements.levels_compared": 0}
        self._next_id = 0

    def install(self):
        """Wrap every traced function in every cechwedge namespace."""
        mods = {m: importlib.import_module("cechwedge." + m)
                for m in {m for m, _, _, _ in TRACED}}
        self.modules = mods
        self.originals = {}
        replaced = {}
        for idx, (mod, path, name, mode) in enumerate(TRACED):
            owner = mods[mod]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self.originals[name] = original
            wrapper = self._wrap(idx, original, mode, self._counter(name))
            setattr(owner, attr, wrapper)
            if not cls_path:
                replaced[id(original)] = (original, wrapper)
        for modname, module in list(sys.modules.items()):
            if modname != "cechwedge" and not modname.startswith("cechwedge."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _counter(self, name):
        """Post-call hook adding to a work counter, or None."""
        counters = self.counters
        if name == "hall.generate":
            def words(args, result, missed):
                if missed:
                    counters["hall.words_generated"] += len(result)
            return words
        if name == "whitehead.hall_normalize":
            def monomials(args, result, missed):
                s = args[0]
                if not isinstance(s, self.modules["whitehead"].FormalSum):
                    s = self.originals["whitehead.expand"](s)
                counters["whitehead.monomials_normalized"] += len(s)
            return monomials
        if name in ("elements.check_coherence",
                    "elements.verify_weight2_realization",
                    "elements.verify_composition_additivity"):
            def levels(args, result, missed):
                counters["elements.levels_compared"] += result.checked_levels
            return levels
        return None

    def _wrap(self, idx, fn, mode, after):
        calls, spans, stack = self.calls, self.spans, self.stack
        clock = time.perf_counter
        cache_info = getattr(fn, "cache_info", None)

        if mode == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[idx] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[idx] += 1
            misses = cache_info().misses if cache_info else 0
            if stack and stack[-1][1] == idx:
                result = fn(*args, **kwargs)
            else:
                self._next_id += 1
                sid = self._next_id
                parent = stack[-1][0] if stack else 0
                stack.append((sid, idx))
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((self.op, sid, parent, idx, start, end))
            if after is not None:
                after(args, result,
                      cache_info is not None and cache_info().misses > misses)
            return result
        return traced

    def cache_infos(self) -> dict:
        out = {}
        for name in CACHED:
            info = self.originals[name].cache_info()
            out[name] = [info.hits, info.misses]
        return out

    def dump(self, path: str, import_s: float):
        doc = {"import_s": import_s, "names": self.names, "calls": self.calls,
               "counters": self.counters, "caches": self.cache_infos(),
               "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def timed_import() -> float:
    start = time.perf_counter()
    import cechwedge.cli  # noqa: F401
    return time.perf_counter() - start


def main(argv) -> int:
    out, op_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT OP_ID -- CLI ARGS...")
    import_s = timed_import()
    tracer = Tracer()
    tracer.install()
    tracer.op = int(op_id)
    cli = sys.modules["cechwedge.cli"]
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(out, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
