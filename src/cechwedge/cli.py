"""Command-line front end.

Every computation the library offers, with deterministic output:

    cechwedge cech earring -m 2 -n 4
    cechwedge cech wedge --grading 1,2;3 -n 3
    cechwedge hall -k 2 -J 3
    cechwedge count -k 3 -j 3
    cechwedge hm -n 4 -k 2 -m 2
    cechwedge verify edge --random --seed 7 --m 2 --levels 6
    cechwedge verify theta --random --seed 7 --n 4 --m 2 --levels 5
    cechwedge verify coherence --file elem.txt --levels 5
    cechwedge verify stabilize -s 1 --m-range 3..6

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
The default formula output is a single bare line so scripts can consume
it; --format json switches to the machine encoding.  Only `cech
earring`, `hm` and `verify stabilize` take --annotate, which adds their
per-summand (or per-dimension) lines.  `verify stabilize` needs at least
two dimensions m >= s + 2 in the m-range.  Identical flags and seed give
byte-identical output.

`verify edge` and `verify theta` take exactly one of --file, checking
that the element is realized by its infinite sums, and --random,
checking that realization adds up on each random pair.  The element
verifiers need --levels >= 2.

The element commands import `elements`, `whitehead` and `random` where
they run, so the formula commands never load them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from .groups import ZERO, render_text, to_machine
from .hall import (GradingSequence, StratumSizeError, check_cap, generate,
                   heights, labels, necklace_count)
from .hilton import (cech_decompose, decompose_wedge, earring_formula,
                     stabilization_report, weight_range, weight_summand)
from .spheres import load_table


class CommandError(Exception):
    """Bad flags or unreadable input; maps to exit code 2."""


def _table(args):
    try:
        return load_table(getattr(args, "table", None))
    except OSError as exc:
        raise CommandError("cannot read table: %s" % exc) from None
    except Exception as exc:
        raise CommandError(str(exc)) from None


def _parse_grading(spec: str) -> GradingSequence:
    try:
        return GradingSequence.parse(spec)
    except Exception as exc:
        raise CommandError("bad grading %r: %s" % (spec, exc)) from None


def _grading_of(args) -> GradingSequence:
    spec = getattr(args, "grading", None)
    if spec:
        return _parse_grading(spec)
    m = getattr(args, "m", None)
    if m is None:
        raise CommandError("need -m or --grading")
    if m < 2:
        raise CommandError("sphere dimension must be >= 2")
    return GradingSequence.constant(m - 1)


def _emit_json(machine) -> int:
    print(json.dumps(machine, sort_keys=True))
    return 0


def _emit_lines(lines) -> int:
    # one write: print makes two system calls per line when unbuffered
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


# ---------------------------------------------------------------------------
# cech


def _formula_line(expr, trivial: bool) -> str:
    line = render_text(expr)
    if trivial:
        line += " (trivial by connectivity)"
    return line


def cmd_cech_earring(args) -> int:
    if args.n < 2 or args.m < 2:
        raise CommandError("need n >= 2 and m >= 2")
    table = _table(args)
    expr = earring_formula(args.n, args.m, table)
    if args.format == "json":
        return _emit_json(to_machine(expr))
    lines = [_formula_line(expr, args.n <= args.m - 1)]
    if args.annotate:
        for j in weight_range(args.n, args.m):
            q = (args.m - 1) * j + 1
            lines.append("weight %d: pi_%d(S^%d) per stage, %s"
                         % (j, args.n, q,
                            render_text(weight_summand(args.n, args.m, j, table))))
    return _emit_lines(lines)


def cmd_cech_wedge(args) -> int:
    if args.n < 2:
        raise CommandError("need n >= 2")
    grading = _grading_of(args)
    table = _table(args)
    expr = cech_decompose(args.n, grading, table)
    if args.format == "json":
        return _emit_json(to_machine(expr))
    return _emit_lines([_formula_line(expr, args.n <= grading.r(1))])


# ---------------------------------------------------------------------------
# hall / count / hm


def cmd_hall(args) -> int:
    if args.k < 1 or args.J < 1:
        raise CommandError("need k >= 1 and J >= 1")
    grading = (_parse_grading(args.grading) if args.grading
               else GradingSequence.constant(1))
    listing = generate(args.k, args.J)
    rows = list(zip(labels(listing), listing.weights(),
                    heights(listing, grading)))
    if args.format == "json":
        return _emit_json({"k": args.k, "max_weight": args.J,
                           "grading": grading.spec_string(),
                           "words": [{"word": w, "weight": j, "height": h}
                                     for w, j, h in rows]})
    return _emit_lines("%s\t%d\t%d" % row for row in rows)


def cmd_count(args) -> int:
    if args.k < 1 or args.j < 1:
        raise CommandError("need k >= 1 and j >= 1")
    limit = sys.get_int_max_str_digits()  # 0 means no limit
    too_long = CommandError("the count has more than %d digits, too many "
                            "to print" % limit)
    # For k >= 2 the count is at least k**j / (2j), so it has more than
    # j log10(k) - log10(2j) digits; refuse before computing it when
    # that bound alone passes the interpreter's int-to-str digit limit.
    if (limit and args.k >= 2 and args.j * math.log10(args.k)
            - math.log10(2 * args.j) > limit * (1 + 1e-9)):
        raise too_long
    c = necklace_count(args.k, args.j)
    try:
        text = str(c)  # json.dumps renders the int the same way
    except ValueError:  # the narrow band the bound above cannot decide
        raise too_long from None
    if args.format == "json":
        return _emit_json({"k": args.k, "weight": args.j, "count": c})
    return _emit_lines([text])


def _encoded_total(dec, encode) -> list:
    """encode(g) for each part of dec.total(), one call per distinct
    group."""
    return list(itertools.chain.from_iterable(
        itertools.repeat(encode(g), c) for g, c in dec.total_parts()))


def cmd_hm(args) -> int:
    if args.n < 2 or args.k < 1:
        raise CommandError("need n >= 2 and k >= 1")
    grading = _grading_of(args)
    table = _table(args)
    dec = decompose_wedge(args.n, args.k, grading, table)
    if args.format == "json":
        # What _emit_json prints for the record with its summands as
        # {"word": w, "sphere": h + 1, "group": to_machine(g)} and its
        # total as to_machine(dec.total()), written out in sorted key
        # order: each distinct group is encoded once, and a word label
        # (a<i> and brackets) needs no JSON escape.
        def encode(g):
            return json.dumps(to_machine(g), sort_keys=True)

        row = {h: '{"group": %s, "sphere": %d, "word": "' % (encode(g), h + 1)
               for h, g in dec.groups}
        parts = _encoded_total(dec, encode)
        # to_machine collapses a sum of one part to that part
        total = (parts[0] if len(parts) == 1 else
                 '{"children": [%s], "kind": "direct_sum"}' % ", ".join(parts)
                 if parts else encode(ZERO))
        return _emit_lines([
            '{"grading": %s, "k": %d, "n": %d, "summands": [%s], '
            '"total": %s, "trivial_by_connectivity": %s}'
            % (json.dumps(grading.spec_string()), args.k, args.n,
               ", ".join([row[h] + w + '"}' for w, h in
                          zip(labels(dec.listing), dec.heights)]),
               total, json.dumps(not dec.heights))])
    if not dec.heights:
        return _emit_lines(["0 (trivial by connectivity)"])
    text = {h: "\tpi_%d(S^%d)\t%s" % (args.n, h + 1, render_text(g))
            for h, g in dec.groups}
    lines = [w + text[h] for w, h in zip(labels(dec.listing), dec.heights)]
    if args.annotate:
        lines.append("total\t%s" % (" (+) ".join(
            _encoded_total(dec, render_text)) or render_text(ZERO)))
    return _emit_lines(lines)


# ---------------------------------------------------------------------------
# verify


def _emit_verdict(detail: dict, failures, args) -> int:
    ok = not failures
    if args.format == "json":
        detail["ok"] = ok
        detail["failures"] = list(failures)
        _emit_json(detail)
    else:
        print("PASS" if ok else "FAIL")
        for f in failures:
            print(f, file=sys.stderr)
    return 0 if ok else 1


def _need_levels(args):
    if args.levels < 2:
        raise CommandError("--levels must be >= 2: level 1 alone compares "
                           "nothing")
    check_cap(args.levels, "a tower of %d levels", args.levels)


def _element_from_file(path, table):
    from .elements import parse_element_file
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CommandError("cannot read %s: %s" % (path, exc)) from None
    try:
        return parse_element_file(text, table)
    except Exception as exc:
        raise CommandError("bad element file %s: %s" % (path, exc)) from None


def _check_header(e, args, *names):
    """Refuse a file whose header disagrees with the flags: the verdict
    reports the flags, so they must be what was checked."""
    for name in names:
        declared, flag = getattr(e, name), getattr(args, name)
        if declared != flag:
            raise CommandError("element file %s declares %s=%d but --%s is %d"
                               % (args.file, name, declared, name, flag))


def _element_verdict(args, names, failures) -> int:
    """Verdict of verify edge or theta; names are its header fields."""
    detail = {"check": args.variant, "levels": args.levels,
              "runs": args.count if args.random else 1}
    detail.update((name, getattr(args, name)) for name in names)
    return _emit_verdict(detail, failures, args)


def _verify_file(args, table, names, shape, shape_ok) -> int:
    """--file of verify edge or theta: the element, whose header must
    match the flags in names and whose content must pass shape_ok, against
    the projection of its own infinite sums."""
    from .elements import verify_weight2_realization
    e = _element_from_file(args.file, table)
    _check_header(e, args, *names)
    if not shape_ok(e):
        raise CommandError("element file must describe " + shape)
    rep = verify_weight2_realization(e, args.levels)
    return _element_verdict(args, names, rep.failures)


def _verify_random(args, names, draw) -> int:
    """--random of verify edge or theta: additivity of the realization
    on --count pairs of elements, each pair two calls of draw."""
    if args.count < 1:
        raise CommandError("--count must be >= 1")
    check_cap(args.count, "%d random runs", args.count)
    from .elements import verify_composition_additivity
    failures = []
    for t in range(args.count):
        e1, e2 = draw(), draw()
        rep = verify_composition_additivity(e1, e2, args.levels)
        if not rep.ok:
            failures.append("run %d: %s" % (t, "; ".join(rep.failures)))
    return _element_verdict(args, names, failures)


def cmd_verify_edge(args) -> int:
    if args.m < 2:
        raise CommandError("sphere dimension must be >= 2")
    _need_levels(args)
    if not args.random:
        # an eps value is an integer, so the file looks no group up
        return _verify_file(args, load_table("seed"), ("m",),
                            "a pure weight-2 family (eps lines only)",
                            lambda e: e.eps and not e.coords)
    import random
    from .elements import random_sparse_epsilon, weight_two_element
    rng = random.Random(args.seed)
    return _verify_random(args, ("m",), lambda: weight_two_element(
        args.m, random_sparse_epsilon(rng)))


def cmd_verify_theta(args) -> int:
    if args.n < 2 or args.m < 2:
        raise CommandError("need n >= 2 and m >= 2")
    _need_levels(args)
    table = _table(args)
    if not args.random:
        return _verify_file(args, table, ("n", "m"), "a least-letter family "
                            "(no eps lines, no weight-1 words)",
                            lambda e: not e.eps and not any(
                                w.is_letter for w, _ in e.coords))
    import random
    from .elements import random_min_letter_elements
    try:
        draws = random_min_letter_elements(random.Random(args.seed),
                                           args.n, args.m, table)
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    return _verify_random(args, ("n", "m"), draws.__next__)


def cmd_verify_coherence(args) -> int:
    _need_levels(args)
    from .elements import check_coherence
    e = _element_from_file(args.file, _table(args))
    rep = check_coherence(e, args.levels)
    failures = ["level %d, word %s" % (k, w) for k, w in rep.failures]
    return _emit_verdict({"check": "coherence", "n": e.n, "m": e.m,
                          "levels": args.levels}, failures, args)


def _parse_m_range(text: str):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise CommandError("m-range looks like 3..6")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise CommandError("m-range looks like 3..6") from None
    if lo > hi:
        raise CommandError("empty m-range %r" % text)
    return range(lo, hi + 1)


def cmd_verify_stabilize(args) -> int:
    table = _table(args)
    try:
        rep = stabilization_report(args.s, _parse_m_range(args.m_range), table)
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    for w in rep.warnings:
        print(w, file=sys.stderr)
    if args.format == "json":
        _emit_json({"ok": rep.stable, "offset": rep.offset,
                    "stable_value": (to_machine(rep.stable_value)
                                     if rep.stable_value is not None else None),
                    "entries": [{"m": m, "group": to_machine(g)}
                                for m, g in rep.entries]})
    else:
        if rep.stable:
            print("stable: %s" % render_text(rep.stable_value))
        else:
            print("not stable")
        if args.annotate or not rep.stable:
            for m, g in rep.entries:
                print("m=%d: %s" % (m, render_text(g)))
    return 0 if rep.stable else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(p, table=True):
    p.add_argument("--format", choices=("text", "json"), default="text")
    if table:
        p.add_argument("--table", default=None,
                       help="sphere table file, or 'seed' (default: "
                            "$CECHWEDGE_TABLE, else seed)")


def _add_annotate(p):
    p.add_argument("--annotate", action="store_true",
                   help="add per-summand detail lines")


def _add_source(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--random", action="store_true")
    source.add_argument("--file", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cechwedge",
        description="Limit homotopy of shrinking wedges of spheres: Hall "
                    "bases, wedge decompositions, closed formulas, and "
                    "element-level verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    cech = sub.add_parser("cech", help="limit group formulas")
    cech_sub = cech.add_subparsers(dest="variant", required=True)
    pe = cech_sub.add_parser("earring", help="shrinking wedge of m-spheres")
    pe.add_argument("-m", type=int, required=True, help="sphere dimension")
    pe.add_argument("-n", type=int, required=True, help="homotopy degree")
    _add_common(pe)
    _add_annotate(pe)
    pe.set_defaults(func=cmd_cech_earring)
    pw = cech_sub.add_parser("wedge", help="general shrinking wedge by grading")
    pw.add_argument("--grading", required=True, help="p1,...,pk;t")
    pw.add_argument("-n", type=int, required=True)
    _add_common(pw)
    pw.set_defaults(func=cmd_cech_wedge)

    ph = sub.add_parser("hall", help="list Hall words")
    ph.add_argument("-k", type=int, required=True, help="letters")
    ph.add_argument("-J", type=int, required=True, help="maximum weight")
    ph.add_argument("--grading", default=None,
                    help="grading for the height column (default constant 1)")
    _add_common(ph, table=False)
    ph.set_defaults(func=cmd_hall)

    pc = sub.add_parser("count", help="Hall words of one weight")
    pc.add_argument("-k", type=int, required=True)
    pc.add_argument("-j", type=int, required=True)
    _add_common(pc, table=False)
    pc.set_defaults(func=cmd_count)

    pm = sub.add_parser("hm", help="wedge decomposition at a finite stage")
    pm.add_argument("-n", type=int, required=True)
    pm.add_argument("-k", type=int, required=True)
    dims = pm.add_mutually_exclusive_group()
    dims.add_argument("-m", type=int, default=None)
    dims.add_argument("--grading", default=None)
    _add_common(pm)
    _add_annotate(pm)
    pm.set_defaults(func=cmd_hm)

    pv = sub.add_parser("verify", help="run a verification suite")
    vsub = pv.add_subparsers(dest="variant", required=True)

    ve = vsub.add_parser("edge", help="weight-2 realization identity")
    ve.add_argument("--m", type=int, required=True)
    ve.add_argument("--levels", type=int, default=6)
    _add_source(ve)
    _add_common(ve, table=False)
    ve.set_defaults(func=cmd_verify_edge)

    vt = vsub.add_parser("theta", help="composition realization identities")
    vt.add_argument("--n", type=int, required=True)
    vt.add_argument("--m", type=int, required=True)
    vt.add_argument("--levels", type=int, default=5)
    _add_source(vt)
    _add_common(vt)
    vt.set_defaults(func=cmd_verify_theta)

    vc = vsub.add_parser("coherence", help="tower compatibility of an element")
    vc.add_argument("--file", required=True)
    vc.add_argument("--levels", type=int, default=5)
    _add_common(vc)
    vc.set_defaults(func=cmd_verify_coherence)

    vs = vsub.add_parser("stabilize", help="closed forms across dimensions")
    vs.add_argument("-s", type=int, required=True, help="degree offset")
    vs.add_argument("--m-range", required=True, help="lo..hi")
    _add_common(vs)
    _add_annotate(vs)
    vs.set_defaults(func=cmd_verify_stabilize)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (CommandError, StratumSizeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
