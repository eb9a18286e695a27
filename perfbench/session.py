"""Session workload client: one long-lived process using the library.

    python perfbench/session.py STREAM.json RESULT.json --seconds S
    python perfbench/session.py STREAM.json RESULT.json --passes N [--trace T.json]

With --seconds, one untimed pass warms the caches, then whole passes
run until S seconds have gone by, each on the next CPU in turn.  With
--passes, exactly N passes run from a cold start, traced into T.json
when --trace is given.  Every query is cross-checked by a route that
shares no code with it; a mismatch or an exception counts as a failed
op and the run goes on.
RESULT.json gets the latencies of the measured ops, the failures of
all ops (warm-up included) and the process's own peak RSS.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import sys
import time


def make_runner(cw, wh, table):
    """Return run(op) -> None, raising AssertionError on a wrong answer."""

    def tower(op):
        grading = cw.GradingSequence.constant(op["m"] - 1)
        dec = cw.decompose_wedge(op["n"], op["k"], grading, table)
        assert len(dec.summands) == op["count"], "summand count"

    def cross(op):
        n, m = op["n"], op["m"]
        closed = cw.earring_formula(n, m, table)
        census = cw.cech_decompose(n, cw.GradingSequence.constant(m - 1), table)
        assert closed == census, "earring_formula != cech_decompose"

    def coherence(op):
        e = cw.parse_element_file(op["text"], table)
        rep = cw.check_coherence(e, op["levels"])
        assert rep.ok and rep.checked_levels == op["levels"], "coherence"

    def normalize(op):
        degrees = {int(i): d for i, d in op["degrees"].items()}
        s = cw.expand(cw.parse_bracket_expr(op["expr"], degrees))
        hall, residual = cw.hall_normalize(s)
        assert all(mono.has_square() for mono, _ in residual.items()), "residual"
        rebuilt = cw.FormalSum({wh.monomial_of_word(w, degrees): c
                                for w, c in hall.items()}) + residual
        assert cw.tensor_expansion(s) == cw.tensor_expansion(rebuilt), "tensor"

    handlers = {"tower": tower, "cross": cross, "coherence": coherence,
                "normalize": normalize}
    return lambda op: handlers[op["op"]](op)


def run_pass(run, stream, tracer=None, base=0):
    latencies, errors = array.array("d"), []
    clock = time.perf_counter
    for i, op in enumerate(stream):
        if tracer is not None:
            tracer.op = base + i + 1
        start = clock()
        try:
            run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            errors.append("%s: %s: %s" % (op["op"], type(exc).__name__, exc))
        latencies.append(clock() - start)
    return latencies, errors


def peak_rss_kb() -> int:
    """This process's own peak RSS in KiB.

    Not ru_maxrss: Linux carries the parent's peak RSS into a child
    across exec, so ru_maxrss would report the larger benchmark driver
    instead of this client.  VmHWM counts this process alone.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("stream")
    ap.add_argument("result")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--passes", type=int)
    ap.add_argument("--trace")
    args = ap.parse_args(argv)
    with open(args.stream, encoding="utf-8") as fh:
        stream = json.load(fh)

    tracer = import_s = None
    if args.trace:
        import tracer as tracing
        import_s = tracing.timed_import()
        tracer = tracing.Tracer()
        tracer.install()
    import cechwedge as cw
    import cechwedge.whitehead as wh
    run = make_runner(cw, wh, cw.load_table("seed"))

    # Latencies stay in a flat array so that storing them barely moves
    # the max RSS this process reports.
    latencies, errors, attempted = array.array("d"), [], 0
    if args.passes:
        start = time.perf_counter()
        for p in range(args.passes):
            lat, err = run_pass(run, stream, tracer, base=p * len(stream))
            latencies += lat
            errors += err
        elapsed = time.perf_counter() - start
    else:
        _, errors = run_pass(run, stream)
        attempted = len(stream)
        # On a shared host each CPU's speed drifts on its own for tens
        # of seconds, and the scheduler leaves a lone busy process on
        # one CPU.  Moving to the next CPU every pass averages over them.
        cpus = sorted(os.sched_getaffinity(0))
        start = time.perf_counter()
        while True:
            passes = len(latencies) // len(stream)
            os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
            lat, err = run_pass(run, stream)
            latencies += lat
            errors += err
            elapsed = time.perf_counter() - start
            if elapsed >= args.seconds:
                break
    maxrss_kb = peak_rss_kb()
    if tracer is not None:
        tracer.dump(args.trace, import_s)
    result = {"latencies": latencies.tolist(), "elapsed": elapsed,
              "attempted": attempted + len(latencies), "failed": len(errors),
              "errors": errors[:20], "maxrss_kb": maxrss_kb}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
