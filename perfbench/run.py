"""The cechwedge benchmark.

    python3 perfbench/run.py --workload formula|verify|session --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is used from src/ exactly
as the tests use it (`python -m cechwedge.cli` with src on PYTHONPATH),
one client in a closed loop.

  formula  one fresh CLI process per op: limit formulas, Hall listings,
           finite stages, counts, stabilization, and three ops beyond
           the stratum cap
  verify   one fresh CLI process per op: the edge, theta and coherence
           verifiers on seeded random elements and generated files
  session  long-lived library processes answering a seeded stream
           of small overlapping queries with warm caches; the run is
           split over SESSION_CHILDREN such processes one after another

With --trace 0 the run measures whole passes over the workload until
S seconds have gone by (and at least MIN_OPS ops for the latency
percentiles) and prints the end-to-end metrics.  With --trace 1 it
makes one untraced pass and one traced pass over the same ops (two
passes each for session, cold then warm) and prints per-layer metrics
from the spans the traced children record (tracer.py), the throughput
lost to tracing, and per-op latency by size step.

End-to-end metrics:

  setup_s           median time for a fresh interpreter to import
                    cechwedge.cli and load the seed table; sampled every
                    PROBE_EVERY ops in CLI workloads, before each
                    session process
  throughput_ops_s  ops completed per second of measured wall time
  latency_p50_s,    median and 90th percentile op latency: a CLI op runs
  latency_p90_s     from spawn to exit with its output drained, a
                    session op from call to return
  peak_rss_mb       highest max RSS of a process doing the work
  ok_ops_frac       share of attempted ops that did not fail; the
                    complement of the failed-op fraction, which is zero
                    on most workloads and so cannot carry a bound

Every op is checked: CLI ops against the exit code and stdout sha256
frozen in golden.json plus the pair cross-checks, session queries by
their own cross-checks.  An op that fails is counted and the run goes
on.  `failed` counts every op that broke the CLI contract; `correct`
is false when an op failed in a way the golden corpus does not record
as a known defect.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

GOLDEN = os.path.join(HERE, "golden.json")
SETUP_STARTS = 3       # set-up samples before each session process
SESSION_CHILDREN = 5   # consecutive session processes in a timed run
PROBE_EVERY = 7        # CLI ops between set-up samples
MIN_OPS = 100          # ten or more samples beyond the 90th percentile
SETUP_CODE = ("import cechwedge.cli\n"
              "from cechwedge.spheres import load_table\n"
              "load_table('seed')\n")
LAYERS = ("cli", "spheres", "groups", "hall", "whitehead", "hilton", "elements")


class Env:
    """Where the run reads the program and writes its scratch files."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        path = os.path.join(root, "src")
        old = os.environ.get("PYTHONPATH")
        self.vars = dict(os.environ, PYTHONPATH=path + (os.pathsep + old if old else ""))

    def spawn(self, argv):
        """Run one Python process to exit with stdout and stderr drained.

        Returns (seconds, exit code, stdout, stderr, max RSS in KiB).
        """
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=self.root, env=self.vars,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        chunks = {proc.stdout: [], proc.stderr: []}
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
        # wait4 rather than Popen.wait: it returns the child's own
        # rusage, whose ru_maxrss is the op's peak RSS.  Linux carries
        # this process's peak (about 20 MB) into the child across exec,
        # so ru_maxrss cannot read below it; the ops that set the
        # workload's peak use well over that.
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (elapsed, proc.returncode, b"".join(chunks[proc.stdout]),
                b"".join(chunks[proc.stderr]), usage.ru_maxrss)

    def cli(self, argv, trace_out=None, op_id=0):
        """Run one CLI op, under the tracer when trace_out is given."""
        resolved = [os.path.join(self.work, a[1:]) if a.startswith("@") else a
                    for a in argv]
        if trace_out is None:
            return self.spawn(["-m", "cechwedge.cli"] + resolved)
        return self.spawn([os.path.join(HERE, "tracer.py"), trace_out,
                           str(op_id), "--"] + resolved)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_files(env: Env, slots):
    for slot in slots:
        for name, text in slot.files.items():
            with open(os.path.join(env.work, name), "w", encoding="utf-8") as fh:
                fh.write(text)


# ---------------------------------------------------------------------------
# Checks


class Outcome:
    """Tally of checked ops."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def record(self, ok: bool, known: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known:
                self.unexpected.append(what)


def check_op(golden, slot, argv, rc, out, err):
    """(ok, known defect) for one CLI op against the golden corpus."""
    entry = golden.get(workloads.op_key(argv))
    if entry is None:
        return False, False
    for name, digest in entry.get("inputs", {}).items():
        if sha256(slot.files[name].encode()) != digest:
            return False, False
    traceback = b"Traceback" in err
    if slot.expect == "clean_exit_2":
        ok = rc == 2 and not traceback
        known = (rc, traceback) == (entry["exit"], entry["traceback"])
        return ok, known
    ok = (rc == entry["exit"] and not traceback
          and sha256(out) == entry["sha256"])
    return ok, False


def check_pair(slot, argvs, outs) -> bool:
    if slot.check == "same_stdout":
        return outs[0] == outs[1]
    if slot.check == "count_rows":
        j = argvs[1][argvs[1].index("-J") + 1]
        rows = [line for line in outs[1].decode().splitlines()
                if line.split("\t")[1] == j]
        return int(outs[0]) == len(rows)
    return True


# ---------------------------------------------------------------------------
# CLI workloads


def run_cli_pass(env, golden, picks, outcome, trace_dir=None, setup=None):
    """Run one pass; returns (op records, wall seconds).

    Given a `setup` list, every PROBE_EVERY-th op is followed by one
    set-up sample, appended to it and left out of the wall time, so the
    set-up median spans the whole run instead of one moment of it.
    """
    records = []
    probing = 0.0
    start = time.perf_counter()
    for slot, v in picks:
        argvs = slot.variants[v]
        outs = []
        for argv in argvs:
            op_id = len(records) + 1
            trace_out = (os.path.join(trace_dir, "op-%d.json" % op_id)
                         if trace_dir else None)
            sec, rc, out, err, rss = env.cli(argv, trace_out, op_id)
            ok, known = check_op(golden, slot, argv, rc, out, err)
            outs.append(out)
            if ok and len(outs) == len(argvs) and len(argvs) > 1:
                ok = check_pair(slot, argvs, outs)
            outcome.record(ok, known, " ".join(argv))
            records.append({"step": slot.name, "sec": sec, "rss": rss,
                            "bytes": len(out), "trace": trace_out})
            if setup is not None and len(records) % PROBE_EVERY == 0:
                setup.append(setup_sample(env))
                probing += setup[-1]
    return records, time.perf_counter() - start - probing


def cli_timed(env, golden, slots, rng, seconds, outcome):
    records, wall, setup = [], 0.0, []
    while wall < seconds or len(records) < MIN_OPS:
        recs, sec = run_cli_pass(env, golden, workloads.cli_pass(slots, rng),
                                 outcome, setup=setup)
        records += recs
        wall += sec
    return ([r["sec"] for r in records], wall,
            max(r["rss"] for r in records), statistics.median(setup))


def cli_traced(env, golden, slots, rng, outcome):
    picks = workloads.cli_pass(slots, rng)
    plain, plain_wall = run_cli_pass(env, golden, picks, outcome)
    trace_dir = os.path.join(env.work, "trace")
    os.mkdir(trace_dir)
    traced, traced_wall = run_cli_pass(env, golden, picks, outcome, trace_dir)
    docs = [load_json(r["trace"]) for r in traced if os.path.exists(r["trace"])]
    overhead = 1 - (len(traced) / traced_wall) / (len(plain) / plain_wall)
    report = by_step([(r["step"], r["sec"]) for r in plain])
    return docs, overhead, sum(r["bytes"] for r in traced), report


# ---------------------------------------------------------------------------
# Session workload


def session_child(env, stream_path, args):
    result = os.path.join(env.work, "session-%d.json" % time.monotonic_ns())
    proc = subprocess.run([sys.executable, os.path.join(HERE, "session.py"),
                           stream_path, result] + args, cwd=env.root,
                          env=env.vars, stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise RuntimeError("session client failed:\n" + proc.stderr.decode())
    return load_json(result)


def session_stream(env, seed):
    stream = workloads.session_stream(workloads.rng_for("session", seed))
    path = os.path.join(env.work, "stream.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stream, fh)
    return stream, path


def tally_session(res, outcome):
    outcome.attempted += res["attempted"]
    outcome.failed += res["failed"]
    outcome.unexpected += res["errors"]


# ---------------------------------------------------------------------------
# Trace aggregation


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def by_step(pairs):
    steps = {}
    for step, sec in pairs:
        steps.setdefault(step, []).append(sec)
    return ["latency %-28s ops=%-5d median=%.6f s max=%.6f s"
            % (step, len(v), statistics.median(v), max(v))
            for step, v in sorted(steps.items())]


def layer_metrics(docs, overhead, stdout_bytes):
    """Per-layer metrics from the traced children's dumps."""
    names = [name for _, _, name, _ in tracer.TRACED]
    self_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    counters = {}
    caches = {}
    for doc in docs:
        child_time = {}
        for op, sid, parent, idx, start, end in doc["spans"]:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for op, sid, parent, idx, start, end in doc["spans"]:
            self_s[doc["names"][idx]] += (end - start) - child_time.get(sid, 0.0)
        for name, n in zip(doc["names"], doc["calls"]):
            calls[name] += n
        for name, n in doc["counters"].items():
            counters[name] = counters.get(name, 0) + n
        for name, (hits, misses) in doc["caches"].items():
            h, m = caches.get(name, (0, 0))
            caches[name] = (h + hits, m + misses)

    def ratio(name):
        hits, misses = caches.get(name, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    m = {"cli.import_s": (statistics.median(d["import_s"] for d in docs), "s"),
         "cli.stdout_bytes": (stdout_bytes, "bytes"),
         "hall.generate.cache_hit_ratio": (ratio("hall.generate"), "ratio"),
         "hall.dimension_truncation.cache_hit_ratio":
             (ratio("hall.dimension_truncation"), "ratio"),
         "trace.overhead_frac": (overhead, "ratio")}
    for _, _, name, mode in tracer.TRACED:
        if mode == tracer.SPAN:
            m[name + ".self_s"] = (self_s[name], "s")
        m[name + ".calls"] = (calls[name], "count")
    for name in ("hall.words_generated", "whitehead.monomials_normalized",
                 "elements.levels_compared"):
        m[name] = (counters.get(name, 0), "count")
    total = sum(self_s.values())
    for layer in LAYERS:
        part = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        m["share." + layer] = (part / total if total else 0.0, "ratio")
    return m


# ---------------------------------------------------------------------------


def setup_sample(env):
    sec, rc, _, err, _ = env.spawn(["-c", SETUP_CODE])
    if rc != 0:
        raise RuntimeError("cannot import cechwedge.cli:\n" + err.decode())
    return sec


def end_to_end(latencies, wall, rss_kb, outcome, setup_s):
    return {"setup_s": (setup_s, "s"),
            "throughput_ops_s": (len(latencies) / wall, "ops/s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_p90_s": (statistics.quantiles(latencies, n=10,
                                                   method="inclusive")[8], "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
            "ok_ops_frac": ((outcome.attempted - outcome.failed) / outcome.attempted,
                            "ratio")}


def run_session(args, env, outcome):
    stream, path = session_stream(env, args.seed)
    if not args.trace:
        # Several processes in turn rather than one: each process's
        # speed drifts on its own, and one process would measure that
        # drift alone.  Each still warms its caches before it is timed.
        setup, latencies, wall, rss = [], [], 0.0, 0
        for _ in range(SESSION_CHILDREN):
            setup += [setup_sample(env) for _ in range(SETUP_STARTS)]
            res = session_child(env, path,
                                ["--seconds", str(args.seconds / SESSION_CHILDREN)])
            tally_session(res, outcome)
            latencies += res["latencies"]
            wall += res["elapsed"]
            rss = max(rss, res["maxrss_kb"])
        metrics = end_to_end(latencies, wall, rss, outcome,
                             statistics.median(setup))
        return metrics, ["latency samples: %d" % len(latencies)]
    plain = session_child(env, path, ["--passes", "2"])
    trace_path = os.path.join(env.work, "trace.json")
    traced = session_child(env, path, ["--passes", "2", "--trace", trace_path])
    tally_session(plain, outcome)
    tally_session(traced, outcome)
    overhead = 1 - plain["elapsed"] / traced["elapsed"]
    report = by_step([(op["op"], sec)
                      for op, sec in zip(stream * 2, plain["latencies"])])
    return layer_metrics([load_json(trace_path)], overhead, 0), report


def run_cli(args, env, outcome):
    slots = workloads.CLI_WORKLOADS[args.workload]()
    write_files(env, slots)
    golden = load_json(GOLDEN)
    rng = workloads.rng_for(args.workload, args.seed)
    if not args.trace:
        latencies, wall, rss, setup_s = cli_timed(env, golden, slots, rng,
                                                  args.seconds, outcome)
        metrics = end_to_end(latencies, wall, rss, outcome, setup_s)
        return metrics, ["latency samples: %d" % len(latencies)]
    docs, overhead, nbytes, report = cli_traced(env, golden, slots, rng, outcome)
    return layer_metrics(docs, overhead, nbytes), report


def run(args, env):
    outcome = Outcome()
    # The first start in a checkout compiles the package; keep it out
    # of the set-up samples.
    setup_sample(env)
    workload = run_session if args.workload == "session" else run_cli
    metrics, report = workload(args, env, outcome)
    for line in report:
        print(line)
    for what in outcome.unexpected[:20]:
        print("unexpected failure: %s" % what, file=sys.stderr)
    return {"correct": not outcome.unexpected, "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("formula", "verify", "session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cechwedge", "cli.py")):
        print("error: run from a checkout root holding src/cechwedge",
              file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        result = run(args, Env(root, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
