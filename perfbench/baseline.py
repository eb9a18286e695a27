"""Repeat the benchmark over seeds; record or check the baseline.

    python3 perfbench/baseline.py             # print medians and spreads
    python3 perfbench/baseline.py --write     # store perfbench/baseline.json
    python3 perfbench/baseline.py --check     # compare with it, exit 1 on regression

Runs `perfbench/run.py --trace 0` with seeds 1..10 on every workload of
BENCHMARK.json from the root of a checkout, then prints for every
end-to-end metric the median and the spread: the distance between the
first and third quartile as a share of the median.  A spread above a
third of the metric's bound in BENCHMARK.json is flagged as unsteady.
--check fails when any run is not correct, when a workload's failed-op
fraction exceeds the recorded one, or when a median is worse than the
recorded baseline by more than its bound.  The check is opt-in; no
test suite runs it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "baseline.json")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEEDS = list(range(1, 11))


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results, spec):
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {"median": statistics.median(values), "q1": q1,
                               "q3": q3, "spread": (q3 - q1) / statistics.median(values),
                               "unit": metric["unit"], "values": values}
    return out


def known_defects():
    ops = [" ".join(argv) for slot in workloads.formula_slots()
           if slot.expect == "clean_exit_2" for (argv,) in slot.variants]
    return ("ops beyond the stratum cap end in a StratumSizeError traceback "
            "with exit 1; the CLI contract asks for exit 2 with a message: "
            + "; ".join(ops))


def worse_by(metric, new, old):
    """How much worse new is than old, as a share of old."""
    change = (new - old) / old
    return -change if metric["better"] == "higher" else change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    args = ap.parse_args(argv)
    spec = load_json("BENCHMARK.json")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    baseline = load_json(BASELINE) if args.check else None
    record = {"environment": {
                  "nproc": os.cpu_count(),
                  "python": platform.python_version(),
                  "machine": platform.machine(),
                  "invocation": "PYTHONPATH=src python -m cechwedge.cli ...",
                  "clients": "one, closed loop"},
              "run_seconds": spec["run_seconds"],
              "seeds": SEEDS,
              "workloads": {}}
    regressions = []
    for w in spec["workloads"]:
        results = [run_once(spec, w["name"], seed) for seed in SEEDS]
        summary = summarize(results, spec)
        failed = statistics.median(r["failed"] / r["attempted"] for r in results)
        entry = {"why": w["why"], "failed_ops_frac": failed,
                 "correct": all(r["correct"] for r in results),
                 "metrics": summary}
        if failed:
            entry["failed_reason"] = known_defects()
        record["workloads"][w["name"]] = entry
        print("%s  failed_ops_frac=%.4f correct=%s"
              % (w["name"], failed, entry["correct"]))
        if baseline is not None:
            old = baseline["workloads"][w["name"]]
            if not entry["correct"]:
                regressions.append("%s correct" % w["name"])
            if max(r["failed"] / r["attempted"] for r in results) > old["failed_ops_frac"]:
                regressions.append("%s failed_ops_frac" % w["name"])
        for name, s in summary.items():
            bound = bounds[name]["bound"]
            flag = " UNSTEADY" if s["spread"] > bound / 3 else ""
            line = ("  %-18s median=%-14.6g spread=%.4f bound=%.2f%s  [%s]"
                    % (name, s["median"], s["spread"], bound, flag,
                       " ".join("%.4g" % v for v in s["values"])))
            if baseline is not None:
                old = baseline["workloads"][w["name"]]["metrics"][name]["median"]
                worse = worse_by(bounds[name], s["median"], old)
                line += "  baseline=%-12.6g worse_by=%+.4f" % (old, worse)
                if worse > bound:
                    regressions.append("%s %s" % (w["name"], name))
                    line += " REGRESSION"
            print(line, flush=True)
    if args.write:
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if regressions:
        print("regressions: " + ", ".join(regressions))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
