"""Freeze the golden corpus of the formula and verify workloads.

    python3 perfbench/corpus.py

Runs every variant of every CLI slot once, from the root of a checkout,
and writes perfbench/golden.json: per op its exit code, stdout sha256
and size, whether stderr held a traceback, and the sha256 of each
generated input file.  Rerun it only on purpose: the benchmark checks
later commits against this record.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def main() -> int:
    root = os.getcwd()
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="corpus-", dir=scratch)
    golden = {}
    try:
        env = run.Env(root, work)
        for make in workloads.CLI_WORKLOADS.values():
            slots = make()
            run.write_files(env, slots)
            for slot in slots:
                for argvs in slot.variants:
                    for argv in argvs:
                        key = workloads.op_key(argv)
                        if key in golden:
                            continue
                        _, rc, out, err, _ = env.cli(argv)
                        entry = {"exit": rc, "sha256": run.sha256(out),
                                 "bytes": len(out),
                                 "traceback": b"Traceback" in err}
                        inputs = {a[1:]: run.sha256(slot.files[a[1:]].encode())
                                  for a in argv if a.startswith("@")}
                        if inputs:
                            entry["inputs"] = inputs
                        golden[key] = entry
                        print("%d %s" % (rc, key), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
