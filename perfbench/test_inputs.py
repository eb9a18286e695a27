"""The benchmark's inputs depend on the workload seed and nothing else.

    python3 -m pytest perfbench/test_inputs.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def cli_inputs(workload, seed, tmp_path):
    """Op list of three passes and the bytes of every file they read."""
    slots = workloads.CLI_WORKLOADS[workload]()
    work = tmp_path / ("%s-%d-%d" % (workload, seed, len(list(tmp_path.iterdir()))))
    work.mkdir()
    run.write_files(run.Env(str(tmp_path), str(work)), slots)
    rng = workloads.rng_for(workload, seed)
    ops = [(slot.name, argvs) for _ in range(3)
           for slot, v in workloads.cli_pass(slots, rng)
           for argvs in [slot.variants[v]]]
    read = sorted({a[1:] for _, argvs in ops for argv in argvs
                   for a in argv if a.startswith("@")})
    files = {name: (work / name).read_bytes() for name in read}
    return ops, files


def test_cli_inputs_are_seeded(tmp_path):
    for workload in workloads.CLI_WORKLOADS:
        ops, files = cli_inputs(workload, 7, tmp_path)
        assert (ops, files) == cli_inputs(workload, 7, tmp_path)
        other_ops, other_files = cli_inputs(workload, 8, tmp_path)
        assert sorted(name for name, _ in ops) == sorted(name for name, _ in other_ops)
        assert ops != other_ops
        if files:
            assert files != other_files


def test_session_stream_is_seeded():
    def stream(seed):
        return json.dumps(workloads.session_stream(workloads.rng_for("session", seed)))
    assert stream(7) == stream(7)
    assert stream(7) != stream(8)
    kinds = lambda seed: sorted(op["op"] for op in json.loads(stream(seed))
                                if op["op"] != "tower")
    assert kinds(7) == kinds(8)
