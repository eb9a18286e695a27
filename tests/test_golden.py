"""Replay the verify workload's golden corpus in process.

perfbench/golden.json freezes the exit code and stdout sha256 of every
benchmark operation.  One variant of every slot of the verify workload
runs here through cli.main and must match that record.  perfbench/ is
only read: its workloads module loads without writing bytecode, and
generated element files go to a temporary directory.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from cechwedge.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


WORKLOADS = _load_workloads()
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
SLOTS = WORKLOADS.verify_slots()


@pytest.mark.parametrize("index", range(len(SLOTS)),
                         ids=[slot.name for slot in SLOTS])
def test_verify_slot_matches_golden(index, capsys, tmp_path):
    slot = SLOTS[index]
    # Rotate through the variants so the slots cover different seeds.
    (argv,) = slot.variants[index % len(slot.variants)]
    for name in (a[1:] for a in argv if a.startswith("@")):
        (tmp_path / name).write_text(slot.files[name], encoding="utf-8")
    resolved = [str(tmp_path / a[1:]) if a.startswith("@") else a
                for a in argv]
    rc = main(resolved)
    out = capsys.readouterr().out.encode("utf-8")
    want = GOLDEN[WORKLOADS.op_key(argv)]
    assert (rc, hashlib.sha256(out).hexdigest()) == (want["exit"], want["sha256"])
