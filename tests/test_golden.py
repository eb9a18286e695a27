"""Replay the formula and verify workloads' golden corpus in process.

perfbench/golden.json freezes the exit code and stdout sha256 of every
benchmark operation.  One variant of every slot of the formula and
verify workloads runs here through cli.main and must match that record.
Slots beyond the stratum cap must instead exit 2 without a traceback,
as the benchmark's own check demands.  perfbench/ is only read: its
workloads module loads without writing bytecode, and generated element
files go to a temporary directory.
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
FORMULA_SLOTS = WORKLOADS.formula_slots()


def _replay(argv, capsys):
    """Exit code and stdout sha256 of one in-process CLI run, and
    whether stderr shows a traceback."""
    rc = main(argv)
    captured = capsys.readouterr()
    digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    return rc, digest, "Traceback" in captured.err


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
    rc, digest, _ = _replay(resolved, capsys)
    want = GOLDEN[WORKLOADS.op_key(argv)]
    assert (rc, digest) == (want["exit"], want["sha256"])


@pytest.mark.parametrize("index", range(len(FORMULA_SLOTS)),
                         ids=["%s-%d" % (slot.name, i)
                              for i, slot in enumerate(FORMULA_SLOTS)])
def test_formula_slot_matches_golden(index, capsys):
    slot = FORMULA_SLOTS[index]
    # Cross-check slots hold two commands; each has its own record.
    for argv in slot.variants[index % len(slot.variants)]:
        rc, digest, traceback = _replay(list(argv), capsys)
        if slot.expect == "clean_exit_2":
            assert (rc, traceback) == (2, False), argv
        else:
            want = GOLDEN[WORKLOADS.op_key(argv)]
            assert (rc, digest) == (want["exit"], want["sha256"]), argv
