"""Replay the formula and verify workloads' golden corpus in process.

perfbench/golden.json freezes the exit code and stdout sha256 of every
benchmark operation.  Every variant of every slot of the formula and
verify workloads runs here through cli.main, by the walk that
tools/traffic.py drives, and must match that record without a
traceback on stderr.  Slots beyond the stratum cap must instead exit 2
without a traceback, as the benchmark's own check demands.  perfbench/
is only read, and generated element files go to a temporary directory.
"""

import hashlib
import json

import pytest

import traffic

WORKLOADS = traffic._load("workloads")
GOLDEN = json.loads((traffic.ROOT / "perfbench" / "golden.json")
                    .read_text(encoding="utf-8"))
SLOTS = WORKLOADS.verify_slots()
FORMULA_SLOTS = WORKLOADS.formula_slots()


def test_slots_name_exactly_the_golden_keys():
    keys = {WORKLOADS.op_key(argv) for slot in FORMULA_SLOTS + SLOTS
            for variant in slot.variants for argv in variant}
    assert keys == set(GOLDEN)


def _mismatches(slot, tmp_path):
    """Key and (exit code, stdout sha256, traceback?) of every run of
    slot that differs from its record."""
    out = []
    for argv, resolved in traffic.slot_commands(slot, tmp_path, set()):
        rc, stdout, stderr = traffic.run_cli(resolved)
        got = (rc, hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
               "Traceback" in stderr)
        key = WORKLOADS.op_key(argv)
        rc_want = 2 if slot.expect == "clean_exit_2" else GOLDEN[key]["exit"]
        if got != (rc_want, GOLDEN[key]["sha256"], False):
            out.append((key, got))
    return out


@pytest.mark.parametrize("slot", SLOTS, ids=[slot.name for slot in SLOTS])
def test_verify_slot_matches_golden(slot, tmp_path):
    assert _mismatches(slot, tmp_path) == []


@pytest.mark.parametrize("slot", FORMULA_SLOTS,
                         ids=["%s-%d" % (slot.name, i)
                              for i, slot in enumerate(FORMULA_SLOTS)])
def test_formula_slot_matches_golden(slot, tmp_path):
    assert _mismatches(slot, tmp_path) == []
