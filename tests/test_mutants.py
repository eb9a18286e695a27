"""The mutation check in tools/mutants.py still applies to this code.

Running the mutants takes about 60 s and stays outside Tier-1; this only
checks that each mutant's old text occurs exactly once in its file, so
an edit that moves a mutated line shows up here first.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_still_applies():
    mutants = _load_mutants()
    assert mutants.occurrences() == [(m[0], 1) for m in mutants.MUTANTS]
    names = [m[0] for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for name, path, old, new, tests in mutants.MUTANTS:
        assert old != new and tests, name
        for node in tests:
            assert (ROOT / node.split("::")[0]).is_file(), (name, node)
