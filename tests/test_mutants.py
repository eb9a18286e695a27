"""The mutation check in tools/mutants.py still applies to this code.

Running the mutants takes about 70 s and stays outside Tier-1; this only
checks that each mutant's old text occurs exactly once in its file, so
an edit that moves a mutated line shows up here first.
"""

import mutants


def test_every_mutant_still_applies():
    assert mutants.occurrences() == [(m[0], 1) for m in mutants.MUTANTS]
    names = [m[0] for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for name, path, old, new, tests in mutants.MUTANTS:
        assert old != new and tests, name
        for node in tests:
            assert (mutants.ROOT / node.split("::")[0]).is_file(), (name, node)
