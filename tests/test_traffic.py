"""The line collector behind tools/traffic.py reports what really ran.

The whole traffic run takes about 17 s and stays outside Tier-1; this
traces one small command through the same collector and report.
"""

import sys

import traffic
from cechwedge.cli import main


def test_collector_sees_count_run_and_hm_not(capsys):
    previous = sys.gettrace()
    with traffic.Collector() as collector:
        rc = main(["count", "-k", "2", "-j", "3"])
    assert sys.gettrace() is previous
    assert (rc, capsys.readouterr().out) == (0, "2\n")
    rows = {(fname, name): (hit, missing)
            for fname, name, hit, missing in traffic.unreached(collector.ran)}
    source = (traffic.PACKAGE / "cli.py").read_text(
        encoding="utf-8").splitlines()

    def text(lines):
        return [source[line - 1].strip() for line in lines]

    hit, missing = rows["cli.py", "cmd_count"]
    assert "c = necklace_count(args.k, args.j)" in text(hit)
    assert "return _emit_lines([text])" in text(hit)
    # only the refusals and the json branch stay unreached
    assert missing and all(t.startswith(("raise ", "return _emit_json"))
                           for t in text(missing))
    hit, missing = rows["cli.py", "cmd_hm"]
    assert hit == [] and "dec = decompose_wedge(args.n, args.k, grading, " \
        "table)" in text(missing)
    report = traffic.report(collector.ran)
    assert any(row.startswith("cli.py:") and "  cmd_hm  never ran (" in row
               for row in report)
    assert not any("  cmd_count  never ran" in row for row in report)
    assert report[-1].endswith(" statement lines ran")
