"""Exit-code contract of the command line under random flags.

Every subcommand is driven in process with small random flags, bad
gradings, bad, missing or non-UTF-8 element and table files, and
--annotate everywhere.  Whatever the input, the exit code is 0, 1 or 2 (argparse
rejections count as 2), stderr holds no traceback, and the same argv
prints the same stdout twice.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cechwedge.cli import main

FILES = {
    "eps": "element n=3 m=2\neps 1 2 = 2\neps 2 4 = -1\n",
    "support": "element n=3 m=2\nsupport a1 = 2\nsupport [a1,a2] = -1\n",
    "gtuple": "element n=4 m=2\ngtuple 1 [a1,[a1,a2]] = 1\n",
    "syntax": "element n=3 m=2\nsupport [a1 = 1\n",
    "no_header": "support a1 = 1\n",
    "not_hall": "element n=3 m=2\nsupport [a2,a1] = 1\n",
    "table": "pi 3 2 = Z/5\n",
    "bad_table": "pi 3 3 = Z/2\n",
    "binary": b"\xff\xfe",
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    out = {"missing": str(root / "missing.txt")}
    for name, text in FILES.items():
        path = root / (name + ".txt")
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        out[name] = str(path)
    return out


def _int(lo, hi):
    """A small integer flag value, now and then not an integer at all."""
    return st.sampled_from([str(i) for i in range(lo, hi + 1)] * 3 + ["x"])


def _mostly(good, bad):
    """One of the good values, or one of the bad ones a quarter of the
    time."""
    return st.sampled_from(good * (3 * len(bad)) + bad * len(good))


GRADINGS = _mostly(["1", "2", "1;2", "1,2;3", "1,1;3", "1,1,1;2"],
                   ["2;1", "3,1;4", "0;1", "1,;2", "x", ""])
FILE_NAMES = _mostly(["eps", "support", "gtuple"],
                     ["syntax", "no_header", "not_hall", "table", "missing",
                      "binary"])


def _pairs(*options):
    """Each (flag, value strategy) pair is present or absent at random."""
    return st.tuples(*(st.one_of(st.just(()), value.map(lambda v, f=flag: (f, v)))
                       for flag, value in options))


@st.composite
def argvs(draw):
    kind = draw(st.sampled_from(["earring", "wedge", "hall", "count", "hm",
                                 "edge", "theta", "coherence", "stabilize"]))
    if kind == "earring":
        argv = ["cech", "earring", "-m", draw(_int(1, 5)),
                "-n", draw(_int(1, 9))]
    elif kind == "wedge":
        argv = ["cech", "wedge", "--grading", draw(GRADINGS),
                "-n", draw(_int(1, 7))]
    elif kind == "hall":
        argv = ["hall", "-k", draw(_int(0, 4)), "-J", draw(_int(0, 4))]
        argv += [x for p in draw(_pairs(("--grading", GRADINGS))) for x in p]
    elif kind == "count":
        argv = ["count", "-k", draw(_int(0, 10)),
                "-j", draw(_mostly(["1", "2", "5", "8"], ["0", "4304"]))]
    elif kind == "hm":
        argv = ["hm", "-n", draw(_int(1, 7)), "-k", draw(_int(0, 4))]
        argv += [x for p in draw(_pairs(("-m", _int(1, 4)),
                                        ("--grading", GRADINGS))) for x in p]
    elif kind in ("edge", "theta"):
        argv = ["verify", kind, "--m", draw(_int(1, 3))]
        if kind == "theta":
            argv += ["--n", draw(_int(1, 5))]
        argv += [x for p in draw(_pairs(("--levels", _int(0, 4)),
                                        ("--count", _int(0, 2)),
                                        ("--seed", _int(0, 9)))) for x in p]
        source = draw(_mostly(["random", "file"], ["none"]))
        if source == "random":
            argv.append("--random")
        elif source == "file":
            argv += ["--file", draw(FILE_NAMES)]
    elif kind == "coherence":
        argv = ["verify", "coherence", "--file", draw(FILE_NAMES)]
        argv += [x for p in draw(_pairs(("--levels", _int(0, 4)))) for x in p]
    else:
        argv = ["verify", "stabilize", "-s", draw(_int(-1, 4)),
                "--m-range", draw(_mostly(["3..6", "2..5", "2..7"],
                                          ["2..3", "3..3", "6..3", "1..4",
                                           "x"]))]
    if draw(st.integers(0, 3)) == 0:
        argv.append("--annotate")
    argv += [x for p in draw(_pairs(
        ("--format", _mostly(["text", "json"], ["yaml"])))) for x in p]
    if kind not in ("hall", "count"):
        argv += [x for p in draw(_pairs(
            ("--table", _mostly(["seed", "table"],
                                ["bad_table", "missing", "binary"]))))
                 for x in p]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:       # argparse usage errors
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
@example(argv=["verify", "coherence", "--file", "binary"])
@example(argv=["hm", "-n", "4", "-k", "2", "-m", "3", "--grading", "1"])
@example(argv=["verify", "edge", "--m", "2", "--random", "--file", "eps"])
def test_exit_code_contract(paths, argv):
    # element and table file names stand for files written once per module
    argv = [paths.get(a, a) if prev in ("--file", "--table") else a
            for prev, a in zip([None] + argv, argv)]
    rc, out, err = _run(argv)
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err, (argv, err)
    assert _run(argv)[1] == out, argv
