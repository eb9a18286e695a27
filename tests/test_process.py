"""Which modules each CLI command loads, how the package resolves its
names, and how the CLI exits when its reader closes the pipe.  Import
sets are checked in fresh interpreters: pytest has already imported the
whole package here."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import cechwedge

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
ELEMENT_MODULES = ("cechwedge.elements", "cechwedge.whitehead")


def _env(**overrides):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def _python(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args], env=_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Runs one command through cli.main, then prints which of the given
# modules the process loaded on a line of its own.
RUN_AND_LIST_OF = (
    "import sys\n"
    "from cechwedge.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    "print(sorted(m for m in %r if m in sys.modules))\n"
    "sys.exit(rc)\n")
RUN_AND_LIST = RUN_AND_LIST_OF % (ELEMENT_MODULES,)


@pytest.mark.parametrize("argv", [
    ("count", "-k", "3", "-j", "4"),
    ("cech", "earring", "-m", "2", "-n", "4"),
    ("cech", "wedge", "--grading", "1,2;3", "-n", "5"),
    ("hall", "-k", "2", "-J", "3"),
    ("hm", "-n", "4", "-k", "2", "-m", "2"),
    ("verify", "stabilize", "-s", "1", "--m-range", "3..6"),
], ids=["count", "cech-earring", "cech-wedge", "hall", "hm",
      "verify-stabilize"])
def test_formula_commands_load_no_element_code(argv):
    out = _python(RUN_AND_LIST, *argv)
    assert out.splitlines()[-1] == "[]"


def test_verify_edge_loads_the_element_code():
    # positive control: the listing above does see an element command
    out = _python(RUN_AND_LIST, "verify", "edge", "--random", "--m", "2",
                  "--levels", "3", "--count", "1")
    assert out.splitlines() == ["PASS", "['cechwedge.elements']"]


@pytest.mark.parametrize("argv,text", [
    (("verify", "edge", "--random", "--m", "3", "--levels", "4",
      "--count", "3"), None),
    (("verify", "theta", "--n", "4", "--m", "2", "--levels", "3",
      "--file"), "element n=4 m=2\ngtuple 1 [a1,[a1,a2]] = 1\n"),
    (("verify", "coherence", "--levels", "3", "--file"),
     "element n=3 m=2\neps 1 2 = 1\nsupport [a1,a3] = 2\n"),
], ids=["edge-random", "theta-file", "coherence-file"])
def test_element_commands_compile_no_rewriting_engine(tmp_path, argv, text):
    # the verifiers need the word reader and the element code, never
    # the bracket rewriting of cechwedge.whitehead
    if text is not None:
        path = tmp_path / "e.txt"
        path.write_text(text)
        argv += (str(path),)
    out = _python(RUN_AND_LIST, *argv)
    assert out.splitlines() == ["PASS", "['cechwedge.elements']"]


@pytest.mark.parametrize("argv", [
    ("count", "-k", "3", "-j", "4"),
    ("cech", "earring", "-m", "2", "-n", "4"),
    ("hall", "-k", "2", "-J", "3"),
    ("hm", "-n", "4", "-k", "2", "-m", "2"),
], ids=["count", "cech-earring", "hall", "hm"])
def test_only_json_output_loads_json(argv):
    listed = RUN_AND_LIST_OF % (("json",),)
    assert _python(listed, *argv).splitlines()[-1] == "[]"
    out = _python(listed, *argv, "--format", "json").splitlines()
    assert out[-1] == "['json']"
    json.loads(out[0])  # the positive control printed JSON


def test_every_public_name_resolves_to_its_home_module():
    assert cechwedge.__all__
    for name, module in cechwedge._HOME.items():
        home = importlib.import_module("cechwedge." + module)
        assert getattr(cechwedge, name) is getattr(home, name), name
    assert not hasattr(cechwedge, "no_such_name")
    assert set(cechwedge.__all__) <= set(dir(cechwedge))
    star = {}
    exec("from cechwedge import *", star)
    assert set(star) - {"__builtins__"} == set(cechwedge.__all__)


def test_package_import_is_lazy():
    # the README's first import resolves three names and loads only
    # their home modules and what those import
    out = _python(
        "import sys, cechwedge\n"
        "print(sorted(m for m in sys.modules if m.startswith('cechwedge.')))\n"
        "from cechwedge import earring_formula, load_table, render_text\n"
        "print(render_text(earring_formula(4, 2, load_table('seed'))))\n"
        "print(sorted(m for m in %r if m in sys.modules))\n"
        % (ELEMENT_MODULES,))
    assert out.splitlines() == ["[]", "(Z/2)^N (+) (Z/2)^N (+) Z^N", "[]"]


@pytest.mark.parametrize("unbuffered", ["1", None],
                         ids=["unbuffered", "buffered"])
def test_listing_into_a_closed_pipe_exits_quietly(unbuffered):
    # about 330 kB of output, far more than a pipe holds, so the CLI is
    # still writing when the reader goes away after the first line
    proc = subprocess.Popen(
        [sys.executable, "-m", "cechwedge.cli", "hall", "-k", "40", "-J", "3"],
        env=_env(PYTHONUNBUFFERED=unbuffered), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"a1\t1\t1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""
