#!/usr/bin/env python3
"""Traffic check: which library lines does the benchmark's traffic run?

    python3 tools/traffic.py

Traces, with sys.settrace, every line of src/cechwedge/ that runs while

  * every distinct command of every variant of every slot of the
    formula and verify workloads (perfbench/workloads.py) runs through
    cli.main in process, its element files written to a temporary
    directory;
  * the four demos run as scripts, in process;
  * the session client's runner (perfbench/session.py) answers three
    seeded session streams.

Then it prints, function by function, the statement lines of
src/cechwedge/ that none of this ran: one line per statement, as
`file:line  function  statement`, or one line per function that never
ran at all.  Comparing two runs with the line numbers stripped shows
whether a change leaves any line unreached that the traffic reached
before.  perfbench/ is only read: its modules load without writing
bytecode.

Stdlib only, and not part of Tier-1: a run takes about 17 s on a 2-vCPU
machine.  Exit 0, or 1 when an operation fails on the way.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import inspect
import io
import os
import runpy
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cechwedge"
SESSION_SEEDS = (1, 2, 3)


class Collector:
    """Context manager recording the (file, line) of every line event
    in files under root, for the code that runs inside it."""

    def __init__(self, root: Path = PACKAGE):
        self.root = str(root.resolve()) + os.sep
        self.ran: set[tuple[str, int]] = set()
        self._ours: dict[str, str | None] = {}

    def _ours_as(self, filename: str) -> str | None:
        """The resolved path of filename when it lies under root."""
        if filename not in self._ours:
            path = os.path.realpath(filename)
            self._ours[filename] = path if path.startswith(self.root) else None
        return self._ours[filename]

    def _call(self, frame, event, arg):
        path = self._ours_as(frame.f_code.co_filename)
        if path is None:
            return None
        ran = self.ran

        def line(frame, event, arg):
            if event == "line":
                ran.add((path, frame.f_lineno))
            return line

        return line

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)
        return False


def _code_lines(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def functions(path: Path) -> list[tuple[str, set[int]]]:
    """(qualified name, statement lines) of every function in a source
    file, in source order.

    A statement line is the first line of a statement that carries
    bytecode of the function; docstrings carry none.  Comprehensions,
    generator expressions and lambdas count as part of the function
    that holds them, nested functions and methods as functions of their
    own.
    """
    source = path.read_text(encoding="utf-8")
    starts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt)}
    found: dict[str, set[int]] = {}

    def visit(code, owner, prefix):
        """Walk code and the code nested in it; prefix is the qualified
        name of what holds it, as __qualname__ writes it."""
        if not code.co_flags & inspect.CO_OPTIMIZED:  # a class body
            prefix += code.co_name + "."
        elif code.co_name.startswith("<"):
            found.setdefault(owner, set()).update(_code_lines(code))
        else:
            owner = prefix + code.co_name
            prefix = owner + ".<locals>."
            found.setdefault(owner, set()).update(
                _code_lines(code) - {code.co_firstlineno})
        for const in code.co_consts:
            if inspect.iscode(const):
                visit(const, owner, prefix)

    for const in compile(source, str(path), "exec").co_consts:
        if inspect.iscode(const):
            visit(const, None, "")
    found.pop(None, None)  # comprehensions at module level
    return sorted(((name, lines & starts) for name, lines in found.items()
                   if lines & starts), key=lambda item: min(item[1]))


def unreached(ran, package: Path = PACKAGE):
    """(file name, function, lines run, lines not run) of every
    function under package, in file and source order."""
    out = []
    for path in sorted(package.glob("*.py")):
        resolved = os.path.realpath(path)
        for name, lines in functions(path):
            hit = {line for line in lines if (resolved, line) in ran}
            out.append((path.name, name, sorted(hit), sorted(lines - hit)))
    return out


def report(ran, package: Path = PACKAGE) -> list[str]:
    """The printed report: the statements no traffic ran, then a total."""
    text = {}
    rows, total, missed = [], 0, 0
    for fname, name, hit, missing in unreached(ran, package):
        total += len(hit) + len(missing)
        missed += len(missing)
        if not missing:
            continue
        if not hit:
            rows.append("%s:%d  %s  never ran (%d statements)"
                        % (fname, missing[0], name, len(missing)))
            continue
        if fname not in text:
            text[fname] = (package / fname).read_text(
                encoding="utf-8").splitlines()
        rows += ["%s:%d  %s  %s" % (fname, line, name,
                                    text[fname][line - 1].strip())
                 for line in missing]
    rows.append("%d of %d statement lines ran" % (total - missed, total))
    return rows


def _load(name: str):
    """perfbench/<name>.py as a module, loaded without writing bytecode."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, ROOT / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def slot_commands(slot, tmp: Path, seen: set):
    """Every argv of a workload slot not yet in seen, as (argv, argv with
    each "@name" resolved to its file), the slot's files written under
    tmp; each argv joins seen."""
    for name, text in slot.files.items():
        (tmp / name).write_text(text, encoding="utf-8")
    for variant in slot.variants:
        for argv in variant:
            if tuple(argv) not in seen:
                seen.add(tuple(argv))
                yield argv, [str(tmp / a[1:]) if a.startswith("@") else a
                             for a in argv]


def run_cli(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one cli.main run in process; an
    exception exits 1 with its traceback on stderr, as a process would."""
    from cechwedge.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception:
            rc = 1
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


def drive() -> int:
    """Run all the traffic; return the number of failed operations."""
    import cechwedge as cw
    import cechwedge.whitehead as wh

    workloads = _load("workloads")
    session = _load("session")
    failed = 0
    seen = set()
    with tempfile.TemporaryDirectory(prefix="cechwedge-traffic-") as tmp:
        for slot in workloads.formula_slots() + workloads.verify_slots():
            for argv, resolved in slot_commands(slot, Path(tmp), seen):
                _, _, err = run_cli(resolved)
                if "Traceback" in err:
                    failed += 1
                    print("cechwedge %s:\n%s" % (" ".join(argv), err),
                          file=sys.stderr)
    sink = io.StringIO()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        try:
            with contextlib.redirect_stdout(sink):
                runpy.run_path(str(demo), run_name="__main__")
        except Exception:
            failed += 1
            print("%s:\n%s" % (demo.name, traceback.format_exc()),
                  file=sys.stderr)
        sink.seek(0)
        sink.truncate()
    run = session.make_runner(cw, wh, cw.load_table("seed"))
    for seed in SESSION_SEEDS:
        stream = workloads.session_stream(workloads.rng_for("session", seed))
        _, errors = session.run_pass(run, stream)
        failed += len(errors)
        for error in errors:
            print("session %d: %s" % (seed, error), file=sys.stderr)
    return failed


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with Collector() as collector:
        failed = drive()
    print("\n".join(report(collector.ran)))
    if failed:
        print("%d operations failed" % failed, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
