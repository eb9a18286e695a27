"""The benchmark under perfbench/ reaches into the package by name.

Its tracer patches the functions listed in TRACED, and its session
client calls attributes of `cw` (the package) and `wh` (the whitehead
module).  Both files are read with ast, not imported, so this test
fails as soon as a name they use stops resolving.
"""

import ast
import importlib
from pathlib import Path

import cechwedge
import cechwedge.whitehead

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(obj, path):
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _traced():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["TRACED"]):
            return [(row.elts[0].value, row.elts[1].value)
                    for row in node.value.elts]
    raise AssertionError("no TRACED table in perfbench/tracer.py")


def _session_attributes():
    tree = ast.parse((PERFBENCH / "session.py").read_text(encoding="utf-8"))
    return sorted({(node.value.id, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in ("cw", "wh")})


def test_traced_names_resolve():
    traced = _traced()
    assert len(traced) >= 20
    for module, path in traced:
        mod = importlib.import_module("cechwedge." + module)
        assert callable(_resolve(mod, path)), (module, path)


def test_session_client_names_resolve():
    used = _session_attributes()
    assert ("cw", "parse_bracket_expr") in used
    assert ("wh", "monomial_of_word") in used
    modules = {"cw": cechwedge, "wh": cechwedge.whitehead}
    for owner, attr in used:
        assert hasattr(modules[owner], attr), (owner, attr)
    # the client also checks residual monomials with mono.has_square()
    assert callable(cechwedge.whitehead.BracketMonomial.has_square)
