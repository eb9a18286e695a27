"""Record classes: the import set of the CLI, the value semantics of
every record (equality by class and fields, hashing, immutability and
repr) and the one constructor that sets their fields."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

from cechwedge.elements import (CoherentElement, SparseEpsilon,
                                SubgroupForms, VerificationReport)
from cechwedge.groups import (CYCLIC_2, DirectSum, FGAbelianGroup, Pow,
                              ProdN, SphereSymbol, SumN, Z, ZERO)
from cechwedge.hall import GradingSequence, HallListing
from cechwedge.hilton import BondingMap, StabilizationReport, WedgeDecomposition
from cechwedge.records import Record
from cechwedge.spheres import SphereGroupTable

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "cechwedge"
RECORD_MODULES = ("elements", "groups", "hall", "hilton", "spheres",
                  "whitehead")


def test_cli_import_loads_no_dataclasses():
    # a fresh interpreter: pytest itself has imported both modules here
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("import sys, cechwedge.cli\n"
            "print(sorted(m for m in ('dataclasses', 'inspect') "
            "if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


G = GradingSequence((1, 2), 3)

# name -> (build a fresh record, its repr); each call builds a new object
# from new field values, so equality is never identity.
HASHABLE = {
    "FGAbelianGroup": (lambda: FGAbelianGroup(1, (2, 12)),
                       "FGAbelianGroup(rank=1, torsion=(2, 12))"),
    "SphereSymbol": (lambda: SphereSymbol(4, 3), "SphereSymbol(n=4, q=3)"),
    "DirectSum": (lambda: DirectSum((SphereSymbol(5, 2), FGAbelianGroup())),
                  "DirectSum(parts=(SphereSymbol(n=5, q=2), "
                  "FGAbelianGroup(rank=0, torsion=())))"),
    "Pow": (lambda: Pow(SphereSymbol(5, 2), 3),
            "Pow(base=SphereSymbol(n=5, q=2), exponent=3)"),
    "SumN": (lambda: SumN(SphereSymbol(5, 2)),
             "SumN(base=SphereSymbol(n=5, q=2))"),
    "ProdN": (lambda: ProdN(SphereSymbol(5, 2)),
              "ProdN(base=SphereSymbol(n=5, q=2))"),
    "GradingSequence": (lambda: GradingSequence((1, 2), 3),
                        "GradingSequence(prefix=(1, 2), tail=3)"),
    "HallListing": (lambda: HallListing((0, 2, 3), (-1, -1, 0), (1, 2, 1)),
                    "HallListing(ends=(0, 2, 3), left=(-1, -1, 0), "
                    "right=(1, 2, 1))"),
    "WedgeDecomposition": (
        lambda: WedgeDecomposition(2, 1, G, HallListing((0, 1), (-1,), (1,)),
                                   (1,), ((1, Z),)),
        "WedgeDecomposition(n=2, k=1, grading=GradingSequence(prefix=(1, 2), "
        "tail=3), listing=HallListing(ends=(0, 1), left=(-1,), right=(1,)), "
        "heights=(1,), groups=((1, FGAbelianGroup(rank=1, torsion=())),))"),
    "BondingMap": (lambda: BondingMap(4, 2, G),
                   "BondingMap(n=4, k=2, grading=GradingSequence(prefix=(1, 2), "
                   "tail=3))"),
    "StabilizationReport": (
        lambda: StabilizationReport(1, ((3, ZERO),), True, ZERO, ()),
        "StabilizationReport(offset=1, entries=((3, FGAbelianGroup(rank=0, "
        "torsion=())),), stable=True, stable_value=FGAbelianGroup(rank=0, "
        "torsion=()), warnings=())"),
    "SparseEpsilon": (lambda: SparseEpsilon(((1, 2, 3),), ((1, 2),)),
                      "SparseEpsilon(entries=((1, 2, 3),), bands=((1, 2),))"),
    "CoherentElement": (lambda: CoherentElement(3, 2, eps=SparseEpsilon(
                            bands=((1, 1),))),
                        "CoherentElement(n=3, m=2, coords=(), "
                        "eps=SparseEpsilon(entries=(), bands=((1, 1),)))"),
}

UNHASHABLE = {
    "SphereGroupTable": (lambda: SphereGroupTable({(4, 2): CYCLIC_2},
                                                  {(4, 2): "seed"}),
                         "SphereGroupTable(entries={(4, 2): FGAbelianGroup("
                         "rank=0, torsion=(2,))}, provenance={(4, 2): 'seed'})"),
    "VerificationReport": (lambda: VerificationReport(False, 3, ("level 1",)),
                           "VerificationReport(ok=False, checked_levels=3, "
                           "failures=('level 1',))"),
    "SubgroupForms": (lambda: SubgroupForms(ZERO, ZERO, True),
                      "SubgroupForms(per_letter=FGAbelianGroup(rank=0, "
                      "torsion=()), weight_split=FGAbelianGroup(rank=0, "
                      "torsion=()), equal=True)"),
}

RECORDS = {**HASHABLE, **UNHASHABLE}


def _record_classes():
    """Every Record subclass with fields that the library defines."""
    for name in RECORD_MODULES:
        importlib.import_module("cechwedge." + name)
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            # a test may subclass a record locally; only the library's count
            if sub._fields and sub.__module__.startswith("cechwedge."):
                found.add(sub.__name__)
    return found


def test_every_record_class_is_covered():
    assert _record_classes() == set(RECORDS)
    assert all(type(build()).__name__ == name
               for name, (build, _) in RECORDS.items())


@pytest.mark.parametrize("cls,values", [
    pytest.param(cls, values, id=cls.__name__) for cls, values in (
        (SphereSymbol, (4,)), (VerificationReport, (True, 3)), (SumN, (Z, Z)))
])
def test_shared_constructor_counts_its_values(cls, values):
    with pytest.raises(TypeError, match="^%s takes " % cls.__name__):
        cls(*values)


def test_no_record_sets_its_own_fields_by_hand():
    # The shared constructor in records.py is the one place that sets a
    # field with object.__setattr__; a cache slot outside _fields may
    # still be set that way.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "records.py":
            continue
        module = importlib.import_module(
            "cechwedge" if path.stem == "__init__" else "cechwedge." + path.stem)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            fields = getattr(getattr(module, node.name), "_fields", ())
            for call in ast.walk(node):
                if (isinstance(call, ast.Call)
                        and ast.unparse(call.func) == "object.__setattr__"
                        and len(call.args) > 1
                        and isinstance(call.args[1], ast.Constant)
                        and call.args[1].value in fields):
                    found.append("%s:%d %s.%s" % (path.name, call.lineno,
                                                  node.name, call.args[1].value))
    assert found == []


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_equal_records(name):
    build, text = RECORDS[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert repr(a) == repr(b) == text
    assert a != object() and a != text


@pytest.mark.parametrize("name", sorted(HASHABLE))
def test_frozen_records_hash_and_refuse_assignment(name):
    build, _ = HASHABLE[name]
    a, b = build(), build()
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1
    for field in type(a)._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_mutable_records_are_unhashable(name):
    build, _ = UNHASHABLE[name]
    a = build()
    with pytest.raises(TypeError):
        hash(a)
    field = type(a)._fields[0]
    setattr(a, field, None)
    assert getattr(a, field) is None and a != build()


def test_fields_and_class_decide_equality():
    # ProdN against SumN and FGAbelianGroup() against ZERO: test_groups
    assert SphereSymbol(4, 3) != SphereSymbol(4, 2)
    assert FGAbelianGroup(1, (2,)) != FGAbelianGroup(1, (4,))
    # an element without a matrix holds the zero matrix
    assert CoherentElement(3, 2) == CoherentElement(3, 2, eps=SparseEpsilon())

    class Renamed(SphereSymbol):
        __slots__ = ()

    assert Renamed(4, 3) != SphereSymbol(4, 3)
    assert SphereSymbol(4, 3) != Renamed(4, 3)

