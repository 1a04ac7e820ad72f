"""Every module-level import in src/cliffkit is used by its module, and
importing the package loads every layer eagerly and nothing heavier."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cliffkit"


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


# __init__.py only re-exports
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []


def test_import_loads_every_layer_without_dataclasses():
    # the layers load eagerly, since callers such as a span recorder read them
    # from sys.modules right after "import cliffkit"; the CLI adds no
    # dataclasses either
    code = ("import sys, cliffkit; print(*sorted(m for m in sys.modules if m.startswith('cliffkit.'))); "
            "import cliffkit.cli; print('dataclasses' in sys.modules)")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout.splitlines()
    layers = {"algebra", "linalg", "reprs", "groups", "spinors", "cech"}
    assert {f"cliffkit.{name}" for name in layers} <= set(out[0].split())
    assert out[1] == "False"


def test_cli_loads_verify_only_for_verify_all():
    # verify and the sampling it draws from load inside the verify-all
    # command, so the other commands, each a fresh process, skip them
    code = "import sys, cliffkit.cli; print(*sorted(m for m in sys.modules if m.startswith('cliffkit.')))"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout.split()
    assert "cliffkit.cli" in out
    assert "cliffkit.verify" not in out and "cliffkit.sampling" not in out


RECORDS = {
    "algebra.Signature": "p q",
    "reprs.TargetRing": "kind m summands",
    "reprs.Intertwiner": "matrix inverse ring_tag",
    "groups.CDResult": "vectors fallback_count",
    "groups.SpinBlockResult": "block_diagonal A D det_A det_D relation_ok component",
    "cech.Complex": "vertices edges triangles tetrahedra",
    "cech.Z2Cochain": "complex degree values",
    "cech.GroupCocycle": "complex sig edges",
    "cech.PinLiftResult": "success lifts discrepancy lift_count obstruction_nonzero",
    "spinors.HermitianIdempotent": "n s p",
    "spinors.SpinorSpace": "n p basis pivots",
    "spinors.SpinorModel": "rep left_action intertwiner",
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_construct_by_keyword_and_are_immutable(name):
    module, cls_name = name.split(".")
    cls = getattr(importlib.import_module(f"cliffkit.{module}"), cls_name)
    fields = RECORDS[name].split()
    values = {"kind": "MatR", "m": 2, "summands": 1}
    rec = cls(**{f: values.get(f, k + 1) for k, f in enumerate(fields)})
    assert [getattr(rec, f) for f in fields] == [values.get(f, k + 1) for k, f in enumerate(fields)]
    assert repr(rec) == f"{cls_name}({', '.join(f'{f}={getattr(rec, f)!r}' for f in fields)})"
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], None)
    assert not hasattr(rec, "__dict__")
