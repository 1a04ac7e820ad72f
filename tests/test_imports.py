"""Every module-level import in src/cliffkit is used by its module, the
package registers every layer but runs one only when it is used, and it
re-exports each public name from the layer that defines it."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cech_documents

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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []


def _child(code, *args):
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-S", "-c", code, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True).stdout.splitlines()


def test_cli_registers_every_layer_and_runs_only_those_it_calls():
    # every layer is in sys.modules once the CLI is imported, since callers
    # such as a span recorder read them from there; a lazy layer is still a
    # types.ModuleType subclass until its first attribute access runs it,
    # and compile --verify runs neither groups, spinors, cech nor linalg
    code = ("import sys, types, cliffkit.cli as cli; print(*sorted(sys.modules)); "
            "cli.main(['compile', '8', '0', '--verify']); "
            "print(*(m for m in sorted(sys.modules) if m.startswith('cliffkit.') "
            "and type(sys.modules[m]) is types.ModuleType))")
    out = _child(code)
    layers = {"algebra", "linalg", "reprs", "groups", "spinors", "cech"}
    assert {f"cliffkit.{name}" for name in layers} <= set(out[0].split())
    assert "dataclasses" not in out[0].split()
    ran = set(out[-1].split())
    assert {"cliffkit.algebra", "cliffkit.reprs", "cliffkit.cli"} <= ran
    assert not ran & {"cliffkit.groups", "cliffkit.spinors", "cliffkit.cech", "cliffkit.linalg"}


def _package_imports(path):
    """The layers a module imports from the package, at any depth in its
    source: ``from .x import ...`` and ``from . import x``."""
    layers = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            layers |= {node.module} if node.module else {alias.name for alias in node.names}
    return layers


def test_the_pin_side_imports_no_matrix_model():
    # the O(p,q) and Cech layers stand on the algebra alone; the matrix
    # models and spinor ideals sit beside them, not beneath
    assert _package_imports(SRC / "groups.py") <= {"algebra", "scalars"}
    assert not _package_imports(SRC / "cech.py") & {"reprs", "linalg", "spinors"}


_PIN_SIDE_FILES = {
    "versor.json": [{"signature": [2, 0], "terms": [{"blade": [1], "coeff": "1"}]}],
    "matrix.json": {"signature": [2, 0], "matrix": [["0", "1"], ["1", "0"]]},
    "torus.json": cech_documents.torus_doc(3),
    "cocycle.json": cech_documents.dihedral_cocycle_doc(3),
}


@pytest.mark.parametrize("argv", [
    ["zeta", "--sig", "2,0", "--versor", "versor.json"],
    ["decompose", "--sig", "2,0", "--matrix", "matrix.json"],
    ["lift", "--sig", "2,0", "--matrix", "matrix.json"],
    ["cech", "betti", "torus.json", "--k", "1"],
    ["cech", "check", "cocycle.json"],
    ["cech", "lift", "cocycle.json"],
], ids=" ".join)
def test_pin_side_commands_run_no_matrix_model(tmp_path, argv):
    # a cold O(p,q) or cech command runs groups but leaves reprs, linalg and
    # spinors unexecuted, and an O(p,q) command leaves cech so too
    for name, doc in _PIN_SIDE_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code = ("import sys, types, cliffkit.cli as cli; code = cli.main(sys.argv[1:]); "
            "print(code, *(m for m in sorted(sys.modules) if m.startswith('cliffkit.') "
            "and type(sys.modules[m]) is types.ModuleType))")
    out = _child(code, *(str(tmp_path / a) if a in _PIN_SIDE_FILES else a for a in argv))
    status, *ran = out[-1].split()
    assert status == "0" and "cliffkit.groups" in ran
    assert not set(ran) & {"cliffkit.reprs", "cliffkit.linalg", "cliffkit.spinors"}
    assert ("cliffkit.cech" in ran) == (argv[0] == "cech")


def test_first_public_name_binds_every_name_and_runs_every_layer():
    # dir() lists the names before they are bound
    code = ("import sys, types, cliffkit; print(sum(n in vars(cliffkit) for n in cliffkit.__all__)); "
            "print(sum(n in dir(cliffkit) for n in cliffkit.__all__)); "
            "cliffkit.zeta; print(sum(n in vars(cliffkit) for n in cliffkit.__all__)); "
            "print(*(m for m in sorted(sys.modules) if m.startswith('cliffkit.') "
            "and type(sys.modules[m]) is not types.ModuleType))")
    assert _child(code) == ["0", "53", "53", ""]


PUBLIC = {
    "algebra": "Multivector Signature basis_vector blade_mul complex_basis_vector complex_unit "
               "complexify_embed eta multivector_from_json multivector_to_json unit vector",
    "cech": "Complex GroupCocycle Z2Cochain check_cocycle pin_lift_cocycle subgroup_reduction_check "
            "z2_betti",
    "groups": "CDResult PseudoOrthogonalMatrix Versor cartan_dieudonne lift_to_pin total_reflection_versor "
              "zeta",
    "reprs": "Intertwiner Representation TargetRing classify compile_complex_rep compile_rep double_rep "
             "even_subring_rep factor_projections invert quaternion_complexify real_irrep_dim "
             "rep_equivalence signature_shift",
    "scalars": "GaussianRational Quaternion",
    "spinors": "HermitianIdempotent SpinorSpace adjoint_automorphism find_conjugator is_minimal left_ideal "
               "make_idempotent primitive_idempotent spin_block_check spinor_matrix_model "
               "stabilizer_membership",
}


def test_package_exports_each_public_name_from_its_layer():
    import cliffkit

    names = {name: layer for layer, names in PUBLIC.items() for name in names.split()}
    assert len(names) == 53 and sorted(cliffkit.__all__) == sorted(names)
    for name, layer in names.items():
        obj = getattr(cliffkit, name)
        assert obj is vars(importlib.import_module(f"cliffkit.{layer}"))[name]
        assert obj.__module__ == f"cliffkit.{layer}"
    star = {}
    exec("from cliffkit import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cliffkit.no_such_name


def test_cli_loads_verify_only_for_verify_all():
    # verify and the sampling it draws from load inside the verify-all
    # command, so the other commands, each a fresh process, skip them
    code = "import sys, cliffkit.cli; print(*sorted(m for m in sys.modules if m.startswith('cliffkit.')))"
    out = _child(code)[0].split()
    assert "cliffkit.cli" in out
    assert "cliffkit.verify" not in out and "cliffkit.sampling" not in out


RECORDS = {
    "algebra.Signature": "p q",
    "reprs.TargetRing": "kind m summands",
    "reprs.Intertwiner": "matrix inverse ring_tag",
    "groups.CDResult": "vectors fallback_count",
    "cech.Complex": "vertices edges triangles tetrahedra",
    "cech.Z2Cochain": "complex degree values",
    "cech.GroupCocycle": "complex sig edges",
    "cech.PinLiftResult": "success lifts discrepancy lift_count obstruction_nonzero",
    "spinors.HermitianIdempotent": "n s p",
    "spinors.SpinorSpace": "n p basis pivots",
    "spinors.SpinorModel": "rep left_action intertwiner",
    "spinors.SpinBlockResult": "block_diagonal A D det_A det_D relation_ok component",
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
