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


# prints the cliffkit modules whose code has run: exec_module sets
# __builtins__ in a layer's namespace, and an unrun layer lacks it
RAN = ("print(*(m for m in sorted(sys.modules) if m.startswith('cliffkit.') "
       "and '__builtins__' in vars(sys.modules[m])))")


def test_cli_registers_every_layer_and_runs_only_those_it_calls(tmp_path):
    # every layer is in sys.modules once the CLI is imported, since callers
    # such as a span recorder read them from there; a layer's code runs on
    # the first read of a name it does not hold yet, and a cold compile,
    # real or complex, or classify runs no multivector code: not algebra,
    # nor intertwine, groups, spinors, cech or linalg
    code = ("import sys, cliffkit.cli as cli; print(*sorted(sys.modules)); "
            f"print(cli.main(sys.argv[1:])); {RAN}")
    layers = {"algebra", "linalg", "reprs", "intertwine", "groups", "spinors", "cech"}
    for argv in (["compile", "8", "0", "--verify"],
                 ["compile", "--complex", "7", "--verify", "--json", str(tmp_path / "c7.json")],
                 ["classify", "0", "0"]):
        out = _child(code, *argv)
        assert {f"cliffkit.{name}" for name in layers} <= set(out[0].split())
        assert "dataclasses" not in out[0].split()
        assert out[-2] == "0"
        assert set(out[-1].split()) == {"cliffkit.cli", "cliffkit.scalars", "cliffkit.reprs"}


# ast.stmt nodes in the modules a cold compile runs, the package __init__
# included: 592 when the model readers moved to intertwine and the six other
# commands to commands (835 before), plus about 5%
COMPILE_PATH_STATEMENTS = 620


def test_a_cold_compile_compiles_a_bounded_amount_of_source():
    # without a bytecode cache each cold compile compiles every module it
    # runs, so code that no compile calls costs every compile; the test
    # above pins which modules run, and so that neither commands nor
    # intertwine does
    code = f"import sys, cliffkit.cli as cli; cli.main(['compile', '8', '0', '--verify']); {RAN}"
    ran = _child(code)[-1].split()
    paths = [SRC / "__init__.py"] + [SRC / f"{name.split('.')[1]}.py" for name in ran]
    count = sum(isinstance(node, ast.stmt) for path in paths
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    assert count <= COMPILE_PATH_STATEMENTS


def test_a_spinor_model_runs_the_layer_that_reads_compiled_models():
    # spinor --model inverts and checks its intertwiner through intertwine,
    # which a compile leaves unrun
    out = _child(f"import sys, cliffkit.cli as cli; print(cli.main(sys.argv[1:])); {RAN}",
                 "spinor", "--complex", "4", "--model")
    assert out[-2] == "0"
    assert {"cliffkit.reprs", "cliffkit.intertwine", "cliffkit.spinors"} <= set(out[-1].split())


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


# the modules imported the plain way, never registered: the package, the
# entry points, the commands that no compile runs and what only verify-all
# loads
_UNREGISTERED = {"__init__", "__main__", "cli", "commands", "verify", "sampling"}


def test_every_layer_imports_only_registered_layers():
    # an unregistered module that a layer imports lands in the package
    # namespace when that layer first runs, and a caller that walks
    # vars(cliffkit) while reading names from the layers in it (a span
    # recorder does) fails with "dictionary changed size during iteration"
    import cliffkit

    layers = set(cliffkit._API)
    assert {path.stem for path in SRC.glob("*.py")} == layers | _UNREGISTERED
    for layer in sorted(layers):
        assert _package_imports(SRC / f"{layer}.py") <= layers, layer


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
    code = f"import sys, cliffkit.cli as cli; code = cli.main(sys.argv[1:]); print(code, end=' '); {RAN}"
    out = _child(code, *(str(tmp_path / a) if a in _PIN_SIDE_FILES else a for a in argv))
    status, *ran = out[-1].split()
    assert status == "0" and "cliffkit.groups" in ran
    assert not set(ran) & {"cliffkit.reprs", "cliffkit.linalg", "cliffkit.spinors"}
    assert ("cliffkit.cech" in ran) == (argv[0] == "cech")


PUBLIC = {
    "algebra": "Multivector basis_vector blade_mul complex_basis_vector complex_unit "
               "complexify_embed eta multivector_from_json multivector_to_json unit vector",
    "cech": "Complex GroupCocycle Z2Cochain check_cocycle pin_lift_cocycle subgroup_reduction_check "
            "z2_betti",
    "groups": "CDResult PseudoOrthogonalMatrix Versor cartan_dieudonne lift_to_pin total_reflection_versor "
              "zeta",
    "intertwine": "Intertwiner even_subring_rep factor_projections invert preimage quaternion_complexify "
                  "real_irrep_dim rep_equivalence rho signature_shift",
    "reprs": "Representation TargetRing classify compile_complex_rep compile_rep",
    "scalars": "GaussianRational Quaternion Signature",
    "spinors": "HermitianIdempotent SpinorSpace adjoint_automorphism find_conjugator is_minimal left_ideal "
               "make_idempotent primitive_idempotent spin_block_check spinor_matrix_model "
               "stabilizer_membership",
}


def test_package_exports_each_public_name_from_its_layer():
    import cliffkit

    names = {name: layer for layer, names in PUBLIC.items() for name in names.split()}
    assert len(names) == 54 and sorted(cliffkit.__all__) == sorted(names)
    for name, layer in names.items():
        obj = getattr(cliffkit, name)
        assert obj is vars(importlib.import_module(f"cliffkit.{layer}"))[name]
        assert obj.__module__ == f"cliffkit.{layer}"
    star = {}
    exec("from cliffkit import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cliffkit.no_such_name


def test_dir_lists_every_public_name():
    import cliffkit

    names = dir(cliffkit)
    assert names == sorted(names) and set(cliffkit.__all__) <= set(names)
    assert "__getattr__" in names and "no_such_name" not in names


def test_a_public_name_binds_its_layer_and_runs_the_layers_it_imports():
    # dir() lists the names before they are bound; reading zeta binds the
    # groups names alone and runs groups with the layers it imports
    code = ("import sys, cliffkit; print(sum(n in vars(cliffkit) for n in cliffkit.__all__)); "
            "print(sum(n in dir(cliffkit) for n in cliffkit.__all__)); "
            f"cliffkit.zeta; print(*sorted(n for n in cliffkit.__all__ if n in vars(cliffkit))); {RAN}")
    assert _child(code) == ["0", "54", " ".join(sorted(PUBLIC["groups"].split())),
                            "cliffkit.algebra cliffkit.groups cliffkit.scalars"]


def test_a_spinor_name_leaves_the_pin_side_unrun():
    out = _child(f"import sys, cliffkit; cliffkit.find_conjugator; {RAN}")[0].split()
    assert {"cliffkit.scalars", "cliffkit.algebra", "cliffkit.reprs", "cliffkit.spinors"} <= set(out)
    assert not set(out) & {"cliffkit.groups", "cliffkit.cech"}


def test_vars_of_an_unrun_layer_runs_nothing():
    # an unrun layer holds only what module_from_spec set and the hook, and
    # reading those namespaces runs no layer
    code = ("import sys, cliffkit; layers = [m for m in sorted(sys.modules) if m.startswith('cliffkit.')]; "
            "print(*layers); print(*sorted(set().union(*(vars(sys.modules[m]) for m in layers)))); "
            f"{RAN}")
    layers, names, ran = _child(code)
    assert set(layers.split()) == {f"cliffkit.{layer}" for layer in [*PUBLIC, "linalg"]}
    assert set(names.split()) <= {"__name__", "__doc__", "__package__", "__loader__", "__spec__",
                                  "__file__", "__cached__", "__getattr__"}
    assert ran == ""


def test_star_import_binds_every_name():
    code = ("import sys, cliffkit; from cliffkit import *; "
            f"print(sum(n in vars(cliffkit) for n in cliffkit.__all__)); {RAN}")
    count, ran = _child(code)
    assert count == "54"
    assert set(ran.split()) == {f"cliffkit.{layer}" for layer in PUBLIC}


def test_threads_reading_one_unrun_layer_get_its_objects():
    # each thread waits at the barrier, then reads its own name from reprs
    # while the first reader is running the layer; a second run would leave
    # some thread holding an object the final namespace does not
    code = """if True:
        import sys, threading, cliffkit
        sys.setswitchinterval(1e-6)
        layer, names = sys.modules["cliffkit.reprs"], sys.argv[1:]
        barrier = threading.Barrier(len(names), timeout=60)
        got = {}

        def read(name):
            barrier.wait()
            got[name] = getattr(layer, name)

        threads = [threading.Thread(target=read, args=(n,)) for n in names]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        print(sum(t.is_alive() for t in threads))
        print(sum(got.get(n) is vars(layer)[n] and got[n].__module__ == "cliffkit.reprs" for n in names))
        print("__getattr__" in vars(layer))
    """
    names = PUBLIC["reprs"].split()
    assert _child(code, *names) == ["0", str(len(names)), "False"]


def test_cli_loads_verify_only_for_verify_all():
    # verify and the sampling it draws from load inside the verify-all
    # command, so the other commands, each a fresh process, skip them
    code = "import sys, cliffkit.cli; print(*sorted(m for m in sys.modules if m.startswith('cliffkit.')))"
    out = _child(code)[0].split()
    assert "cliffkit.cli" in out
    assert "cliffkit.verify" not in out and "cliffkit.sampling" not in out


RECORDS = {
    "scalars.Signature": "p q",
    "reprs.TargetRing": "kind m summands",
    "intertwine.Intertwiner": "matrix inverse ring_tag",
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
