"""Command line interface: outputs, file I/O and exit codes."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffkit.algebra import (
    Signature,
    basis_vector,
    complex_basis_vector,
    multivector_from_json,
    signature_from_json,
)
from cliffkit.cech import (
    Complex,
    GroupCocycle,
    nontrivial_1cocycle,
    projective_plane,
    tetrahedron_boundary,
)
from cliffkit.cli import MAX_CECH_VERTICES, MAX_CLASSIFY_DIM, MAX_ZETA_DIM, main
from cliffkit.groups import PseudoOrthogonalMatrix
from cliffkit.reprs import rep_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", "1", "3")
    assert code == 0
    assert out.strip() == "Mat(2,H)"
    code, out, _ = run(capsys, "classify", "0", "3")
    assert code == 0
    assert out.strip() == "Mat(1,H) + Mat(1,H)"
    code, out, _ = run(capsys, "classify", "3", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["target"] == {"kind": "MatR", "m": 4}


def test_classify_refuses_a_dimension_past_its_bound(capsys):
    # refused before classify builds the matrix size 2^(n/2)
    code, out, err = run(capsys, "classify", "0", "100000000")
    assert code == 2 and out == ""
    assert f"classify supports p + q up to {MAX_CLASSIFY_DIM}" in err


def test_compile_verify_and_json(capsys, tmp_path):
    out_file = tmp_path / "rep.json"
    code, out, _ = run(capsys, "compile", "1", "3", "--verify", "--json", str(out_file))
    assert code == 0
    assert "Mat(2,H)" in out
    assert "verified" in out
    doc = json.loads(out_file.read_text())
    assert doc["signature"] == [1, 3]
    assert len(doc["generators"]) == 4
    code, out, _ = run(capsys, "compile", "--complex", "4", "--verify")
    assert code == 0
    assert "Mat(4,C)" in out


def test_compile_odd_complex_dimension(capsys):
    # odd N compiles onto a direct sum of two complex matrix rings
    code, out, _ = run(capsys, "compile", "--complex", "3", "--verify")
    assert code == 0
    assert "C(3) -> Mat(2,C) + Mat(2,C)" in out and "verified" in out
    code, out, err = run(capsys, "compile", "--complex", "-1")
    assert code == 2 and out == "" and "n >= 0" in err


def test_compile_usage_error(capsys):
    # no algebra, or both a signature (or part of one) and --complex
    for argv, message in [((), "needs p q"), (("2", "1", "--complex", "3"), "not both"),
                          (("2", "--complex", "3"), "not both")]:
        code, out, err = run(capsys, "compile", *argv)
        assert code == 2
        assert out == ""
        assert "error" in err and message in err


@pytest.mark.parametrize("argv", [("19", "0"), ("9", "10"), ("0", "20"), ("--complex", "19")])
def test_compile_size_bound_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "compile", *argv)
    assert code == 2
    assert out == ""
    assert "up to 18" in err


def test_compile_verifies_at_the_size_bound(capsys):
    code, out, _ = run(capsys, "compile", "18", "0", "--verify")
    assert code == 0
    assert out == "Cl(18,0) -> Mat(512,R)\nverified: relations and injectivity exact\n"
    code, out, _ = run(capsys, "compile", "--complex", "18", "--verify")
    assert code == 0
    assert out == "C(18) -> Mat(512,C)\nverified: relations and injectivity exact\n"


def test_zeta_command(capsys, tmp_path):
    versor_file = tmp_path / "versor.json"
    versor_file.write_text(json.dumps([
        {"ring": "rational", "signature": [2, 0], "terms": [{"blade": [1], "coeff": "1"}]},
    ]))
    code, out, _ = run(capsys, "zeta", "--sig", "2,0", "--versor", str(versor_file))
    assert code == 0
    assert out.splitlines() == ["1 0", "0 -1"]


def test_decompose_and_lift_commands(capsys, tmp_path):
    mat_file = tmp_path / "rot.json"
    mat_file.write_text(json.dumps([["3/5", "-4/5"], ["4/5", "3/5"]]))
    code, out, _ = run(capsys, "decompose", "--sig", "2,0", "--matrix", str(mat_file))
    assert code == 0
    assert "reflections: 2" in out
    code, out, _ = run(capsys, "lift", "--sig", "2,0", "--matrix", str(mat_file), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["spin"] is True
    assert len(doc["factors"]) == 2


def test_lift_bad_signature(capsys, tmp_path):
    mat_file = tmp_path / "m.json"
    mat_file.write_text(json.dumps([["1", "0"], ["0", "1"]]))
    code, _, err = run(capsys, "lift", "--sig", "banana", "--matrix", str(mat_file))
    assert code == 2
    assert "bad signature" in err


def test_spinor_command(capsys, tmp_path):
    code, out, _ = run(capsys, "spinor", "--complex", "4")
    assert code == 0
    assert "ideal dimension: 4 (minimal)" in out
    out_file = tmp_path / "spinor.json"
    code, out, _ = run(capsys, "spinor", "--complex", "2", "--model", "--json", str(out_file))
    assert code == 0
    assert "matrix model: Mat(2,C)" in out
    doc = json.loads(out_file.read_text())
    assert doc["dimension"] == 2 and doc["minimal"] is True


def test_spinor_model_at_the_size_bound(capsys):
    code, out, _ = run(capsys, "spinor", "--complex", "12", "--model")
    assert code == 0
    assert "matrix model: Mat(64,C), intertwiner found" in out


def test_spinor_nonminimal_idempotent(capsys, tmp_path):
    idem_file = tmp_path / "idem.json"
    idem_file.write_text(json.dumps({
        "ring": "gaussian", "complex_dim": 4,
        "terms": [{"blade": [1], "coeff": "1"}],
    }))
    code, out, _ = run(capsys, "spinor", "--complex", "4",
                       "--idempotent", str(idem_file), "--model")
    assert code == 1
    assert "not minimal" in out


@pytest.mark.parametrize("dim", [2, 6])
def test_spinor_idempotent_of_other_dimension_is_usage_error(capsys, tmp_path, dim):
    idem_file = tmp_path / "idem.json"
    idem_file.write_text(json.dumps({
        "ring": "gaussian", "complex_dim": dim,
        "terms": [{"blade": [1], "coeff": "1"}],
    }))
    out_file = tmp_path / "spinor.json"
    code, out, err = run(capsys, "spinor", "--complex", "4",
                         "--idempotent", str(idem_file), "--json", str(out_file))
    assert code == 2
    assert out == ""
    assert "C(4)" in err
    assert not out_file.exists()


def test_cech_betti_and_check(capsys, tmp_path):
    tetra_file = tmp_path / "tetra.json"
    tetra_file.write_text(json.dumps(tetrahedron_boundary().to_json()))
    code, out, _ = run(capsys, "cech", "betti", str(tetra_file), "--k", "2")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(capsys, "cech", "betti", str(tetra_file), "--k", "1")
    assert out.strip() == "0"


def test_cech_lift_obstructed(capsys, tmp_path):
    rp2 = projective_plane()
    a = nontrivial_1cocycle(rp2)
    edges = []
    for e in rp2.edges:
        m = [["-1", "0"], ["0", "-1"]] if a.bit(e) else [["1", "0"], ["0", "1"]]
        edges.append({"e": list(e), "matrix": m})
    coc_file = tmp_path / "rp2.json"
    coc_file.write_text(json.dumps({
        "complex": rp2.to_json(), "signature": [2, 0], "edges": edges,
    }))
    code, out, _ = run(capsys, "cech", "check", str(coc_file))
    assert code == 0
    code, out, _ = run(capsys, "cech", "lift", str(coc_file))
    assert code == 1
    assert "obstruction" in out


def test_cech_lift_succeeds_on_sphere(capsys, tmp_path):
    tetra = tetrahedron_boundary()
    ident = [["1", "0"], ["0", "1"]]
    coc_file = tmp_path / "sphere.json"
    coc_file.write_text(json.dumps({
        "complex": tetra.to_json(), "signature": [2, 0],
        "edges": [{"e": list(e), "matrix": ident} for e in tetra.edges],
    }))
    out_file = tmp_path / "lifts.json"
    code, out, _ = run(capsys, "cech", "lift", str(coc_file), "--json", str(out_file))
    assert code == 0
    assert "1 inequivalent lifts" in out
    doc = json.loads(out_file.read_text())
    assert doc["success"] is True and doc["lift_count"] == 1


def test_cech_lift_on_edges_that_are_not_a_cocycle_is_usage_error(capsys, tmp_path):
    # seeded random rational rotations on the tetrahedron boundary: check
    # reports the failing triangle, and lift exits 2 with the same message
    # instead of an internal error
    rng = random.Random(4)
    rotations = [[["1", "0"], ["0", "1"]]] + [
        [[f"{c}/{h}", f"{-s}/{h}"], [f"{s}/{h}", f"{c}/{h}"]]
        for c, s, h in ((3, 4, 5), (5, 12, 13), (-4, 3, 5), (8, -15, 17))]
    tetra = tetrahedron_boundary()
    coc_file = tmp_path / "rotations.json"
    coc_file.write_text(json.dumps({
        "complex": tetra.to_json(), "signature": [2, 0],
        "edges": [{"e": list(e), "matrix": rng.choice(rotations)} for e in tetra.edges],
    }))
    code, out, _ = run(capsys, "cech", "check", str(coc_file))
    assert code == 1
    [line] = out.splitlines()
    assert line.startswith("cocycle condition fails on triangle")
    code, out, err = run(capsys, "cech", "lift", str(coc_file))
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: {line}"


def test_seed_determinism(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--seed", "17", "spinor", "--complex", "2", "--model")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_zeta_refuses_a_dimension_past_its_bound(capsys, tmp_path):
    # refused before the factor, a vector of length p + q, is read
    versor_file = tmp_path / "versor.json"
    versor_file.write_text(json.dumps([
        {"signature": [10**9, 0], "terms": [{"blade": [1], "coeff": "1"}]},
    ]))
    code, out, err = run(capsys, "zeta", "--sig", "1000000000,0", "--versor", str(versor_file))
    assert code == 2 and out == ""
    assert f"zeta supports p + q up to {MAX_ZETA_DIM}" in err


@pytest.mark.parametrize("argv", [["betti", "--k", "0"], ["check"], ["lift"]])
@pytest.mark.parametrize("nested", [False, True], ids=["complex", "cocycle"])
def test_cech_refuses_a_vertex_count_past_its_bound(capsys, tmp_path, argv, nested):
    # refused before the complex is built
    complex_doc = {"vertices": 10**12}
    doc = {"complex": complex_doc, "signature": [2, 0], "edges": []} if nested else complex_doc
    doc_file = tmp_path / "cech.json"
    doc_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cech", argv[0], str(doc_file), *argv[1:])
    assert code == 2 and out == ""
    assert f"cech supports up to {MAX_CECH_VERTICES} vertices" in err


def test_zeta_factors_not_a_list_is_usage_error(capsys, tmp_path):
    versor_file = tmp_path / "versor.json"
    versor_file.write_text(json.dumps({"factors": 5}))
    code, _, err = run(capsys, "zeta", "--sig", "2,0", "--versor", str(versor_file))
    assert code == 2
    assert "list of factors" in err


def test_zeta_bad_factor_signature_is_usage_error(capsys, tmp_path):
    versor_file = tmp_path / "versor.json"
    versor_file.write_text(json.dumps([
        {"ring": "rational", "signature": ["a", 0], "terms": [{"blade": [1], "coeff": "1"}]},
    ]))
    code, _, err = run(capsys, "zeta", "--sig", "2,0", "--versor", str(versor_file))
    assert code == 2
    assert "signature" in err


@pytest.mark.parametrize("command", ["lift", "decompose"])
def test_matrix_not_a_list_is_usage_error(capsys, tmp_path, command):
    mat_file = tmp_path / "m.json"
    mat_file.write_text(json.dumps({"matrix": 7}))
    code, _, err = run(capsys, command, "--sig", "2,0", "--matrix", str(mat_file))
    assert code == 2
    assert "list of rows" in err


def test_matrix_with_other_signature_is_usage_error(capsys, tmp_path):
    # diag(1, -1) preserves the forms of (2,0) and (1,1) alike, so only the
    # signature check can tell the file from the command line
    mat_file = tmp_path / "m.json"
    mat_file.write_text(json.dumps({"signature": [1, 1], "matrix": [["1", "0"], ["0", "-1"]]}))
    for command in ("decompose", "lift"):
        code, out, err = run(capsys, command, "--sig", "2,0", "--matrix", str(mat_file))
        assert code == 2
        assert out == ""
        assert "conflicts" in err
    # the same matrix as an object with its signature is read as before
    mat_file.write_text(json.dumps({"signature": [2, 0], "matrix": [["1", "0"], ["0", "-1"]]}))
    code, out, _ = run(capsys, "decompose", "--sig", "2,0", "--matrix", str(mat_file))
    assert code == 0 and "reflections: 1" in out


@pytest.mark.parametrize("command", ["check", "lift"])
def test_cech_edge_matrix_with_other_signature_is_usage_error(capsys, tmp_path, command):
    doc = _sphere_cocycle_doc()
    doc["edges"][0]["matrix"] = {"signature": [1, 1], "matrix": doc["edges"][0]["matrix"]}
    coc_file = tmp_path / "coc.json"
    coc_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cech", command, str(coc_file))
    assert code == 2
    assert out == ""
    assert "conflicts" in err


# 1 << (10**18 - 1) would need an integer of 10**18 bits: the index must be
# rejected before its bit is built
_HUGE_INDEX = 10 ** 18


@pytest.mark.parametrize("blade", [[_HUGE_INDEX], [1, _HUGE_INDEX], [3], [0]])
def test_zeta_blade_index_out_of_range_is_usage_error(capsys, tmp_path, blade):
    versor_file = tmp_path / "versor.json"
    versor_file.write_text(json.dumps([
        {"ring": "rational", "signature": [2, 0], "terms": [{"blade": blade, "coeff": "1"}]},
    ]))
    code, out, err = run(capsys, "zeta", "--sig", "2,0", "--versor", str(versor_file))
    assert code == 2
    assert out == ""
    assert "out of range 1..2" in err


@pytest.mark.parametrize("blade", [[_HUGE_INDEX], [5], [0]])
def test_spinor_idempotent_blade_index_out_of_range_is_usage_error(capsys, tmp_path, blade):
    idem_file = tmp_path / "idem.json"
    idem_file.write_text(json.dumps({
        "ring": "gaussian", "complex_dim": 4, "terms": [{"blade": blade, "coeff": "1"}],
    }))
    code, out, err = run(capsys, "spinor", "--complex", "4", "--idempotent", str(idem_file))
    assert code == 2
    assert out == ""
    assert "out of range 1..4" in err


# a document naming an algebra of 10**18 generators would need a 10**18-bit
# blade mask: the command's own algebra rejects it before any term is read
def test_zeta_factor_of_a_huge_algebra_is_usage_error(capsys, tmp_path):
    versor_file = tmp_path / "versor.json"
    versor_file.write_text(json.dumps([{
        "ring": "rational", "signature": [_HUGE_INDEX, 0],
        "terms": [{"blade": [_HUGE_INDEX], "coeff": "1"}],
    }]))
    code, out, err = run(capsys, "zeta", "--sig", "2,0", "--versor", str(versor_file))
    assert code == 2
    assert out == ""
    assert f"Cl({_HUGE_INDEX},0)" in err and "Cl(2,0) is expected" in err


def test_spinor_idempotent_of_a_huge_algebra_is_usage_error(capsys, tmp_path):
    idem_file = tmp_path / "idem.json"
    idem_file.write_text(json.dumps({
        "ring": "gaussian", "complex_dim": _HUGE_INDEX,
        "terms": [{"blade": [_HUGE_INDEX], "coeff": "1"}],
    }))
    code, out, err = run(capsys, "spinor", "--complex", "4", "--idempotent", str(idem_file))
    assert code == 2
    assert out == ""
    assert f"C({_HUGE_INDEX})" in err and "C(4) is expected" in err


def test_multivector_from_json_checks_the_expected_algebra():
    real = {"ring": "rational", "signature": [2, 0], "terms": [{"blade": [1], "coeff": "1"}]}
    cplx = {"ring": "gaussian", "complex_dim": 2, "terms": [{"blade": [1], "coeff": "1"}]}
    assert multivector_from_json(real, Signature(2, 0)) == basis_vector(Signature(2, 0), 1)
    assert multivector_from_json(cplx, 2) == complex_basis_vector(2, 1)
    for doc, algebra in [(real, Signature(1, 1)), (real, 2), (cplx, 4), (cplx, Signature(2, 0))]:
        with pytest.raises(ValueError, match="is expected"):
            multivector_from_json(doc, algebra)


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "cech", "betti", "/nonexistent/complex.json", "--k", "1")
    assert code == 2
    assert "error" in err


def test_bad_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "one", "three"])
    assert exc.value.code == 2


def _sphere_cocycle_doc():
    tetra = tetrahedron_boundary()
    ident = [["1", "0"], ["0", "1"]]
    return {
        "complex": tetra.to_json(), "signature": [2, 0],
        "edges": [{"e": list(e), "matrix": ident} for e in tetra.edges],
    }


@pytest.mark.parametrize("command", ["check", "lift"])
@pytest.mark.parametrize("edges, message", [
    (5, "'edges' must be a list"),
    ([5], "'edges' must be a list"),
    ([{"e": 3, "matrix": [["1", "0"], ["0", "1"]]}], "edge 'e'"),
    ([{"e": [False, True], "matrix": [["1", "0"], ["0", "1"]]}], "edge 'e'"),
])
def test_cech_bad_edges_is_usage_error(capsys, tmp_path, command, edges, message):
    doc = _sphere_cocycle_doc()
    doc["edges"] = edges
    coc_file = tmp_path / "coc.json"
    coc_file.write_text(json.dumps(doc))
    code, _, err = run(capsys, "cech", command, str(coc_file))
    assert code == 2
    assert message in err


@pytest.mark.parametrize("doc, message", [
    ({"vertices": 4, "simplices": {"1": 5}}, "list of vertex lists"),
    ({"vertices": 4, "simplices": {"1": [[0, "x"]]}}, "list of vertex lists"),
    ({"vertices": 4, "simplices": [[0, 1]]}, "'simplices' must be an object"),
    ({"vertices": "x"}, "'vertices' must be a non-negative integer"),
    ({"complex": {"vertices": -1}}, "'vertices' must be a non-negative integer"),
    ([0, 1], "must be a JSON object"),
    ({"vertices": 2, "simplices": {"1": [[False, True]]}}, "list of vertex lists"),
    ({"vertices": 3, "simplices": {"1": [[0, 1], [0, 2], [1, 2]], "triangles": [[0, 1, 2]]}},
     "unknown simplices key 'triangles'"),
])
def test_cech_bad_complex_is_usage_error(capsys, tmp_path, doc, message):
    cx_file = tmp_path / "complex.json"
    cx_file.write_text(json.dumps(doc))
    code, _, err = run(capsys, "cech", "betti", str(cx_file), "--k", "1")
    assert code == 2
    assert message in err


# JSON true and false parse as bool, a subclass of int, and are not integers
@pytest.mark.parametrize("argv, doc, message", [
    (("zeta", "--sig", "1,0", "--versor"),
     [{"ring": "rational", "signature": [True, False], "terms": [{"blade": [1], "coeff": "1"}]}],
     "signature must be a [p, q] pair"),
    (("zeta", "--sig", "1,0", "--versor"),
     [{"ring": "rational", "signature": [1, 0], "terms": [{"blade": [True], "coeff": "1"}]}],
     "'blade' list of integers"),
    (("spinor", "--complex", "1", "--idempotent"),
     {"ring": "gaussian", "complex_dim": True, "terms": [{"blade": [], "coeff": "1"}]},
     "'complex_dim' must be an integer"),
    (("cech", "check"),
     {"complex": {"vertices": 2, "simplices": {"1": [[0, 1]]}}, "signature": [True, False],
      "edges": [{"e": [0, 1], "matrix": [["1"]]}]}, "signature must be a [p, q] pair"),
], ids=["signature", "blade-index", "complex-dim", "cocycle-signature"])
def test_json_boolean_is_not_an_integer(capsys, tmp_path, argv, doc, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert message in err


def test_cech_cocycle_bad_complex_is_usage_error(capsys, tmp_path):
    doc = _sphere_cocycle_doc()
    doc["complex"]["simplices"]["2"] = 5
    coc_file = tmp_path / "coc.json"
    coc_file.write_text(json.dumps(doc))
    code, _, err = run(capsys, "cech", "check", str(coc_file))
    assert code == 2
    assert "list of vertex lists" in err


@pytest.mark.parametrize("argv, bound", [
    (("--complex", "14"), "spinor supports N up to 12"),
    (("--complex", "16"), "spinor supports N up to 12"),
    (("--complex", "14", "--model"), "spinor supports N up to 12"),
])
def test_spinor_size_bound_is_usage_error(capsys, argv, bound):
    code, out, err = run(capsys, "spinor", *argv)
    assert code == 2
    assert out == ""
    assert bound in err


def _zero_denominator_inputs():
    coc = _sphere_cocycle_doc()
    coc["edges"][0]["matrix"] = [["1/0", "0"], ["0", "1"]]
    versor = [{"ring": "rational", "signature": [2, 0], "terms": [{"blade": [1], "coeff": "1/0"}]}]
    idem = {"ring": "gaussian", "complex_dim": 2, "terms": [{"blade": [], "coeff": "1/0i"}]}
    bad_matrix = [["1/0", "0"], ["0", "1"]]
    return {
        "zeta": (versor, ["zeta", "--sig", "2,0", "--versor"]),
        "decompose": (bad_matrix, ["decompose", "--sig", "2,0", "--matrix"]),
        "lift": (bad_matrix, ["lift", "--sig", "2,0", "--matrix"]),
        "spinor": (idem, ["spinor", "--complex", "2", "--idempotent"]),
        "cech": (coc, ["cech", "lift"]),
    }


@pytest.mark.parametrize("command", ["zeta", "decompose", "lift", "spinor", "cech"])
def test_zero_denominator_is_usage_error(capsys, tmp_path, command):
    doc, argv = _zero_denominator_inputs()[command]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert "zero denominator" in err


def test_exponent_scalar_is_usage_error(capsys, tmp_path):
    # Fraction would expand this into a ten-million-digit integer
    path = tmp_path / "versor.json"
    path.write_text(json.dumps([
        {"ring": "rational", "signature": [2, 0], "terms": [{"blade": [1], "coeff": "1e9999999"}]},
    ]))
    code, out, err = run(capsys, "zeta", "--sig", "2,0", "--versor", str(path))
    assert code == 2
    assert out == ""
    assert "exponent notation" in err


# Documents in the shapes the README describes, with one part in ten swapped
# for an arbitrary JSON value.
_KEYS = ["ring", "signature", "complex_dim", "terms", "blade", "coeff", "matrix",
         "vertices", "simplices", "1", "2", "3", "complex", "edges", "e"]
_SCALAR = st.one_of(
    st.sampled_from(["1", "-1", "1/2", "0", "1/0", "0/0", "", "x", "i", "-i",
                     "1/2+1/3i", "1/0i", "2/0+i", "1+1/0i", "1e9999999", "2E3i"]),
    st.text("0123456789/+-ieE. ", max_size=6),
)
_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-2, 5), _SCALAR)
_ANY = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3),
    max_leaves=10,
)


def _mostly(strategy):
    return st.integers(0, 9).flatmap(lambda k: _ANY if k == 0 else strategy)


_SIGNATURE = _mostly(st.lists(st.integers(0, 3), min_size=2, max_size=2))
_TERM = _mostly(st.fixed_dictionaries({
    "blade": _mostly(st.lists(st.integers(1, 4), max_size=3)), "coeff": _mostly(_SCALAR),
}))
_RING = _mostly(st.sampled_from(["rational", "gaussian", "quaternion"]))
_TERMS = _mostly(st.lists(_TERM, min_size=1, max_size=3))
_MULTIVECTOR = _mostly(st.one_of(
    st.fixed_dictionaries({"ring": _RING, "signature": _SIGNATURE, "terms": _TERMS}),
    st.fixed_dictionaries({"ring": _RING, "complex_dim": _mostly(st.integers(0, 4)), "terms": _TERMS}),
))
_ROWS = _mostly(st.lists(_mostly(st.lists(_SCALAR | st.integers(-1, 1), min_size=2, max_size=2)),
                         min_size=2, max_size=2))
_MATRIX = st.one_of(_ROWS, _mostly(st.fixed_dictionaries({"matrix": _ROWS, "signature": _SIGNATURE})))
# a model generator: rows of scalar strings (R, C) or of four-string lists (H),
# or a pair of such matrices for a direct-sum target
_MODEL_ROWS = _mostly(st.lists(_mostly(st.lists(_SCALAR | st.lists(_SCALAR, min_size=4, max_size=4),
                                                min_size=1, max_size=2)), min_size=1, max_size=2))
_MODEL = _mostly(st.fixed_dictionaries(
    {"target": _mostly(st.fixed_dictionaries(
        {"kind": _mostly(st.sampled_from(["MatR", "MatC", "MatH"])), "m": _mostly(st.integers(1, 2))},
        optional={"summands": _mostly(st.integers(1, 2))})),
     "generators": _mostly(st.lists(_mostly(_MODEL_ROWS | st.lists(_MODEL_ROWS, min_size=2, max_size=2)),
                                    max_size=3))},
    optional={"signature": _SIGNATURE, "complex_dim": _mostly(st.integers(0, 2))},
))
_SIMPLICES = _mostly(st.lists(_mostly(st.lists(st.integers(0, 4), min_size=1, max_size=4)),
                              max_size=6))
_COMPLEX = _mostly(st.fixed_dictionaries(
    {"vertices": _mostly(st.integers(0, 5))},
    optional={"simplices": _mostly(st.dictionaries(st.sampled_from(["1", "2", "3", "4"]),
                                                   _SIMPLICES, max_size=3))},
))
_EDGE = _mostly(st.fixed_dictionaries({
    "e": _mostly(st.lists(st.integers(0, 4), min_size=2, max_size=2)), "matrix": _ROWS,
}))
_COCYCLE = _mostly(st.fixed_dictionaries({
    "complex": _COMPLEX, "signature": _SIGNATURE, "edges": _mostly(st.lists(_EDGE, max_size=4)),
}))


def _read_multivector(doc):
    # the CLI passes the algebra of its options; here it is the one the
    # document names, so that a well-formed document reaches its terms
    named = doc.get("signature", doc.get("complex_dim")) if isinstance(doc, dict) else None
    algebra = signature_from_json(named) if isinstance(named, list) else named
    return multivector_from_json(doc, algebra)


def _read_matrix(doc):
    # a bare list of rows needs the signature from outside, as on the CLI
    sig = Signature(2, 0) if isinstance(doc, list) else None
    return PseudoOrthogonalMatrix.from_json(doc, sig=sig)


@pytest.mark.parametrize("reader, docs", [
    (_read_multivector, _MULTIVECTOR),
    (_read_matrix, _MATRIX),
    (Complex.from_json, _COMPLEX),
    (GroupCocycle.from_json, _COCYCLE),
    (rep_from_json, _MODEL),
], ids=["multivector", "matrix", "complex", "cocycle", "model"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_json_readers_raise_only_usage_errors(reader, docs, data):
    # the CLI maps ValueError and KeyError to exit 2; anything else would
    # escape as a traceback with exit 1
    doc = data.draw(docs)
    try:
        reader(doc)
    except (ValueError, KeyError):
        pass
