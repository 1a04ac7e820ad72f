"""Command line interface: outputs, file I/O and exit codes."""

import argparse
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cech_documents
from cliffkit import cli, commands, reprs
from cliffkit.algebra import (
    Signature,
    basis_vector,
    complex_basis_vector,
    multivector_from_json,
    multivector_to_json,
    signature_from_json,
)
from cliffkit.cech import (
    Complex,
    GroupCocycle,
    canonical_sign,
    filled_triangle,
    nontrivial_1cocycle,
    pin_lift_cocycle,
    projective_plane,
    tetrahedron_boundary,
)
from cliffkit.cli import (
    CHECK_FAILED,
    COMMANDS,
    MAX_CECH_SIMPLICES,
    MAX_CLASSIFY_DIM,
    MAX_COMPILE_DIM,
    MAX_LIFT_DIM,
    MAX_SPINOR_DIM,
    MAX_ZETA_DIM,
    build_parser,
    main,
)
from cliffkit.groups import PseudoOrthogonalMatrix, Versor, lift_to_pin
from cliffkit.reprs import Representation


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


def test_compile_reports_a_model_that_fails_verification(capsys, monkeypatch):
    # the compile's own proof fails: it raises before the model is cached,
    # and compile reports that as a failed check, never as a success, with
    # or without --verify
    monkeypatch.setattr(reprs, "_COMPILE_CACHE", {})
    monkeypatch.setattr(Representation, "verify", lambda r: False)
    code, out, err = run(capsys, "compile", "2", "2", "--verify")
    assert (code, out, err) == (CHECK_FAILED, "Cl(2,2): verification FAILED\n", "")
    code, out, err = run(capsys, "compile", "--complex", "4", "--verify")
    assert (code, out, err) == (CHECK_FAILED, "C(4): verification FAILED\n", "")
    code, out, err = run(capsys, "compile", "2", "2")
    assert (code, out, err) == (CHECK_FAILED, "Cl(2,2): verification FAILED\n", "")
    assert reprs._COMPILE_CACHE == {}


def test_compile_verify_reports_the_compiles_own_proof(capsys, monkeypatch):
    # from an empty cache, one verify() per model the compile caches and none
    # more for --verify: Cl(18,0) goes through (9,9), (5,13) and (1,17),
    # Cl(0,18) through (8,10) and (4,14), and C(18) through Cl(9,9)
    calls, verify = [], Representation.verify
    monkeypatch.setattr(Representation, "verify", lambda r: calls.append(r) or verify(r))
    for argv, want in [(("18", "0"), 4), (("0", "18"), 3), (("--complex", "18"), 2)]:
        monkeypatch.setattr(reprs, "_COMPILE_CACHE", {})
        calls.clear()
        code, out, _ = run(capsys, "compile", *argv, "--verify")
        assert code == 0 and out.endswith("\nverified: relations and injectivity exact\n")
        assert len(calls) == want == len(reprs._COMPILE_CACHE)


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


def test_zeta_and_decompose_json(capsys, tmp_path):
    versor_file = tmp_path / "versor.json"
    versor_file.write_text(json.dumps([
        {"ring": "rational", "signature": [2, 0], "terms": [{"blade": [1], "coeff": "1"}]},
    ]))
    code, out, _ = run(capsys, "zeta", "--sig", "2,0", "--versor", str(versor_file), "--json")
    assert code == 0
    assert json.loads(out) == {"signature": [2, 0], "matrix": [["1", "0"], ["0", "-1"]]}
    # the two reflection vectors of the rotation, as multivector documents
    mat_file = tmp_path / "rot.json"
    mat_file.write_text(json.dumps([["3/5", "-4/5"], ["4/5", "3/5"]]))
    code, out, _ = run(capsys, "decompose", "--sig", "2,0", "--matrix", str(mat_file), "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["reflections"], doc["fallbacks"]) == (2, 0)
    vectors = [multivector_from_json(v, Signature(2, 0)).vector_coords() for v in doc["vectors"]]
    assert vectors == [(Fraction(-2, 5), Fraction(4, 5)), (0, -2)]


def test_cl00_commands_read_the_empty_matrix(capsys, tmp_path):
    # O(0,0) holds only the 0 x 0 identity: an even versor of no factors
    mat_file = tmp_path / "empty.json"
    mat_file.write_text(json.dumps({"signature": [0, 0], "matrix": []}))
    code, out, _ = run(capsys, "decompose", "--sig", "0,0", "--matrix", str(mat_file))
    assert code == 0 and out.strip() == "reflections: 0 (isotropic fallbacks: 0)"
    code, out, _ = run(capsys, "lift", "--sig", "0,0", "--matrix", str(mat_file))
    assert code == 0 and out.splitlines() == ["versor with 0 factors (even)", "product: <Cl(0,0) (1)*e>"]
    tetra = tetrahedron_boundary()
    coc_file = tmp_path / "cocycle.json"
    coc_file.write_text(json.dumps({"complex": tetra.to_json(), "signature": [0, 0],
                                    "edges": [{"e": list(e), "matrix": []} for e in tetra.edges]}))
    code, out, _ = run(capsys, "cech", "check", str(coc_file))
    assert code == 0 and out.strip() == "cocycle condition holds on all triangles"
    code, out, _ = run(capsys, "cech", "lift", str(coc_file))
    assert code == 0 and out.strip() == "lift exists: 2^0 inequivalent lifts"


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
    coc_file = tmp_path / "rp2.json"
    coc_file.write_text(json.dumps(_rp2_cocycle_doc()))
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
    assert "lift exists: 2^0 inequivalent lifts" in out
    doc = json.loads(out_file.read_text())
    assert doc["success"] is True and doc["h1_dim"] == 0


def test_cech_lift_count_is_a_power_past_the_int_string_limit(capsys, tmp_path):
    # the 1-skeleton of K171 (14,706 simplices): 2^14365 lifts has more
    # decimal digits than Python converts, so the count is written as 2^k
    coc_file = tmp_path / "k171.json"
    coc_file.write_text(json.dumps(cech_documents.complete_cocycle_doc(171)))
    out_file = tmp_path / "lifts.json"
    code, out, _ = run(capsys, "cech", "lift", str(coc_file), "--json", str(out_file))
    assert code == 0
    assert out.strip() == "lift exists: 2^14365 inequivalent lifts"
    doc = json.loads(out_file.read_text())
    assert doc["h1_dim"] == 14365 and len(doc["lifts"]) == 14535


def _rp2_cocycle_doc():
    # -I on the edges of the nontrivial 1-cocycle of RP^2: no lift exists
    rp2 = projective_plane()
    a = nontrivial_1cocycle(rp2)
    edges = [{"e": list(e), "matrix": [["-1", "0"], ["0", "-1"]] if a.bit(e) else [["1", "0"], ["0", "1"]]}
             for e in rp2.edges]
    return {"complex": rp2.to_json(), "signature": [2, 0], "edges": edges}


def _lift_json_by_dict(doc):
    """What ``cech lift --json`` writes, built as one dict and encoded by
    ``json.dumps``: the oracle for the streamed writer."""
    res = pin_lift_cocycle(GroupCocycle.from_json(doc))
    if res.success:
        out = {"success": True, "h1_dim": res.lift_count.bit_length() - 1,
               "lifts": [{"e": list(e), "product": multivector_to_json(v.product)}
                         for e, v in sorted(res.lifts.items())]}
    else:
        out = {"success": False,
               "obstruction_triangles": [list(t) for t, b in sorted(res.discrepancy.values.items()) if b]}
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("make_doc", [
    lambda: cech_documents.dihedral_cocycle_doc(3),
    lambda: cech_documents.distinct_cocycle_doc(3),
    lambda: {"complex": {"vertices": 2}, "signature": [2, 0], "edges": []},
    _rp2_cocycle_doc,
], ids=["shared-and-resigned", "distinct", "no-edges", "obstructed"])
def test_cech_lift_json_matches_the_dict_form(capsys, tmp_path, make_doc):
    doc = make_doc()
    coc_file, out_file = tmp_path / "cocycle.json", tmp_path / "lifts.json"
    coc_file.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "cech", "lift", str(coc_file), "--json", str(out_file))
    assert code == (1 if make_doc is _rp2_cocycle_doc else 0)
    assert out_file.read_text() == _lift_json_by_dict(doc)


def test_the_shared_lift_case_resigns_edges(monkeypatch):
    # one versor per distinct product: the edges of a matrix share its
    # canonical lift, and its resigned edges share one negation of it.  The
    # resign negates canonical lifts, each at most once; canonical_sign
    # negates only lifts whose lowest coefficient is negative.  A resigned
    # edge's lift is the negation of its matrix's canonical lift.  CI lifts
    # this document, written by tests/cech_documents.py dihedral-cocycle, at
    # the cech bound
    receivers, negated = [], Versor.negated
    monkeypatch.setattr(Versor, "negated", lambda v: receivers.append(v) or negated(v))
    for m in (3, 10):
        coc = GroupCocycle.from_json(cech_documents.dihedral_cocycle_doc(m))
        receivers.clear()
        lifts = pin_lift_cocycle(coc).lifts
        versors = {id(v): v for v in lifts.values()}
        assert len({v.product for v in versors.values()}) == len(versors) < len(lifts)
        resigns = [v for v in receivers if (num := v.product.re)[min(num)] > 0]
        matrices = set(coc.edges.values())
        assert 0 < len({id(v) for v in resigns}) == len(resigns) <= len(matrices)
        canonical = {a: canonical_sign(lift_to_pin(a)).product for a in matrices}
        assert any(v.product == -canonical[coc.edges[e]] for e, v in lifts.items())


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


def test_seed_reaches_verify_all(capsys, monkeypatch):
    # verify-all is the one command that draws: it gets --seed, 0 without
    # it, and the environment has no say in any command
    from cliffkit import verify

    seeds = []
    monkeypatch.setattr(verify, "run_all", lambda seed: seeds.append(seed) or [])
    monkeypatch.setenv("CLIFFKIT_SEED", "abc")
    assert run(capsys, "--seed", "17", "verify-all") == (0, "", "")
    assert run(capsys, "verify-all") == (0, "", "")
    assert seeds == [17, 0]
    assert run(capsys, "classify", "1", "3") == (0, "Mat(2,H)\n", "")


def test_verify_all_json(capsys, monkeypatch):
    # the document tools/bench_record.py reads: the seed, then per criterion
    # its name, verdict, detail, seconds and budget
    from cliffkit import verify

    monkeypatch.setattr(verify, "CRITERIA", [c for c in verify.CRITERIA
                                             if c[0] in ("named-isomorphisms", "complex-models")])
    code, out, err = run(capsys, "--seed", "3", "verify-all", "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["seed"] == 3
    assert [(r["name"], r["ok"], r["budget"]) for r in doc["results"]] == [
        ("complex-models", True, 0.02), ("named-isomorphisms", True, None)]
    assert doc["results"][1]["detail"] == "all named targets match"
    assert all(isinstance(r["seconds"], float) for r in doc["results"])


def test_verify_all_fails_when_the_lift_drops_the_omega_patch(capsys, monkeypatch):
    # a lift that leaves an odd count unpatched maps onto -M: double-cover
    # reports the round trip, and verify-all prints FAIL and exits 1
    from cliffkit import groups, verify

    def unpatched_lift(m):
        return groups.Versor._from_vecs(m.sig, tuple(groups._cartan_dieudonne(m)[0]))

    monkeypatch.setattr(verify, "lift_to_pin", unpatched_lift)
    ok, detail = verify.check_double_cover()
    assert not ok and detail.endswith("round trip failed")
    monkeypatch.setattr(verify, "CRITERIA", [c for c in verify.CRITERIA if c[0] == "double-cover"])
    code, out, err = run(capsys, "verify-all")
    assert (code, err) == (CHECK_FAILED, "")
    assert out.startswith("double-cover: FAIL [") and out.rstrip().endswith("round trip failed")


@pytest.mark.parametrize("command", ["decompose", "cech lift"])
def test_matrix_entries_are_integers_or_rational_strings(capsys, tmp_path, command):
    # a JSON float is not exact: 0.6 is refused, not read as 3/5
    path = tmp_path / "input.json"
    for rows, code_want in (([[0.6, -0.8], [0.8, 0.6]], 2), ([[True, False], [False, True]], 2),
                            ([["3/5", "-4/5"], ["4/5", "3/5"]], 0), ([[0, -1], [1, "0"]], 0)):
        doc = {"complex": {"vertices": 2, "simplices": {"1": [[0, 1]]}}, "signature": [2, 0],
               "edges": [{"e": [0, 1], "matrix": rows}]}
        path.write_text(json.dumps(doc if command == "cech lift" else rows))
        argv = ["cech", "lift"] if command == "cech lift" else ["decompose", "--sig", "2,0", "--matrix"]
        code, out, err = run(capsys, *argv, str(path))
        assert code == code_want
        if code == 2:
            assert out == "" and err == "error: matrix entries must be integers or rational strings\n"
    read = lambda rows: PseudoOrthogonalMatrix.from_json(rows, sig=Signature(2, 0)).mat
    f = Fraction(1, 5)
    assert read([["3/5", "-4/5"], ["4/5", "3/5"]]) == ((3 * f, -4 * f), (4 * f, 3 * f))
    assert read([[0, -1], [1, "0"]]) == ((0, -1), (1, 0))


# every command, its bound and its smallest refused input; FILE does not
# exist and PAST is a complex of bound + 1 vertices, so an input refused
# with the bound's message was refused before its file was read
_BOUNDS = {
    "classify": (MAX_CLASSIFY_DIM, lambda b: ["classify", "0", str(b + 1)]),
    "compile": (MAX_COMPILE_DIM, lambda b: ["compile", "0", str(b + 1)]),
    "zeta": (MAX_ZETA_DIM, lambda b: ["zeta", "--sig", f"{b + 1},0", "--versor", "FILE"]),
    "lift": (MAX_LIFT_DIM, lambda b: ["lift", "--sig", f"{b + 1},0", "--matrix", "FILE"]),
    "spinor": (MAX_SPINOR_DIM, lambda b: ["spinor", "--complex", str(b + 1)]),
    "cech betti": (MAX_CECH_SIMPLICES, lambda b: ["cech", "betti", "PAST", "--k", "0"]),
    "cech check": (MAX_CECH_SIMPLICES, lambda b: ["cech", "check", "PAST"]),
    "cech lift": (MAX_CECH_SIMPLICES, lambda b: ["cech", "lift", "PAST"]),
    # polynomial in n: lift_to_pin at n = 32 takes 0.04 s
    "decompose": (None, None),
    # fixed inputs drawn from the seed
    "verify-all": (None, None),
}


def test_bound_table_names_every_command():
    [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    listed = {name.split()[0] for name in _BOUNDS}
    assert listed == set(commands.choices)


def _choices(argv):
    [commands] = [a for a in build_parser(argv)._actions if isinstance(a, argparse._SubParsersAction)]
    return list(commands.choices)


def test_a_named_command_builds_only_its_own_parser():
    # the full parser lists the commands in table order, which the one-command
    # parser's usage line spells out; no arguments, an unknown command, -h
    # and --seed before the command still get every command
    assert _choices(None) == list(COMMANDS) == [
        "classify", "compile", "zeta", "decompose", "lift", "spinor", "cech", "verify-all"]
    for name in COMMANDS:
        assert _choices([name, "-h"]) == [name]
    for argv in ([], ["bogus"], ["-h"], ["--seed", "3", "classify", "1", "1"]):
        assert _choices(argv) == list(COMMANDS)


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    *([name, "-h"] for name in COMMANDS),
    ["cech", "betti", "-h"], ["cech", "check", "-h"], ["cech", "lift", "-h"],
    ["classify"], ["classify", "1"], ["zeta"], ["decompose", "--sig", "2,0"], ["lift"],
    ["spinor"], ["cech"], ["cech", "betti"], ["compile", "--complex", "x"],
    ["compile", "4", "4", "--bogus"], ["classify", "1", "2", "3"], ["cech", "lift", "f", "--zzz"],
    ["verify-all", "--bogus"], ["classify", "1", "3", "--seed", "2"], ["classify", "1", "3"],
    [], ["-h"], ["bogus"], ["--seed", "3", "classify", "1", "1"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    # stdout, stderr and the exit code of each argv, help and usage errors
    # included, against the same argv parsed by the parser of every command
    got = _outcome(capsys, argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full())
    assert _outcome(capsys, argv) == got


@pytest.mark.parametrize("command", [c for c, (bound, _) in _BOUNDS.items() if bound is not None])
def test_every_bounded_command_refuses_its_smallest_input_past_the_bound(capsys, tmp_path, command):
    bound, argv = _BOUNDS[command]
    past = tmp_path / "past.json"
    past.write_text(json.dumps({"vertices": bound + 1}))
    names = {"FILE": str(tmp_path / "never_read.json"), "PAST": str(past)}
    code, out, err = run(capsys, *(names.get(a, a) for a in argv(bound)))
    assert code == 2 and out == ""
    assert f"up to {bound}" in err


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
    assert f"cech supports up to {MAX_CECH_SIMPLICES} simplices, vertices included" in err


@pytest.mark.parametrize("argv", [
    ["zeta", "--sig", "2,0", "--versor", "DEEP"],
    ["decompose", "--sig", "2,0", "--matrix", "DEEP"],
    ["lift", "--sig", "2,0", "--matrix", "DEEP"],
    ["spinor", "--complex", "4", "--idempotent", "DEEP"],
    ["cech", "betti", "DEEP", "--k", "0"],
    ["cech", "check", "DEEP"],
    ["cech", "lift", "DEEP"],
], ids=lambda argv: " ".join(a for a in argv[:2] if not a.startswith("-")))
def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path, argv):
    # json.load recurses once per level, so 200,000 open brackets exhaust
    # the stack before the file is found to be truncated
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    code, out, err = run(capsys, *(str(deep) if a == "DEEP" else a for a in argv))
    assert code == 2 and out == ""
    assert f"{deep}: JSON nested too deeply" in err


@pytest.mark.parametrize("extra, code_want", [(0, 0), (1, 2)], ids=["at-bound", "past-bound"])
def test_cech_refuses_a_simplex_count_past_its_bound(capsys, tmp_path, extra, code_want):
    # two vertices and one edge listed over and over: the complex it builds
    # is small, so it is refused on the listed count alone
    edges = [[0, 1]] * (MAX_CECH_SIMPLICES - 2 + extra)
    doc_file = tmp_path / "complex.json"
    doc_file.write_text(json.dumps({"vertices": 2, "simplices": {"1": edges}}))
    code, out, err = run(capsys, "cech", "betti", str(doc_file), "--k", "0")
    assert code == code_want
    if extra:
        assert out == "" and f"cech supports up to {MAX_CECH_SIMPLICES} simplices" in err
    else:
        assert out.strip() == "1"


@pytest.mark.parametrize("command", ["check", "lift"])
def test_cech_edge_given_twice_is_usage_error(capsys, tmp_path, command):
    # a second entry for (0, 1), written as [1, 0], must not replace the
    # first: check would then report a triangle over a matrix never given
    ident = [["1", "0"], ["0", "1"]]
    doc = {
        "complex": filled_triangle().to_json(), "signature": [2, 0],
        "edges": [{"e": [0, 1], "matrix": ident}, {"e": [0, 2], "matrix": ident},
                  {"e": [1, 2], "matrix": ident}, {"e": [1, 0], "matrix": [["-1", "0"], ["0", "-1"]]}],
    }
    coc_file = tmp_path / "coc.json"
    coc_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cech", command, str(coc_file))
    assert code == 2
    assert out == ""
    assert "matrix given twice for edge (0, 1)" in err


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


@pytest.mark.parametrize("argv, doc, key", [
    (("cech", "lift", "FILE"), {"vertices": 3}, "complex"),
    (("zeta", "--sig", "2,0", "--versor", "FILE"), {"signature": [2, 0]}, "factors"),
], ids=["cech-lift-bare-complex", "zeta-without-factors"])
def test_missing_json_key_names_the_key(capsys, tmp_path, argv, doc, key):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 2 and out == ""
    assert err == f"error: missing key '{key}'\n"


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


@pytest.mark.parametrize("command", ["betti", "check"])
def test_cech_complex_that_is_not_an_object_is_usage_error(capsys, tmp_path, command):
    # the size bound counts a non-object complex as 0, and the reader refuses it
    assert commands._cech_size([[0, 1]] * 10) == commands._cech_size("x") == 0
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"complex": [[0, 1]], "signature": [2, 0], "edges": []}))
    argv = ("cech", command, str(path)) + (("--k", "0") if command == "betti" else ())
    assert run(capsys, *argv) == (2, "", "error: complex JSON must be an object\n")


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
], ids=["multivector", "matrix", "complex", "cocycle"])
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
