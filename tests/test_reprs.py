"""Classification and compilation onto matrix rings.

The exact generator matrices asserted here were checked by hand against the
standard low-dimensional models (Pauli and quaternion blocks).
"""

import hashlib
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffkit import intertwine, linalg, reprs
from cliffkit.algebra import Multivector, basis_vector
from cliffkit.intertwine import (
    even_subring_rep,
    factor_projections,
    quaternion_complexify,
    real_irrep_dim,
    rep_equivalence,
    signature_shift,
)
from cliffkit.reprs import (
    KIND_REAL_DIM,
    Representation,
    TargetRing,
    classify,
    compile_complex_rep,
    compile_rep,
    rep_to_json,
)
from cliffkit.scalars import (
    GAUSSIAN,
    QUATERNION,
    RATIONAL,
    ZERO,
    GaussianRational,
    Quaternion,
    Signature,
    format_scalar,
    parse_rational,
    parse_scalar,
    quaternion_to_complex_block,
)
from cliffkit.spinors import left_ideal, primitive_idempotent, spinor_matrix_model
import bareiss_oracle
import dense_model_oracle
from inverse_oracle import dense_inverse
from rank_oracle import blades_independent

F0, F1 = Fraction(0), Fraction(1)
G0, G1, GI = GaussianRational(0), GaussianRational(1), GaussianRational(0, 1)
Q = Quaternion


def test_classify_table_spot_checks():
    assert classify(Signature(1, 3)) == TargetRing("MatH", 2)
    assert classify(Signature(3, 1)) == TargetRing("MatR", 4)
    assert classify(Signature(0, 3)) == TargetRing("MatH", 1, summands=2)
    assert classify(Signature(2, 0)) == TargetRing("MatR", 2)
    assert classify(Signature(1, 1)) == TargetRing("MatR", 2)
    assert classify(Signature(0, 1)) == TargetRing("MatC", 1)
    assert classify(Signature(1, 0)) == TargetRing("MatR", 1, summands=2)
    assert classify(Signature(8, 0)) == TargetRing("MatR", 16)
    assert classify(Signature(0, 8)) == TargetRing("MatR", 16)
    assert classify(Signature(5, 0)) == TargetRing("MatH", 2, summands=2)
    assert classify(Signature(0, 5)) == TargetRing("MatC", 4)


def test_target_ring_construction_and_validation():
    t = TargetRing(kind="MatH", m=2, summands=2)
    assert t == TargetRing("MatH", 2, 2) and str(t) == "Mat(2,H) + Mat(2,H)"
    assert repr(TargetRing("MatC", 4)) == "TargetRing(kind='MatC', m=4, summands=1)"
    assert t.ring_tag == TargetRing("MatH", 1).ring_tag
    for args in (("MatX", 1), ("MatR", 0), ("MatR", 1, 3)):
        with pytest.raises(ValueError):
            TargetRing(*args)
    with pytest.raises(AttributeError):
        t.m = 3


def test_classify_depends_on_defect_mod_8():
    for n in range(9):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            t = classify(sig)
            # total real dimension of the target always equals 2^n
            assert t.summands * t.m * t.m * KIND_REAL_DIM[t.kind] == 1 << n


def test_base_reps_verify():
    # a signature of the base table compiles to its base model, unchanged
    for (p, q), (target, monos) in reprs._BASES.items():
        rep = compile_rep(Signature(p, q))
        assert rep.verify()
        assert rep.target == target == classify(Signature(p, q)) and rep._monos == monos


def test_cl20_and_cl11_models():
    # Cl(2,0): sigma1, sigma3; Cl(1,1): sigma1, tau2
    r20 = compile_rep(Signature(2, 0))
    assert r20.gens[0] == ((F0, F1), (F1, F0))
    assert r20.gens[1] == ((F1, F0), (F0, -F1))
    r11 = compile_rep(Signature(1, 1))
    assert r11.gens[0] == ((F0, F1), (F1, F0))
    assert r11.gens[1] == ((F0, -F1), (F1, F0))


def test_cl13_quaternion_model_exact():
    rep = compile_rep(Signature(1, 3))
    assert rep.target == TargetRing("MatH", 2)
    q0, q1 = Q(0), Q(1)
    t1, t2 = Q(0, 1), Q(0, 0, 1)
    assert rep.gens[0] == ((q0, q1), (q1, q0))
    assert rep.gens[1] == ((q0, -q1), (q1, q0))
    assert rep.gens[2] == ((t1, q0), (q0, -t1))
    assert rep.gens[3] == ((t2, q0), (q0, -t2))
    assert rep.verify()


def test_cl31_real_model_exact():
    rep = compile_rep(Signature(3, 1))
    assert rep.target == TargetRing("MatR", 4)
    off_id = ((F0, F0, F1, F0), (F0, F0, F0, F1), (F1, F0, F0, F0), (F0, F1, F0, F0))
    off_neg = ((F0, F0, -F1, F0), (F0, F0, F0, -F1), (F1, F0, F0, F0), (F0, F1, F0, F0))
    s1_block = ((F0, F1, F0, F0), (F1, F0, F0, F0), (F0, F0, F0, -F1), (F0, F0, -F1, F0))
    s3_block = ((F1, F0, F0, F0), (F0, -F1, F0, F0), (F0, F0, -F1, F0), (F0, F0, F0, F1))
    assert rep.gens == (off_id, s1_block, s3_block, off_neg)
    assert rep.verify()


def test_compile_all_signatures_up_to_6():
    for n in range(7):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            rep = compile_rep(sig)
            assert rep.target == classify(sig)
            assert rep.verify()


def _doubled_by_blocks(rep):
    """The generators of rep doubled once, written densely per summand block
    of the old model: [[0, I], [I, 0]], [[0, -I], [I, 0]] and diag(A, -A)
    for each old generator image A, positives first."""
    zero = ZERO[rep.target.ring_tag]
    pair = rep.target.summands == 2

    def blocks(a, b, c, d):
        return tuple(ra + rb for ra, rb in zip(a, b)) + tuple(rc + rd for rc, rd in zip(c, d))

    def per_summand(f, *mats):
        return tuple(map(f, *mats)) if pair else f(*mats)

    def neg(a):
        return tuple(tuple(-x for x in row) for row in a)

    def zeros(a):
        return tuple((zero,) * len(row) for row in a)

    ident = dense_model_oracle.blade_image(rep, 0)
    v_plus = per_summand(lambda i: blocks(zeros(i), i, i, zeros(i)), ident)
    v_minus = per_summand(lambda i: blocks(zeros(i), neg(i), i, zeros(i)), ident)
    old = [per_summand(lambda a: blocks(a, zeros(a), zeros(a), neg(a)), g) for g in rep.gens]
    p = rep.sig.p
    return (v_plus, *old[:p], v_minus, *old[p:])


def test_double_rep_structure():
    # every base case, the direct sums (1,0) and (0,3) included, doubled once
    for (p, q), (target, _gens) in reprs._BASES.items():
        d = compile_rep(Signature(p + 1, q + 1))
        assert d.target == TargetRing(target.kind, 2 * target.m, target.summands)
        assert d.gens == _doubled_by_blocks(compile_rep(Signature(p, q)))
    # generator order: v+ first, then v- and the old generator diag(i, -i)
    d = compile_rep(Signature(1, 2))
    assert d.gens == (((G0, G1), (G1, G0)), ((G0, -G1), (G1, G0)), ((GI, G0), (G0, -GI)))


def test_compile_proves_each_model_it_caches_once(monkeypatch):
    # the base case and the doublings are unchecked steps: one verify() per
    # model the compile adds to the cache, none per step under it
    calls, verify = [], Representation.verify
    monkeypatch.setattr(Representation, "verify", lambda r: calls.append(r.sig) or verify(r))
    monkeypatch.setattr(reprs, "_COMPILE_CACHE", {})
    for sig in [Signature(p, n - p) for n in range(9) for p in range(n + 1)]:
        compile_rep(sig)
    assert len(calls) == 45 and sorted(calls) == sorted(reprs._COMPILE_CACHE)
    monkeypatch.setattr(reprs, "_COMPILE_CACHE", {})
    calls.clear()
    compile_rep(Signature(18, 0))
    assert calls == [Signature(9, 9), Signature(5, 13), Signature(1, 17), Signature(18, 0)]


def test_a_corrupted_doubling_is_refused(monkeypatch):
    # every sign of the Kronecker step dropped: v- (x) 1 squares to +1 where
    # the negative generator of (2,1) needs -1
    monkeypatch.setattr(reprs, "_COMPILE_CACHE", {})
    kron = reprs._kron
    monkeypatch.setattr(reprs, "_kron", lambda x, a, m: (kron(x, a, m)[0], (0,) * (len(a[0]) * 2)))
    with pytest.raises(AssertionError, match=re.escape("doubled model of (2,1) failed verification")):
        compile_rep(Signature(2, 1))


def test_signature_shift_flip():
    sig = Signature(3, 1)
    new_sig, gen_map = signature_shift(sig, "flip")
    assert new_sig == Signature(2, 2)
    assert len(gen_map) == 4
    # substituted generators satisfy the shifted relations in the old algebra
    for i, w in enumerate(gen_map, start=1):
        sq = (w * w).scalar_part()
        assert sq == new_sig.square(i)
    for i in range(4):
        for j in range(i + 1, 4):
            assert gen_map[i] * gen_map[j] + gen_map[j] * gen_map[i] == gen_map[i] * 0


def test_signature_shift_mod4():
    sig = Signature(4, 0)
    new_sig, gen_map = signature_shift(sig, "mod4")
    assert new_sig == Signature(0, 4)
    for i, w in enumerate(gen_map, start=1):
        assert (w * w).scalar_part() == new_sig.square(i)
    with pytest.raises(ValueError):
        signature_shift(Signature(2, 2), "mod4")
    with pytest.raises(ValueError):
        signature_shift(Signature(0, 2), "flip")


def _shift_by_products(sig, kind):
    """The substitutions of ``signature_shift``'s docstring, multiplied out."""
    p, n = sig.p, sig.n
    v = [None] + [basis_vector(sig, i) for i in range(1, n + 1)]
    if kind == "flip":
        return [v[1]] + [v[1] * v[i] for i in (*range(p + 1, n + 1), *range(2, p + 1))]
    triples = [v[2] * v[3] * v[4], v[1] * v[3] * v[4], v[1] * v[2] * v[4], v[1] * v[2] * v[3]]
    return v[5:p + 1] + triples + v[p + 1:]


def test_signature_shift_is_the_blade_plan_that_compile_reads():
    # compile_rep substitutes rho(e_b) for each blade b of the plan, with
    # sign +1; signature_shift is that plan as multivectors, and each is the
    # product it names
    for n in range(13):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for kind in [k for k, ok in (("flip", p >= 1 and n >= 2), ("mod4", p >= 4)) if ok]:
                new_sig, blades = reprs._shift_plan(sig, kind)
                shifted_sig, gen_map = signature_shift(sig, kind)
                assert shifted_sig == new_sig
                assert gen_map == [Multivector.real(sig, {b: 1}) for b in blades]
                assert gen_map == _shift_by_products(sig, kind)
                assert new_sig == (Signature(n - p + 1, p - 1) if kind == "flip"
                                   else Signature(p - 4, n - p + 4))


def test_a_target_other_than_the_classified_one_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(reprs, "_COMPILE_CACHE", {})
    monkeypatch.setattr(reprs, "classify", lambda sig: TargetRing("MatC", 1))
    with pytest.raises(AssertionError, match=re.escape("compiled target Mat(2,R) != classified Mat(1,C)")):
        compile_rep(Signature(1, 1))


@pytest.mark.parametrize("sig, what", [
    ((0, 0), "base model of (0,0)"),
    ((2, 1), "doubled model of (2,1)"),
    ((3, 0), "flip-shifted model of (3,0)"),
    ((0, 4), "mod4-shifted model of (0,4)"),
], ids=str)
def test_a_model_that_fails_verification_is_refused(monkeypatch, sig, what):
    # every compiled model returns through _checked: one whose verify()
    # fails is an internal error, not a model
    monkeypatch.setattr(reprs, "_COMPILE_CACHE", {})
    sig, verify = Signature(*sig), Representation.verify
    monkeypatch.setattr(Representation, "verify", lambda r: r.sig != sig and verify(r))
    with pytest.raises(AssertionError, match=re.escape(f"{what} failed verification")):
        compile_rep(sig)


def test_complex_models_hermitian():
    # odd n has the direct-sum target Mat(2^k, C) + Mat(2^k, C), k = n // 2
    for n in (0, 1, 2, 3, 4, 5, 7):
        rep = compile_complex_rep(n)
        assert rep.target == TargetRing("MatC", 1 << (n // 2), summands=1 + n % 2)
        assert rep.verify()
        for g in rep.gens:
            for block in g if n % 2 else (g,):
                m = len(block)
                assert all(block[i][j] == block[j][i].conjugate()
                           for i in range(m) for j in range(m))
    with pytest.raises(ValueError):
        compile_complex_rep(-1)


def _matadd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def test_quaternion_block_embedding_is_homomorphism():
    x = Q(1, 2, -3, Fraction(1, 2))
    y = Q(0, -1, 1, 4)
    bx, by = quaternion_to_complex_block(x), quaternion_to_complex_block(y)
    assert bareiss_oracle.mat_eq(quaternion_to_complex_block(x * y), bareiss_oracle.matmul(bx, by))
    assert bareiss_oracle.mat_eq(quaternion_to_complex_block(x + y), _matadd(bx, by))


def test_cl13_complexified_equivalent_to_dirac():
    # gamma0 = diag(1, 1, -1, -1), gamma_j = [[0, -sigma_j], [sigma_j, 0]]
    s1 = ((G0, G1), (G1, G0))
    s2 = ((G0, -GI), (GI, G0))
    s3 = ((G1, G0), (G0, -G1))

    def gamma(s):
        rows = [(G0, G0) + tuple(-x for x in s[0]), (G0, G0) + tuple(-x for x in s[1])]
        rows += [tuple(s[0]) + (G0, G0), tuple(s[1]) + (G0, G0)]
        return tuple(rows)

    gamma0 = (
        (G1, G0, G0, G0), (G0, G1, G0, G0), (G0, G0, -G1, G0), (G0, G0, G0, -G1),
    )
    dirac = [gamma0, gamma(s1), gamma(s2), gamma(s3)]
    cx = quaternion_complexify(compile_rep(Signature(1, 3)))
    assert cx.target == TargetRing("MatC", 4)
    inter = rep_equivalence(cx, Representation(Signature(1, 3), None, cx.target, dirac))
    assert inter is not None
    for a, b in zip(cx.gens, dirac):
        lhs = bareiss_oracle.matmul(bareiss_oracle.matmul(inter.matrix, a), inter.inverse)
        assert bareiss_oracle.mat_eq(lhs, b)


def test_real_irrep_dims():
    assert real_irrep_dim(Signature(1, 3)) == 8
    assert real_irrep_dim(Signature(3, 1)) == 4
    assert real_irrep_dim(Signature(2, 0)) == 2
    assert real_irrep_dim(Signature(0, 3)) == 4


def test_even_subring_derived_signatures():
    cases = {
        Signature(1, 1): Signature(1, 0),
        Signature(2, 0): Signature(0, 1),
        Signature(4, 0): Signature(0, 3),
        Signature(1, 3): Signature(3, 0),
        Signature(0, 2): Signature(0, 1),
        Signature(0, 4): Signature(0, 3),
    }
    for sig, want in cases.items():
        derived, gen_map, rep = even_subring_rep(sig)
        assert derived == want
        assert rep.verify()
        assert len(gen_map) == sig.n - 1
        # every substituted generator is an even element of the ambient algebra
        for w in gen_map:
            assert all(b.bit_count() == 2 for b in w.terms)


def test_an_even_subring_model_that_fails_verification_is_an_internal_error(monkeypatch):
    # the image of w = v1 v2 = e12 with the unit of its first row negated:
    # sigma1 sigma3 = [[0, -1], [1, 0]] becomes sigma1, which squares to +1
    # where the derived signature (0,1) needs -1
    blade = Representation._blade

    def corrupted(self, b):
        perm, codes = blade(self, b)
        return (perm, (codes[0] ^ 1,) + codes[1:]) if b == 0b11 else (perm, codes)

    monkeypatch.setattr(Representation, "_blade", corrupted)
    with pytest.raises(AssertionError, match=re.escape("even subring model of (2,0) failed verification")):
        even_subring_rep(Signature(2, 0))


def test_even_subring_matches_the_product_oracle():
    # the squares the signature gives, against w = v1 vi multiplied out
    for n in range(2, 9):
        for q in range(n + 1):
            sig = Signature(n - q, q)
            derived, gen_map, rep = even_subring_rep(sig)
            v1 = basis_vector(sig, 1)
            ws = [v1 * basis_vector(sig, i) for i in range(2, n + 1)]
            squares = [(w * w).scalar_part() for w in ws]
            assert derived == Signature(squares.count(1), squares.count(-1))
            assert gen_map == [w for w, sq in zip(ws, squares) if sq == 1] + \
                [w for w, sq in zip(ws, squares) if sq == -1]
            for i, w in enumerate(gen_map, start=1):
                assert (w * w).scalar_part() == derived.square(i)
            assert rep.sig == derived and rep.target == compile_rep(sig).target


def test_a_factor_that_breaks_the_relations_is_an_internal_error():
    # factor_projections slices a model it does not verify: with the unit of
    # the first generator in the second summand of Mat(1,H) + Mat(1,H) read
    # as 1, that factor's generator squares to +1 where Cl(0,3) needs -1
    rep = compile_rep(Signature(0, 3))
    (perm, codes), *rest = rep._monos
    bad = Representation._from_monos(rep.sig, None, rep.target, [(perm, codes[:1] + (0,)), *rest])
    with pytest.raises(AssertionError, match="factor 1 breaks the anticommutation relations"):
        factor_projections(bad)


def test_factor_projections_inequivalent():
    rep = compile_rep(Signature(0, 3))
    f1, f2 = factor_projections(rep)
    assert f1.target == TargetRing("MatH", 1)
    # the two factors differ by the grade involution and are not equivalent
    assert rep_equivalence(f1, f2) is None
    assert rep_equivalence(f1, f1) is not None
    with pytest.raises(ValueError):
        factor_projections(compile_rep(Signature(2, 0)))
    with pytest.raises(ValueError):
        rep_equivalence(rep, rep)


def test_rho_rejects_elements_of_another_algebra():
    real, cx = compile_rep(Signature(2, 1)), compile_complex_rep(3)
    for rep, mv in [(real, Multivector.complex_alg(3, {1: 1})),
                    (real, Multivector.real(Signature(1, 2), {1: 1})),
                    (cx, Multivector.real(Signature(2, 1), {1: 1})),
                    (cx, Multivector.complex_alg(2, {1: 1}))]:
        with pytest.raises(ValueError, match="source algebra"):
            intertwine.rho(rep, mv)
        with pytest.raises(ValueError, match="source algebra"):
            intertwine.ranks(rep, mv)


def _all_models():
    """Every compiled model with p + q <= 10, then C(0) ... C(10)."""
    reps = [compile_rep(Signature(p, n - p)) for n in range(11) for p in range(n + 1)]
    return reps + [compile_complex_rep(n) for n in range(11)]


def test_rep_to_json_matches_dense_oracle():
    # byte for byte the text of the document formatted entry by entry from
    # rho(e_i), as json.dumps lays it out
    for rep in _all_models():
        want = json.dumps(dense_model_oracle.json_by_dense_gens(rep), indent=2, sort_keys=True)
        assert "".join(rep_to_json(rep)) == want, (rep.sig, rep.complex_dim)


def _entry(ring_tag, x):
    """A ring element from its JSON form: a string, or a quaternion's four."""
    return Quaternion(*map(parse_rational, x)) if isinstance(x, list) else parse_scalar(ring_tag, x)


def test_rep_json_roundtrip():
    # every compiled model with p + q <= 6 and C(0) ... C(6), through JSON
    # text and the public constructor, has the cached model's generators
    reps = [compile_rep(Signature(p, n - p)) for n in range(7) for p in range(n + 1)]
    for rep in reps + [compile_complex_rep(n) for n in range(7)]:
        doc = json.loads("".join(rep_to_json(rep)))
        target = TargetRing(**doc["target"])
        tag = target.ring_tag

        def matrix(rows):
            return [[_entry(tag, x) for x in row] for row in rows]

        gens = [tuple(matrix(b) for b in g) if target.summands == 2 else matrix(g)
                for g in doc["generators"]]
        sig = Signature(*doc["signature"]) if "signature" in doc else None
        back = Representation(sig, doc.get("complex_dim"), target, gens)
        assert (back.sig, back.complex_dim, back.target) == (rep.sig, rep.complex_dim, rep.target)
        assert back._monos == rep._monos and back.gens == rep.gens, (rep.sig, rep.complex_dim)


def test_gens_match_rho_of_the_generators():
    for rep in _all_models():
        assert list(rep.gens) == dense_model_oracle.dense_gens(rep), (rep.sig, rep.complex_dim)


def test_factor_projections_match_dense_slices():
    # every direct-sum model with n <= 10, real and complex sources
    count = 0
    for rep in _all_models():
        if rep.target.summands != 2:
            continue
        count += 1
        for got, want in zip(factor_projections(rep), dense_model_oracle.factors_by_slicing(rep)):
            assert (got.sig, got.complex_dim, got.target) == (want.sig, want.complex_dim,
                                                             want.target)
            assert got._monos == want._monos and got.gens == want.gens
    assert count == 20


def test_quaternion_complexify_matches_dense_adjoint():
    # every model with n <= 10 onto a single Mat(m, H)
    count = 0
    for rep in _all_models():
        if rep.target.kind != "MatH" or rep.target.summands != 1:
            continue
        count += 1
        got, want = quaternion_complexify(rep), dense_model_oracle.complexify_by_adjoint(rep)
        assert (got.sig, got.target) == (want.sig, want.target)
        assert got._monos == want._monos and got.gens == want.gens
        assert got.verify()
    assert count == 17


def test_unit_code_table_matches_quaternion_products():
    from cliffkit.reprs import _Q8, _UNIT_MUL

    assert all(_Q8[_UNIT_MUL[a][b]] == _Q8[a] * _Q8[b] for a in range(8) for b in range(8))


def _model_digest_text(rep):
    return json.dumps(json.loads("".join(rep_to_json(rep))), sort_keys=True).encode()


def test_compiled_models_golden_digest():
    # sha256 over the JSON of every model with p + q <= 8, then of the
    # complex models n = 2, 4, 6, 8: pins every generator entry
    h = hashlib.sha256()
    for n in range(9):
        for p in range(n + 1):
            h.update(_model_digest_text(compile_rep(Signature(p, n - p))))
    for n in (2, 4, 6, 8):
        h.update(_model_digest_text(compile_complex_rep(n)))
    assert h.hexdigest() == "d352364ef07b11afc9c308a9a8030577b289dac9bf6f5a347085649d83bbbf63"


@pytest.mark.parametrize("source", [Signature(0, 3), Signature(1, 3), Signature(3, 2), 4], ids=str)
def test_blade_images_match_dense_products(source):
    rep = compile_complex_rep(source) if isinstance(source, int) else compile_rep(source)

    def mul(x, y):
        if rep.target.summands == 2:
            return (bareiss_oracle.matmul(x[0], y[0]), bareiss_oracle.matmul(x[1], y[1]))
        return bareiss_oracle.matmul(x, y)

    for b in range(1, 1 << rep.n):
        want = None
        for i in range(rep.n):
            if b >> i & 1:
                want = rep.gens[i] if want is None else mul(want, rep.gens[i])
        assert dense_model_oracle.blade_image(rep, b) == want


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_complex_blade_images_are_traceless(n):
    # intertwine.preimage rests on tr rho(e_b) = 0 for b != 0
    rep = compile_complex_rep(n)
    m = rep.target.m
    for b in range(1, 1 << n):
        img = dense_model_oracle.blade_image(rep, b)
        assert sum((img[i][i] for i in range(m)), G0) == G0


@pytest.mark.parametrize("source", [Signature(2, 1), Signature(1, 3), Signature(0, 3),
                                    Signature(3, 1), 4], ids=str)
def test_invertible_matches_algebra_invert(source):
    # targets R + R, Mat(2, H), H + H, Mat(4, R) and Mat(4, C); the elements 1 + e_b
    # and e_b + e_c include zero divisors such as (1 + e_b) with e_b^2 = 1.
    # Invertibility is decided by the dense left regular inverse.
    if isinstance(source, int):
        rep = compile_complex_rep(source)

        def mv(terms):
            return Multivector.complex_alg(source, {b: G1 for b in terms})
    else:
        rep = compile_rep(source)

        def mv(terms):
            return Multivector.real(source, {b: F1 for b in terms})
    size = 1 << rep.n
    seen = set()
    for b in range(1, size):
        for x in (mv([0, b]), mv([b, (3 * b + 1) % size])):
            invertible = dense_inverse(x) is not None
            seen.add(invertible)
            assert intertwine.invertible(rep, x) == invertible
    assert seen == {True, False}


# R + R, Mat(2, R), C, H, Mat(2, R) + Mat(2, R), H + H, Mat(2, C), Mat(2, H),
# Mat(4, R) from real sources; Mat(2, C), Mat(2, C) + Mat(2, C), Mat(4, C)
_RANK_SOURCES = (Signature(1, 0), Signature(2, 0), Signature(0, 1), Signature(0, 2),
                 Signature(2, 1), Signature(0, 3), Signature(3, 0), Signature(1, 3),
                 Signature(3, 1), 2, 3, 4)


@st.composite
def _source_elements(draw):
    """(rep, x): x a small element, times a zero divisor 1 + e_b (e_b^2 = 1)
    half of the time, so singular elements are drawn as often as regular
    ones; H has no such e_b, and only x = 0 is singular there."""
    source = draw(st.sampled_from(_RANK_SOURCES))
    if isinstance(source, int):
        rep = compile_complex_rep(source)
        coeff = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))

        def mv(terms):
            return Multivector.complex_alg(source, terms)
    else:
        rep = compile_rep(source)
        coeff = st.fractions(-2, 2, max_denominator=3)

        def mv(terms):
            return Multivector.real(source, terms)
    size = 1 << rep.n
    x = mv(draw(st.dictionaries(st.integers(0, size - 1), coeff, max_size=4)))
    square_one = [b for b in range(1, size) if mv({b: 1}) * mv({b: 1}) == mv({0: 1})]
    if square_one and draw(st.booleans()):
        x = x * mv({0: 1, draw(st.sampled_from(square_one)): 1})
    return rep, x


@settings(max_examples=150, deadline=None)
@given(_source_elements())
def test_invertible_matches_dense_rank(case):
    # the integer numerator blocks of rho(x) rank like the dense image, a
    # quaternion block through chi, and invertible means full rank in each
    rep, x = case
    img = intertwine.rho(rep, x)
    blocks = img if rep.target.summands == 2 else (img,)
    if rep.target.ring_tag == QUATERNION:
        want = [bareiss_oracle.rank(bareiss_oracle.complex_adjoint(block)) // 2 for block in blocks]
    else:
        want = [bareiss_oracle.rank(block) for block in blocks]
    assert intertwine.ranks(rep, x) == want
    assert intertwine.invertible(rep, x) == all(r == rep.target.m for r in want)


@pytest.mark.parametrize("entries", [
    [[1, 1], [1, -1]],  # two entries in a row
    [[0, 2], [2, 0]],  # entries are not units
    [[1, 0], [1, 0]],  # repeated column
    [[1, 0, 0], [0, 1, 0]],  # wrong shape
])
def test_representation_rejects_non_monomial(entries):
    # the public constructor is where dense generator images enter
    rep = compile_rep(Signature(2, 0))
    gen = [[Fraction(x) for x in row] for row in entries]
    with pytest.raises(ValueError, match="monomial with unit entries|is not an 2x2 matrix"):
        Representation(rep.sig, None, rep.target, [gen, rep.gens[1]])
    assert Representation(rep.sig, None, rep.target, rep.gens).verify()


def test_target_ring_json_form():
    targets = {classify(Signature(p, n - p)) for n in range(9) for p in range(n + 1)}
    assert len(targets) > 10
    for t in targets:
        doc = t.to_json()
        assert list(doc) == (["kind", "m", "summands"] if t.summands == 2 else ["kind", "m"])
        assert TargetRing(**doc) == t
    for bad in [("MatR", True), ("MatR", 2, True), ("MatR", 2.0), ("MatR", "2"), (["MatR"], 2), ("MatR", 0)]:
        with pytest.raises(ValueError):
            TargetRing(*bad)


def test_relations_and_injectivity_failures_are_caught():
    # Cl(1,0) -> R + R with e1 -> (1, 1): the relation holds, but the images
    # of 1 and e1 coincide
    rep = Representation(Signature(1, 0), None, TargetRing("MatR", 1, summands=2),
                         [(((F1,),), ((F1,),))])
    assert rep.check_relations()
    assert not rep.check_injective()
    assert not rep.verify()
    # sigma1 twice: squares hold, anticommutation fails
    s1 = ((F0, F1), (F1, F0))
    rep = Representation(Signature(2, 0), None, TargetRing("MatR", 2), [s1, s1])
    assert not rep.check_relations()
    assert not rep.verify()
    # sigma1 for a negative generator: wrong square
    rep = Representation(Signature(0, 1), None, TargetRing("MatR", 2), [s1])
    assert not rep.verify()


def _pauli_model():
    """C(3) -> Mat(2, C) by the Pauli matrices: the relations hold, but
    rho(e1 e2 e3) = i I, so rho(e1 e2 e3 - i) = 0."""
    s1 = ((G0, G1), (G1, G0))
    s2 = ((G0, -GI), (GI, G0))
    s3 = ((G1, G0), (G0, -G1))
    return Representation(None, 3, TargetRing("MatC", 2), [s1, s2, s3])


def test_pauli_model_of_c3_is_not_injective():
    # Re tr rho(e_C) = 0 for every C != 0, so only the imaginary part of
    # tr rho(e1 e2 e3) = 2i shows that the complex source collapses
    rep = _pauli_model()
    assert rep.check_relations()
    kernel = Multivector.complex_alg(3, {0b111: G1, 0: -GI})
    assert all(x == G0 for row in intertwine.rho(rep, kernel) for x in row)
    assert not rep.check_injective()
    assert not rep.verify()
    assert intertwine.preimage(rep, intertwine.rho(rep, Multivector.complex_alg(3, {0: G1}))) is None


def test_preimage_checks_the_image():
    # one factor of Cl(1,0) -> R + R sends both 1 and e1 to 1: the trace
    # formula reads (2) as 2 + 2 e1, whose image is (4)
    rep = compile_rep(Signature(1, 0))
    low, _high = factor_projections(rep)
    assert intertwine.preimage(low, ((F1 * 2,),)) is None
    two = Multivector.real(Signature(1, 0), {0: 2})
    assert intertwine.preimage(rep, intertwine.rho(rep, two)) == two
    # outside input of the wrong shape: one block for a direct sum, and a
    # 1 x 1 or 3 x 3 matrix on the Mat(2, R) model of Cl(2,0)
    with pytest.raises(ValueError, match="a pair of 1x1 matrices"):
        intertwine.preimage(rep, ((F1 * 2,),))
    cl20 = compile_rep(Signature(2, 0))
    for bad in (((F1,),), tuple(tuple(F1 * (i == j) for j in range(3)) for i in range(3))):
        with pytest.raises(ValueError, match="a 2x2 matrix"):
            intertwine.preimage(cl20, bad)


def _direct_sum_models():
    """The compiled models with n <= 10 onto Mat(m, K) + Mat(m, K)."""
    sigs = [Signature(p, n - p) for n in range(11) for p in range(n + 1)]
    return [compile_rep(sig) for sig in sigs if classify(sig).summands == 2]


def _first_factor_repeated(rep):
    """A direct-sum model with its first factor in both summands."""
    return Representation(rep.sig, None, rep.target, [(g[0], g[0]) for g in rep.gens])


def _trace_form_cases():
    """Compiled models with n <= 10 and C(0) ... C(10), then models that
    satisfy the relations but are not injective: Cl(1,0) -> R with e1 -> 1,
    Cl(1,0) -> R + R with e1 -> (1, 1), each factor of every direct-sum
    model with n <= 10 and every direct-sum model with its first factor
    repeated (omega -> +-(I, I)); the oversized but injective
    complexified Cl(1,3) model; and the Pauli model of C(3)."""
    cases = [compile_rep(Signature(p, n - p)) for n in range(11) for p in range(n + 1)]
    cases += [compile_complex_rep(n) for n in range(11)]
    cases.append(Representation(Signature(1, 0), None, TargetRing("MatR", 1), [((F1,),)]))
    cases.append(Representation(Signature(1, 0), None, TargetRing("MatR", 1, summands=2),
                                [(((F1,),), ((F1,),))]))
    for rep in _direct_sum_models():
        cases += factor_projections(rep)
        cases.append(_first_factor_repeated(rep))
    cases.append(quaternion_complexify(compile_rep(Signature(1, 3))))
    cases.append(_pauli_model())
    return cases


def test_trace_form_matches_rank_oracle():
    verdicts = []
    for rep in _trace_form_cases():
        assert rep.check_relations()
        verdicts.append(rep.check_injective())
        assert verdicts[-1] == blades_independent(rep), (rep.sig, rep.complex_dim, rep.target)
    # 66 real and 11 complex models and the complexified one; 2 + 3 * 15
    # mutated ones from the 15 signatures with n <= 10 and p - q = 1 or 5 mod 8,
    # and the Pauli model
    assert verdicts.count(True) == 78 and verdicts.count(False) == 48


def test_blades_other_than_one_and_omega_are_traceless():
    # what the relations alone prove: e_C with C != 0, omega anticommutes
    # with some e_i, so tr rho(e_C) = 0.  On an H target only the real part
    # is invariant under conjugation: Cl(0,2) -> H has tr rho(e1) = t1
    for rep in _trace_form_cases():
        for c in range(1, (1 << rep.n) - 1):
            perm, codes = rep._blade(c)
            fixed = [0] * 8
            for i, j in enumerate(perm):
                if i == j:
                    fixed[codes[i]] += 1
            assert fixed[0] == fixed[1], (rep.sig, rep.complex_dim, rep.target, c)
            if rep.target.kind != "MatH":
                assert fixed[2] == fixed[3], (rep.sig, rep.complex_dim, rep.target, c)


def test_models_that_fail_only_at_omega_are_caught():
    # each direct-sum model with its first factor repeated satisfies the
    # relations and sends omega to +-(I, I), so only tr rho(omega) shows the
    # collapse; Signature(1, 0) gives the Cl(1,0) -> R + R model e1 -> (1, 1)
    mutants = [_first_factor_repeated(rep) for rep in _direct_sum_models()]
    assert len(mutants) == 15
    assert mutants[0].sig == Signature(1, 0) and mutants[0].gens == ((((F1,),), ((F1,),)),)
    for rep in mutants:
        perm, codes = rep._blade((1 << rep.n) - 1)
        assert perm == tuple(range(len(perm))) and len(set(codes)) == 1 and codes[0] < 2
        assert rep.check_relations()
        assert not rep.check_injective()
        assert not rep.verify()


def test_compiled_models_are_immutable():
    rep = compile_rep(Signature(1, 3))
    for name in ("sig", "target", "gens", "verified"):
        with pytest.raises(AttributeError):
            setattr(rep, name, None)
    assert compile_rep(Signature(1, 3)) is rep and rep.verify()


def test_complex_model_is_cached():
    assert compile_complex_rep(4) is compile_complex_rep(4)


def _rho_by_products(rep, mv):
    # the multiplying form: c * unit for every entry of every blade image
    units = reprs._RING_UNITS[rep.target.ring_tag]
    m = rep.target.m
    rows = [[ZERO[rep.target.ring_tag]] * m for _ in range(rep.target.summands * m)]
    for b, c in mv.terms.items():
        for i, (j, u) in enumerate(zip(*rep._blade(b))):
            rows[i][j % m] = rows[i][j % m] + c * units[u]
    rows = tuple(map(tuple, rows))
    return (rows[:m], rows[m:]) if rep.target.summands == 2 else rows


@pytest.mark.parametrize(
    "space",
    [Signature(2, 0), Signature(1, 0), Signature(2, 1), Signature(0, 1), Signature(1, 2),
     Signature(0, 2), Signature(0, 3), Signature(4, 0), Signature(3, 3), 3, 4],
    ids=str,
)
def test_rho_matches_multiplying_form(space):
    # R, R + R, C, H and H + H targets from real sources, and C targets from
    # complex ones: same entries, same types
    rng = random.Random(37)
    rep = compile_complex_rep(space) if isinstance(space, int) else compile_rep(space)
    n = rep.n
    for _ in range(6):
        terms = {}
        for _ in range(rng.randint(0, 1 << n)):
            c = rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
            if isinstance(space, int) and rng.random() < 0.7:
                c = GaussianRational(c, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            terms[rng.randrange(1 << n)] = c
        if isinstance(space, int):
            mv = Multivector.complex_alg(space, terms)
        else:
            mv = Multivector.real(space, terms)
        got, want = intertwine.rho(rep, mv), _rho_by_products(rep, mv)
        assert got == want
        blocks = (got, want) if rep.target.summands == 1 else (*got, *want)
        assert {type(x) for block in blocks for row in block for x in row} == {
            type(ZERO[rep.target.ring_tag])}



def _conjugate_by_monomial(rep, perm, units):
    """rep conjugated by the monomial matrix P with the unit units[i] at
    (i, perm[i]): P A P^-1 for each generator A, by the dense products,
    with P^-1 the conjugate transpose of P."""
    m = rep.target.m
    P = tuple(tuple(units[i] if j == perm[i] else units[i] * 0 for j in range(m)) for i in range(m))
    PH = tuple(tuple(P[j][i].conjugate() for j in range(m)) for i in range(m))
    return Representation(rep.sig, rep.complex_dim, rep.target,
                          [bareiss_oracle.matmul(bareiss_oracle.matmul(P, g), PH) for g in rep.gens])


def _monomial_conjugate(rep, rng):
    """rep conjugated by a seeded monomial matrix whose units are signed on
    R, Gaussian on C and Q8 units on H."""
    m = rep.target.m
    units = reprs._RING_UNITS[rep.target.ring_tag]
    return _conjugate_by_monomial(rep, rng.sample(range(m), m), [rng.choice(units) for _ in range(m)])


def _intertwiner_cases():
    """(rep1, rep2) for every model with n <= 4 on an R or C target, real
    and complex sources: the model against itself, against its conjugate
    by a seeded monomial matrix and, for a direct sum, each factor against
    the other; then the spinor left actions at n = 4, 6 against the column
    model, whose L_i are monomial."""
    reps = [compile_rep(Signature(p, n - p)) for n in range(5) for p in range(n + 1)]
    reps += [compile_complex_rep(n) for n in range(5)]
    rng = random.Random(3)
    cases = []
    for rep in reps:
        t = rep.target
        if t.kind == "MatH" or rep.n == 0:
            continue
        factors = factor_projections(rep) if t.summands == 2 else [rep]
        cases += [(factors[0], factors[0]), (factors[0], _monomial_conjugate(factors[0], rng)),
                  (factors[-1], factors[0])]
    for n in (4, 6):
        model = spinor_matrix_model(left_ideal(primitive_idempotent(n)))
        cases.append((Representation(None, n, model.rep.target, model.left_action), model.rep))
    return cases


def test_intertwiner_system_matches_field_oracle():
    cases = _intertwiner_cases()
    nontrivial = 0
    for rep1, rep2 in cases:
        m, ring = rep1.target.m, rep1.target.ring_tag
        free, combine = intertwine._intertwiner_space(rep1._monos, rep2._monos, m, ring)
        rows = dense_model_oracle.field_intertwiner_rows(rep1.gens, rep2.gens, m, ring)
        basis = bareiss_oracle.nullspace(rows)
        assert len(free) == len(basis)
        for c, want in zip(free, basis):
            s = linalg.dense_matrix(*combine([(1, c)]), ring)
            assert s == tuple(tuple(want[i * m:(i + 1) * m]) for i in range(m))
            assert all(bareiss_oracle.mat_eq(bareiss_oracle.matmul(s, a), bareiss_oracle.matmul(b, s))
                       for a, b in zip(rep1.gens, rep2.gens))
        assert rep_equivalence(rep1, rep2) == dense_model_oracle.solve_intertwiner(
            rep1.gens, rep2.gens, m, ring)
        nontrivial += bool(basis)
    # only the factors of R + R over Cl(1,0), Cl(2,1) and of C(1), C(3)
    # are inequivalent
    assert nontrivial == len(cases) - 4


def _flat_coordinates(s, ring):
    """The flat coordinates of a dense S as the kernel numbers them: its
    entries row by row, each as its 1, t1, t2, t3 parts on H."""
    return [x for row in s for e in row for x in (e.coords() if ring == QUATERNION else (e,))]


def _walk_cases():
    """(monos1, monos2, m, ring, free column count) on R, C and H targets:
    self-equivalences (one free column), three models against a seeded
    monomial conjugate (one, with a unit other than 1 at the free column),
    both factors of three direct sums against themselves (one) and against
    each other (none), and systems with a forced inconsistent cycle, one
    unit negated in one row (none)."""
    def model(space):
        return compile_complex_rep(space) if isinstance(space, int) else compile_rep(space)

    cases = []
    for space in (Signature(3, 3), Signature(0, 6), 8, Signature(5, 5), Signature(2, 6), 10):
        rep = model(space)
        cases.append((rep._monos, rep._monos, rep.target.m, rep.target.ring_tag, 1))
    rng = random.Random(7)
    for space in (Signature(3, 3), 8, Signature(2, 6)):
        rep = model(space)
        other = _monomial_conjugate(rep, rng)
        cases.append((rep._monos, other._monos, rep.target.m, rep.target.ring_tag, 1))
    for sig in (Signature(0, 3), Signature(0, 7), Signature(4, 3)):
        factors = factor_projections(compile_rep(sig))
        cases += [(f1._monos, f2._monos, f1.target.m, f1.target.ring_tag, int(f1 is f2))
                  for f1 in factors for f2 in factors]
    for space in (Signature(3, 3), 8, Signature(2, 6)):
        rep = model(space)
        m = rep.target.m
        for g, (perm, codes) in enumerate(rep._monos):
            row = g % m
            negated = (perm, codes[:row] + (codes[row] ^ 1,) + codes[row + 1:])
            monos2 = rep._monos[:g] + (negated,) + rep._monos[g + 1:]
            cases.append((rep._monos, monos2, m, rep.target.ring_tag, 0))
    return cases


def test_intertwiner_walk_matches_the_kernel():
    # the walk's free columns and basis vectors, read as rationals, are the
    # one elimination kernel's on the two-entry rows of the same system
    for monos1, monos2, m, ring, n_free in _walk_cases():
        k = 4 if ring == QUATERNION else 1
        rows = dense_model_oracle.monomial_intertwiner_rows(monos1, monos2, m, ring)
        want_free, point = linalg.nullspace_numerators(rows, k * m * m)
        free, combine = intertwine._intertwiner_space(monos1, monos2, m, ring)
        assert free == want_free and len(free) == n_free
        field = GaussianRational if ring == GAUSSIAN else Fraction
        for c in free:
            s = linalg.dense_matrix(*combine([(1, c)]), ring)
            assert _flat_coordinates(s, ring) == bareiss_oracle.dense_row(
                *point([(1, c)]), field, k * m * m)
        if not free:
            assert intertwine.solve_intertwiner(monos1, monos2, m, ring) is None


@pytest.mark.parametrize("source", [Signature(3, 3), 8, Signature(2, 6)], ids=str)
def test_rep_equivalence_eliminates_only_the_points_it_inverts(monkeypatch, source):
    # on an R, a C and an H model the intertwiner solve runs the one kernel
    # only on the [S | I] systems of the points whose inverse it tries: each
    # inverse_numerators call eliminates once, and nothing else does
    echelon, inverse = linalg.echelon_numerators, linalg.inverse_numerators
    calls = {"echelon": 0, "inverse": 0}

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(linalg, "echelon_numerators", counted("echelon", echelon))
    monkeypatch.setattr(linalg, "inverse_numerators", counted("inverse", inverse))
    rep = compile_complex_rep(source) if isinstance(source, int) else compile_rep(source)
    assert rep_equivalence(rep, rep) is not None
    assert calls["echelon"] == calls["inverse"] >= 1


@pytest.mark.parametrize("n", range(1, 11))
def test_models_are_equivalent_to_their_monomial_conjugates(n):
    # every compiled model with p + q = n and C(n), each factor of a direct
    # sum on its own, against its conjugate by a seeded monomial matrix: S
    # conjugates each generator onto the other by the dense products, and
    # the two factors of a direct sum are inequivalent
    rng = random.Random(n)
    for rep in [compile_rep(Signature(p, n - p)) for p in range(n + 1)] + [compile_complex_rep(n)]:
        factors = factor_projections(rep) if rep.target.summands == 2 else [rep]
        for f in factors:
            other = _monomial_conjugate(f, rng)
            inter = rep_equivalence(f, other)
            assert inter is not None and inter.ring_tag == f.target.ring_tag
            for a, b in zip(f.gens, other.gens):
                assert bareiss_oracle.matmul(bareiss_oracle.matmul(inter.matrix, a), inter.inverse) == b
        if len(factors) == 2:
            assert rep_equivalence(factors[0], factors[1]) is None
            assert rep_equivalence(factors[1], _monomial_conjugate(factors[0], rng)) is None


@pytest.mark.parametrize("source", [Signature(3, 1), 4, Signature(2, 4)], ids=str)
def test_intertwiner_check_failure_is_a_solver_fault(monkeypatch, source):
    # a system that leaves out the first generator's equations admits an S
    # that breaks S A_1 = B_1 S on an R, a C and an H target: the exact
    # check raises, and does not report the models inequivalent
    built = intertwine._intertwiner_space
    monkeypatch.setattr(intertwine, "_intertwiner_space",
                        lambda gens1, gens2, m, tag: built(gens1[1:], gens2[1:], m, tag))
    rep = compile_complex_rep(source) if isinstance(source, int) else compile_rep(source)
    with pytest.raises(AssertionError, match="fails S A_g = B_g S"):
        rep_equivalence(rep, _monomial_conjugate(rep, random.Random(0)))


# a fixed monomial quaternion matrix per m: row i holds units[i] in column
# perm[i], so its inverse is its conjugate transpose
_H_MONOMIALS = {
    2: ((1, 0), (Q(0, 1), Q(0, 0, -1))),
    4: ((2, 0, 3, 1), (Q(0, 1), Q(-1), Q(0, 0, 0, 1), Q(0, 0, -1))),
}
# sha256 over S and S^-1 of both cases, as picked by the solver
_H_INTERTWINER_DIGESTS = {
    "(1,3)": "fe54b8843570bb3838fcb20f72088e93095ec000b7cf3fc4ba09bc617de4ba3a",
    "(0,4)": "fe54b8843570bb3838fcb20f72088e93095ec000b7cf3fc4ba09bc617de4ba3a",
    "(2,4)": "1e83befd6be1c0d857edf842c83a85762453310ba23dc16c9c5556fa4a8c1cd3",
}


@pytest.mark.parametrize("sig", [Signature(1, 3), Signature(0, 4), Signature(2, 4)], ids=str)
def test_quaternion_intertwiners_at_larger_m(sig):
    # Mat(2, H) and Mat(4, H) models against themselves and against their
    # conjugate by a monomial quaternion matrix P with unit entries
    rep = compile_rep(sig)
    moved = _conjugate_by_monomial(rep, *_H_MONOMIALS[rep.target.m])
    h = hashlib.sha256()
    for other in (rep, moved):
        inter = rep_equivalence(rep, other)
        assert inter is not None and inter.ring_tag == QUATERNION
        for a, b in zip(rep.gens, other.gens):
            assert bareiss_oracle.matmul(bareiss_oracle.matmul(inter.matrix, a), inter.inverse) == b
        h.update(json.dumps([[[format_scalar(QUATERNION, x) for x in row] for row in mat]
                             for mat in (inter.matrix, inter.inverse)]).encode())
    assert h.hexdigest() == _H_INTERTWINER_DIGESTS[str(sig)]


# the blocks of 1, t1, t2, t3 under quaternion_to_complex_block
_UNIT_BLOCKS = (
    ((G1, G0), (G0, G1)),
    ((G0, -GI), (-GI, G0)),
    ((G0, -G1), (G1, G0)),
    ((-GI, G0), (G0, GI)),
)


def test_quaternion_block_is_sum_of_unit_blocks():
    # pins the embedding itself: a homomorphism twisted by an automorphism
    # of H would pass test_quaternion_block_embedding_is_homomorphism
    units = (Q(1), Q(0, 1), Q(0, 0, 1), Q(0, 0, 0, 1))
    for u, block in zip(units, _UNIT_BLOCKS):
        assert quaternion_to_complex_block(u) == block
    rng = random.Random(11)
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        got = quaternion_to_complex_block(Q(*coeffs))
        want = tuple(tuple(sum((c * blk[i][j] for c, blk in zip(coeffs, _UNIT_BLOCKS)), G0)
                           for j in range(2)) for i in range(2))
        assert got == want
        assert all(type(x) is GaussianRational for row in got for x in row)


@pytest.mark.parametrize(
    "space",
    [Signature(2, 0), Signature(1, 0), Signature(2, 1), Signature(0, 1), Signature(1, 2),
     Signature(0, 2), Signature(1, 3), Signature(0, 3), 3, 4],
    ids=str,
)
def test_dense_images_have_unit_and_zero_entries_of_the_ring(space):
    # R, R + R, C, H and H + H targets and C(n): every entry of gens and of
    # rho(e_b), zeros included, is a Fraction, GaussianRational or
    # Quaternion as the ring says, and equals the unit or zero the monomial
    # form holds there
    rep = compile_complex_rep(space) if isinstance(space, int) else compile_rep(space)
    t = rep.target
    kind = {RATIONAL: Fraction, GAUSSIAN: GaussianRational, QUATERNION: Quaternion}[t.ring_tag]
    units = reprs._RING_UNITS[t.ring_tag]

    def monomial_form(b):
        rows = [[kind(0)] * t.m for _ in range(t.summands * t.m)]
        for i, (j, code) in enumerate(zip(*rep._blade(b))):
            rows[i][j % t.m] = units[code]
        rows = tuple(tuple(row) for row in rows)
        return (rows[:t.m], rows[t.m:]) if t.summands == 2 else rows

    images = [(1 << i, g) for i, g in enumerate(rep.gens)]
    images += [(b, dense_model_oracle.blade_image(rep, b)) for b in range(1 << rep.n)]
    for b, img in images:
        assert img == monomial_form(b)
        blocks = img if t.summands == 2 else (img,)
        assert all(type(x) is kind for block in blocks for row in block for x in row)
