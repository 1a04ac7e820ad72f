"""Every public entry point rejects an argument outside its domain with the
documented exception and message, including the checks that no other test
reaches."""

import re
from fractions import Fraction

import pytest

from cliffkit.algebra import (
    Multivector,
    Signature,
    basis_vector,
    complex_basis_vector,
    complex_unit,
    complexify_embed,
    eta,
    unit,
    vector,
)
from cliffkit.cech import Complex, GroupCocycle, z2_betti
from cliffkit.groups import PseudoOrthogonalMatrix, Versor, reflection_matrix
from cliffkit.intertwine import (
    even_subring_rep,
    quaternion_complexify,
    rep_equivalence,
    signature_shift,
)
from cliffkit.reprs import Representation, TargetRing, compile_rep
from cliffkit.scalars import GaussianRational
from cliffkit.spinors import (
    find_conjugator,
    is_minimal,
    left_ideal,
    make_idempotent,
    primitive_idempotent,
    spin_block_check,
)

S20, S11, S13, S40 = Signature(2, 0), Signature(1, 1), Signature(1, 3), Signature(4, 0)
HALF = GaussianRational(Fraction(1, 2))


def _half_plus_e1(n):
    """(e + e1) / 2 in C(n), an idempotent for every n >= 1."""
    return (complex_unit(n) + complex_basis_vector(n, 1)) * HALF


def _one_edge_cocycle(matrix):
    """GroupCocycle.build on the single edge (0, 1) of Cl(2,0), with ``matrix``
    a matrix object or raw rows."""
    return GroupCocycle.build(Complex.build(2, [(0, 1)]), S20, {(0, 1): matrix})


def _tetrahedron_missing_a_face():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return Complex.build(4, edges, [(0, 1, 2), (0, 1, 3), (0, 2, 3)], [(0, 1, 2, 3)])


CASES = {
    # groups
    "versor-factor-signature": (lambda: Versor(S20, [basis_vector(S11, 1)]),
                                ValueError, "factor signature mismatch"),
    "versor-isotropic-factor": (lambda: Versor(S11, [vector(S11, [1, 1])]),
                                ValueError, "versor factors must be anisotropic vectors"),
    "versor-product-signature": (lambda: Versor(S20, []) * Versor(S11, []),
                                 ValueError, "signature mismatch"),
    "matrix-product-signature": (lambda: PseudoOrthogonalMatrix.identity(S20)
                                 * PseudoOrthogonalMatrix.identity(S11),
                                 ValueError, "signature mismatch"),
    "reflection-of-complex": (lambda: reflection_matrix(complex_basis_vector(2, 1)),
                              ValueError, "reflections are defined in the real algebra"),
    # raw rows take what from_json takes: ints, Fractions and rational strings
    "matrix-float-entry": (lambda: PseudoOrthogonalMatrix(S20, [[1.0, 0.0], [0.0, -1.0]]),
                           TypeError, "matrix entries must be rational"),
    "matrix-exponent-entry": (lambda: PseudoOrthogonalMatrix(S20, [["1e0", 0], [0, "-1"]]),
                              ValueError, "exponent notation is not accepted: '1e0'"),
    "spin-block-signature": (lambda: spin_block_check(Versor(S40, []), S13),
                             ValueError, "versor signature mismatch"),
    # algebra
    "real-needs-signature": (lambda: Multivector.real((2, 0)),
                             TypeError, "real multivector needs a Signature"),
    "real-blade-range": (lambda: Multivector.real(S20, {4: 1}),
                         ValueError, "blade out of range for the signature"),
    "complex-negative-dimension": (lambda: Multivector.complex_alg(-1),
                                   ValueError, "complex algebra dimension must be nonnegative"),
    "complex-non-gaussian": (lambda: Multivector.complex_alg(1, {0: 0.5}),
                             TypeError, "complex multivector coefficients must be Gaussian rationals"),
    "complex-blade-range": (lambda: Multivector.complex_alg(1, {2: 1}),
                            ValueError, "blade out of range for the algebra dimension"),
    "real-scaled-by-gaussian": (lambda: unit(S20).scale(GaussianRational(0, 1)),
                                TypeError, "real multivector scaled by a non-rational"),
    "basis-vector-range": (lambda: basis_vector(S20, 3),
                           ValueError, "generator index 3 out of range for (2,0)"),
    "complex-basis-vector-range": (lambda: complex_basis_vector(2, 0),
                                   ValueError, "generator index 0 out of range for dimension 2"),
    "vector-coordinate-count": (lambda: vector(S20, [1]),
                                ValueError, "coordinate count does not match the signature"),
    "eta-of-non-vectors": (lambda: eta(unit(S20), basis_vector(S20, 1)),
                           ValueError, "eta is defined on grade-1 elements only"),
    "complexify-complex": (lambda: complexify_embed(complex_unit(2)),
                           ValueError, "multivector is already complex"),
    # scalars
    "gaussian-float-part": (lambda: GaussianRational(0.5),
                            TypeError, "expected a rational number, got float"),
    # reprs
    "rep-both-algebras": (lambda: Representation(Signature(1, 0), 1, TargetRing("MatR", 1), []),
                          ValueError, "exactly one of signature / complex_dim required"),
    "rep-neither-algebra": (lambda: Representation(None, None, TargetRing("MatR", 1), []),
                            ValueError, "exactly one of signature / complex_dim required"),
    "rep-generator-count": (lambda: Representation(Signature(1, 0), None, TargetRing("MatR", 1), []),
                            ValueError, "generator count does not match the algebra"),
    "rep-direct-sum-generator": (lambda: Representation(Signature(1, 0), None, TargetRing("MatR", 1, 2),
                                                        [((Fraction(1),),)]),
                                 ValueError, "generator does not match the direct-sum target"),
    "shift-unknown-kind": (lambda: signature_shift(S20, "twist"),
                           ValueError, "unknown shift kind 'twist'"),
    "even-subring-small-n": (lambda: even_subring_rep(Signature(1, 0)),
                             ValueError, "even subring derivation needs n > 1"),
    "complexify-non-quaternion": (lambda: quaternion_complexify(compile_rep(S20)),
                                  ValueError, "complexification applies to single quaternionic targets"),
    "equivalence-across-rings": (lambda: rep_equivalence(compile_rep(S20), compile_rep(S13)),
                                 ValueError, "representations target different matrix rings"),
    "equivalence-across-algebras": (lambda: rep_equivalence(compile_rep(S20), compile_rep(S11)),
                                    ValueError, "representations have different source algebras"),
    # spinors
    "idempotent-of-real": (lambda: make_idempotent(basis_vector(S20, 1)),
                           ValueError, "idempotents live in the complex algebra"),
    "contains-other-algebra": (lambda: left_ideal(primitive_idempotent(2)).contains(complex_unit(4)),
                               ValueError, "element lives in a different algebra"),
    "left-ideal-of-real": (lambda: left_ideal(unit(S20)),
                           ValueError, "left ideals live in the complex algebra"),
    "left-ideal-of-non-idempotent": (lambda: left_ideal(complex_basis_vector(2, 1)),
                                     ValueError, "not an idempotent"),
    "minimal-at-odd-n": (lambda: is_minimal(left_ideal(_half_plus_e1(3))),
                         ValueError, "minimality criterion implemented for even n"),
    "primitive-at-odd-n": (lambda: primitive_idempotent(3),
                           ValueError, "primitive idempotent needs positive even n"),
    "primitive-at-zero": (lambda: primitive_idempotent(0),
                          ValueError, "primitive idempotent needs positive even n"),
    "conjugator-across-algebras": (lambda: find_conjugator(_half_plus_e1(2), _half_plus_e1(4)),
                                   ValueError, "idempotents live in different algebras"),
    # cech
    "tetrahedron-missing-face": (_tetrahedron_missing_a_face,
                                 ValueError, "tetrahedron (0, 1, 2, 3) has a missing face (1, 2, 3)"),
    "betti-degree-high": (lambda: z2_betti(Complex.build(1), 4),
                          ValueError, "cohomology degree out of range"),
    "betti-degree-negative": (lambda: z2_betti(Complex.build(1), -1),
                              ValueError, "cohomology degree out of range"),
    "cocycle-non-edge": (lambda: GroupCocycle.build(Complex.build(3, [(0, 1)]), S20,
                                                    {(2, 1): PseudoOrthogonalMatrix.identity(S20)}),
                         ValueError, "matrix given for a non-edge (1, 2)"),
    "cocycle-edge-twice": (lambda: GroupCocycle.build(Complex.build(2, [(0, 1)]), S20, {
                               (0, 1): PseudoOrthogonalMatrix.identity(S20),
                               (1, 0): PseudoOrthogonalMatrix.identity(S20)}),
                           ValueError, "matrix given twice for edge (0, 1)"),
    "cocycle-matrix-signature": (lambda: _one_edge_cocycle(PseudoOrthogonalMatrix.identity(S11)),
                                 ValueError, "matrix signature mismatch"),
    "cocycle-float-entry": (lambda: _one_edge_cocycle([[1.0, 0.0], [0.0, -1.0]]),
                            TypeError, "matrix entries must be rational"),
    "cocycle-exponent-entry": (lambda: _one_edge_cocycle([["1e0", 0], [0, "-1"]]),
                               ValueError, "exponent notation is not accepted: '1e0'"),
    "cocycle-json-edge-twice": (lambda: GroupCocycle.from_json({
                                    "complex": {"vertices": 2, "simplices": {"1": [[0, 1]]}},
                                    "signature": [2, 0],
                                    "edges": [{"e": [0, 1], "matrix": [["1", "0"], ["0", "1"]]},
                                              {"e": [0, 1], "matrix": [["1", "0"], ["0", "1"]]}]}),
                                ValueError, "matrix given twice for edge (0, 1)"),
}


@pytest.mark.parametrize("call, exc, message", CASES.values(), ids=CASES.keys())
def test_boundary_check_raises(call, exc, message):
    with pytest.raises(exc, match=re.escape(message)):
        call()
