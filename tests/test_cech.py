"""Z2 cohomology of small complexes and the Pin lift obstruction.

Betti numbers are cross-checked against a brute-force enumeration of all
cochains, so the bitmask elimination never certifies itself.
"""

import itertools
from fractions import Fraction

import pytest

from cliffkit.algebra import Signature
from cliffkit.cech import (
    Complex,
    GroupCocycle,
    Z2Cochain,
    canonical_sign,
    check_cocycle,
    coboundary_matrix,
    filled_triangle,
    gf2_nullspace,
    gf2_rank,
    gf2_rref,
    gf2_solve,
    nontrivial_1cocycle,
    pin_lift_cocycle,
    projective_plane,
    subgroup_reduction_check,
    tetrahedron_boundary,
    z2_betti,
)
from cliffkit.groups import PseudoOrthogonalMatrix, zeta
from cliffkit.sampling import random_versor, rng_from_seed

F = Fraction
SIG = Signature(2, 0)


def test_gf2_helpers():
    rows = [0b011, 0b110, 0b101]
    red, pivots = gf2_rref(rows, 3)
    assert pivots == [0, 1]
    assert gf2_rank(rows, 3) == 2
    ns = gf2_nullspace(rows, 3)
    assert len(ns) == 1 and ns[0] == 0b111
    assert gf2_solve([0b01, 0b11], [1, 0], 2) == 0b11
    assert gf2_solve([0b11, 0b11], [1, 0], 2) is None


def _brute_force_betti(c, k):
    """dim H^k by enumerating every k-cochain (small complexes only)."""
    own = c.simplices(k)
    cocycles = 0
    coboundaries = set()
    for bits in range(1 << len(own)):
        values = {s: 1 for i, s in enumerate(own) if (bits >> i) & 1}
        if Z2Cochain(c, k, values).coboundary().is_zero():
            cocycles += 1
    if k == 0:
        coboundaries = {0}
    else:
        lower = c.simplices(k - 1)
        index = {s: i for i, s in enumerate(own)}
        for bits in range(1 << len(lower)):
            values = {s: 1 for i, s in enumerate(lower) if (bits >> i) & 1}
            cb = Z2Cochain(c, k - 1, values).coboundary()
            img = 0
            for s, v in cb.values.items():
                if v:
                    img |= 1 << index[s]
            coboundaries.add(img)
    quotient = cocycles // len(coboundaries)
    return quotient.bit_length() - 1


@pytest.mark.parametrize(
    "builder,k,want",
    [
        (filled_triangle, 0, 1),
        (filled_triangle, 1, 0),
        (filled_triangle, 2, 0),
        (tetrahedron_boundary, 1, 0),
        (tetrahedron_boundary, 2, 1),
        (projective_plane, 0, 1),
        (projective_plane, 1, 1),
        (projective_plane, 2, 1),
    ],
)
def test_betti_against_brute_force(builder, k, want):
    c = builder()
    assert z2_betti(c, k) == want
    assert _brute_force_betti(c, k) == want


def test_complex_build_validation():
    with pytest.raises(ValueError):
        Complex.build(3, edges=[(0, 3)])
    with pytest.raises(ValueError):
        Complex.build(3, edges=[(0, 1)], triangles=[(0, 1, 2)])
    with pytest.raises(ValueError):
        Complex.build(2, edges=[(1, 1)])
    c = Complex.build(3, edges=[(1, 0), (0, 2), (2, 1)], triangles=[(2, 1, 0)])
    assert c.edges == ((0, 1), (0, 2), (1, 2))
    assert Complex.from_json(c.to_json()) == c


def test_coboundary_matrix_shape():
    c = filled_triangle()
    rows, ncols = coboundary_matrix(c, 1)
    assert ncols == 3 and rows == [0b111]
    rows0, ncols0 = coboundary_matrix(c, 0)
    assert ncols0 == 3 and len(rows0) == 3


def test_cochain_coboundary_and_membership():
    c = tetrahedron_boundary()
    # delta of a vertex cochain is a coboundary, and delta delta = 0
    eta = Z2Cochain(c, 0, {(0,): 1, (2,): 1})
    d_eta = eta.coboundary()
    assert not d_eta.is_zero()
    assert d_eta.is_coboundary()
    assert d_eta.coboundary().is_zero()
    a = nontrivial_1cocycle(projective_plane())
    assert a is not None
    assert a.coboundary().is_zero()
    assert not a.is_coboundary()
    assert nontrivial_1cocycle(tetrahedron_boundary()) is None


def test_nontrivial_1cocycle_of_projective_plane_is_pinned():
    a = nontrivial_1cocycle(projective_plane())
    assert sorted(e for e, b in a.values.items() if b) == [(0, 1), (0, 3), (1, 4), (2, 3), (2, 4)]
    # the preimage of delta eta is eta or, on a connected complex, eta + 1
    eta = Z2Cochain(tetrahedron_boundary(), 0, {(0,): 1, (2,): 1})
    assert eta.coboundary().coboundary_preimage() in (0b0101, 0b1010)
    assert a.coboundary_preimage() is None


def test_degree0_coboundary_is_only_zero():
    # there are no (-1)-cochains, so delta of nothing can only be 0
    c = filled_triangle()
    assert not Z2Cochain(c, 0, {(0,): 1}).is_coboundary()
    assert Z2Cochain(c, 0, {}).is_coboundary()
    assert Z2Cochain(c, 0, {(1,): 0}).coboundary_preimage() == 0


def _coboundary_cocycle(c, rng):
    h = {v: zeta(random_versor(SIG, rng)) for v in range(c.vertices)}
    edges = {(i, j): h[i].inverse() * h[j] for (i, j) in c.edges}
    return GroupCocycle.build(c, SIG, edges), h


def test_group_cocycle_build_and_check():
    rng = rng_from_seed(2)
    coc, _ = _coboundary_cocycle(tetrahedron_boundary(), rng)
    ok, tri = check_cocycle(coc)
    assert ok and tri is None
    assert GroupCocycle.from_json(coc.to_json()).edges == coc.edges
    # breaking one edge breaks the cocycle condition
    bad = dict(coc.edges)
    bad[(0, 1)] = bad[(0, 1)] * PseudoOrthogonalMatrix(SIG, [[-1, 0], [0, -1]])
    ok2, tri2 = check_cocycle(GroupCocycle.build(coc.complex, SIG, bad))
    assert not ok2 and 0 in tri2 and 1 in tri2
    with pytest.raises(ValueError):
        GroupCocycle.build(filled_triangle(), SIG, {})


def test_subgroup_reduction_check():
    c = filled_triangle()
    ident = PseudoOrthogonalMatrix.identity(SIG)
    refl = PseudoOrthogonalMatrix(SIG, [[1, 0], [0, -1]])
    edges = {(0, 1): refl, (0, 2): refl, (1, 2): ident}
    coc = GroupCocycle.build(c, SIG, edges)
    h_id = {v: ident for v in range(3)}
    member = lambda m: m.det() == 1
    ok, witness = subgroup_reduction_check(coc, h_id, member)
    assert not ok and witness == (0, 1)
    # conjugating vertex 1 and 2 by the reflection lands every edge in SO(2)
    h = {0: ident, 1: refl, 2: refl}
    ok2, witness2 = subgroup_reduction_check(coc, h, member)
    assert ok2 and witness2 is None
    with pytest.raises(ValueError):
        subgroup_reduction_check(coc, {0: ident}, member)


def test_canonical_sign():
    rng = rng_from_seed(4)
    g = random_versor(SIG, rng)
    plus = canonical_sign(g)
    assert canonical_sign(plus.negated()).product == plus.product
    assert plus.product.terms[min(plus.product.terms)] > 0


def test_pin_lift_sphere_succeeds():
    rng = rng_from_seed(6)
    coc, _ = _coboundary_cocycle(tetrahedron_boundary(), rng)
    res = pin_lift_cocycle(coc)
    assert res.success and not res.obstruction_nonzero
    assert res.lift_count == 1  # H^1 of the sphere vanishes
    # lifted versors agree on triangles up to a positive scalar and project
    # back onto the input matrices
    for (i, j, k) in coc.complex.triangles:
        disc = (res.lifts[(i, j)].product * res.lifts[(j, k)].product
                * res.lifts[(i, k)].inverse_mv())
        assert disc.is_scalar() and disc.scalar_part() > 0
        assert zeta(res.lifts[(i, j)]) == coc.edges[(i, j)]


def test_pin_lift_projective_plane_obstructed():
    rp2 = projective_plane()
    a = nontrivial_1cocycle(rp2)
    ident = PseudoOrthogonalMatrix.identity(SIG)
    minus = PseudoOrthogonalMatrix(SIG, [[-1, 0], [0, -1]])
    edges = {e: (minus if a.bit(e) else ident) for e in rp2.edges}
    coc = GroupCocycle.build(rp2, SIG, edges)
    ok, _ = check_cocycle(coc)
    assert ok
    res = pin_lift_cocycle(coc)
    assert not res.success
    assert res.obstruction_nonzero
    assert not res.discrepancy.is_zero()
    assert not res.discrepancy.is_coboundary()
    assert res.discrepancy.coboundary().is_zero()


def test_pin_lift_rejects_odd_dimension():
    c = filled_triangle()
    sig = Signature(3, 0)
    ident = PseudoOrthogonalMatrix.identity(sig)
    coc = GroupCocycle.build(c, sig, {e: ident for e in c.edges})
    with pytest.raises(ValueError):
        pin_lift_cocycle(coc)
