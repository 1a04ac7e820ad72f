"""Z2 cohomology of small complexes and the Pin lift obstruction.

Betti numbers are cross-checked against a brute-force enumeration of all
cochains, so the bitmask elimination never certifies itself.
"""

import itertools
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cech_documents
from cliffkit import cech
from cliffkit.algebra import Signature, _blade_products, _neg_mask, basis_vector, unit, vector
from cliffkit.cech import (
    Complex,
    GroupCocycle,
    Z2Cochain,
    canonical_sign,
    check_cocycle,
    coboundary_matrix,
    filled_triangle,
    gf2_echelon,
    nontrivial_1cocycle,
    pin_lift_cocycle,
    projective_plane,
    subgroup_reduction_check,
    tetrahedron_boundary,
    z2_betti,
)
from cliffkit.groups import (
    PseudoOrthogonalMatrix,
    Versor,
    _bform,
    cartan_dieudonne,
    lift_to_pin,
    reflection_product,
    zeta,
)
from cliffkit.sampling import random_pseudo_orthogonal, random_versor, rng_from_seed

F = Fraction
SIG = Signature(2, 0)


def _solve_system(rows, ncols, w):
    """``cech._coboundary_solve`` on a given system: ``rows`` over ``ncols``
    columns, with bit i of ``w`` the right-hand side of row i."""
    with mock.patch.object(cech, "coboundary_matrix", lambda c, k: (rows, ncols)):
        return cech._coboundary_solve(None, 0, w)


def test_gf2_echelon_hand_values():
    # delta_0 of the hollow triangle has pivots at bits 0 and 1 (bit lengths
    # 1 and 2); 0b101 stays over the smaller 0b011, which becomes 0b110.
    # Completing its free column 2 gives the nullspace vector 0b111, the
    # constant 0-cochain
    pivot_rows = gf2_echelon([0b011, 0b110, 0b101])
    assert pivot_rows == {1: 0b101, 2: 0b110}
    assert cech._complete(pivot_rows, 0b100) == 0b111
    hollow = Complex.build(3, edges=[(0, 1), (0, 2), (1, 2)])
    assert z2_betti(hollow, 0) == 1 and z2_betti(hollow, 1) == 1
    # [0b01, 0b11] x = [1, 0] with the right-hand side at bit 2: completing
    # that bit sets bit 1 (row 0b110), then bit 0 (row 0b101), so x = 0b11
    assert gf2_echelon([0b101, 0b011]) == {1: 0b101, 2: 0b110}
    assert _solve_system([0b01, 0b11], 2, 0b01) == (2, 0b11)
    # [0b11, 0b11] x = [1, 0] has no solution: bit 2 alone is a pivot row
    assert gf2_echelon([0b111, 0b011]) == {1: 0b111, 3: 0b100}
    assert _solve_system([0b11, 0b11], 2, 0b01) == (1, None)


def _span(rows):
    span = {0}
    for r in rows:
        span |= {x ^ r for x in span}
    return span


def _echelon_oracle(rows):
    """The reduced echelon form read off the whole span: the pivots are the
    lowest bits of its nonzero elements, and the row at pivot b is the one
    element whose lowest bit is b and which holds no other pivot bit."""
    span = _span(rows)
    pivots = sorted({x & -x for x in span if x})
    mask = sum(pivots)
    out = []
    for b in pivots:
        [row] = [x for x in span if x & -x == b and not x & mask & ~b]
        out.append(row)
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=10))
def test_gf2_echelon_matches_brute_force(rows):
    # forward rows are not unique: each is keyed by its lowest bit, and
    # together they have the oracle's pivots and span
    pivot_rows = gf2_echelon(rows)
    want = _echelon_oracle(rows)
    assert all(low == (r & -r).bit_length() for low, r in pivot_rows.items())
    assert sorted(pivot_rows) == [(r & -r).bit_length() for r in want]
    assert _span(pivot_rows.values()) == _span(want)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 6))
def test_coboundary_solve_matches_brute_force(data, ncols):
    # eta is the one solution that vanishes on the free columns, and None
    # exactly when no x solves the system
    rows = data.draw(st.lists(st.integers(0, (1 << ncols) - 1), max_size=8))
    w = data.draw(st.integers(0, (1 << len(rows)) - 1))
    pivots = _echelon_oracle(rows)
    free = (1 << ncols) - 1 - sum(r & -r for r in pivots)
    solutions = [x for x in range(1 << ncols)
                 if all((r & x).bit_count() % 2 == (w >> i) & 1 for i, r in enumerate(rows))]
    rank, eta = _solve_system(rows, ncols, w)
    assert rank == len(pivots)
    if solutions:
        [want] = [x for x in solutions if not x & free]
        assert eta == want
    else:
        assert eta is None


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
    # the preimage of delta eta is eta or, on a connected complex, eta + 1;
    # the reduced echelon form picks eta, with no pivot on the last vertex
    eta = Z2Cochain(tetrahedron_boundary(), 0, {(0,): 1, (2,): 1})
    assert eta.coboundary().coboundary_preimage() == 0b0101
    assert a.coboundary_preimage() is None


@pytest.mark.parametrize("builder, triangles, eta", [
    ("torus", [(0, 1, 3), (0, 2, 6), (0, 4, 6), (3, 5, 6)], 0x1081B),
    ("rp2", [(0, 2, 5), (1, 2, 4), (1, 2, 5), (2, 3, 4)], 0x222),
    ("rp2", [(1, 2, 4)], None),
])
def test_coboundary_preimage_of_a_discrepancy_is_pinned(builder, triangles, eta):
    # discrepancies that pin_lift_cocycle finds on seeded conjugate cocycles;
    # the resigned lifts follow from eta, so eta itself is pinned
    c = _torus() if builder == "torus" else projective_plane()
    w = Z2Cochain(c, 2, {t: 1 for t in triangles})
    assert w.coboundary_preimage() == eta
    if eta is not None:
        lifted = Z2Cochain(c, 1, {e: 1 for i, e in enumerate(c.edges) if (eta >> i) & 1})
        assert lifted.coboundary() == w


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


def test_group_cocycle_build_reads_raw_rational_rows():
    # the rows as strings, Fractions and ints build the same cocycle as the
    # matrix objects, as perfbench's pin-lift block passes them
    complex_ = Complex.build(3, [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)])
    rot = PseudoOrthogonalMatrix(SIG, [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
    raw = {(0, 1): [["3/5", "-4/5"], ["4/5", "3/5"]],
           (1, 2): [[1, 0], [0, 1]],
           (0, 2): [[Fraction(3, 5), "-4/5"], [" 4/5", Fraction(3, 5)]]}
    coc = GroupCocycle.build(complex_, SIG, raw)
    assert coc.edges == {(0, 1): rot, (1, 2): PseudoOrthogonalMatrix.identity(SIG), (0, 2): rot}
    assert check_cocycle(coc) == (True, None)


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


def _torus():
    """Seven-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    tris = sorted({tuple(sorted((i, (i + a) % 7, (i + 3) % 7)))
                   for i in range(7) for a in (1, 2)})
    edges = sorted({(a, b) for t in tris for a in t for b in t if a < b})
    return Complex.build(7, edges=edges, triangles=tris)


def _conjugate_cocycle(c, sig, rng, twist=None):
    """g_ij = h_i^-1 s_ij h_j, with s_ij = -1 on the edges of ``twist``."""
    n = sig.n
    minus = PseudoOrthogonalMatrix(sig, [[-int(i == j) for j in range(n)] for i in range(n)])
    ident = PseudoOrthogonalMatrix.identity(sig)
    h = {v: random_pseudo_orthogonal(sig, rng) for v in range(c.vertices)}
    edges = {(i, j): h[i].inverse() * (minus if twist and twist.bit((i, j)) else ident) * h[j]
             for (i, j) in c.edges}
    return GroupCocycle.build(c, sig, edges)


@pytest.mark.parametrize("builder, h1", [
    (tetrahedron_boundary, 0), (_torus, 2), (projective_plane, 1)],
    ids=["sphere", "torus", "rp2"])
def test_pin_lift_eliminates_delta1_once(monkeypatch, builder, h1):
    # one elimination of delta_1 with the discrepancy appended gives both
    # eta and rank delta_1, so a successful lift builds delta_1 once and
    # eliminates twice: delta_1 with w, then delta_0 for the count
    c = builder()
    coc = _conjugate_cocycle(c, SIG, rng_from_seed(5))
    calls = {"delta1": 0, "echelon": 0}
    build, echelon = cech.coboundary_matrix, cech.gf2_echelon

    def counted_build(c, k):
        calls["delta1"] += k == 1
        return build(c, k)

    def counted_echelon(rows):
        calls["echelon"] += 1
        return echelon(rows)

    monkeypatch.setattr(cech, "coboundary_matrix", counted_build)
    monkeypatch.setattr(cech, "gf2_echelon", counted_echelon)
    res = pin_lift_cocycle(coc)
    monkeypatch.undo()
    assert res.success and calls == {"delta1": 1, "echelon": 2}
    assert z2_betti(c, 1) == h1 and res.lift_count == 1 << h1


@pytest.mark.parametrize("doc, distinct_count, h1", [
    (cech_documents.torus_cocycle_doc(5), 20, 2), (cech_documents.distinct_cocycle_doc(3), 27, 2),
    (cech_documents.complete_cocycle_doc(171), 1, 14365)], ids=["torus", "distinct", "K171"])
def test_pin_lift_lifts_each_distinct_edge_matrix_once(monkeypatch, doc, distinct_count, h1):
    # edge matrices and versors are immutable, so the edges that carry one
    # matrix share its lift; every edge of K171 carries the identity
    coc = GroupCocycle.from_json(doc)
    lifted = []

    def counted_lift(m):
        lifted.append(m)
        return lift_to_pin(m)

    monkeypatch.setattr(cech, "lift_to_pin", counted_lift)
    res = pin_lift_cocycle(coc)
    monkeypatch.undo()
    distinct = set(coc.edges.values())
    assert len(lifted) == len(set(lifted)) == len(distinct) == distinct_count
    assert res.success and res.lift_count == 1 << h1
    fresh = {m: canonical_sign(lift_to_pin(m)) for m in distinct}
    for e, m in coc.edges.items():
        assert res.lifts[e].vecs in (fresh[m].vecs, fresh[m].negated().vecs)


@pytest.mark.parametrize("builder", [projective_plane, _torus], ids=["rp2", "torus"])
def test_nontrivial_1cocycle_eliminates_twice(monkeypatch, builder):
    # delta_1 once for the kernel vectors and the vertex stars once for the
    # coboundaries; each candidate is reduced against the stars, not solved
    c = builder()
    calls = []
    echelon = cech.gf2_echelon

    def counted_echelon(rows):
        calls.append(1)
        return echelon(rows)

    def no_solve(*args):
        raise AssertionError("nontrivial_1cocycle ran a coboundary solve")

    monkeypatch.setattr(cech, "gf2_echelon", counted_echelon)
    monkeypatch.setattr(cech, "_coboundary_solve", no_solve)
    a = nontrivial_1cocycle(c)
    monkeypatch.undo()
    assert len(calls) == 2
    assert a.coboundary().is_zero() and not a.is_coboundary()


def test_nontrivial_1cocycle_of_a_long_path_is_none():
    # dim H^1 = 0 is read off the two ranks before any candidate is tested
    n = 2000
    path = Complex.build(n, edges=[(i, i + 1) for i in range(n - 1)])
    assert nontrivial_1cocycle(path) is None


def test_nontrivial_1cocycle_without_a_survivor_is_an_internal_error(monkeypatch):
    # dim H^1 = 1 on RP^2, so a candidate must survive; kernel vectors
    # completed to 0 are all coboundaries
    monkeypatch.setattr(cech, "_complete", lambda pivot_rows, x: 0)
    with pytest.raises(AssertionError, match="every kernel vector of delta_1 is a coboundary"):
        nontrivial_1cocycle(projective_plane())


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.sampled_from(list(itertools.combinations(range(n), 3)))))))
def test_nontrivial_1cocycle_matches_brute_force(shape):
    # on random 2-complexes: None exactly when H^1 = 0, else a cocycle that
    # no 0-cochain bounds
    n, tris = shape
    edges = {f for t in tris for f in itertools.combinations(t, 2)} | {(i, i + 1) for i in range(n - 1)}
    c = Complex.build(n, edges=edges, triangles=tris)
    a = nontrivial_1cocycle(c)
    if _brute_force_betti(c, 1) == 0:
        assert a is None
        return
    assert a.coboundary().is_zero()
    support = {e for e, b in a.values.items() if b}
    for bits in range(1 << n):
        eta = Z2Cochain(c, 0, {(v,): 1 for v in range(n) if (bits >> v) & 1})
        assert set(eta.coboundary().values) != support


def _three_factor_signs(coc):
    """The discrepancy as the scalar L_ij L_jk L_ik^-1, with L_ik^-1 the
    chain v_k ... v_1 over Q(v_1) ... Q(v_k); returns (signs, lift count)."""
    c = coc.complex
    raw = {e: canonical_sign(lift_to_pin(coc.edges[e])) for e in c.edges}
    signs = {}
    for i, j, k in c.triangles:
        g = raw[(i, k)]
        inv = unit(coc.sig)
        for v in reversed(g.factors):
            inv = inv * v
            coords = v.vector_coords()
            inv = inv / sum(coc.sig.square(a + 1) * x * x for a, x in enumerate(coords))
        disc = raw[(i, j)].product * raw[(j, k)].product * inv
        assert disc.is_scalar() and disc.scalar_part() != 0
        if disc.scalar_part() < 0:
            signs[(i, j, k)] = 1
    if not Z2Cochain(c, 2, signs).is_coboundary():
        return signs, 0
    return signs, 1 << z2_betti(c, 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_product_discrepancy_matches_three_factor_scalar(seed):
    rng = rng_from_seed(seed)
    rp2 = projective_plane()
    cases = [(tetrahedron_boundary(), None), (_torus(), None), (rp2, None),
             (rp2, nontrivial_1cocycle(rp2))]
    for n in (2, 4):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for c, twist in cases:
                coc = _conjugate_cocycle(c, sig, rng, twist)
                signs, count = _three_factor_signs(coc)
                res = pin_lift_cocycle(coc)
                assert res.discrepancy.values == signs
                assert res.lift_count == count
                assert res.success == (count > 0) == res.discrepancy.is_coboundary()


def test_pin_lift_rejects_a_non_proportional_edge_lift(monkeypatch):
    rng = rng_from_seed(3)
    coc, _ = _coboundary_cocycle(tetrahedron_boundary(), rng)
    bad = coc.edges[(0, 1)]
    e1, e2 = basis_vector(SIG, 1), basis_vector(SIG, 2)

    def lift_with_one_bad_edge(m):
        g = lift_to_pin(m)
        # g e1 e2 is not a scalar multiple of g
        return Versor(SIG, g.factors + (e1, e2)) if m is bad else g

    # the raw lifts are where the cocycle condition is read: with ker zeta
    # the nonzero scalars, a discrepancy that is not scalar means edges that
    # fail it, so the first triangle on the bad edge is reported as bad input
    monkeypatch.setattr(cech, "lift_to_pin", lift_with_one_bad_edge)
    with pytest.raises(ValueError, match=r"cocycle condition fails on triangle \[0, 1, 2\]"):
        pin_lift_cocycle(coc)


def test_pin_lift_rejects_edges_that_are_not_a_cocycle():
    # the raw triangle pass reports the triangle check_cocycle finds first
    rng = rng_from_seed(2)
    coc, _ = _coboundary_cocycle(tetrahedron_boundary(), rng)
    bad = dict(coc.edges)
    bad[(1, 2)] = bad[(1, 2)] * PseudoOrthogonalMatrix(SIG, [[Fraction(3, 5), Fraction(-4, 5)],
                                                           [Fraction(4, 5), Fraction(3, 5)]])
    broken = GroupCocycle.build(coc.complex, SIG, bad)
    ok, tri = check_cocycle(broken)
    assert not ok
    with pytest.raises(ValueError, match=re.escape(f"cocycle condition fails on triangle {list(tri)}")):
        pin_lift_cocycle(broken)


@pytest.mark.parametrize("fault", ["sign"])
def test_pin_lift_resigned_pass_is_an_internal_check(monkeypatch, fault):
    # after resigning by eta every triangle must be +1, that is delta eta = w;
    # a wrong eta (one edge bit flipped) is an internal error, never a usage
    # error
    rng = rng_from_seed(3)
    coc, _ = _coboundary_cocycle(tetrahedron_boundary(), rng)
    solve = cech._coboundary_solve

    def wrong_solve(c, k, w=0):
        rank, eta = solve(c, k, w)
        return rank, eta ^ 1

    monkeypatch.setattr(cech, "_coboundary_solve", wrong_solve)
    with pytest.raises(AssertionError, match="sign correction failed"):
        pin_lift_cocycle(coc)


@pytest.mark.parametrize("make_cocycle", [
    lambda: _conjugate_cocycle(_torus(), SIG, rng_from_seed(5)),
    lambda: _conjugate_cocycle(tetrahedron_boundary(), SIG, rng_from_seed(5)),
    lambda: GroupCocycle.from_json(cech_documents.dihedral_cocycle_doc(3)),
], ids=["torus", "sphere", "resigned"])
def test_pin_lift_multiplies_each_triangle_once(monkeypatch, make_cocycle):
    # the raw pass reads each triangle with one product; delta eta = w is
    # then checked on bits, so a second pass over the resigned lifts would
    # read 2T here
    coc = make_cocycle()
    calls = []
    scalar = cech._triangle_scalar

    def counted(lifts, t):
        calls.append(t)
        return scalar(lifts, t)

    monkeypatch.setattr(cech, "_triangle_scalar", counted)
    res = pin_lift_cocycle(coc)
    monkeypatch.undo()
    assert res.success and calls == list(coc.complex.triangles)
    # the lifts the parity check passed multiply to positive scalars,
    # read here with Fraction products apart from the lift
    assert all(_fraction_triangle_scalar(res.lifts, t) > 0 for t in coc.complex.triangles)
    # a nonzero w is met by resigning edges, whose lifts are then not canonical
    resigned = [e for e, v in res.lifts.items() if v is not canonical_sign(v)]
    assert bool(resigned) == bool(res.discrepancy.values)


def _coords(sig, orthogonal_to_e1=False):
    """Integer coordinates in [-3, 3] of an anisotropic vector, with first
    coordinate 0 when ``orthogonal_to_e1``."""
    return st.lists(st.integers(-3, 3), min_size=sig.n, max_size=sig.n).map(
        lambda c: [0] + c[1:] if orthogonal_to_e1 else c).filter(
        lambda c: sum(sig.square(a + 1) * x * x for a, x in enumerate(c)) != 0)


@st.composite
def _lift_matrix(draw, sig):
    """(M, null): M a product of 0 to 3 reflections in O(p,q).  When null,
    M starts with R(e_1 + k/2) R(e_1), k = e_2 + e_(p+1) null, and its other
    reflections fix e_1, so M e_1 = e_1 + k and the first factorization step
    takes the isotropic fallback."""
    p, n = sig.p, sig.n
    null = p >= 2 and sig.q >= 1 and draw(st.booleans())
    e1 = [int(i == 0) for i in range(n)]
    head = [[x + F(1, 2) * (i in (1, p)) for i, x in enumerate(e1)], e1] if null else []
    return reflection_product(sig, head + draw(st.lists(_coords(sig, null), max_size=3))), null


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([Signature(p, n - p) for n in (2, 4, 6) for p in range(n + 1)]))
def test_lifts_store_anisotropic_vectors_and_multiply_to_nonzero_products(data, sig):
    # the premise on which canonical_sign and _triangle_scalar read a
    # nonzero product: every (u, d) a lift stores has Q(u) != 0, so each
    # lift, and each product of two lifts, is invertible
    lifts = []
    for _ in range(2):
        m, null = data.draw(_lift_matrix(sig))
        assert not null or cartan_dieudonne(m).fallback_count > 0
        g = lift_to_pin(m)
        assert all(_bform(sig, u, u) != 0 for u, _d in g.vecs)
        assert g.product.re
        lifts.append(g)
    for a, b in itertools.product(lifts, repeat=2):
        assert _blade_products(a.product.re, b.product.re, _neg_mask(sig))


def test_pin_lift_refuses_a_discrepancy_that_is_not_a_cocycle(monkeypatch):
    # on a solid tetrahedron w is a 2-cocycle exactly when its four faces
    # hold an even number of -1s: one face's scalar flipped makes that odd
    rng = rng_from_seed(3)
    tris = list(itertools.combinations(range(4), 3))
    solid = Complex.build(4, edges=itertools.combinations(range(4), 2), triangles=tris,
                          tetrahedra=[(0, 1, 2, 3)])
    coc, _ = _coboundary_cocycle(solid, rng)
    assert pin_lift_cocycle(coc).success
    scalar = cech._triangle_scalar

    def flipped(lifts, t):
        s = scalar(lifts, t)
        return -s if t == (0, 1, 2) else s

    monkeypatch.setattr(cech, "_triangle_scalar", flipped)
    with pytest.raises(AssertionError, match="discrepancy is not a 2-cocycle"):
        pin_lift_cocycle(coc)


def _fraction_triangle_scalar(lifts, t):
    """The discrepancy scalar s with L_ij L_jk = s L_ik from one Fraction
    product, as a reference for the integer ``cech._triangle_scalar``."""
    i, j, k = t
    prod = lifts[(i, j)].product * lifts[(j, k)].product
    target = lifts[(i, k)].product
    lead = min(target.terms)
    s = prod.coeff(lead) / target.terms[lead]
    if prod != target.scale(s):
        raise ValueError(f"cocycle condition fails on triangle {list(t)}")
    return s


_EVEN_SIGS = [Signature(p, n - p) for n in (2, 4) for p in range(n + 1)]


@st.composite
def _anisotropic(draw, sig):
    """An anisotropic vector with integer numerators over a drawn denominator."""
    coords = draw(_coords(sig))
    d = draw(st.integers(1, 3))
    return vector(sig, [Fraction(x, d) for x in coords])


@st.composite
def _even_versors(draw, sig):
    g = Versor(sig, [draw(_anisotropic(sig)) for _ in range(draw(st.sampled_from((0, 2, 4))))])
    return g.negated() if draw(st.booleans()) else g


def _outcome(f, lifts):
    try:
        return f(lifts, (0, 1, 2))
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(_EVEN_SIGS), st.booleans())
def test_integer_triangle_sign_matches_fraction_product(data, sig, proportional):
    a, b = data.draw(_even_versors(sig)), data.draw(_even_versors(sig))
    if proportional:
        # a b (w lam w) = lam Q(w) a b: a nonzero multiple of a b, either sign
        w = data.draw(_anisotropic(sig))
        lam = Fraction(data.draw(st.sampled_from((-3, -2, -1, 1, 2, 3))), data.draw(st.integers(1, 3)))
        c = Versor(sig, (a * b).factors + (w, w * lam))
        if data.draw(st.booleans()):
            c = c.negated()
    else:
        c = data.draw(_even_versors(sig))
    lifts = {(0, 1): a, (1, 2): b, (0, 2): c}
    want = _outcome(_fraction_triangle_scalar, lifts)
    got = _outcome(cech._triangle_scalar, lifts)
    if isinstance(want, tuple):
        assert not proportional and got == want
    else:
        assert got == (1 if want > 0 else -1)


def test_triangle_scalar_rejects_a_non_scalar_discrepancy():
    e1, e2 = basis_vector(SIG, 1), basis_vector(SIG, 2)
    one = Versor(SIG, [])
    # e1 e2 against 1: different blades
    lifts = {(0, 1): Versor(SIG, [e1, e2]), (1, 2): one, (0, 2): one}
    with pytest.raises(ValueError, match=r"cocycle condition fails on triangle \[0, 1, 2\]"):
        cech._triangle_scalar(lifts, (0, 1, 2))
    # 1 + e12 against 1 - e12: the same blades, different ratios
    lifts = {(0, 1): Versor(SIG, [e1, e1 + e2]), (1, 2): one, (0, 2): Versor(SIG, [e1, e1 - e2])}
    assert lifts[(0, 1)].product.terms.keys() == lifts[(0, 2)].product.terms.keys()
    with pytest.raises(ValueError, match=r"cocycle condition fails on triangle \[0, 1, 2\]"):
        cech._triangle_scalar(lifts, (0, 1, 2))


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
