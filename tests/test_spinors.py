"""Hermitian idempotents, left ideals and the column matrix model."""

import hashlib
import json
from fractions import Fraction

import pytest

from cliffkit import linalg, spinors
from cliffkit.algebra import (
    Multivector,
    Signature,
    complex_basis_vector,
    complex_unit,
    multiplication_rows,
    multivector_to_json,
)
from cliffkit.reprs import (
    Representation,
    _intertwines,
    compile_complex_rep,
    compile_rep,
    factor_projections,
    invert,
    quaternion_complexify,
    rep_equivalence,
)
from cliffkit.sampling import random_unitary_versor, rng_from_seed
from cliffkit.spinors import (
    SpinorSpace,
    _conjugator_rows,
    _row_preimages,
    chiral_rep,
    find_conjugator,
    idempotent_from_factors,
    is_minimal,
    left_ideal,
    make_idempotent,
    primitive_idempotent,
    spinor_matrix_model,
    stabilizer_membership,
)
from cliffkit.scalars import GAUSSIAN, GaussianRational, format_scalar
import bareiss_oracle
import dense_model_oracle
from inverse_oracle import coords_vector, dense_inverse, from_coords, map_matrix

G1 = GaussianRational(1)
GI = GaussianRational(0, 1)


def test_make_idempotent_validation():
    e1 = complex_basis_vector(4, 1)
    p = make_idempotent(e1)
    assert p.p * p.p == p.p
    assert p.p.star() == p.p
    with pytest.raises(ValueError, match="square"):
        make_idempotent(e1 * 2)
    # (5/3) e1 + (4/3) i e2 squares to e but is not fixed by the star
    skew = e1 * GaussianRational(Fraction(5, 3)) + complex_basis_vector(4, 2) * GaussianRational(0, Fraction(4, 3))
    assert skew * skew == complex_unit(4)
    with pytest.raises(ValueError, match="Hermitian"):
        make_idempotent(skew)
    with pytest.raises(ValueError, match="trivial"):
        make_idempotent(complex_unit(4))


def test_idempotent_from_factors():
    n = 4
    s1 = complex_basis_vector(n, 1)
    s2 = complex_basis_vector(n, 2) * complex_basis_vector(n, 3) * GI
    p = idempotent_from_factors(n, [s1, s2])
    assert p * p == p and p.star() == p
    # anticommuting factors are rejected
    with pytest.raises(ValueError, match="commute"):
        idempotent_from_factors(n, [s1, complex_basis_vector(n, 2)])


def test_primitive_idempotent_n2():
    idem = primitive_idempotent(2)
    e = complex_unit(2)
    assert idem.s == complex_basis_vector(2, 1)
    assert idem.p == (e + idem.s) * (G1 / 2)
    space = left_ideal(idem)
    assert space.dim == 2
    assert is_minimal(space)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_minimal_ideal_dimension(n):
    idem = primitive_idempotent(n)
    space = left_ideal(idem)
    assert space.dim == 1 << (n // 2)
    assert is_minimal(space)
    assert idem.s * idem.s == complex_unit(n)
    assert idem.s.star() == idem.s
    # the ideal contains its generator and is closed under left multiplication
    assert space.contains(idem.p)
    for i in range(1, n + 1):
        assert space.contains(complex_basis_vector(n, i) * idem.p)


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_primitive_idempotent_factors_are_pinned(n):
    # p is the product of (e + s)/2 over the roots e^1, i e^2 e^3, i e^4 e^5,
    # ..., formed here with plain products, not with idempotent_from_factors
    e = complex_unit(n)
    roots = [complex_basis_vector(n, 1)] + [
        complex_basis_vector(n, 2 * j) * complex_basis_vector(n, 2 * j + 1) * GI
        for j in range(1, n // 2)
    ]
    product = e
    for s in roots:
        product = product * (e + s) * (G1 / 2)
    idem = primitive_idempotent(n)
    assert idem.p == product
    assert idem.s == idem.p * 2 - e
    for k, s in enumerate(roots):
        assert s.star() == s and s * s == e
        assert all(s * t == t * s for t in roots[k + 1:])
    # independent: the products of distinct sets of roots have distinct blades
    blades = {0}
    for s in roots:
        [b] = s.re.keys() | s.im.keys()
        blades |= {c ^ b for c in blades}
    assert len(blades) == 1 << len(roots)
    assert compile_complex_rep(n).ranks(idem.p) == [1]
    if n <= 12:
        assert is_minimal(left_ideal(idem))


def test_single_factor_idempotent_not_minimal_at_n4():
    p = make_idempotent(complex_basis_vector(4, 1))
    space = left_ideal(p)
    assert space.dim == 8
    assert not is_minimal(space)


def _eliminated_coordinates(space, mv):
    # coordinates by eliminating mv against the reduced echelon rows
    coords = list(coords_vector(mv))
    out = [GaussianRational(0)] * space.dim
    for k, (psi, piv) in enumerate(zip(space.basis, space.pivots)):
        c = coords[piv]
        if c:
            out[k] = c
            for j, v in enumerate(coords_vector(psi)):
                if v:
                    coords[j] = coords[j] - c * v
    if any(coords):
        return None
    return out


def _random_gaussian(rng):
    return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))


def test_coordinates_match_elimination():
    # the pivot coefficients with the recombination check against the
    # elimination they replace, on random elements inside the ideal, the
    # same moved off it by one blade term, and random multivectors
    rng = rng_from_seed(19)
    e = complex_unit(4)
    idems = [primitive_idempotent(4).p, primitive_idempotent(6).p,
             (e + complex_basis_vector(4, 1)) * (G1 / 2)]
    outcomes = set()
    for p in idems:
        space = left_ideal(p)
        n = space.n
        for _ in range(8):
            inside = Multivector.complex_alg(n, {})
            for psi in space.basis:
                inside = inside + psi * _random_gaussian(rng)
            blade = Multivector.complex_alg(n, {rng.randrange(1 << n): _random_gaussian(rng)})
            anywhere = Multivector.complex_alg(n, {
                b: _random_gaussian(rng) for b in range(1 << n) if rng.random() < 0.3})
            for mv in (inside, inside + blade, anywhere):
                got = space.coordinates(mv)
                assert got == _eliminated_coordinates(space, mv)
                outcomes.add(got is None)
            assert space.coordinates(inside) is not None
    assert outcomes == {True, False}


def test_spinor_space_coordinates():
    space = left_ideal(primitive_idempotent(4))
    psi = space.basis[0] + space.basis[2] * GI
    coords = space.coordinates(psi)
    assert coords is not None
    assert coords[0] == G1 and coords[2] == GI
    outside = complex_unit(4)
    assert space.coordinates(outside) is None
    assert not space.contains(outside)


@pytest.mark.parametrize("n", [2, 4])
def test_spinor_matrix_model_intertwines(n):
    space = left_ideal(primitive_idempotent(n))
    model = spinor_matrix_model(space, seed=0)
    U, Uinv = model.intertwiner.matrix, model.intertwiner.inverse
    for L, rho_gen in zip(model.left_action, model.rep.gens):
        assert bareiss_oracle.mat_eq(bareiss_oracle.matmul(bareiss_oracle.matmul(U, L), Uinv), rho_gen)


def _left_action_cases():
    spaces = [left_ideal(primitive_idempotent(n)) for n in (2, 4, 6, 8)]
    rng = rng_from_seed(13)
    base = primitive_idempotent(4).p
    for _ in range(3):
        g = random_unitary_versor(4, rng)
        spaces.append(left_ideal(g * base * g.reversion()))
    return spaces


def test_left_action_recombines_the_products():
    # column j of L_i, read off the pivots, holds the coordinates of
    # e^i psi_j: the ideal is closed under left multiplication
    for space in _left_action_cases():
        model = spinor_matrix_model(space, seed=0)
        zero = Multivector.complex_alg(space.n, {})
        for i, L in enumerate(model.left_action, start=1):
            for j, psi in enumerate(space.basis):
                combo = zero
                for r, psi_r in enumerate(space.basis):
                    combo = combo + psi_r * L[r][j]
                assert complex_basis_vector(space.n, i) * psi == combo


def _dense_intertwines(rep, U, left):
    # the dense products the monomial check replaced
    return all(bareiss_oracle.mat_eq(bareiss_oracle.matmul(U, L), bareiss_oracle.matmul(g, U))
               for L, g in zip(left, rep.gens))


def _corrupted(mat, r, j):
    rows = [list(row) for row in mat]
    rows[r][j] = rows[r][j] + GI
    return tuple(tuple(row) for row in rows)


def _corrupted_numerators(matrix, r, j):
    # (den, rows) with i added at (r, j)
    den, rows = matrix
    rows = [dict(row) for row in rows]
    x, y = rows[r].get(j, (0, 0))
    rows[r][j] = (x, y + den)
    return den, rows


def _numerator_intertwines(rep, U, left):
    # the numerator check on dense U and L_i, through the input edge
    return _intertwines(linalg.numerator_matrix(U, GAUSSIAN)[1],
                        [linalg.numerator_matrix(L, GAUSSIAN) for L in left], rep._monos)


def test_intertwiner_check_matches_dense_products():
    # U L_i = rho(e^i) U read row by row off the monomial rho(e^i) agrees
    # with the dense products on every model up to n = 8, and on each with
    # one entry of one L_i or of U changed
    for space in _left_action_cases():
        model = spinor_matrix_model(space, seed=0)
        rep, U, left = model.rep, model.intertwiner.matrix, model.left_action
        assert _numerator_intertwines(rep, U, left) and _dense_intertwines(rep, U, left)
        m = len(U)
        for r, j in ((0, 0), (m - 1, m // 2)):
            for i in (0, space.n - 1):
                bad = left[:i] + (_corrupted(left[i], r, j),) + left[i + 1:]
                assert not _numerator_intertwines(rep, U, bad)
                assert not _dense_intertwines(rep, U, bad)
            bad_u = _corrupted(U, r, j)
            assert not _numerator_intertwines(rep, bad_u, left)
            assert not _dense_intertwines(rep, bad_u, left)


@pytest.mark.parametrize("part", ["left action", "intertwiner"])
def test_spinor_matrix_model_rejects_one_corrupted_entry(monkeypatch, part):
    space = left_ideal(primitive_idempotent(4))
    if part == "left action":
        built = spinors._left_action
        monkeypatch.setattr(spinors, "_left_action",
                            lambda *a: built(*a)[:1] + (_corrupted_numerators(built(*a)[1], 2, 1),)
                            + built(*a)[2:])
    else:
        built = spinors._column_model
        monkeypatch.setattr(spinors, "_column_model",
                            lambda *a: _corrupted_numerators(built(*a), 2, 1))
    with pytest.raises(AssertionError, match="no invertible intertwiner"):
        spinor_matrix_model(space)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_spinor_matrix_model_rejects_a_right_ideal(n):
    # p A has the dimension of A p but is not a left ideal; every
    # rho(p x) w lies in the line rho(p) maps onto, so U is singular
    p = primitive_idempotent(n).p
    rows = [coords_vector(p * Multivector.complex_alg(n, {b: G1})) for b in range(1 << n)]
    red, pivots = bareiss_oracle.rref(rows)
    basis = tuple(from_coords(p, row) for row in red[: len(pivots)])
    space = SpinorSpace(n, p, basis, tuple(pivots))
    assert is_minimal(space)
    assert not all(space.contains(complex_basis_vector(n, i) * psi)
                   for i in range(1, n + 1) for psi in basis)
    with pytest.raises(AssertionError, match="no invertible intertwiner"):
        spinor_matrix_model(space)


def test_spinor_matrix_model_rejects_nonminimal():
    space = left_ideal(make_idempotent(complex_basis_vector(4, 1)))
    with pytest.raises(ValueError):
        spinor_matrix_model(space)


def test_find_conjugator_simple_pair():
    n = 2
    e = complex_unit(n)
    p1 = (e + complex_basis_vector(n, 1)) * (G1 / 2)
    p2 = (e - complex_basis_vector(n, 1)) * (G1 / 2)
    g = find_conjugator(p1, p2)
    assert g is not None
    assert g * p1 * invert(g) == p2


def test_find_conjugator_raises_on_a_bad_solver_point(monkeypatch):
    # every point of the solution space read as the unit: it is invertible,
    # but 1 p1 != p2 1, which only a solver fault can produce
    solve = linalg.nullspace_numerators

    def unit_points(rows, ncols):
        free, _point = solve(rows, ncols)
        return free, lambda terms: (1, {0: 1}, {})

    e = complex_unit(2)
    p1 = (e + complex_basis_vector(2, 1)) * (G1 / 2)
    p2 = (e - complex_basis_vector(2, 1)) * (G1 / 2)
    monkeypatch.setattr(linalg, "nullspace_numerators", unit_points)
    with pytest.raises(AssertionError, match="fails g p1 = p2 g"):
        find_conjugator(p1, p2)


def test_find_conjugator_unitary_orbit():
    n = 4
    rng = rng_from_seed(5)
    base = primitive_idempotent(n).p
    g1 = random_unitary_versor(n, rng)
    g2 = random_unitary_versor(n, rng)
    p1 = g1 * base * g1.reversion()
    p2 = g2 * base * g2.reversion()
    assert p1 * p1 == p1 and p1.star() == p1
    g = find_conjugator(p1, p2, seed=5)
    assert g is not None
    assert g * p1 * invert(g) == p2


def test_rep_preimage_and_column_stabilizer():
    # the ideal of the E11 idempotent is the first-column space Mat E11; for
    # A = v e1^T the conjugate g A g^-1 = (g v)(e1^T g^-1) stays in that space
    # exactly when the first row of g is supported at position 1
    n = 2
    rep = compile_complex_rep(n)
    m = rep.target.m
    Z = GaussianRational(0)

    def matrix(entries):
        return tuple(tuple(entries.get((i, j), Z) for j in range(m)) for i in range(m))

    e11 = matrix({(0, 0): G1})
    p = rep.preimage(e11)
    assert p is not None
    assert bareiss_oracle.mat_eq(rep.rho(p), e11)
    assert p * p == p
    space = left_ideal(p)
    assert space.dim == m
    upper = rep.preimage(matrix({(0, 0): G1, (1, 1): G1, (0, 1): GI}))
    lower = rep.preimage(matrix({(0, 0): G1, (1, 1): G1, (1, 0): GI}))
    assert not stabilizer_membership(upper, space)
    assert stabilizer_membership(lower, space)
    assert rep.preimage(e11) == p
    with pytest.raises(ValueError):
        stabilizer_membership(p, space)  # idempotents are not invertible


@pytest.mark.parametrize("case", ["n2", "n4", "n6", "conjugated"])
def test_spinor_matrix_model_matches_solved_intertwiner(case):
    # the intertwiner built as psi -> rho(psi) w is the one the nullspace
    # search over all S with S L_i = rho(e^i) S picks: the monomial solver
    # for the monomial L_i of the primitive idempotents at n = 2, 4, 6, the
    # dense field oracle for the conjugated ideals, whose L_i are not
    if case == "conjugated":
        rng = rng_from_seed(13)
        base = primitive_idempotent(4).p
        spaces = []
        for _ in range(3):
            g = random_unitary_versor(4, rng)
            spaces.append(left_ideal(g * base * g.reversion()))
    else:
        spaces = [left_ideal(primitive_idempotent(int(case[1:])))]
    for space in spaces:
        model = spinor_matrix_model(space, seed=0)
        if case == "conjugated":
            want = dense_model_oracle.solve_intertwiner(model.left_action, model.rep.gens,
                                                        space.dim, GAUSSIAN)
        else:
            left = Representation(None, space.n, model.rep.target, model.left_action)
            want = rep_equivalence(left, model.rep)
        assert model.intertwiner == want


def _dense_conjugator(p1, p2, seed):
    # g p1 g^-1 = p2 with the inverse from the dense left regular matrix
    basis = bareiss_oracle.nullspace(map_matrix(p1, lambda g: g * p1 - p2 * g))

    def conjugates(v):
        g = from_coords(p1, v)
        if not g:
            return None
        ginv = dense_inverse(g)
        return g if ginv is not None and g * p1 * ginv == p2 else None

    return linalg.first_accepted(basis, conjugates, bareiss_oracle.combination, seed=seed)


def test_find_conjugator_matches_dense_inverse_acceptance():
    rng = rng_from_seed(17)
    base = primitive_idempotent(4).p
    pairs = []
    for _ in range(10):
        g1, g2 = random_unitary_versor(4, rng), random_unitary_versor(4, rng)
        pairs.append((g1 * base * g1.reversion(), g2 * base * g2.reversion()))
    e = complex_unit(2)
    pairs.append(((e + complex_basis_vector(2, 1)) * (G1 / 2), e))  # no solution
    for seed, (p1, p2) in enumerate(pairs):
        assert find_conjugator(p1, p2, seed=seed) == _dense_conjugator(p1, p2, seed)


def _real_pairs():
    half = Fraction(1, 2)

    def mv(sig, terms):
        return Multivector.real(sig, terms)

    plus = {0: half, 1: half}
    minus = {0: half, 1: -half}
    s11, s10, s02, s03 = Signature(1, 1), Signature(1, 0), Signature(0, 2), Signature(0, 3)
    e = mv(s02, {0: 1})
    omega_plus, omega_minus = mv(s03, {0: half, 7: half}), mv(s03, {0: half, 7: -half})
    return [
        # Mat(2, R): e1 and e12 square to +1, and e2 conjugates (e + e1)/2
        (mv(s11, plus), mv(s11, minus)),
        (mv(s11, plus), mv(s11, {0: half, 3: half})),
        # R + R: the central idempotents are not conjugate (no solution)
        (mv(s10, plus), mv(s10, minus)),
        (mv(s10, plus), mv(s10, plus)),
        # H: only the trivial idempotents; g e - e g is the zero map
        (e, e),
        (e, mv(s02, {})),
        # H + H: omega = e123 is central and squares to +1
        (omega_plus, omega_minus),
        (omega_plus, omega_plus),
    ]


def _complex_pairs():
    rng = rng_from_seed(29)
    pairs = []
    for n in (2, 4, 6):
        base = primitive_idempotent(n).p
        for _ in range(2):
            g1, g2 = random_unitary_versor(n, rng), random_unitary_versor(n, rng)
            pairs.append((g1 * base * g1.reversion(), g2 * base * g2.reversion()))
    e = complex_unit(2)
    pairs.append(((e + complex_basis_vector(2, 1)) * (G1 / 2), e))  # no solution
    return pairs


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_conjugator_basis_matches_dense_nullspace(kind):
    # the integer rows d2 R(p1) - d1 L(p2) have the nullspace basis of the
    # dense rational matrix of g -> g p1 - p2 g, so the accepted g is the same
    # (checked against the dense inverse up to n = 4, where it is cheap)
    pairs = _complex_pairs() if kind == "complex" else _real_pairs()
    for seed, (p1, p2) in enumerate(pairs):
        want = bareiss_oracle.nullspace(map_matrix(p1, lambda g: g * p1 - p2 * g))
        free, point = linalg.nullspace_numerators(_conjugator_rows(p1, p2), 1 << p1.n)
        assert [coords_vector(Multivector(*p1.space_key(), *point([(1, c)]))) for c in free] == want
        if p1.n <= 4:
            assert find_conjugator(p1, p2, seed=seed) == _dense_conjugator(p1, p2, seed)
    assert [find_conjugator(p1, p2) is None for p1, p2 in pairs].count(True) >= 1


@pytest.mark.parametrize("case", ["C2", "C3", "C4", "real"])
def test_conjugator_rows_match_map_matrix(case):
    # row y of the sparse system is d1 d2 times row y of the dense matrix of
    # g -> g p1 - p2 g, every nonzero entry stored and no zero one
    if case == "real":
        # Cl(1,1), Cl(1,0), Cl(0,2) and Cl(0,3), with generators squaring to -1
        pairs = _real_pairs()
    else:
        n = int(case[1:])
        pairs = [pair for pair in _complex_pairs() if pair[0].n == n]
        e, e1 = complex_unit(n), complex_basis_vector(n, 1)
        pairs.append(((e + e1) * (G1 / 2), (e - e1) * (G1 / 2)))
    assert pairs
    for p1, p2 in pairs:
        scale = p1.den * p2.den
        want = []
        for row in map_matrix(p1, lambda g: g * p1 - p2 * g):
            entries = {}
            for x, c in enumerate(row):
                c = GaussianRational.coerce(c) * scale
                if c:
                    assert c.re.denominator == c.im.denominator == 1
                    entries[x] = (int(c.re), int(c.im))
            want.append(entries)
        assert _conjugator_rows(p1, p2) == want


def _dense_left_ideal(p):
    n = p.n
    rows = [coords_vector(Multivector.complex_alg(n, {b: G1}) * p) for b in range(1 << n)]
    red, pivots = bareiss_oracle.rref(rows)
    return tuple(tuple(r) for r in red[: len(pivots)]), tuple(pivots)


def test_left_ideal_matches_dense_rref():
    # the ideal against the dense elimination of all rows e_b p, and both
    # spanning sets left_ideal picks from, the preimages of rho(A p) and the
    # integer rows e_b p, reduced on their own: even n up to 10, and odd n,
    # where rho(p) has two blocks, through (e + e1)/2, a two-factor product
    # and the central (e + s)/2 with s a multiple of omega, whose image has
    # rank zero in one block
    idems = [primitive_idempotent(n).p for n in (2, 4, 6, 8, 10)]
    for n, omega in ((3, GI), (5, G1)):
        e = complex_unit(n)
        idems.append((e + complex_basis_vector(n, 1)) * (G1 / 2))
        idems.append(idempotent_from_factors(n, [
            complex_basis_vector(n, 1),
            complex_basis_vector(n, 2) * complex_basis_vector(n, 3) * GI]))
        idems.append(idempotent_from_factors(n, [
            Multivector.complex_alg(n, {(1 << n) - 1: omega})]))
    e = complex_unit(4)
    idems.append((e + complex_basis_vector(4, 1)) * (G1 / 2))
    for p in idems:
        want = _dense_left_ideal(p)
        space = left_ideal(p)
        rows = tuple(coords_vector(psi) for psi in space.basis)
        assert (rows, space.pivots) == want
        rep = compile_complex_rep(p.n)
        bases = [[row for row, _b, _c in linalg.echelon_numerators(block)]
                 for block in rep.numerator_blocks(p)]
        for spanning in (_row_preimages(rep, bases),
                         multiplication_rows([(p, "right", 1)], transpose=True)):
            done = linalg.echelon_numerators(spanning)
            red = [bareiss_oracle.dense_row(*linalg.reduced_numerators(row, b), GaussianRational, 1 << p.n)
                   for row, b, _c in done]
            assert (tuple(map(tuple, red)), tuple(c for _row, _b, c in done)) == want
    assert space.dim == 8


def test_find_conjugator_needs_a_compiled_model():
    # odd n compiles onto Mat(2^k, C) + Mat(2^k, C), so C(3) is served too
    e = complex_unit(3)
    p1 = (e + complex_basis_vector(3, 1)) * (G1 / 2)
    p2 = (e - complex_basis_vector(3, 1)) * (G1 / 2)
    g = find_conjugator(p1, p2)
    assert g is not None and g == _dense_conjugator(p1, p2, 0)
    assert g * p1 * invert(g) == p2


def test_rep_preimage_inverts_rho():
    # Mat(2^(n/2), C) from C(2), C(4), C(6) and C + C from C(3); then R,
    # R + R, C, H and H + H from real sources
    rng = rng_from_seed(3)
    for n in (2, 4, 6, 3):
        rep = compile_complex_rep(n)
        x = Multivector.complex_alg(n, {
            b: GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
            for b in range(1 << n) if rng.random() < 0.5
        })
        assert rep.preimage(rep.rho(x)) == x
    for sig in (Signature(2, 0), Signature(2, 1), Signature(3, 0), Signature(1, 3), Signature(0, 3)):
        rep = compile_rep(sig)
        for x in (Multivector.real(sig, {}), Multivector.real(sig, {
            b: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for b in range(1 << sig.n) if rng.random() < 0.5
        })):
            assert rep.preimage(rep.rho(x)) == x


def test_spinor_space_golden_digest():
    # sha256 over the pivots and the basis (JSON terms and canonical
    # numerators) of left ideals up to n = 10: the primitive idempotent, the
    # high-rank (e + e1)/2, which goes through the rows e_b p, and a
    # two-factor product, so neither spanning set nor the kernel that
    # reduces it can change a byte of the space
    h = hashlib.sha256()
    for n in range(1, 11):
        e = complex_unit(n)
        idems = [primitive_idempotent(n).p] if n % 2 == 0 else []
        idems.append((e + complex_basis_vector(n, 1)) * (G1 / 2))
        if n >= 3:
            idems.append(idempotent_from_factors(n, [
                complex_basis_vector(n, 1),
                complex_basis_vector(n, 2) * complex_basis_vector(n, 3) * GI]))
        for p in idems:
            space = left_ideal(p)
            h.update(json.dumps([
                list(space.pivots), [multivector_to_json(psi) for psi in space.basis],
                [[psi.den, sorted(psi.re.items()), sorted(psi.im.items())] for psi in space.basis],
            ]).encode())
    assert h.hexdigest() == "d4e5109bb806f75d002eab135e94e530533434b3b6f912edd55cf3a885720974"


def test_solver_choices_golden_digest():
    # sha256 over which conjugator or intertwiner each solver picks, so a
    # change in the candidate order or the random combinations shows up
    h = hashlib.sha256()

    def put(doc):
        h.update(json.dumps(doc, sort_keys=True).encode())

    def put_inter(inter):
        put(None if inter is None else [
            [[format_scalar(inter.ring_tag, x) for x in row] for row in mat]
            for mat in (inter.matrix, inter.inverse)
        ])

    n = 4
    rng = rng_from_seed(11)
    base = primitive_idempotent(n).p
    for trial in range(6):
        g1, g2 = random_unitary_versor(n, rng), random_unitary_versor(n, rng)
        p1, p2 = g1 * base * g1.reversion(), g2 * base * g2.reversion()
        put(multivector_to_json(find_conjugator(p1, p2, seed=trial)))
    # no invertible solution: every candidate is tried and rejected
    e = complex_unit(2)
    assert find_conjugator((e + complex_basis_vector(2, 1)) * (G1 / 2), e) is None
    put_inter(spinor_matrix_model(left_ideal(primitive_idempotent(n)), seed=0).intertwiner)
    f1, f2 = factor_projections(compile_rep(Signature(0, 3)))
    for a, b in ((f1, f1), (f2, f2), (f1, f2)):
        put_inter(rep_equivalence(a, b))
    # a real model against its conjugate by a signed permutation P (P^-1 = P^T)
    real = compile_rep(Signature(3, 1))
    m = real.target.m
    perm, signs = (2, 0, 3, 1), (1, -1, -1, 1)
    P = tuple(tuple(Fraction(signs[i]) if j == perm[i] else Fraction(0) for j in range(m))
              for i in range(m))
    PT = tuple(zip(*P))
    moved = Representation(real.sig, None, real.target,
                           [bareiss_oracle.matmul(bareiss_oracle.matmul(P, g), PT) for g in real.gens])
    put_inter(rep_equivalence(real, moved))
    put_inter(rep_equivalence(quaternion_complexify(compile_rep(Signature(1, 3))),
                              chiral_rep(Signature(1, 3))))
    assert h.hexdigest() == "923e26399c28db54ceea67e7d64ccad3f6d26e459ad43eeb74a5629229d81121"
