"""Versors, the adjoint vector action, reflection factorization and lifting."""

import hashlib
import json
import math
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cliffkit import groups
from cliffkit.algebra import (
    Multivector,
    Signature,
    basis_vector,
    blade_mul,
    multivector_to_json,
    unit,
    vector,
)
from cliffkit.cli import MAX_LIFT_DIM
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
from cliffkit.groups import (
    PseudoOrthogonalMatrix,
    Versor,
    cartan_dieudonne,
    lift_to_pin,
    reflection_matrix,
    reflection_product,
    total_reflection_versor,
    zeta,
)
from cliffkit.sampling import (
    random_anisotropic_vector,
    random_pseudo_orthogonal,
    random_versor,
    rng_from_seed,
)
from cliffkit.scalars import GaussianRational
from cliffkit.spinors import adjoint_automorphism, chiral_rep, spin_block_check
import bareiss_oracle

F = Fraction
E2 = Signature(2, 0)
M11 = Signature(1, 1)


def test_pseudo_orthogonal_validation():
    rot = PseudoOrthogonalMatrix(E2, [[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]])
    assert rot.det() == 1
    assert (rot * rot.inverse()).is_identity()
    with pytest.raises(ValueError):
        PseudoOrthogonalMatrix(E2, [[F(1), F(1)], [F(0), F(1)]])
    with pytest.raises(ValueError):
        PseudoOrthogonalMatrix(E2, [[F(3, 10), F(-2, 5)], [F(2, 5), F(3, 10)]])
    # Lorentz boost preserves the split form but not the Euclidean one
    boost = PseudoOrthogonalMatrix(M11, [[F(5, 4), F(3, 4)], [F(3, 4), F(5, 4)]])
    assert boost.inverse().mat == ((F(5, 4), F(-3, 4)), (F(-3, 4), F(5, 4)))
    with pytest.raises(ValueError):
        PseudoOrthogonalMatrix(E2, boost.mat)


def test_pseudo_orthogonal_json_roundtrip():
    rot = PseudoOrthogonalMatrix(E2, [[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]])
    assert PseudoOrthogonalMatrix.from_json(rot.to_json()) == rot
    assert PseudoOrthogonalMatrix.from_json([["3/5", "-4/5"], ["4/5", "3/5"]], sig=E2) == rot
    with pytest.raises(ValueError):
        PseudoOrthogonalMatrix.from_json([["1", "0"], ["0", "1"]])


def test_cl00_matrix_constructs_and_round_trips():
    # O(0,0) holds the 0 x 0 matrix alone, which zeta of the empty versor returns
    s00 = Signature(0, 0)
    empty = PseudoOrthogonalMatrix(s00, [])
    assert empty.mat == () and empty.is_identity() and empty.det() == 1
    assert empty.to_json() == {"signature": [0, 0], "matrix": []}
    z = zeta(Versor(s00, []))
    assert PseudoOrthogonalMatrix.from_json(z.to_json()) == z == empty


_COEFF = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def signatures(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    p = draw(st.integers(0, n))
    return Signature(p, n - p)


@st.composite
def anisotropic_coords(draw, sig):
    n = sig.n
    return draw(st.lists(_COEFF, min_size=n, max_size=n).filter(
        lambda c: sum(sig.square(i + 1) * c[i] * c[i] for i in range(n)) != 0
    ))


@st.composite
def pseudo_orthogonal(draw, sig):
    """R(w_1) ... R(w_r) for r <= 3 drawn anisotropic vectors, or zeta of the
    versor on them, (-1)^r times that product."""
    ws = [draw(anisotropic_coords(sig)) for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        return zeta(Versor(sig, [vector(sig, w) for w in ws]))
    return reflection_product(sig, ws)


def _int_if_whole(x):
    """x as an int when it is whole, else as a Fraction."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@settings(max_examples=100, deadline=None)
@given(st.data(), signatures(), st.integers(1, 6))
def test_layout_is_canonical_num_over_den(data, sig, k):
    m = data.draw(pseudo_orthogonal(sig))
    assert m.den > 0 and math.gcd(m.den, *(x for row in m.num for x in row)) == 1
    # the same matrix written over the common denominator k d, as strings,
    # as Fractions, as ints where whole, as a drawn mix of the three (ints
    # and Fractions are read directly, the rest through Fraction), through
    # JSON and as the unreduced integer pair
    rows = [[f"{k * x}/{k * m.den}" for x in row] for row in m.num]
    forms = (str, Fraction, _int_if_whole)
    mixed = [[data.draw(st.sampled_from(forms))(x) for x in row] for row in rows]
    builds = [
        PseudoOrthogonalMatrix(sig, rows),
        PseudoOrthogonalMatrix(sig, [[Fraction(x) for x in row] for row in rows]),
        PseudoOrthogonalMatrix(sig, [[_int_if_whole(x) for x in row] for row in rows]),
        PseudoOrthogonalMatrix(sig, mixed),
        PseudoOrthogonalMatrix.from_json(rows, sig=sig),
        PseudoOrthogonalMatrix._from_int(sig, [[k * x for x in row] for row in m.num], k * m.den),
    ]
    for other in builds:
        assert (other.num, other.den) == (m.num, m.den)
        assert other == m and hash(other) == hash(m)
    # .mat is the tuple of Fraction rows the constructor used to store
    old = tuple(tuple(Fraction(x) for x in row) for row in rows)
    for other in builds:
        assert other.mat == old
        assert all(type(x) is Fraction for row in other.mat for x in row)


@settings(max_examples=100, deadline=None)
@given(st.data(), signatures())
def test_layout_product_and_inverse_match_fraction_linalg(data, sig):
    a = data.draw(pseudo_orthogonal(sig))
    b = data.draw(pseudo_orthogonal(sig))
    assert (a * b).mat == bareiss_oracle.matmul(a.mat, b.mat)
    assert a.inverse().mat == bareiss_oracle.inv(a.mat)
    assert (a * a.inverse()).is_identity()


def test_det_matches_dense_oracle():
    # (-1)^r from the reflection count, against the dense Bareiss
    # determinant of the Fraction view, for every signature with
    # 1 <= n <= 6; an odd number of reflections gives -1
    signs = set()
    for n in range(1, 7):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            rng = rng_from_seed(40 + 10 * n + p)
            for _ in range(4):
                m = random_pseudo_orthogonal(sig, rng)
                d = m.det()
                assert type(d) is Fraction and d == bareiss_oracle.det(m.mat)
                signs.add(d)
    assert signs == {1, -1}


@settings(max_examples=100, deadline=None)
@given(st.data(), signatures())
def test_layout_rejects_non_orthogonal_rows(data, sig):
    m = data.draw(pseudo_orthogonal(sig))
    n = sig.n
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    delta = data.draw(_COEFF.filter(bool))
    # column j's norm moves by sq_i delta (2 m_ij + delta), nonzero unless
    # the entry only changes sign
    assume(delta != -2 * m.mat[i][j])
    rows = [list(row) for row in m.mat]
    rows[i][j] += delta
    # Fractions, ints where whole, and strings fail alike, on the form or,
    # with a row or column dropped, on the shape
    whole = [[_int_if_whole(x) for x in row] for row in rows]
    for bad in (rows, whole, [[str(x) for x in row] for row in rows]):
        with pytest.raises(ValueError, match="preserve"):
            PseudoOrthogonalMatrix(sig, bad)
        for cut in (bad[1:], [row[1:] for row in bad]):
            with pytest.raises(ValueError, match="shape"):
                PseudoOrthogonalMatrix(sig, cut)
    with pytest.raises(ValueError):
        PseudoOrthogonalMatrix.from_json([[str(x) for x in row] for row in rows], sig=sig)


@settings(max_examples=100, deadline=None)
@given(st.data(), signatures(), st.integers(0, 2**16))
def test_every_unchecked_build_preserves_the_form(data, sig, seed):
    # _from_int does not run preserves_form; each path through it must
    # preserve the form by construction
    ws = [data.draw(anisotropic_coords(sig)) for _ in range(data.draw(st.integers(0, 3)))]
    # (-1)^r R(w_1) ... R(w_r): for odd r, the negated product
    a, b = reflection_product(sig, ws), zeta(Versor(sig, [vector(sig, w) for w in ws]))
    g = Versor(sig, [vector(sig, data.draw(anisotropic_coords(sig)))
                     for _ in range(data.draw(st.integers(0, 3)))])
    built = [
        a, b,
        reflection_matrix(vector(sig, data.draw(anisotropic_coords(sig)))),
        a * b, b.inverse(), (a * b).inverse(),
        PseudoOrthogonalMatrix.identity(sig),
        zeta(g),
        random_pseudo_orthogonal(sig, rng_from_seed(seed)),
    ]
    for m in built:
        assert m.preserves_form()


def test_reflection_matrix():
    r = reflection_matrix(basis_vector(E2, 1))
    assert r.mat == ((F(-1), F(0)), (F(0), F(1)))
    assert (r * r).is_identity()
    with pytest.raises(ValueError):
        reflection_matrix(vector(M11, [F(1), F(1)]))
    assert reflection_product(E2, [(F(1), F(0))]) == r
    assert zeta(Versor(E2, [basis_vector(E2, 1)])) == PseudoOrthogonalMatrix(E2, [[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        reflection_product(M11, [(F(1), F(1))])


@st.composite
def supported_vectors(draw, sig):
    """An integer vector with a drawn support of 1 to n coordinates."""
    n = sig.n
    support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    u = [0] * n
    for i in support:
        u[i] = draw(st.integers(-3, 3).filter(bool))
    return u


def _dense_reflect_columns(sig, u, cols, d):
    """The columns of R(u) X / d, with R(u) the dense ``reflection_matrix``."""
    r = reflection_matrix(vector(sig, u)).mat
    return [[sum(F(r_ij * x_j, d) for r_ij, x_j in zip(row, x)) for row in r] for x in cols]


def _check_reflect(sig, u, cols, d):
    """``_reflect`` against the dense reflection in Fractions: the same
    matrix as a reduced pair, and no input list changed or returned."""
    before = [list(x) for x in cols]
    out, d_out = groups._reflect(sig, u, cols, d)
    assert cols == before
    assert out is not cols and all(y is not x for y in out for x in cols)
    assert d_out > 0 and math.gcd(d_out, *(y_i for y in out for y_i in y)) == 1
    assert [[F(y_i, d_out) for y_i in y] for y in out] == _dense_reflect_columns(sig, u, cols, d)


@settings(max_examples=300, deadline=None)
@given(st.data(), signatures(max_n=5))
def test_reflect_matches_the_dense_reflection(data, sig):
    u = data.draw(supported_vectors(sig))
    assume(sum(sig.square(i + 1) * x * x for i, x in enumerate(u)) != 0)
    n = sig.n
    cols = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                              min_size=1, max_size=n + 1))
    _check_reflect(sig, u, cols, data.draw(st.integers(1, 6)))


@pytest.mark.parametrize("sig, u, cols, d", [
    # axis vectors: a sign flip of one row, over d = 1 and d > 1
    (Signature(2, 1), [0, -1, 0], [[2, -1, 3], [0, 4, 1]], 3),
    (Signature(1, 2), [0, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1),
    # |Q(u)| = 1 on a support of 3, and |Q(u)| > 1 on a support of 1 and of 2
    (Signature(2, 1), [1, 1, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1),
    (Signature(1, 2), [0, 0, 2], [[2, -2, 6]], 2),
    (Signature(2, 2), [0, 1, 0, 3], [[1, 2, 3, 4], [0, 0, 0, 0]], 5),
])
def test_reflect_on_axis_and_unit_vectors(sig, u, cols, d):
    _check_reflect(sig, u, cols, d)


@pytest.mark.parametrize("sig, u", [
    (M11, [1, 1]), (M11, [2, -2]), (Signature(2, 2), [1, 0, 0, 1]),
    (Signature(2, 2), [1, 1, 1, 1]), (E2, [0, 0]), (M11, [0, 0]), (Signature(0, 3), [0, 0, 0]),
])
def test_reflect_refuses_isotropic_and_zero_vectors(sig, u):
    cols = [[int(i == a) for i in range(sig.n)] for a in range(sig.n)]
    with pytest.raises(ValueError, match="isotropic"):
        groups._reflect(sig, u, cols, 1)


def test_versor_construction_rules():
    v = vector(E2, [F(3), F(4)])
    g = Versor(E2, [v, basis_vector(E2, 2)])
    assert g.is_spin and not g.pin_normalized
    assert g.product * g.inverse_mv() == unit(E2)
    with pytest.raises(ValueError):
        Versor(M11, [vector(M11, [F(1), F(1)])])
    with pytest.raises(ValueError):
        Versor(E2, [unit(E2) + basis_vector(E2, 1)])


def test_matrices_versors_and_multivectors_refuse_assignment():
    # caches share these objects (a matrix's Fraction view, a versor's
    # product, a multivector's term dict), so no attribute may be rebound
    v = vector(E2, [F(3), F(4)])
    m, g = reflection_matrix(v), Versor(E2, [v, basis_vector(E2, 2)])
    mat, prod = m.mat, g.product
    for obj, names in ((m, ("sig", "num", "den", "_mat")),
                       (g, ("sig", "vecs", "_factors", "_product")),
                       (prod, ("sig", "n", "den", "re", "im", "_terms"))):
        for name in names:
            with pytest.raises(AttributeError, match=f"{type(obj).__name__} is immutable"):
                setattr(obj, name, None)
    assert m.mat is mat and g.product is prod and prod == v * basis_vector(E2, 2)


def test_zeta_single_vector_is_minus_reflection():
    g = Versor(E2, [basis_vector(E2, 1)])
    m = zeta(g)
    assert m.mat == ((F(1), F(0)), (F(0), F(-1)))
    refl = reflection_matrix(basis_vector(E2, 1))
    minus = PseudoOrthogonalMatrix(E2, [[-x for x in row] for row in refl.mat])
    assert m == minus


def test_zeta_total_reflection_even_dimension():
    for sig in (E2, M11, Signature(2, 2)):
        m = zeta(total_reflection_versor(sig))
        n = sig.n
        assert m.mat == tuple(
            tuple(F(-1) if i == j else F(0) for j in range(n)) for i in range(n)
        )


def test_zeta_multiplicative_and_sign_blind():
    rng = rng_from_seed(7)
    for sig in (E2, M11, Signature(1, 2)):
        for _ in range(10):
            g = random_versor(sig, rng)
            h = random_versor(sig, rng)
            assert zeta(g * h) == zeta(g) * zeta(h)
            assert zeta(g) == zeta(g.negated())
            assert g.negated().product == -g.product


def _dense_zeta_columns(g):
    """Definition of zeta: column a is g.product * e_a * g^-1."""
    ginv = g.inverse_mv()
    return [
        (g.product * basis_vector(g.sig, a) * ginv).vector_coords()
        for a in range(1, g.sig.n + 1)
    ]


@st.composite
def axis_run(draw, sig):
    """0 to 3 axis vectors k e_a, k a nonzero rational: one nonzero coordinate each."""
    return [basis_vector(sig, draw(st.integers(1, sig.n))) * draw(_COEFF.filter(bool))
            for _ in range(draw(st.integers(0, 3)))]


@st.composite
def versors(draw):
    """0 to 4 drawn anisotropic vectors with runs of axis vectors before,
    among and after them, on p + q <= 6, possibly negated."""
    sig = draw(signatures(max_n=6))
    general = [vector(sig, draw(anisotropic_coords(sig))) for _ in range(draw(st.integers(0, 4)))]
    cut = draw(st.integers(0, len(general)))
    factors = (draw(axis_run(sig)) + general[:cut] + draw(axis_run(sig)) + general[cut:]
               + draw(axis_run(sig)))
    g = Versor(sig, factors)
    return g.negated() if draw(st.booleans()) else g


@settings(max_examples=150, deadline=None)
@given(versors())
def test_zeta_matches_definition_and_reflections(g):
    n = g.sig.n
    cols = [zeta(g).column(a) for a in range(n)]
    assert cols == _dense_zeta_columns(g)
    # zeta of a single vector is minus its reflection: (-1)^k R(v_1) ... R(v_k)
    refl = PseudoOrthogonalMatrix.identity(g.sig)
    for v in g.factors:
        refl = refl * reflection_matrix(v)
    sign = -1 if len(g.factors) % 2 else 1
    assert cols == [tuple(sign * x for x in refl.column(a)) for a in range(n)]


def _eight_factor_versor_4_4():
    sig = Signature(4, 4)
    coords = [
        (1, -1, 2, -1, 3, 2, 3, 2),
        (2, 1, 0, 1, -1, 1, 0, 1),
        (F(1, 2), 3, -1, 2, 1, 0, 2, -1),
        (1, 0, 1, 0, 0, 2, 0, 1),
        (-2, 1, 1, 3, 1, -1, 2, 0),
        (3, F(2, 3), 1, 1, 2, 2, 1, 1),
        (0, 1, -1, 1, 1, 0, -2, 1),
        (1, 2, 3, 4, 4, 3, 2, 2),
    ]
    return Versor(sig, [vector(sig, [F(c) for c in row]) for row in coords])


def test_zeta_eight_factors_at_4_4_matches_definition():
    g = _eight_factor_versor_4_4()
    m = zeta(g)
    assert [m.column(a) for a in range(8)] == _dense_zeta_columns(g)


def test_zeta_term_pair_count(monkeypatch):
    # deterministic work count: zeta works in coordinates and multiplies no multivectors
    g = _eight_factor_versor_4_4()
    pairs = 0
    plain_mul = Multivector.__mul__

    def counting_mul(a, b):
        nonlocal pairs
        if isinstance(b, Multivector):
            pairs += len(a.terms) * len(b.terms)
        return plain_mul(a, b)

    monkeypatch.setattr(Multivector, "__mul__", counting_mul)
    zeta(g)
    assert pairs == 0


def test_lift_and_zeta_multiply_no_multivectors(monkeypatch):
    # the lift's round trip and zeta never form the versor product
    rng = rng_from_seed(5)
    sigs = (E2, M11, Signature(1, 3), Signature(2, 2), Signature(4, 4))
    mats = [random_pseudo_orthogonal(sig, rng) for sig in sigs for _ in range(3)]
    g8 = _eight_factor_versor_4_4()
    calls = 0
    plain_mul = Multivector.__mul__

    def counting_mul(a, b):
        nonlocal calls
        calls += 1
        return plain_mul(a, b)

    monkeypatch.setattr(Multivector, "__mul__", counting_mul)
    for m in mats:
        assert zeta(lift_to_pin(m)) == m
    zeta(g8)
    assert calls == 0


def _schoolbook_chain(g):
    """v_1 v_2 ... v_k multiplied left to right, term by term over Fractions."""
    acc = {0: F(1)}
    for v in g.factors:
        out = {}
        for b1, c1 in acc.items():
            for b2, c2 in v.terms.items():
                sign, b = blade_mul(b1, b2, g.sig)
                out[b] = out.get(b, 0) + sign * c1 * c2
        acc = out
    return Multivector.real(g.sig, acc)


@settings(max_examples=150, deadline=None)
@given(versors())
def test_versor_product_is_the_lazy_chain(g):
    want = _schoolbook_chain(g)
    fresh = Versor(g.sig, g.factors)
    # negated before the product exists: multiplied out from its own factors
    neg = fresh.negated()
    assert fresh._product is None and neg._product is None
    assert neg.product == -want
    assert fresh.product == want
    # negated after: the product is carried over, and agrees with the chain
    carried = fresh.negated()
    assert carried._product == -want
    assert Versor(g.sig, carried.factors).product == -want
    one = unit(g.sig)
    assert fresh.product * fresh.inverse_mv() == one
    assert fresh.inverse_mv() * fresh.product == one


_SIGS_TO_6 = [Signature(p, n - p) for n in range(1, 7) for p in range(n + 1)]


@pytest.mark.parametrize("sig", _SIGS_TO_6, ids=str)
def test_vector_chain_folds_axis_runs_as_the_schoolbook_chain(sig):
    # runs of axis factors at the start, in the middle and at the end, with
    # repeated axes (e_a e_a is the scalar Q(e_a)), negative and fractional
    # multiples, and a run that folds to a scalar
    n = sig.n
    e = [None] + [basis_vector(sig, a) for a in range(1, n + 1)]
    general = [vector(sig, [F(1 + (a + s) % 3, 1 + s) for a in range(n)]) for s in (0, 1)]
    general = [v for v in general if (v * v).scalar_part()]
    runs = [
        [e[n] * 2, e[1], e[n] * F(-1, 3)],
        [e[a] for a in range(1, n + 1)],
        [e[1] * -1, e[1]],
    ]
    chains = [
        runs[0] + general + runs[1],
        general[:1] + runs[1] + general[1:],
        runs[2] + general + runs[0] + runs[2],
        runs[1] + runs[2],
        runs[2],
        general,
    ]
    for factors in chains:
        g = Versor(sig, factors)
        assert g.product == _schoolbook_chain(g) == _fold(sig, factors)


def test_odd_and_fallback_lifts_are_the_schoolbook_chain():
    # an odd reflection count is patched by omega = e_1 ... e_n, and the
    # isotropic fallback appends e_a: both are runs of axis factors
    s22 = Signature(2, 2)
    odd = [reflection_product(sig, [[2] + [1] * (sig.n - 1)])
           for sig in (E2, M11, s22, Signature(6, 0), Signature(3, 3))]
    assert all(cartan_dieudonne(m).r % 2 for m in odd)
    # R(e_1 + k/2) R(e_1) with k = e_2 + e_3 null sends e_1 to e_1 + k, which
    # the first step of the factorization cannot take back across x - e_1
    fallback = reflection_product(s22, [[1, F(1, 2), F(1, 2), 0], [1, 0, 0, 0], [0, 2, 1, 0]])
    assert cartan_dieudonne(fallback).fallback_count > 0
    for m in odd + [fallback]:
        cd = cartan_dieudonne(m)
        g = lift_to_pin(m)
        patch = groups._unit_vecs(m.sig.n) if cd.r % 2 else []
        assert g.vecs[cd.r:] == tuple(patch)
        assert g.product == _schoolbook_chain(g)
        assert zeta(g) == m


def test_negated_shares_no_cached_product():
    rng = rng_from_seed(17)
    sigs = (E2, M11, Signature(1, 3), Signature(2, 2), Signature(3, 0))
    gs = [random_versor(sig, rng, k) for sig in sigs for k in (1, 2, 4)]
    gs += [Versor(sig, []) for sig in sigs]
    for g in gs:
        prod = g.product
        prod_before = (prod.den, dict(prod.re))
        factors_before = [(v.den, dict(v.re)) for v in g.factors]
        neg = g.negated()
        assert neg._product == -prod
        assert neg.product.re is not prod.re
        # writing into the negation's numerators leaves the original untouched
        neg.product.re[0] = neg.product.re.get(0, 0) + 1
        for v in neg.factors[:1]:
            v.re[1] = v.re.get(1, 0) + 1
        assert g.product is prod and (prod.den, prod.re) == prod_before
        assert [(v.den, v.re) for v in g.factors] == factors_before
        assert g.negated().product == -g.product
        # a negation that carries the product equals one rebuilt from scratch
        h = canonical_sign(g).negated()
        fresh = Versor(g.sig, h.factors)
        assert h._product is not None and h.product == fresh.product
        assert h._norm == fresh._norm
        assert (h.parity, h.pin_normalized) == (fresh.parity, fresh.pin_normalized)
        assert zeta(g) == zeta(g.negated())


def _fold(sig, factors):
    """The product as a left fold of Multivector products, 1 for no factors."""
    return reduce(mul, factors[1:], factors[0]) if factors else unit(sig)


def _check_versor(g, factors):
    """g against the oracles for the versor of the Multivectors ``factors``."""
    sig = g.sig
    norms = [(v * v).scalar_part() for v in factors]
    assert g.factors == tuple(factors)
    assert g.product == _fold(sig, factors)
    assert g.parity == len(factors) % 2 and g.is_spin == (g.parity == 0)
    assert g.pin_normalized == all(abs(q) == 1 for q in norms)
    assert g._norm == reduce(mul, norms, F(1))
    assert g.inverse_mv() == g.product.reversion() / reduce(mul, norms, F(1))
    assert g.product * g.inverse_mv() == unit(sig)
    m = zeta(g)
    assert [m.column(a) for a in range(sig.n)] == _dense_zeta_columns(g)


@st.composite
def lift_inputs(draw):
    """A signature with p + q <= 8 and, for even n, a matrix to lift: a
    product of 0 to 3 reflections (an odd count takes the omega patch),
    possibly times a null rotation that takes the isotropic fallback."""
    sig = draw(st.sampled_from([Signature(p, n - p) for n in range(1, 9) for p in range(n + 1)]))
    n, p = sig.n, sig.p
    if n % 2:
        return sig, None
    coords = anisotropic_coords(sig)
    if p >= 2 and sig.q >= 1 and draw(st.booleans()):
        # R(e_1 + k/2) R(e_1) with k = e_2 + e_(p+1) null sends e_1 to e_1 + k,
        # and reflections across vectors orthogonal to e_1 keep it there, so
        # the first step takes the isotropic fallback
        null = [[F(int(i == 0)) + F(1, 2) * (i in (1, p)) for i in range(n)],
                [int(i == 0) for i in range(n)]]
        coords = coords.map(lambda c: [0] + c[1:]).filter(
            lambda c: sum(sig.square(i + 1) * x * x for i, x in enumerate(c)))
    else:
        null = []
    ws = [draw(coords) for _ in range(draw(st.integers(0, 3)))]
    return sig, reflection_product(sig, null + ws)


@settings(max_examples=60, deadline=None)
@given(lift_inputs(), st.data())
def test_integer_versor_matches_the_multivector_oracles(inputs, data):
    sig, m = inputs
    n = sig.n
    drawn = [vector(sig, data.draw(anisotropic_coords(sig))) for _ in range(data.draw(st.integers(0, 3)))]
    built = [(Versor(sig, drawn), drawn), (Versor(sig, []), [])]
    if m is not None:
        g = lift_to_pin(m)
        cd = cartan_dieudonne(m)
        want = list(cd.vectors)
        if cd.r % 2:
            want += [basis_vector(sig, i) for i in range(1, n + 1)]
        assert zeta(g) == m
        built += [(g, want), (Versor(sig, want), want)]
    for g, factors in list(built):
        for h, h_factors in built[:2]:
            built.append((g * h, factors + h_factors))
    for g, factors in built:
        _check_versor(g, factors)
        # negated before and after the product is read; the empty versor
        # becomes e_1 (-Q(e_1) e_1)
        neg_factors = ([-factors[0]] + factors[1:] if factors
                       else [basis_vector(sig, 1), basis_vector(sig, 1) * -sig.square(1)])
        _check_versor(Versor(sig, factors).negated(), neg_factors)
        _check_versor(g.negated(), neg_factors)
        assert g.negated().product == -g.product


def test_random_pseudo_orthogonal_is_the_dense_reflection_product():
    # a twin RNG replays the draws: the sampler returns the product of dense
    # reflection matrices and leaves the RNG where the draws left it
    for n in range(1, 7):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            rng, twin = rng_from_seed(10 * n + p), rng_from_seed(10 * n + p)
            for _ in range(5):
                m = random_pseudo_orthogonal(sig, rng)
                want = PseudoOrthogonalMatrix.identity(sig)
                for _ in range(twin.randint(1, n)):
                    want = want * reflection_matrix(random_anisotropic_vector(sig, twin))
                assert m == want
                assert rng.getstate() == twin.getstate()


def test_cartan_dieudonne_rotation():
    rot = PseudoOrthogonalMatrix(E2, [[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]])
    cd = cartan_dieudonne(rot)
    assert cd.r <= 2 and cd.fallback_count == 0
    comp = PseudoOrthogonalMatrix.identity(E2)
    for w in cd.vectors:
        comp = comp * reflection_matrix(w)
    assert comp == rot
    assert cartan_dieudonne(PseudoOrthogonalMatrix.identity(E2)).r == 0


def test_cartan_dieudonne_bounds_random():
    rng = rng_from_seed(3)
    for sig in (Signature(3, 0), Signature(2, 1), Signature(2, 2)):
        for _ in range(20):
            m = random_pseudo_orthogonal(sig, rng)
            cd = cartan_dieudonne(m)
            assert cd.r <= 2 * sig.n
            if cd.fallback_count == 0:
                assert cd.r <= sig.n
            comp = PseudoOrthogonalMatrix.identity(sig)
            for w in cd.vectors:
                comp = comp * reflection_matrix(w)
            assert comp == m


def test_lift_to_pin_reflection_patched_by_omega():
    m = PseudoOrthogonalMatrix(E2, [[F(1), F(0)], [F(0), F(-1)]])
    g = lift_to_pin(m)
    assert zeta(g) == m
    # one reflection plus the omega patch: the product is a multiple of e1
    assert g.product == basis_vector(E2, 1) * F(2)
    with pytest.raises(ValueError):
        lift_to_pin(PseudoOrthogonalMatrix.identity(Signature(2, 1)))


def test_lift_to_pin_round_trip_random():
    rng = rng_from_seed(11)
    for sig in (E2, M11, Signature(1, 3), Signature(2, 2)):
        for _ in range(10):
            m = random_pseudo_orthogonal(sig, rng)
            assert zeta(lift_to_pin(m)) == m


ROT = PseudoOrthogonalMatrix(E2, [[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]])


def _corrupt_reflect(monkeypatch, step, col, row):
    """Make the ``step``-th ``_reflect`` call (from 1) return one entry off:
    row ``row`` of column ``col`` raised by 1."""
    reflect, calls = groups._reflect, []

    def corrupted(sig, u, cols, d):
        out, d = reflect(sig, u, cols, d)
        calls.append(u)
        if len(calls) == step:
            out[col][row] += 1
        return out, d

    monkeypatch.setattr(groups, "_reflect", corrupted)


# the rotation factors as R(u_1) fixing column 0, then R(u_2) fixing column 1:
# an entry off in column 0 after either step stays off through the steps that
# follow, and the residue check, the factorization's one check, refuses it
_GUARDS = [(1, 0, 1, "factorization left a nonidentity residue"),
           (2, 0, 0, "factorization left a nonidentity residue")]


@pytest.mark.parametrize("step, col, row, match", _GUARDS)
def test_cartan_dieudonne_guards_fire_on_a_corrupted_reflection(monkeypatch, step, col, row, match):
    assert cartan_dieudonne(ROT).r == 2
    _corrupt_reflect(monkeypatch, step, col, row)
    with pytest.raises(AssertionError, match=match):
        groups._cartan_dieudonne(ROT)


@pytest.mark.parametrize("step, col, row, match", _GUARDS)
def test_lift_passes_a_failed_factorization_on(monkeypatch, step, col, row, match):
    # the residue check is the lift's one proof: a corrupted step reaches
    # neither a versor from lift_to_pin nor a result from pin_lift_cocycle,
    # whose first distinct edge matrix is the rotation
    ident = PseudoOrthogonalMatrix.identity(E2)
    coc = GroupCocycle.build(filled_triangle(), E2, {(0, 1): ROT, (0, 2): ROT, (1, 2): ident})
    assert pin_lift_cocycle(coc).success
    _corrupt_reflect(monkeypatch, step, col, row)
    with pytest.raises(AssertionError, match=match):
        lift_to_pin(ROT)
    monkeypatch.undo()
    _corrupt_reflect(monkeypatch, step, col, row)
    with pytest.raises(AssertionError, match=match):
        pin_lift_cocycle(coc)


def test_lift_reflects_once_per_factorization_vector(monkeypatch):
    # r reflections in the factorization, r calls of _reflect in the lift:
    # the lift does not rebuild zeta(g) through the same kernel
    rng = rng_from_seed(5)
    reflect, calls = groups._reflect, []
    monkeypatch.setattr(groups, "_reflect", lambda *args: calls.append(1) or reflect(*args))
    seen = set()
    for sig in (E2, M11, Signature(4, 0), Signature(2, 2), Signature(1, 3)):
        for _ in range(12):
            m = random_pseudo_orthogonal(sig, rng)
            r = len(groups._cartan_dieudonne(m)[0])
            del calls[:]
            g = lift_to_pin(m)
            assert len(calls) == r
            assert len(g.vecs) == (r if r % 2 == 0 else r + sig.n)
            seen.add(r % 2)
    assert seen == {0, 1}


def test_total_reflection_is_minus_identity_up_to_the_lift_bound():
    # the constant behind the lift's odd-count patch: zeta(omega) = -I for
    # every even n the lift accepts and every split p + q = n
    for n in range(2, MAX_LIFT_DIM + 1, 2):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            minus = tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))
            m = zeta(total_reflection_versor(sig))
            assert (m.num, m.den) == (minus, 1)


def test_adjoint_automorphism():
    sig = Signature(1, 2)
    g = unit(sig) + basis_vector(sig, 1) * F(1, 2)
    a = basis_vector(sig, 2) * basis_vector(sig, 3)
    b = basis_vector(sig, 1)
    assert adjoint_automorphism(g, a * b) == adjoint_automorphism(g, a) * adjoint_automorphism(g, b)
    with pytest.raises(ValueError):
        adjoint_automorphism(unit(E2) + basis_vector(E2, 1), unit(E2))


def test_versor_repr_and_foreign_operands():
    # a string is no matrix and no versor: __mul__ and __eq__ decline it
    g = Versor(E2, [vector(E2, (F(1), F(2)))])
    assert repr(g) == "Versor((2,0), 1 factors, <Cl(2,0) (1)*e1 + (2)*e2>)"
    m = PseudoOrthogonalMatrix.identity(E2)
    assert m != "m" and not (m == "m")
    for x in (g, m):
        with pytest.raises(TypeError):
            x * "x"


def test_chiral_models_verify():
    for sig in (Signature(1, 3), Signature(4, 0)):
        rep = chiral_rep(sig)
        assert rep.verify()
    with pytest.raises(ValueError):
        chiral_rep(Signature(2, 2))


def _chiral_gamma(mu):
    """gamma^mu = [[0, sigmabar^mu], [sigma^mu, 0]] in dense 2x2 blocks, with
    sigma^mu = (1, sigma_1, sigma_2, sigma_3) and sigmabar^mu = (1, -sigma_1,
    -sigma_2, -sigma_3)."""
    g0, g1, gi = GaussianRational(0), GaussianRational(1), GaussianRational(0, 1)
    s = (((g1, g0), (g0, g1)), ((g0, g1), (g1, g0)),
         ((g0, -gi), (gi, g0)), ((g1, g0), (g0, -g1)))[mu]
    bar = s if mu == 0 else tuple(tuple(-x for x in row) for row in s)
    return tuple((g0, g0) + row for row in bar) + tuple(row + (g0, g0) for row in s)


def test_chiral_models_match_the_dense_gamma_matrices():
    # the monomial table against the Weyl-block formula; Cl(4,0) takes
    # gamma^1, gamma^2, gamma^3 times -i
    dense = tuple(_chiral_gamma(mu) for mu in range(4))
    assert chiral_rep(Signature(1, 3)).gens == dense
    minus_i = GaussianRational(0, -1)
    want = dense[:1] + tuple(tuple(tuple(minus_i * x for x in row) for row in g) for g in dense[1:])
    assert chiral_rep(Signature(4, 0)).gens == want


def test_spin_block_structure_1_3():
    sig = Signature(1, 3)
    # unit vectors: 3^2 - 2^2 - 2^2 = 1 and (5/4)^2 - (3/4)^2 = 1
    v1 = vector(sig, (F(3), F(2), F(2), F(0)))
    v2 = vector(sig, (F(5, 4), F(3, 4), F(0), F(0)))
    g = Versor(sig, [v1, v2])
    assert g.pin_normalized and g.is_spin
    res = spin_block_check(g, sig)
    assert res.block_diagonal
    assert res.relation_ok
    assert res.det_A == 1
    assert res.component == "restricted"
    # unnormalized versors are flagged as such
    h = Versor(sig, [vector(sig, (F(2), F(0), F(0), F(0))), v2])
    assert spin_block_check(h, sig).component == "unnormalized"
    with pytest.raises(ValueError):
        spin_block_check(Versor(sig, [v1]), sig)


def test_spin_block_structure_4_0():
    sig = Signature(4, 0)
    w1 = vector(sig, (F(3, 5), F(4, 5), F(0), F(0)))
    w2 = vector(sig, (F(0), F(0), F(1), F(0)))
    g = Versor(sig, [w1, w2])
    res = spin_block_check(g, sig)
    assert res.block_diagonal and res.relation_ok
    assert res.det_A == 1 and res.det_D == 1
    assert res.component == "restricted"


def _torus():
    """Seven-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    tris = sorted({tuple(sorted((i, (i + a) % 7, (i + 3) % 7)))
                   for i in range(7) for a in (1, 2)})
    edges = sorted({(a, b) for t in tris for a in t for b in t if a < b})
    return Complex.build(7, edges=edges, triangles=tris)


def test_orthogonal_side_golden_digest():
    # sha256 over what the O(p,q) side returns for seeded inputs: sampler
    # matrices, Cartan-Dieudonne vectors and fallback counts, lifted versors
    # (factors and products), zeta matrices, and Cech pin lifts with their
    # discrepancies, so a change of arithmetic that alters any output shows
    h = hashlib.sha256()

    def put(doc):
        h.update(json.dumps(doc, sort_keys=True).encode())

    def put_versor(g):
        put([multivector_to_json(v) for v in g.factors])
        put(multivector_to_json(g.product))

    fallbacks = 0
    for n in range(1, 7):
        for p in range(n + 1):
            q = n - p
            sig = Signature(p, q)
            rng = rng_from_seed(100 * n + p)
            mats = [random_pseudo_orthogonal(sig, rng) for _ in range(4)]
            if p >= 2 and q >= 1:
                # a null rotation: column 1 is e_1 + k with k = e_2 + e_(p+1)
                # null, so the first step takes the isotropic fallback
                w = [F(int(i == 0)) + F(1, 2) * (i in (1, p)) for i in range(n)]
                mats.append(reflection_product(sig, [w, [int(i == 0) for i in range(n)]]))
            for m in mats:
                put(m.to_json())
                cd = cartan_dieudonne(m)
                put([multivector_to_json(w) for w in cd.vectors])
                put(cd.fallback_count)
                fallbacks += cd.fallback_count
                if n % 2 == 0:
                    put_versor(lift_to_pin(m))
                g = random_versor(sig, rng, num_factors=rng.randint(1, 3))
                put(zeta(g).to_json())
    assert fallbacks > 0  # the isotropic branch is part of the digest
    for n in (2, 4):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            rng = rng_from_seed(700 + 10 * n + p)
            minus = PseudoOrthogonalMatrix(sig, [[-int(i == j) for j in range(n)] for i in range(n)])
            rp2 = projective_plane()
            twist = nontrivial_1cocycle(rp2)
            cases = [(tetrahedron_boundary(), None), (_torus(), None), (rp2, None), (rp2, twist)]
            for c, s in cases:
                hv = {v: random_pseudo_orthogonal(sig, rng) for v in range(c.vertices)}
                edges = {}
                for e in c.edges:
                    i, j = e
                    mid = minus if s is not None and s.bit(e) else PseudoOrthogonalMatrix.identity(sig)
                    edges[e] = hv[i].inverse() * mid * hv[j]
                res = pin_lift_cocycle(GroupCocycle.build(c, sig, edges))
                put([res.success, res.lift_count, res.obstruction_nonzero])
                put(sorted(res.discrepancy.values.items()))
                for e in c.edges:
                    if e in res.lifts:
                        put_versor(res.lifts[e])
    assert h.hexdigest() == "b1802090a2121d5623f025e404e0dc8bc2ff1fb632b5b6497bf9d642cdab2571"
