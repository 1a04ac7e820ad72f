"""Exact linear algebra on sparse Gaussian-integer rows.

The dense helpers below run a dense matrix through the numerator entry
points of ``linalg`` (``numerator_matrix`` in, the reduced rows or
``dense_matrix`` out); the tests compare them with hand values and with the
dense oracles of ``bareiss_oracle`` and of this module.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffkit import linalg
from cliffkit.scalars import GAUSSIAN, QUATERNION, RATIONAL, GaussianRational, Quaternion
import bareiss_oracle
from rank_oracle import SparseRankAccumulator


def F(a, b=1):
    return Fraction(a, b)


def _tag(rows):
    """GAUSSIAN when an entry is a GaussianRational, else RATIONAL."""
    return GAUSSIAN if any(isinstance(x, GaussianRational) for row in rows for x in row) else RATIONAL


def _ring(rows):
    return GaussianRational if _tag(rows) == GAUSSIAN else Fraction


def identity(n, one=Fraction(1)):
    return tuple(tuple(one if i == j else one - one for j in range(n)) for i in range(n))


def rref(rows):
    """(red, pivots) of a dense matrix over Q or Q(i) off ``echelon_numerators``,
    zero rows appended as in ``bareiss_oracle.rref``."""
    if not rows:
        return [], []
    ring, n_cols = _ring(rows), len(rows[0])
    done = linalg.echelon_numerators(linalg.numerator_matrix(rows, _tag(rows))[1])
    red = [bareiss_oracle.dense_row(*linalg.reduced_numerators(row, b), ring, n_cols)
           for row, b, _c in done]
    red += [[ring(0)] * n_cols for _ in range(len(rows) - len(red))]
    return red, [c for _row, _b, c in done]


def rank(rows, tag=None):
    """Rank off ``echelon_numerators``; a quaternion matrix through chi."""
    tag = tag or _tag(rows)
    return len(linalg.echelon_numerators(linalg.numerator_matrix(rows, tag)[1])) // (
        2 if tag == QUATERNION else 1)


def nullspace(rows):
    """The nullspace basis read off ``nullspace_numerators``."""
    if not rows:
        return []
    ring, n_cols = _ring(rows), len(rows[0])
    free, point = linalg.nullspace_numerators(linalg.numerator_matrix(rows, _tag(rows))[1], n_cols)
    return [tuple(bareiss_oracle.dense_row(*point([(1, c)]), ring, n_cols)) for c in free]


def inv(a, tag=None):
    """``inverse_numerators`` between the two edges, or None."""
    tag = tag or _tag(a)
    found = linalg.inverse_numerators(*linalg.numerator_matrix(a, tag))
    return None if found is None else linalg.dense_matrix(*found, tag)


def test_rref_and_rank_rational():
    rows = [
        [F(1), F(2), F(3)],
        [F(2), F(4), F(6)],
        [F(0), F(1), F(1)],
    ]
    red, pivots = rref(rows)
    assert pivots == [0, 1]
    assert red[0] == [F(1), F(0), F(1)]
    assert red[1] == [F(0), F(1), F(1)]
    assert rank(rows) == 2


def test_nullspace_rational():
    rows = [[F(1), F(2), F(3)], [F(0), F(1), F(1)]]
    basis = nullspace(rows)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


@pytest.mark.parametrize("ring", [Fraction, GaussianRational])
def test_nullspace_numerators_of_zero_matrix_is_standard_basis(ring):
    n = 4
    rows = [{} for _ in range(3)]
    free, point = linalg.nullspace_numerators(rows, n)
    assert free == list(range(n))
    assert [point([(1, c)]) for c in free] == [(1, {c: 1}, {}) for c in range(n)]
    assert linalg.nullspace_numerators([], n)[0] == free
    assert linalg.echelon_numerators(rows) == []
    zero = [[ring(0)] * n for _ in range(3)]
    assert linalg.numerator_matrix(zero, GAUSSIAN if ring is GaussianRational else RATIONAL) == (1, rows)
    basis = [tuple(bareiss_oracle.dense_row(*point([(1, c)]), ring, n)) for c in free]
    assert basis == [tuple(ring(int(i == j)) for j in range(n)) for i in range(n)]
    assert all(type(x) is ring for v in basis for x in v)


def test_numerator_entry_points_match_rref_and_nullspace():
    # scaled integer rows give the rref and nullspace of the rational rows,
    # and a point of the span read off the reduced rows is the combination
    # of the basis vectors
    rng = random.Random(31)
    for ring in (Fraction, GaussianRational):
        for _ in range(20):
            n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
            re = [[rng.choice([0, 0, rng.randint(-5, 5)]) for _ in range(n_cols)]
                  for _ in range(n_rows)]
            im = [[rng.choice([0, 0, rng.randint(-5, 5)]) if ring is GaussianRational else 0
                   for _ in range(n_cols)] for _ in range(n_rows)]
            d = rng.randint(1, 7)
            rows = [[ring(Fraction(x, d), Fraction(y, d)) if ring is GaussianRational
                     else Fraction(x, d) for x, y in zip(r, i)] for r, i in zip(re, im)]
            scale = rng.choice([1, -3, 6])
            num = [{j: (scale * x, scale * y) for j, (x, y) in enumerate(zip(r, i)) if x or y}
                   for r, i in zip(re, im)]
            red, pivots = bareiss_oracle.rref(rows)
            done = linalg.echelon_numerators(num)
            assert [bareiss_oracle.dense_row(*linalg.reduced_numerators(row, b), ring, n_cols)
                    for row, b, _c in done] == red[: len(pivots)]
            assert [c for _row, _b, c in done] == pivots
            basis = bareiss_oracle.nullspace(rows)
            free, point = linalg.nullspace_numerators(num, n_cols)
            assert len(free) == len(basis)
            assert [tuple(bareiss_oracle.dense_row(*point([(1, c)]), ring, n_cols)) for c in free] == basis
            coeffs = [rng.choice([-2, -1, 1, 3]) for _ in free]
            want = [sum((f * v[j] for f, v in zip(coeffs, basis)), ring(0)) for j in range(n_cols)]
            den, pre, pim = point(list(zip(coeffs, free)))
            assert den > 0 and all(pre.values()) and all(pim.values())
            assert bareiss_oracle.dense_row(den, pre, pim, ring, n_cols) == want


def test_inverse_rational():
    a = [[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]]
    ainv = inv(a)
    assert bareiss_oracle.mat_eq(bareiss_oracle.matmul(a, ainv), identity(2))
    singular = [[F(1), F(2)], [F(2), F(4)]]
    assert inv(singular) is None


def _flat(x):
    if isinstance(x, (list, tuple)):
        return [y for item in x for y in _flat(item)]
    return [x]


# int matrices are read as Fractions: no routine divides ints into floats
INT_CASES = {
    "inv": (lambda: inv([[2, 0], [1, 3]]), ((F(1, 2), F(0)), (F(-1, 6), F(1, 3)))),
    "rref": (lambda: rref([[2, 4, 1], [3, 5, 1]])[0], [[1, 0, F(-1, 2)], [0, 1, F(1, 2)]]),
    "nullspace": (lambda: nullspace([[2, 4, 1], [3, 5, 1]]), [(F(1, 2), F(-1, 2), F(1))]),
}


@pytest.mark.parametrize("case", sorted(INT_CASES))
def test_int_entries_stay_exact(case):
    call, want = INT_CASES[case]
    got = call()
    assert got == want
    assert all(type(x) is Fraction for x in _flat(got))


def test_gaussian_matrix_inverse():
    i = GaussianRational(0, 1)
    one = GaussianRational(1)
    zero = GaussianRational(0)
    a = ((one, i), (zero, one))
    ainv = inv(a)
    assert bareiss_oracle.mat_eq(bareiss_oracle.matmul(a, ainv), identity(2, one))
    assert ainv[0][1] == -i


def test_quaternion_matrix_inverse_noncommutative():
    # the inverse must respect t1 t2 = -t2 t1
    t1, t2 = Quaternion(0, 1), Quaternion(0, 0, 1)
    one = Quaternion(1)
    zero = Quaternion(0)
    a = ((t1, one), (zero, t2))
    ainv = inv(a, QUATERNION)
    ident = identity(2, one)
    assert bareiss_oracle.mat_eq(bareiss_oracle.matmul(a, ainv), ident)
    assert bareiss_oracle.mat_eq(bareiss_oracle.matmul(ainv, a), ident)


_QCOMP = st.integers(-2, 2)
_QUNITS = tuple(s * u for u in (Quaternion(1), Quaternion(0, 1), Quaternion(0, 0, 1),
                                Quaternion(0, 0, 0, 1)) for s in (1, -1))


@st.composite
def quaternions(draw, nonzero=False):
    comps = st.lists(_QCOMP, min_size=4, max_size=4)
    return Quaternion(*draw(comps.filter(any) if nonzero else comps))


@st.composite
def quaternion_matrices(draw):
    m = draw(st.integers(1, 3))
    return m, [[draw(quaternions()) for _ in range(m)] for _ in range(m)]


@st.composite
def elementary_products(draw, m):
    """A product of up to four invertible elementary m x m quaternion
    matrices: a row swap, a row scaled by a nonzero quaternion, or I plus a
    quaternion at an off-diagonal place."""
    prod = identity(m, Quaternion(1))
    for _ in range(draw(st.integers(0, 4))):
        e = [list(row) for row in identity(m, Quaternion(1))]
        kind, i, j = draw(st.integers(0, 2)), draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        if kind == 0:
            e[i], e[j] = e[j], e[i]
        elif kind == 1:
            e[i][i] = draw(quaternions(nonzero=True))
        elif i != j:
            e[i][j] = draw(quaternions())
        prod = bareiss_oracle.matmul(prod, e)
    return prod


@settings(max_examples=100, deadline=None)
@given(quaternion_matrices())
def test_quaternion_inverse_exists_exactly_at_full_rank(case):
    m, a = case
    ainv = inv(a, QUATERNION)
    r = rank(a, QUATERNION)
    assert 2 * r == bareiss_oracle.rank(bareiss_oracle.complex_adjoint(a))
    assert (ainv is None) == (r < m)
    if ainv is not None:
        ident = identity(m, Quaternion(1))
        assert bareiss_oracle.mat_eq(bareiss_oracle.matmul(a, ainv), ident)
        assert bareiss_oracle.mat_eq(bareiss_oracle.matmul(ainv, a), ident)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_quaternion_rank_is_invariant_under_elementary_products(data, m):
    r = data.draw(st.integers(0, m))
    units = [data.draw(st.sampled_from(_QUNITS)) for _ in range(r)]
    d = [[units[i] if i == j and i < r else Quaternion(0) for j in range(m)] for i in range(m)]
    b, c = data.draw(elementary_products(m)), data.draw(elementary_products(m))
    a = bareiss_oracle.matmul(bareiss_oracle.matmul(b, d), c)
    assert rank(a, QUATERNION) == r
    assert (inv(a, QUATERNION) is None) == (r < m)


def test_complex_adjoint_read_back_checks_block_shape():
    a = ((Quaternion(1, 2, -F(3, 2), 4), Quaternion(0, 1)), (Quaternion(5), Quaternion(0, 0, 0, -1)))
    den, chi = linalg.numerator_matrix(a, QUATERNION)
    assert den == 2
    assert chi == linalg.numerator_matrix(bareiss_oracle.complex_adjoint(a), GAUSSIAN)[1]
    assert linalg.dense_matrix(den, chi, QUATERNION) == a
    # block (1, 1) of a no longer has a + d i under a - d i
    bad = [dict(row) for row in chi]
    x, y = bad[3][3]
    bad[3][3] = (x, y + 1)
    with pytest.raises(AssertionError):
        linalg.dense_matrix(den, bad, QUATERNION)
    with pytest.raises(AssertionError):
        linalg.dense_matrix(1, [{0: (1, 0)}, {1: (-1, 0)}], QUATERNION)


def test_matmul_shapes_and_transpose():
    a = ((F(1), F(2)), (F(3), F(4)))
    b = ((F(0), F(1)), (F(1), F(0)))
    assert bareiss_oracle.matmul(a, b) == ((F(2), F(1)), (F(4), F(3)))


def test_sparse_rank_accumulator():
    acc = SparseRankAccumulator()
    assert acc.add({0: Fraction(2), 5: Fraction(1)})
    assert acc.add({5: Fraction(3)})
    # dependent on the first two
    assert not acc.add({0: Fraction(4), 5: Fraction(7)})
    assert acc.rank == 2
    assert acc.add({7: Fraction(1)})
    assert acc.rank == 3
    assert not acc.add({})


_entries = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_entries, min_size=5, max_size=5), min_size=1, max_size=7))
def test_sparse_rank_accumulator_matches_dense_rank(rows):
    acc = SparseRankAccumulator()
    grew = [acc.add({j: v for j, v in enumerate(row) if v}) for row in rows]
    dense = [[Fraction(v) for v in row] for row in rows]
    assert acc.rank == bareiss_oracle.rank(dense) == sum(grew)
    for k in range(len(dense)):
        assert grew[k] == (bareiss_oracle.rank(dense[:k + 1]) > bareiss_oracle.rank(dense[:k]))


def test_first_accepted_order_and_rejection():
    basis = [(F(1), F(0), F(2)), (F(0), F(1), F(-1)), (F(1), F(1), F(0))]
    seen = []
    assert linalg.first_accepted(basis, seen.append, bareiss_oracle.combination, seed=4) is None
    # the same points computed here: basis, running sums, seeded combinations
    want = list(basis)
    acc = (F(0),) * 3
    for v in basis:
        acc = tuple(x + y for x, y in zip(acc, v))
        want.append(acc)
    rng = random.Random(4)
    for _ in range(100):
        coeffs = [rng.randint(-3, 3) for _ in basis]
        if any(coeffs):
            want.append(tuple(sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(3)))
    assert seen == want
    assert 6 < len(seen) <= 106


def test_first_accepted_stops_at_first_hit():
    basis = [(F(1), F(0)), (F(0), F(1))]
    seen = []

    def accept(v):
        seen.append(v)
        return "hit" if v == (F(1), F(1)) else None
    # the first running sum that is not a basis vector is b0 + b1
    assert linalg.first_accepted(basis, accept, bareiss_oracle.combination) == "hit"
    assert seen == [basis[0], basis[1], basis[0], (F(1), F(1))]


def test_first_accepted_empty_basis():
    calls = []
    assert linalg.first_accepted([], calls.append, bareiss_oracle.combination, seed=3) is None
    assert calls == []


# -- the integer kernel against field arithmetic ------------------------------

def _oracle_rref(rows):
    """Schoolbook Gauss-Jordan in field arithmetic: scale the pivot row by the
    pivot inverse, then subtract multiples of it from every other row."""
    m = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in rows]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pr = None
        for i in range(r, n_rows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        if piv != piv / piv:
            inv = (piv / piv) / piv
            m[r] = [inv * x for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _oracle_nullspace(rows):
    red, pivots = _oracle_rref(rows)
    n = len(rows[0])
    free = [c for c in range(n) if c not in pivots]
    return [
        tuple(1 if j == fc else -red[pivots.index(j)][fc] if j in pivots else 0
              for j in range(n))
        for fc in free
    ]


def _oracle_inv(a):
    n = len(a)
    red, pivots = _oracle_rref(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red)


_part = st.fractions(-4, 4, max_denominator=6)
_ENTRIES = {
    "int": st.one_of(st.just(0), st.integers(-5, 5)),
    "fraction": st.one_of(st.just(Fraction(0)), _part),
    "gaussian": st.one_of(st.just(GaussianRational(0)), st.integers(-3, 3), _part,
                          st.builds(GaussianRational, _part, _part)),
}
# Gaussian factors that no rational integer divides out: Bareiss must divide
# them exactly, or they pile up in every row
_CONTENT = (GaussianRational(1, 1), GaussianRational(2, 1))


@st.composite
def kernel_matrices(draw):
    """(ring, rows): zero, rank-deficient, 1 x k, k x 1 and content-heavy
    matrices with int, Fraction or GaussianRational entries."""
    ring = draw(st.sampled_from(sorted(_ENTRIES)))
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_ENTRIES[ring], min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    shape = draw(st.sampled_from(["plain", "zero", "deficient", "content"]))
    if shape == "zero":
        rows = [[x - x for x in row] for row in rows]
    elif shape == "deficient" and n_rows > 1:
        k = draw(st.integers(1, n_rows - 1))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        for i in range(k, n_rows):
            combo = [0] * n_cols
            for c, row in zip(coeffs, rows[:k]):
                combo = [x + c * y for x, y in zip(combo, row)]
            rows[i] = combo
            coeffs = coeffs[1:] + coeffs[:1]
    elif shape == "content" and ring == "gaussian":
        for i, row in enumerate(rows):
            g = GaussianRational(1)
            for _ in range(draw(st.integers(0, 4))):
                g = g * _CONTENT[draw(st.integers(0, 1))]
            rows[i] = [g * x for x in row]
    return ring, rows


def _square(rows):
    k = min(len(rows), len(rows[0]))
    return [row[:k] for row in rows[:k]]


@settings(max_examples=300, deadline=None)
@given(kernel_matrices())
def test_rref_matches_field_oracle(case):
    ring, rows = case
    red, pivots = rref(rows)
    assert (red, pivots) == _oracle_rref(rows)
    want = GaussianRational if ring == "gaussian" and any(
        type(x) is GaussianRational for x in _flat(rows)) else Fraction
    assert all(type(x) is want for x in _flat(red))


@settings(max_examples=150, deadline=None)
@given(kernel_matrices())
def test_nullspace_inv_det_match_field_oracle(case):
    _ring, rows = case
    assert nullspace(rows) == _oracle_nullspace(rows)
    sq = _square(rows)
    assert inv(sq) == _oracle_inv(sq)


def test_content_heavy_rows_stay_within_hadamard_bound():
    # 8 x 8 rows carrying (1+i)^k (2+i)^j.  Exact division by the previous
    # pivot keeps every stored entry a minor of the integer rows, so within
    # Hadamard's bound; dividing out less lets those factors pile up.
    rng = random.Random(5)
    rows = []
    for i in range(8):
        g = GaussianRational(1)
        for _ in range(i):
            g = g * _CONTENT[rng.randrange(2)]
        rows.append([g * GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                     for _ in range(8)])
    ints = [{j: (x, y) for j, (x, y) in enumerate(zip(re, im)) if x or y}
            for re, im in bareiss_oracle.gaussian_rows(rows)[0]]
    bound = math.prod(sum(x * x + y * y for x, y in row.values()) for row in ints)
    done = linalg.echelon_numerators(ints)
    assert len(done) == 8
    assert all(x * x + y * y <= bound for row, _b, _c in done for x, y in row.values())
    assert _as_dense(done, 8) == bareiss_oracle.bareiss(bareiss_oracle.gaussian_rows(rows)[0], 8)[0]
    assert rref(rows) == _oracle_rref(rows)
    inverse = inv(rows)
    assert inverse == _oracle_inv(rows)
    assert bareiss_oracle.mat_eq(bareiss_oracle.matmul(inverse, rows), identity(8, GaussianRational(1)))


# -- the sparse kernel against the dense Bareiss oracle ----------------------

def _as_dense(done, n_cols):
    return [(bareiss_oracle.dense(row, n_cols), b, c) for row, b, c in done]


_PAIR = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
_NONZERO_PAIR = _PAIR.filter(any)


@st.composite
def sparse_systems(draw):
    """(rows, n_cols) of sparse Gaussian-integer rows: scattered entries,
    fully dense rows, zero rows among the others, parity-block-diagonal
    systems (a row lives on the columns of one popcount parity, like the
    rows of an even or odd element), pivots with nonzero imaginary parts,
    and rows that are integer combinations of the rows above them."""
    shape = draw(st.sampled_from(["scattered", "dense", "zero-rows", "parity", "gaussian", "deficient"]))
    n_rows, n_cols = draw(st.integers(0, 7)), draw(st.integers(1, 8))
    rows = []
    for i in range(n_rows):
        if shape == "dense":
            row = {j: draw(_NONZERO_PAIR) for j in range(n_cols)}
        elif shape == "gaussian":
            entry = st.tuples(st.integers(-4, 4), st.integers(-4, 4).filter(bool))
            row = {j: draw(entry) for j in range(n_cols) if draw(st.booleans())}
        else:
            row = {j: draw(_NONZERO_PAIR) for j in range(n_cols) if draw(st.booleans())}
        if shape == "zero-rows" and draw(st.booleans()):
            row = {}
        elif shape == "parity":
            parity = draw(st.integers(0, 1))
            row = {j: e for j, e in row.items() if j.bit_count() & 1 == parity}
        elif shape == "deficient" and i >= 2:
            f, g = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            row = {}
            for j in range(n_cols):
                (a, b), (c, e) = rows[i - 1].get(j, (0, 0)), rows[i - 2].get(j, (0, 0))
                if f * a + g * c or f * b + g * e:
                    row[j] = (f * a + g * c, f * b + g * e)
        rows.append(row)
    return rows, n_cols


@settings(max_examples=400, deadline=None)
@given(sparse_systems())
def test_sparse_kernel_matches_dense_oracle(case):
    rows, n_cols = case
    before = [dict(row) for row in rows]
    done = linalg.echelon_numerators(rows)
    want_done = bareiss_oracle.bareiss([bareiss_oracle.dense(row, n_cols) for row in rows], n_cols)[0]
    assert _as_dense(done, n_cols) == want_done
    assert all(x or y for row, _b, _c in done for x, y in row.values())
    assert rows == before  # the input rows are not mutated


@settings(max_examples=200, deadline=None)
@given(sparse_systems(), st.integers(1, 6), st.booleans())
def test_public_routines_match_dense_oracle(case, d, real):
    rows, n_cols = case
    if not rows:
        return
    # the rows over d, in Q (real parts only) or Q(i)
    dense = [list(zip(*bareiss_oracle.dense(row, n_cols))) for row in rows]
    if real:
        rows = [[Fraction(x, d) for x, _y in row] for row in dense]
    else:
        rows = [[GaussianRational(Fraction(x, d), Fraction(y, d)) for x, y in row] for row in dense]
    assert rref(rows) == bareiss_oracle.rref(rows)
    assert nullspace(rows) == bareiss_oracle.nullspace(rows)
    assert rank(rows) == bareiss_oracle.rank(rows)
    sq = _square(rows)
    assert inv(sq) == bareiss_oracle.inv(sq)


def _gaussian_dense(rows, n_cols):
    return [[GaussianRational(x, y) for x, y in zip(*bareiss_oracle.dense(row, n_cols))] for row in rows]


def test_spanning_prime_has_a_square_root_of_minus_one():
    p, s = linalg._PRIME, linalg._SQRT_MINUS_ONE
    assert p % 4 == 1 and (s * s + 1) % p == 0
    assert all(p % d for d in range(2, math.isqrt(p) + 1))


@settings(max_examples=300, deadline=None)
@given(sparse_systems(), st.integers(0, 8), st.data())
def test_spanning_rows_are_independent_input_rows(case, rank, data):
    # the rows are input rows in input order and independent over Q(i), and
    # there are min(rank, oracle rank) of them: with entries this small, no
    # minor of the drawn rows is plausibly divisible by the prime.  A row
    # that is p times a unit, nonzero over Q but zero modulo p, is drawn in
    # at a random place and skipped even where it is independent
    rows, n_cols = case
    before = [dict(row) for row in rows]
    x, y = data.draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
    p_row = {data.draw(st.integers(0, n_cols - 1)): (linalg._PRIME * x, linalg._PRIME * y)}
    at = data.draw(st.integers(0, len(rows)))
    got = linalg.spanning_rows(rows[:at] + [p_row] + rows[at:], rank)
    assert all(row is not p_row for row in got)
    ids = [id(row) for row in rows]
    where = [ids.index(id(row)) for row in got]
    assert where == sorted(set(where))
    assert bareiss_oracle.rank(_gaussian_dense(got, n_cols)) == len(got)
    assert len(got) == min(rank, bareiss_oracle.rank(_gaussian_dense(rows, n_cols)))
    assert rows == before  # the input rows are not mutated


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_unreduced_echelon_has_the_pivots_and_row_space(case):
    # without clearing above the pivots the kernel returns pivot rows with
    # the same pivot columns, each 1 at its pivot, spanning the same space
    rows, n_cols = case
    done = linalg.echelon_numerators(rows)
    echelon = linalg.echelon_numerators(rows, reduce=False)
    assert [c for _row, _b, c in echelon] == [c for _row, _b, c in done]
    assert all(row[c] == b for row, b, c in echelon)

    def dense(pivots):
        return [bareiss_oracle.dense_row(*linalg.reduced_numerators(row, b), GaussianRational, n_cols)
                for row, b, _c in pivots]

    assert bareiss_oracle.rref(dense(echelon))[0] == dense(done)
