"""Exact linear algebra over the three scalar rings."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffkit import linalg
from cliffkit.scalars import GaussianRational, Quaternion


def F(a, b=1):
    return Fraction(a, b)


def test_rref_and_rank_rational():
    rows = [
        [F(1), F(2), F(3)],
        [F(2), F(4), F(6)],
        [F(0), F(1), F(1)],
    ]
    red, pivots = linalg.rref(rows)
    assert pivots == [0, 1]
    assert red[0] == [F(1), F(0), F(1)]
    assert red[1] == [F(0), F(1), F(1)]
    assert linalg.rank(rows) == 2


def test_nullspace_rational():
    rows = [[F(1), F(2), F(3)], [F(0), F(1), F(1)]]
    basis = linalg.nullspace(rows)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_solve_particular_and_inconsistent():
    a = [[F(1), F(1)], [F(2), F(2)]]
    assert linalg.solve(a, [F(1), F(2)]) is not None
    assert linalg.solve(a, [F(1), F(3)]) is None
    b = [[F(2), F(0)], [F(0), F(4)]]
    x = linalg.solve(b, [F(6), F(8)])
    assert x == (F(3), F(2))


def test_inverse_rational():
    a = [[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]]
    ainv = linalg.inv(a)
    assert linalg.mat_eq(linalg.matmul(a, ainv), linalg.identity(2))
    singular = [[F(1), F(2)], [F(2), F(4)]]
    assert linalg.inv(singular) is None


def test_det():
    a = [[F(1), F(2)], [F(3), F(4)]]
    assert linalg.det(a) == F(-2)
    assert linalg.det([[F(0), F(1)], [F(0), F(2)]]) == 0


def _flat(x):
    if isinstance(x, (list, tuple)):
        return [y for item in x for y in _flat(item)]
    return [x]


# int matrices are read as Fractions: no routine divides ints into floats
INT_CASES = {
    "solve": (lambda: linalg.solve([[2, 0], [0, 3]], [1, 1]), (F(1, 2), F(1, 3))),
    "det": (lambda: linalg.det([[2, 1], [1, 3]]), F(5)),
    "det-singular": (lambda: linalg.det([[0, 1], [0, 2]]), F(0)),
    "inv": (lambda: linalg.inv([[2, 0], [1, 3]]), ((F(1, 2), F(0)), (F(-1, 6), F(1, 3)))),
    "rref": (lambda: linalg.rref([[2, 4, 1], [3, 5, 1]])[0], [[1, 0, F(-1, 2)], [0, 1, F(1, 2)]]),
    "nullspace": (lambda: linalg.nullspace([[2, 4, 1], [3, 5, 1]]), [(F(1, 2), F(-1, 2), F(1))]),
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
    ainv = linalg.inv(a)
    assert linalg.mat_eq(linalg.matmul(a, ainv), linalg.identity(2, one))
    assert ainv[0][1] == -i


def test_quaternion_matrix_inverse_noncommutative():
    # elimination must multiply from the left only
    t1, t2 = Quaternion(0, 1), Quaternion(0, 0, 1)
    one = Quaternion(1)
    zero = Quaternion(0)
    a = ((t1, one), (zero, t2))
    ainv = linalg.inv(a)
    ident = linalg.identity(2, one)
    assert linalg.mat_eq(linalg.matmul(a, ainv), ident)
    assert linalg.mat_eq(linalg.matmul(ainv, a), ident)


def test_quaternion_solve():
    t1 = Quaternion(0, 1)
    one = Quaternion(1)
    x = linalg.solve(((t1,),), [one])
    assert x == (-t1,)


def test_matmul_shapes_and_transpose():
    a = ((F(1), F(2)), (F(3), F(4)))
    b = ((F(0), F(1)), (F(1), F(0)))
    assert linalg.matmul(a, b) == ((F(2), F(1)), (F(4), F(3)))


def test_sparse_rank_accumulator():
    acc = linalg.SparseRankAccumulator()
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
    acc = linalg.SparseRankAccumulator()
    grew = [acc.add({j: v for j, v in enumerate(row) if v}) for row in rows]
    dense = [[Fraction(v) for v in row] for row in rows]
    assert acc.rank == linalg.rank(dense) == sum(grew)
    for k in range(len(dense)):
        assert grew[k] == (linalg.rank(dense[:k + 1]) > linalg.rank(dense[:k]))


def test_first_accepted_order_and_rejection():
    basis = [(F(1), F(0), F(2)), (F(0), F(1), F(-1)), (F(1), F(1), F(0))]
    seen = []
    assert linalg.first_accepted(basis, lambda v: seen.append(v), seed=4) is None
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
    assert linalg.first_accepted(basis, accept) == "hit"
    assert seen == [basis[0], basis[1], basis[0], (F(1), F(1))]


def test_first_accepted_empty_basis():
    calls = []
    assert linalg.first_accepted([], calls.append, seed=3) is None
    assert calls == []
