"""Exact dense linear algebra over the scalar rings.

Entries must support +, -, *, / and truth testing (Fraction, GaussianRational
or Quaternion).  Elimination reads int entries as Fractions, so ``/`` stays
exact and no float comes out.  It multiplies coefficients from the left only,
so everything here is valid over the noncommutative quaternions too, except
``det`` and ``nullspace`` which require a commutative field.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


def identity(n, one=Fraction(1)):
    zero = one - one
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def matmul(a, b):
    # row-major accumulation skipping zero entries of a, so a sparse left
    # factor saves its inner loops
    m = len(b[0])
    zero = a[0][0] - a[0][0]
    out = []
    for ai in a:
        row = [zero] * m
        for k, x in enumerate(ai):
            if not x:
                continue
            bk = b[k]
            for j, y in enumerate(bk):
                if y:
                    row[j] = row[j] + x * y
        out.append(tuple(row))
    return tuple(out)


def matadd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scalar_mul(c, a):
    # left multiplication, entry by entry
    return tuple(tuple(c * x for x in row) for row in a)


def _field_rows(rows):
    """Rows as mutable lists, with int entries made Fractions."""
    return [[Fraction(x) if isinstance(x, int) else x for x in row] for row in rows]


def mat_eq(a, b):
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot_column_list).

    Valid over division rings: rows are scaled by the pivot inverse from the
    left and eliminations subtract left multiples.
    """
    m = _field_rows(rows)
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


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows):
    """Basis of the right nullspace (commutative field entries only)."""
    red, pivots = rref(rows)
    if not red:
        return []
    n_cols = len(red[0])
    one = None
    for row in red:
        for x in row:
            if x:
                one = x / x
                break
        if one is not None:
            break
    if one is None:
        one = Fraction(1)
    zero = one - one
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [zero] * n_cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def solve(a, b):
    """Solve a x = b for a column vector b; None if inconsistent.

    Returns one particular solution (free variables set to zero).
    """
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    red, pivots = rref(aug)
    n_cols = len(a[0])
    if n_cols in pivots:
        return None
    zero = None
    for row in red:
        for x in row:
            zero = x - x
            break
        break
    sol = [zero] * n_cols
    for r, pc in enumerate(pivots):
        sol[pc] = red[r][n_cols]
    return tuple(sol)


def inv(a):
    """Matrix inverse by Gauss-Jordan; None if singular."""
    n = len(a)
    a = _field_rows(a)
    one = None
    for row in a:
        for x in row:
            if x:
                one = x / x
                break
        if one is not None:
            break
    if one is None:
        return None
    aug = [list(ra) + list(ri) for ra, ri in zip(a, identity(n, one))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red)


def det(a):
    """Determinant over a commutative field."""
    n = len(a)
    m = _field_rows(a)
    sign = 1
    d = None
    for c in range(n):
        pr = None
        for i in range(c, n):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            x = m[0][0]
            return x - x
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        piv = m[c][c]
        d = piv if d is None else d * piv
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / piv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    if sign < 0:
        d = -d
    return d


def first_accepted(basis, accept, seed=0):
    """First non-None ``accept(v)`` over points v of the span of ``basis``.

    The points are flat vectors, tried lazily in a fixed order: each basis
    vector, then the running sums b0, b0 + b1, ..., then 100 combinations
    with integer coefficients in [-3, 3] drawn from ``random.Random(seed)``
    (a combination whose coefficients are all zero is skipped).  Returns
    None when every point is rejected.
    """

    def points():
        yield from basis
        acc = None
        for v in basis:
            acc = v if acc is None else tuple(x + y for x, y in zip(acc, v))
            yield acc
        rng = random.Random(seed)
        for _ in range(100):
            combo = None
            for v in basis:
                f = rng.randint(-3, 3)
                if f:
                    term = tuple(f * x for x in v)
                    combo = term if combo is None else tuple(x + y for x, y in zip(combo, term))
            if combo is not None:
                yield combo

    for v in points():
        found = accept(v)
        if found is not None:
            return found
    return None


class SparseRankAccumulator:
    """Incremental rank over Q of sparse vectors (dicts position -> value).

    Values are ints or Fractions; a row is scaled to integers on entry and
    reduced fraction-free against the stored pivot rows (cross-multiply,
    then divide out the content), so no Fraction is built.  A row that does
    not vanish contributes a new pivot.
    """

    def __init__(self):
        self.pivot_rows = {}

    @property
    def rank(self):
        return len(self.pivot_rows)

    def add(self, vec):
        """Reduce vec (dict) and absorb it.  Returns True if rank grew."""
        vals = {k: v for k, v in vec.items() if v}
        den = math.lcm(*(v.denominator for v in vals.values()))
        row = {k: v.numerator * (den // v.denominator) for k, v in vals.items()}
        while row:
            p = min(row)
            piv = self.pivot_rows.get(p)
            if piv is None:
                g = math.gcd(*row.values())
                if row[p] < 0:
                    g = -g
                self.pivot_rows[p] = {k: v // g for k, v in row.items()}
                return True
            a, f = piv[p], row[p]
            if a != 1:
                row = {k: a * v for k, v in row.items()}
            for k, v in piv.items():
                nv = row.get(k, 0) - f * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
            if a != 1 and row:
                g = math.gcd(*row.values())
                if g != 1:
                    row = {k: v // g for k, v in row.items()}
        return False
