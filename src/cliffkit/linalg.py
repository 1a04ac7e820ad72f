"""Exact dense linear algebra over the scalar rings.

Entries are ints, Fractions, GaussianRationals or Quaternions; no routine
returns a float.  Every elimination runs one integer kernel, ``_bareiss``:
each row over Q or Q(i) (int, Fraction and GaussianRational entries)
becomes Gaussian-integer numerators over the lcm of its denominators
(imaginary parts zero over Q), eliminated fraction-free with exact division
by the previous pivot, and one Fraction or GaussianRational is built per
output entry, so the output ring follows the input.  Callers that already
hold numerators enter the kernel directly through ``rref_numerators`` and
``nullspace_numerators``: the spinor side's multiplication matrices (left
ideals and the conjugator equation) go in as integer rows and are never
built as Gaussian rationals.  A quaternion (H) matrix A enters through its
complex adjoint chi(A) (``complex_adjoint``), the injective ring
homomorphism Mat(m, H) -> Mat(2m, C) with rank chi(A) = 2 rank A (Zhang,
Linear Algebra Appl. 251, 1997): ``rank`` halves the complex rank and
``inv`` reads A^-1 back from chi(A)^-1 block by block.  ``rref``,
``nullspace`` and ``det`` take Q or Q(i) entries only.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .scalars import GaussianRational, Quaternion, quaternion_to_complex_block


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


def mat_eq(a, b):
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _gaussian_rows(rows):
    """(numerator rows, scales) for entries in Q or Q(i): row i is a pair
    (re, im) of int lists with rows[i] = (re + i im) / scales[i]."""
    out, scales = [], []
    for row in rows:
        nz = [(j, x.re, x.im) if isinstance(x, GaussianRational) else (j, x, 0)
              for j, x in enumerate(row) if x]
        d = math.lcm(*(x.denominator for _j, x, _y in nz),
                     *(y.denominator for _j, _x, y in nz))
        re, im = [0] * len(row), [0] * len(row)
        for j, x, y in nz:
            re[j] = x.numerator * (d // x.denominator)
            im[j] = y.numerator * (d // y.denominator)
        out.append((re, im))
        scales.append(d)
    return out, scales


def _at(row, c):
    """Entry c of a Gaussian-integer row as an (re, im) pair, None if zero."""
    x, y = row[0][c], row[1][c]
    return (x, y) if x or y else None


def _lin(row, a, f, prow, d, start):
    """(a row - f prow) / d over Z[i] from column ``start`` on (f None:
    a row / d), with earlier entries kept.  Dividing by d is multiplying by
    conj(d) and integer-dividing by |d|^2; the caller ensures it is exact."""
    xr, xi = row[0][start:], row[1][start:]
    ar, ai = a
    if f:
        fr, fi = f
        yr, yi = prow[0][start:], prow[1][start:]
        tr = [ar * u - ai * v - fr * s + fi * t for u, v, s, t in zip(xr, xi, yr, yi)]
        ti = [ar * v + ai * u - fr * t - fi * s for u, v, s, t in zip(xr, xi, yr, yi)]
    else:
        tr = [ar * u - ai * v for u, v in zip(xr, xi)]
        ti = [ar * v + ai * u for u, v in zip(xr, xi)]
    dr, di = d
    if di:
        nn = dr * dr + di * di
        tr, ti = ([(u * dr + v * di) // nn for u, v in zip(tr, ti)],
                  [(v * dr - u * di) // nn for u, v in zip(tr, ti)])
    elif dr != 1:
        tr = [u // dr for u in tr]
        ti = [v // dr for v in ti]
    return row[0][:start] + tr, row[1][:start] + ti


def _reduced(row, d, ring):
    """The Gaussian-integer row divided by the Gaussian integer d, entry by
    entry, in ``ring``: Fractions when the input had no GaussianRational
    entry (then row and d are real), else GaussianRationals (times conj(d),
    over |d|^2)."""
    dr, di = d
    if ring is Fraction:
        zero = Fraction(0)
        return [Fraction(x, dr) if x else zero for x in row[0]]
    nn = dr * dr + di * di
    zero = GaussianRational(0)
    return [GaussianRational(Fraction(x * dr + y * di, nn), Fraction(y * dr - x * di, nn))
            if x or y else zero for x, y in zip(*row)]


def _entry_ring(rows):
    """The ring the results of ``_bareiss`` are built in: Fraction for int
    and Fraction entries, GaussianRational when any entry is one, None for
    other entries (Quaternions)."""
    types = {type(x) for row in rows for x in row}
    if types <= {int, Fraction}:
        return Fraction
    if types <= {int, Fraction, GaussianRational}:
        return GaussianRational
    return None


def _bareiss(rows, n_cols):
    """Fraction-free Gauss-Jordan elimination of Gaussian-integer rows.

    Step k takes the first remaining row with a nonzero entry a_k in the
    next column c as pivot row and maps every other row to
    (a_k row - row[c] pivot) / a_(k-1), with a_0 = 1 (Bareiss, Math. Comp.
    22, 1968).  Every entry stays a minor of the integer rows, so each
    division is exact.  A row with row[c] = 0 would only be multiplied by a_k / a_(k-1),
    so it is left as stored, together with the pivot b it was last brought
    to: its true value is stored * a_now / b, and when it is next combined,
    (a stored - stored[c] pivot) / b is exact for the same reason.  Rows that
    vanish are dropped.

    Returns (done, sign, last): ``done`` lists (row, b, c) per pivot, in
    column order, where row / b is the reduced row with pivot column c;
    ``sign`` is the sign of the order the pivot rows were taken in and
    ``last`` the last pivot, so for a square input of full rank the
    determinant of the input rows is sign * last.
    """
    at, lin = _at, _lin
    one = (1, 0)
    rest = [(row, one) for row in rows]
    done = []
    sign = 1
    prev = one
    for c in range(n_cols):
        if not rest:
            break
        for k, (row, _b) in enumerate(rest):
            if at(row, c):
                break
        else:
            continue
        prow, b = rest.pop(k)
        if k & 1:
            sign = -sign
        if b != prev:
            prow = lin(prow, prev, None, None, b, c)
        a = at(prow, c)
        for j, (row, b, col) in enumerate(done):
            f = at(row, c)
            if f:
                done[j] = (lin(row, a, f, prow, b, 0), a, col)
        kept = []
        for row, b in rest:
            f = at(row, c)
            if not f:
                kept.append((row, b))
                continue
            row = lin(row, a, f, prow, b, c)
            if any(row[0]) or any(row[1]):
                kept.append((row, a))
        rest = kept
        done.append((prow, a, c))
        prev = a
    return done, sign, prev


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot_column_list).

    Matrices over Q or Q(i) run the integer kernel through ``rref_numerators``
    and build one Fraction or GaussianRational per output entry.
    """
    if not rows:
        return [], []
    ring = _entry_ring(rows)
    if ring is None:
        raise TypeError("rref needs int, Fraction or GaussianRational entries")
    n_cols = len(rows[0])
    red, pivots = rref_numerators(_gaussian_rows(rows)[0], n_cols, ring)
    red += [[ring(0)] * n_cols for _ in range(len(rows) - len(red))]
    return red, pivots


def rref_numerators(rows, n_cols, ring):
    """Nonzero rows of the reduced row echelon form of Gaussian-integer
    rows, and the pivot columns.

    Each row is a pair (re, im) of int lists, the numerators of a row over
    Q or Q(i) scaled by any nonzero integer; the scale does not change the
    (unique) reduced form.  The entries are built in ``ring``: Fraction when
    every imaginary part is zero, else GaussianRational.
    """
    done, _sign, _last = _bareiss(rows, n_cols)
    return [_reduced(row, b, ring) for row, b, _c in done], [c for _row, _b, c in done]


def echelon_numerators(rows, n_cols):
    """Nonzero rows of the reduced row echelon form of Gaussian-integer rows,
    read as in ``rref_numerators``, each left times a nonzero Gaussian
    integer: a basis of the row space as Gaussian-integer rows, as many as
    the rank."""
    return [row for row, _b, _c in _bareiss(rows, n_cols)[0]]


def rank(rows):
    """Rank over Q or Q(i), read off ``_bareiss``; a quaternion matrix A has
    rank rank chi(A) / 2."""
    if not rows:
        return 0
    if _entry_ring(rows) is None:
        return rank(complex_adjoint(rows)) // 2
    return len(echelon_numerators(_gaussian_rows(rows)[0], len(rows[0])))


def nullspace(rows):
    """Basis of the right nullspace over Q or Q(i)."""
    red, pivots = rref(rows)
    if not red:
        return []
    one = next((x / x for row in red for x in row if x), Fraction(1))
    return _nullspace_basis(red, pivots, len(red[0]), one)


def nullspace_numerators(rows, n_cols, ring):
    """Basis of the right nullspace of Gaussian-integer rows, read as in
    ``rref_numerators``; entries in ``ring``."""
    red, pivots = rref_numerators(rows, n_cols, ring)
    return _nullspace_basis(red, pivots, n_cols, ring(1))


def _nullspace_basis(red, pivots, n_cols, one):
    """One basis vector per free column of a reduced echelon form."""
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


def inv(a):
    """Matrix inverse by Gauss-Jordan; None if singular.  A quaternion
    matrix is inverted through its complex adjoint: chi(A^-1) = chi(A)^-1."""
    ring = _entry_ring(a)
    if ring is None:
        c = inv(complex_adjoint(a))
        return None if c is None else _from_complex_adjoint(c)
    n = len(a)
    rows = _gaussian_rows([list(row) + [int(i == j) for j in range(n)]
                           for i, row in enumerate(a)])[0]
    red, pivots = rref_numerators(rows, 2 * n, ring)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red)


def complex_adjoint(a):
    """chi(A) in Mat(2m, C) for a quaternion matrix A: entry (i, j) becomes
    the 2x2 block ``quaternion_to_complex_block(A[i][j])`` at rows 2i, 2i+1
    and columns 2j, 2j+1."""
    out = []
    for row in a:
        blocks = [quaternion_to_complex_block(x) for x in row]
        out += [tuple(x for blk in blocks for x in blk[r]) for r in (0, 1)]
    return tuple(out)


def _from_complex_adjoint(c):
    """The quaternion matrix A with chi(A) = c, read off the first row of
    each 2x2 block; AssertionError if c is not of that form."""
    a = tuple(tuple(Quaternion(z.re, -w.im, -w.re, -z.im) for z, w in zip(row[::2], row[1::2]))
              for row in c[::2])
    if complex_adjoint(a) != tuple(map(tuple, c)):
        raise AssertionError("complex matrix is not the adjoint of a quaternion matrix")
    return a


def det(a):
    """Determinant of a matrix over Q or Q(i), read off ``_bareiss``: the
    last pivot, times the sign of the row order, over the row scales."""
    ring = _entry_ring(a)
    if ring is None:
        raise TypeError("det needs int, Fraction or GaussianRational entries")
    rows, scales = _gaussian_rows(a)
    done, sign, last = _bareiss(rows, len(a))
    if len(done) < len(a):
        return ring(0)
    return _reduced(([last[0]], [last[1]]), (sign * math.prod(scales), 0), ring)[0]


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

