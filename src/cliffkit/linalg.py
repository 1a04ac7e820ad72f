"""Exact linear algebra over the scalar rings.

Entries are ints, Fractions, GaussianRationals or Quaternions; no routine
returns a float.  Every elimination runs one kernel, ``_bareiss``, on
sparse Gaussian-integer rows: dicts mapping a column to the (re, im) ints of
its nonzero entry, so a combination costs the nonzero entries of its two
rows, whatever the width.  Rows over Q or Q(i) become numerators over the
lcm of their denominators, are eliminated fraction-free, and one Fraction
or GaussianRational is built per output entry, so the output ring follows
the input.  Callers that hold numerators (the spinor side) enter through
``echelon_numerators`` and ``nullspace_numerators`` and read the reduced
rows as numerators over one denominator.  A quaternion (H) matrix A enters
through its complex adjoint chi(A) (``complex_adjoint``), the injective ring
homomorphism Mat(m, H) -> Mat(2m, C) with rank chi(A) = 2 rank A (Zhang,
Linear Algebra Appl. 251, 1997): ``rank`` halves the complex rank and
``inv`` reads A^-1 back from chi(A)^-1 block by block.  ``rref``,
``nullspace`` and ``det`` take Q or Q(i) entries only.
"""

from __future__ import annotations

import bisect
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
    """(numerator rows, scales) for dense rows with entries in Q or Q(i):
    row i is a sparse Gaussian-integer row with rows[i] = row / scales[i]."""
    out, scales = [], []
    for row in rows:
        nz = [(j, x.re, x.im) if isinstance(x, GaussianRational) else (j, x, 0)
              for j, x in enumerate(row) if x]
        d = math.lcm(*(x.denominator for _j, x, _y in nz),
                     *(y.denominator for _j, _x, y in nz))
        out.append({j: (x.numerator * (d // x.denominator), y.numerator * (d // y.denominator))
                    for j, x, y in nz})
        scales.append(d)
    return out, scales


def _lin(row, a, f, prow, d):
    """(a row - f prow) / d over Z[i] on sparse rows (f None: a row / d),
    dropping the entries that cancel.  Dividing by d is multiplying by
    conj(d) and integer-dividing by |d|^2; the caller ensures it is exact."""
    ar, ai = a
    if ai:
        out = {j: (ar * u - ai * v, ar * v + ai * u) for j, (u, v) in row.items()}
    else:
        out = {j: (ar * u, ar * v) for j, (u, v) in row.items()}
    if f:
        fr, fi = f
        get = out.get
        for j, (s, t) in prow.items():
            x, y = get(j, (0, 0))
            out[j] = (x - fr * s + fi * t, y - fr * t - fi * s)
    dr, di = d
    if di:
        nn = dr * dr + di * di
        return {j: ((x * dr + y * di) // nn, (y * dr - x * di) // nn)
                for j, (x, y) in out.items() if x or y}
    if dr == 1:
        return {j: e for j, e in out.items() if e[0] or e[1]}
    return {j: (x // dr, y // dr) for j, (x, y) in out.items() if x or y}


def reduced_numerators(row, b):
    """row / b for a sparse Gaussian-integer row and a Gaussian integer b,
    as (den, re, im): entry j is (re[j] + i im[j]) / den, den > 0, zeros
    left out.  1 / b is sign(b) / |b| for a real b, else conj(b) / |b|^2."""
    br, bi = b
    (ur, ui), den = ((br, -bi), br * br + bi * bi) if bi else ((1 if br > 0 else -1, 0), abs(br))
    re = {j: s for j, (x, y) in row.items() if (s := x * ur - y * ui)}
    im = {j: t for j, (x, y) in row.items() if (t := x * ui + y * ur)}
    return den, re, im


def dense_row(den, re, im, ring, n_cols):
    """The n_cols entries (re[j] + i im[j]) / den in ``ring``, Fraction (im
    empty) or GaussianRational."""
    out = [ring(0)] * n_cols
    for j in re.keys() | im.keys():
        x = Fraction(re.get(j, 0), den)
        out[j] = x if ring is Fraction else GaussianRational(x, Fraction(im.get(j, 0), den))
    return out


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


def _bareiss(rows):
    """Fraction-free Gauss-Jordan elimination of sparse Gaussian-integer rows.

    Step k takes the lowest column c where a remaining row is nonzero, and
    the first such row in input order as pivot row, and maps every other row
    to (a_k row - row[c] pivot) / a_(k-1), a_k the pivot entry and a_0 = 1
    (Bareiss, Math. Comp. 22, 1968).  Every entry stays a minor of the
    integer rows, so each division is exact.  A row with row[c] = 0 would
    only be multiplied by a_k / a_(k-1), so it is left as stored, together
    with the pivot b it was last brought to: its true value is
    stored * a_now / b, and when it is next combined,
    (a stored - stored[c] pivot) / b is exact for the same reason.  Rows that
    vanish are dropped; the others wait in buckets by leading column, so a
    step combines only the bucket of c and the reduced rows with an entry at c.

    Returns (done, sign, last): ``done`` lists (row, b, c) per pivot, in
    column order, where row / b is the reduced row with pivot column c;
    ``sign`` is the sign of the order the pivot rows were taken in and
    ``last`` the last pivot, so for a square input of full rank the
    determinant of the input rows is sign * last.
    """
    one = (1, 0)
    stored = [(row, one) for row in rows]
    # the remaining rows by index, in input order, for the sign
    alive = list(range(len(rows)))
    buckets = {}
    for i, row in enumerate(rows):
        if row:
            buckets.setdefault(min(row), []).append(i)
    cols = sorted(buckets)
    done, sign, prev = [], 1, one
    while cols:
        c = cols.pop(0)
        first, *others = sorted(buckets.pop(c))
        k = bisect.bisect_left(alive, first)
        del alive[k]
        if k & 1:
            sign = -sign
        prow, b = stored[first]
        if b != prev:
            prow = _lin(prow, prev, None, None, b)
        a = prow[c]
        for j, (row, b, col) in enumerate(done):
            f = row.get(c)
            if f:
                done[j] = (_lin(row, a, f, prow, b), a, col)
        for i in others:
            row, b = stored[i]
            row = _lin(row, a, row[c], prow, b)
            if not row:
                del alive[bisect.bisect_left(alive, i)]
                continue
            stored[i] = (row, a)
            lead = min(row)
            if lead not in buckets:
                bisect.insort(cols, lead)
            buckets.setdefault(lead, []).append(i)
        done.append((prow, a, c))
        prev = a
    return done, sign, prev


def rref(rows):
    """Reduced row echelon form over Q or Q(i), through ``rref_numerators``.
    Returns (rows, pivot_column_list)."""
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
    """Nonzero rows of the reduced row echelon form of sparse
    Gaussian-integer rows, dense in ``ring``, and the pivot columns.  A
    nonzero integer scale of a row does not change the (unique) form."""
    done = _bareiss(rows)[0]
    return ([dense_row(*reduced_numerators(row, b), ring, n_cols) for row, b, _c in done],
            [c for _row, _b, c in done])


def echelon_numerators(rows):
    """``_bareiss``'s reduced form of sparse Gaussian-integer rows: (row, b,
    c) per pivot, row / b the reduced row with pivot column c."""
    return _bareiss(rows)[0]


def rank(rows):
    """Rank over Q or Q(i), read off ``_bareiss``; a quaternion matrix A has
    rank rank chi(A) / 2."""
    if _entry_ring(rows) is None:
        return rank(complex_adjoint(rows)) // 2
    return len(_bareiss(_gaussian_rows(rows)[0])[0])


def nullspace(rows):
    """Basis of the right nullspace over Q or Q(i)."""
    if not rows:
        return []
    ring = _entry_ring(rows)
    if ring is None:
        raise TypeError("nullspace needs int, Fraction or GaussianRational entries")
    n_cols = len(rows[0])
    free, point = nullspace_numerators(_gaussian_rows(rows)[0], n_cols)
    return [tuple(dense_row(*point([(1, c)]), ring, n_cols)) for c in free]


def nullspace_numerators(rows, n_cols):
    """(free, point) for the right nullspace of sparse Gaussian-integer rows.

    ``free`` lists the free columns; the basis vector v_c of a free column c
    is 1 at c, 0 at the other free columns and minus the reduced rows'
    entries at c on their pivots.  ``point(terms)`` reads sum f v_c over the
    (f, c) pairs of ``terms`` straight off the reduced rows, as (den, re, im)
    in the form of ``reduced_numerators`` over the lcm of the rows'
    denominators: no vector is built unasked.
    """
    done = _bareiss(rows)[0]
    free = sorted(set(range(n_cols)).difference(c for _row, _b, c in done))
    reduced = [(c, *reduced_numerators(row, b)) for row, b, c in done]
    den = math.lcm(*(d for _c, d, _re, _im in reduced))

    def point(terms):
        re = {j: f * den for f, j in terms}
        im = {}
        for c, d, row_re, row_im in reduced:
            x = sum(f * row_re.get(j, 0) for f, j in terms) * (den // d)
            y = sum(f * row_im.get(j, 0) for f, j in terms) * (den // d)
            if x:
                re[c] = -x
            if y:
                im[c] = -y
        return den, re, im

    return free, point


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
    done, sign, last = _bareiss(rows)
    if len(done) < len(a):
        return ring(0)
    return dense_row(*reduced_numerators({0: last}, (sign * math.prod(scales), 0)), ring, 1)[0]


def first_accepted(basis, accept, seed=0, combine=None):
    """First non-None ``accept(v)`` over points v of the span of ``basis``.

    The points are tried lazily in a fixed order: each basis vector, then
    the running sums b0, b0 + b1, ..., then 100 combinations with integer
    coefficients in [-3, 3] drawn from ``random.Random(seed)`` (a
    combination whose coefficients are all zero is skipped).  ``combine``
    builds a point from its nonzero (coefficient, item) pairs, so an item
    may stand for a vector built only when a point uses it; by default items
    are flat vectors.  Returns None when every point is rejected.
    """

    def points():
        for v in basis:
            yield [(1, v)]
        for k in range(len(basis)):
            yield [(1, v) for v in basis[:k + 1]]
        rng = random.Random(seed)
        for _ in range(100):
            terms = [(f, v) for f, v in ((rng.randint(-3, 3), v) for v in basis) if f]
            if terms:
                yield terms

    for terms in points():
        found = accept((combine or _flat_combination)(terms))
        if found is not None:
            return found
    return None


def _flat_combination(terms):
    """sum f v over the (f, v) pairs of ``terms``, v flat vectors."""
    coeffs, vectors = zip(*terms)
    return tuple(sum(f * x for f, x in zip(coeffs, xs)) for xs in zip(*vectors))
