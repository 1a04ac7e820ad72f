"""Exact linear algebra on sparse Gaussian-integer rows.

An elimination takes one matrix format: sparse rows over Z[i], dicts mapping
a column to the (re, im) ints of its nonzero entry, so a combination costs
the nonzero entries of its two rows, whatever the width.  Every elimination
runs one fraction-free kernel, ``echelon_numerators``, which returns the
reduced rows only; ``nullspace_numerators`` and ``inverse_numerators`` read
them as numerators over one denominator.  A matrix over Q, Q(i) or H is
the pair (den, rows): the rows over a positive int den.  Ring
elements cross at two edges only: ``numerator_matrix`` turns a dense matrix
into that pair and ``dense_matrix`` reads the pair back.  A quaternion (H)
matrix A crosses as its complex adjoint chi(A), the injective ring
homomorphism Mat(m, H) -> Mat(2m, C) with rank chi(A) = 2 rank A (Zhang,
Linear Algebra Appl. 251, 1997), so its rank is half the complex rank and
chi(A^-1) = chi(A)^-1.  No routine multiplies dense matrices or returns a
float.
"""

from __future__ import annotations

import bisect
import math
import random
from fractions import Fraction

from .scalars import (
    QUATERNION,
    RATIONAL,
    ZERO,
    GaussianRational,
    Quaternion,
    numerators,
    quaternion_to_complex_block,
)


def numerator_matrix(matrix, ring_tag):
    """(den, rows): a dense matrix (a sequence of rows) over Q, Q(i) or H,
    ``ring_tag`` naming the ring, as sparse Gaussian-integer rows over the
    den that ``scalars.numerators`` gives for the real and imaginary parts.
    An m x n quaternion matrix becomes chi of it, 2m x 2n: entry (i, j) is
    the block ``quaternion_to_complex_block`` at rows 2i, 2i + 1 and
    columns 2j, 2j + 1."""
    if ring_tag == QUATERNION:
        chi = []
        for row in matrix:
            blocks = [quaternion_to_complex_block(x) for x in row]
            chi += [[z for blk in blocks for z in blk[r]] for r in (0, 1)]
        matrix = chi
    parts = [[(j, x.re, x.im) if isinstance(x, GaussianRational) else (j, x, 0)
              for j, x in enumerate(row) if x] for row in matrix]
    den, xy = numerators(x for row in parts for _j, *re_im in row for x in re_im)
    pairs = zip(xy[0::2], xy[1::2])
    return den, [{j: next(pairs) for j, _x, _y in row} for row in parts]


def dense_matrix(den, rows, ring_tag):
    """The square matrix rows / den over Q, Q(i) or H, a tuple of row
    tuples: the inverse of ``numerator_matrix``.  Quaternion rows are chi of
    the matrix, and each entry is read off the first row of its block;
    AssertionError if a second row is not the one chi gives."""
    if ring_tag == QUATERNION:
        return _from_chi(den, rows)
    out = []
    for row in rows:
        entries = [ZERO[ring_tag]] * len(rows)
        for j, (x, y) in row.items():
            entries[j] = (Fraction(x, den) if ring_tag == RATIONAL
                          else GaussianRational(Fraction(x, den), Fraction(y, den)))
        out.append(tuple(entries))
    return tuple(out)


def _from_chi(den, rows):
    # chi(a + b t1 + c t2 + d t3) has the rows (z, w) = (a - d i, -c - b i)
    # and (-conj w, conj z): the first row fixes the entry and the second
    out = []
    for top, bottom in zip(rows[::2], rows[1::2]):
        if bottom != {j ^ 1: (-x, y) if j & 1 else (x, -y) for j, (x, y) in top.items()}:
            raise AssertionError("complex matrix is not the adjoint of a quaternion matrix")
        entries = []
        for j in range(0, len(rows), 2):
            (zr, zi), (wr, wi) = top.get(j, (0, 0)), top.get(j + 1, (0, 0))
            entries.append(Quaternion(*(Fraction(v, den) for v in (zr, -wi, -wr, -zi))))
        out.append(tuple(entries))
    return tuple(out)


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


def echelon_numerators(rows):
    """Fraction-free Gauss-Jordan elimination of sparse Gaussian-integer
    rows: the one elimination kernel.

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

    Returns (row, b, c) per pivot, in column order, where row / b is the
    reduced row with pivot column c.
    """
    one = (1, 0)
    stored = [(row, one) for row in rows]
    buckets = {}
    for i, row in enumerate(rows):
        if row:
            buckets.setdefault(min(row), []).append(i)
    cols = sorted(buckets)
    done, prev = [], one
    while cols:
        c = cols.pop(0)
        first, *others = sorted(buckets.pop(c))
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
                continue
            stored[i] = (row, a)
            lead = min(row)
            if lead not in buckets:
                bisect.insort(cols, lead)
            buckets.setdefault(lead, []).append(i)
        done.append((prow, a, c))
        prev = a
    return done


def nullspace_numerators(rows, n_cols):
    """(free, point) for the right nullspace of sparse Gaussian-integer rows.

    ``free`` lists the free columns; the basis vector v_c of a free column c
    is 1 at c, 0 at the other free columns and minus the reduced rows'
    entries at c on their pivots.  ``point(terms)`` reads sum f v_c over the
    (f, c) pairs of ``terms`` straight off the reduced rows, as (den, re, im)
    in the form of ``reduced_numerators`` over the lcm of the rows'
    denominators: no vector is built unasked.
    """
    done = echelon_numerators(rows)
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


def inverse_numerators(den, rows):
    """(den, rows) of A^-1 for the square matrix A = rows / den, or None
    when A is singular.  ``echelon_numerators`` brings [N | I] to
    [I | N^-1] exactly when N = rows is invertible, and A^-1 = den N^-1,
    read over the lcm of the reduced rows' denominators."""
    n = len(rows)
    done = echelon_numerators([{**row, n + i: (1, 0)} for i, row in enumerate(rows)])
    if [c for _row, _b, c in done] != list(range(n)):
        return None
    reduced = [reduced_numerators({j - n: e for j, e in row.items() if j >= n}, b)
               for row, b, _c in done]
    out_den = math.lcm(*(d for d, _re, _im in reduced))
    out = []
    for d, re, im in reduced:
        f = den * (out_den // d)
        out.append({j: (f * re.get(j, 0), f * im.get(j, 0)) for j in re.keys() | im.keys()})
    return out_den, out


def first_accepted(basis, accept, combine, seed=0):
    """First non-None ``accept(v)`` over points v of the span of ``basis``.

    The points are tried lazily in a fixed order: each basis vector, then
    the running sums b0, b0 + b1, ..., then 100 combinations with integer
    coefficients in [-3, 3] drawn from ``random.Random(seed)`` (a
    combination whose coefficients are all zero is skipped).  ``combine``
    builds a point from its nonzero (coefficient, item) pairs, so an item
    may stand for a vector built only when a point uses it.  Returns None
    when every point is rejected.
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
        found = accept(combine(terms))
        if found is not None:
            return found
    return None
