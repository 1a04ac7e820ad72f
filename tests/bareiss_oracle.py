"""Dense Bareiss kernel: the oracle for the sparse kernel of ``linalg``.

This is the elimination ``linalg.echelon_numerators`` ran before it moved
to sparse rows, kept whole: a Gaussian-integer row is a pair (re, im) of int
lists of the full width, and every combination runs over all columns from
the pivot on.  ``rref``, ``rank``, ``nullspace`` and ``inv`` are built on it
the way ``linalg`` once built them, so the tests can compare the sparse
kernel's reduced rows and each numerator entry point with it, entry for
entry; ``det`` reads the row-order sign and the last pivot, the oracle for
``PseudoOrthogonalMatrix.det``.  Entries are ints, Fractions or
GaussianRationals; a quaternion matrix enters through ``complex_adjoint``.  ``dense_row`` and ``combination`` are the
dense views of a point of a span, read off numerators or summed from flat
vectors.  ``matmul`` and ``mat_eq`` are the dense matrix product and equality
the tests check the numerator rows against.
"""

import math
from fractions import Fraction

from cliffkit.scalars import GaussianRational, quaternion_to_complex_block


def gaussian_rows(rows):
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


def dense(row, n_cols):
    """The dense (re, im) pair of int lists of a sparse row."""
    re, im = [0] * n_cols, [0] * n_cols
    for j, (x, y) in row.items():
        re[j], im[j] = x, y
    return re, im


def _at(row, c):
    x, y = row[0][c], row[1][c]
    return (x, y) if x or y else None


def _lin(row, a, f, prow, d, start):
    """(a row - f prow) / d over Z[i] from column ``start`` on (f None:
    a row / d), with earlier entries kept."""
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


def bareiss(rows, n_cols):
    """Dense fraction-free Gauss-Jordan elimination: (done, sign, last).
    ``done`` is what ``linalg.echelon_numerators`` returns, with dense rows;
    ``sign`` is the sign of the order the pivot rows were taken in and
    ``last`` the last pivot, so a square input of full rank has determinant
    sign * last."""
    one = (1, 0)
    rest = [(row, one) for row in rows]
    done = []
    sign = 1
    prev = one
    for c in range(n_cols):
        if not rest:
            break
        for k, (row, _b) in enumerate(rest):
            if _at(row, c):
                break
        else:
            continue
        prow, b = rest.pop(k)
        if k & 1:
            sign = -sign
        if b != prev:
            prow = _lin(prow, prev, None, None, b, c)
        a = _at(prow, c)
        for j, (row, b, col) in enumerate(done):
            f = _at(row, c)
            if f:
                done[j] = (_lin(row, a, f, prow, b, 0), a, col)
        kept = []
        for row, b in rest:
            f = _at(row, c)
            if not f:
                kept.append((row, b))
                continue
            row = _lin(row, a, f, prow, b, c)
            if any(row[0]) or any(row[1]):
                kept.append((row, a))
        rest = kept
        done.append((prow, a, c))
        prev = a
    return done, sign, prev


def _ring(rows):
    types = {type(x) for row in rows for x in row}
    return Fraction if types <= {int, Fraction} else GaussianRational


def _reduced(row, d, ring):
    dr, di = d
    if ring is Fraction:
        return [Fraction(x, dr) for x in row[0]]
    nn = dr * dr + di * di
    return [GaussianRational(Fraction(x * dr + y * di, nn), Fraction(y * dr - x * di, nn))
            for x, y in zip(*row)]


def rref(rows):
    if not rows:
        return [], []
    ring, n_cols = _ring(rows), len(rows[0])
    done = bareiss(gaussian_rows(rows)[0], n_cols)[0]
    red = [_reduced(row, b, ring) for row, b, _c in done]
    red += [[ring(0)] * n_cols for _ in range(len(rows) - len(red))]
    return red, [c for _row, _b, c in done]


def rank(rows):
    return len(bareiss(gaussian_rows(rows)[0], len(rows[0]))[0]) if rows else 0


def nullspace(rows):
    if not rows:
        return []
    ring = _ring(rows)
    red, pivots = rref(rows)
    n_cols = len(rows[0])
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [ring(0)] * n_cols
        v[fc] = ring(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def inv(a):
    n = len(a)
    red, pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red[:n])


def det(a):
    ring = _ring(a)
    rows, scales = gaussian_rows(a)
    done, sign, last = bareiss(rows, len(a))
    if len(done) < len(a):
        return ring(0)
    return _reduced(([last[0]], [last[1]]), (sign * math.prod(scales), 0), ring)[0]


def complex_adjoint(a):
    """chi(A) in Mat(2m, C) for a quaternion matrix A: entry (i, j) becomes
    the 2 x 2 block ``quaternion_to_complex_block(A[i][j])`` at rows 2i,
    2i + 1 and columns 2j, 2j + 1."""
    out = []
    for row in a:
        blocks = [quaternion_to_complex_block(x) for x in row]
        out += [tuple(x for blk in blocks for x in blk[r]) for r in (0, 1)]
    return tuple(out)


def dense_row(den, re, im, ring, n_cols):
    """The n_cols entries (re[j] + i im[j]) / den in ``ring``, Fraction (im
    empty) or GaussianRational."""
    out = [ring(0)] * n_cols
    for j in re.keys() | im.keys():
        x = Fraction(re.get(j, 0), den)
        out[j] = x if ring is Fraction else GaussianRational(x, Fraction(im.get(j, 0), den))
    return out


def combination(terms):
    """sum f v over the (f, v) pairs of ``terms``, v flat vectors."""
    coeffs, vectors = zip(*terms)
    return tuple(sum(f * x for f, x in zip(coeffs, xs)) for xs in zip(*vectors))


def matmul(a, b):
    """The dense product of two matrices over any of the rings, row by row,
    skipping the zero entries of a."""
    m = len(b[0])
    zero = a[0][0] - a[0][0]
    out = []
    for ai in a:
        row = [zero] * m
        for k, x in enumerate(ai):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        row[j] = row[j] + x * y
        out.append(tuple(row))
    return tuple(out)


def mat_eq(a, b):
    return len(a) == len(b) and len(a[0]) == len(b[0]) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))
