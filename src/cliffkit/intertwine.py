"""Readers of compiled models, maps between them, and the models derived
from one.

A model compile never reaches this layer: ``reprs`` builds, checks and
writes a model, and everything here reads one it has compiled.  The
readers take the model first: ``numerator_blocks(rep, x)`` is the one
reading of rho(x), on the sparse Gaussian-integer rows of ``linalg``, and
``ranks``, ``invertible`` and the dense view ``rho`` read those rows;
``_row_traces`` is the one reading of rho^-1, and ``preimage(rep, X)`` its
dense entry point.  Inverses read back through the model (``invert``), the
even subring and its model (``even_subring_rep``, its blades and signs read
off the signature, as ``reprs._shift_plan`` reads a signature move's), the
substitution of a signature move as multivectors (``signature_shift``), the
summands of a direct-sum target (``factor_projections``), the complex
adjoint of a quaternion model (``quaternion_complexify``) and intertwiners
between two models (``solve_intertwiner``, ``rep_equivalence``).  They work
on the monomial form ``reprs`` stores, and ``algebra`` runs only where a
multivector is built.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import algebra, linalg
from .reprs import (
    KIND_REAL_DIM,
    _Q8,
    _UNIT_MUL,
    Representation,
    TargetRing,
    _checked,
    _shift_plan,
    classify,
    compile_complex_rep,
    compile_rep,
)
from .scalars import GAUSSIAN, QUATERNION, RATIONAL, Signature, quaternion_to_complex_block

# the units of R and C as Gaussian integers (re, im), in code order
GAUSSIAN_INT_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))
# each unit code as a k x k monomial block of Gaussian integers, row by row:
# the (column, re, im) of the one entry of each row; the unit itself on R
# and C (k = 1), its complex adjoint chi on H (k = 2)
_UNIT_ENTRIES = {
    RATIONAL: tuple(((0,) + u,) for u in GAUSSIAN_INT_UNITS[:2]),
    GAUSSIAN: tuple(((0,) + u,) for u in GAUSSIAN_INT_UNITS),
    QUATERNION: tuple(tuple(next((dc, int(z.re), int(z.im)) for dc, z in enumerate(row) if z)
                            for row in quaternion_to_complex_block(u)) for u in _Q8),
}
# k, the rows of each unit's block: the numerator rows that one row of rho takes
_UNIT_ROWS = {tag: len(units[0]) for tag, units in _UNIT_ENTRIES.items()}


# ---------------------------------------------------------------------------
# readers: rho(x) and its inverse on the numerator rows of ``linalg``

def rho(rep: Representation, mv: algebra.Multivector):
    """Image of a multivector of the source algebra, the dense view
    (``linalg.dense_matrix``) of ``numerator_blocks`` over mv.den."""
    blocks = tuple(linalg.dense_matrix(mv.den, rows, rep.target.ring_tag)
                   for rows in numerator_blocks(rep, mv))
    return blocks if rep.target.summands == 2 else blocks[0]


def numerator_blocks(rep: Representation, mv: algebra.Multivector):
    """rho(mv) as sparse Gaussian-integer rows (column -> (re, im), no
    zeros), one list of rows per summand block, every entry times mv.den.
    A quaternion block is given by its complex adjoint chi, a 2m x 2m
    block over Q(i).  The rows are read off the monomial blade images and
    the numerators of mv, with no ring element built.  mv must live in
    the source algebra."""
    if (mv.sig, mv.n) != (rep.sig, rep.n):
        raise ValueError("multivector does not live in the source algebra")
    t = rep.target
    m = t.m
    re, im = mv.re, mv.im
    units, k = _UNIT_ENTRIES[t.ring_tag], _UNIT_ROWS[t.ring_tag]
    w = k * m
    # the rows of all blocks in order; row k i + dr is row dr of the
    # k x k block of rho row i
    rows = [{} for _ in range(t.summands * w)]
    for b in re | im:
        x, y = re.get(b, 0), im.get(b, 0)
        for i, (j, c) in enumerate(zip(*rep._blade(b))):
            col = k * (j % m)
            for dr, (dc, u, v) in enumerate(units[c]):
                row = rows[k * i + dr]
                p, q = row.get(col + dc, (0, 0))
                row[col + dc] = (p + x * u - y * v, q + x * v + y * u)
    rows = [{j: e for j, e in row.items() if e[0] or e[1]} for row in rows]
    return [rows[s:s + w] for s in range(0, len(rows), w)]


def ranks(rep: Representation, mv: algebra.Multivector):
    """Rank of each summand block of rho(mv) over the target's ring,
    from ``numerator_blocks`` by the one Bareiss kernel; a quaternion
    block A ranks as chi(A) / 2."""
    return [len(linalg.echelon_numerators(rows)) // _UNIT_ROWS[rep.target.ring_tag]
            for rows in numerator_blocks(rep, mv)]


def invertible(rep: Representation, mv: algebra.Multivector):
    """Whether rho(mv) is invertible: every summand block has full rank.

    A compiled model is injective onto a ring of the same dimension, so
    this decides whether mv is invertible in the source algebra.
    """
    return all(r == rep.target.m for r in ranks(rep, mv))


def preimage(rep: Representation, matrix):
    """Multivector x with rho(x) = matrix, or None.

    ``matrix`` is m x m over the target's ring, a pair of them for a
    direct sum (ValueError otherwise).  x is read off its numerator rows
    by ``_trace_preimage`` and returned once rho(x) = matrix holds
    exactly, on the numerators.
    """
    t = rep.target
    m = t.m
    blocks = matrix if t.summands == 2 else (matrix,)
    if not (_has_len(blocks, t.summands) and all(
            _has_len(block, m) and all(_has_len(row, m) for row in block) for block in blocks)):
        shape = f"a pair of {m}x{m} matrices" if t.summands == 2 else f"a {m}x{m} matrix"
        raise ValueError(f"preimage expects {shape} over the target ring")
    den, rows = linalg.numerator_matrix([row for block in blocks for row in block], t.ring_tag)
    x = _trace_preimage(rep, [(den, rows)])
    image = [row for block in numerator_blocks(rep, x) for row in block]
    if all({j: (a * den, b * den) for j, (a, b) in got.items()}
           == {j: (a * x.den, b * x.den) for j, (a, b) in want.items()}
           for got, want in zip(image, rows)):
        return x
    return None


def _trace_preimage(rep, blocks):
    """x with coefficient tr(rho(e_b)^-1 X) / (summands * m) at e_b, its
    real part for a real source, X stacked from the rows / den of the
    (den, rows) pairs of ``blocks`` as ``numerator_blocks`` stacks them:
    the sum of ``_row_traces`` over the rows of X.  For X = rho(x) this
    is x: rho(e_b)^-1 rho(e_c) = +-rho(e_(b xor c)), and tr rho(e_C) = 0
    for C != 0 by the relations and, for omega at odd n,
    ``check_injective`` (its real part for a real source).
    """
    t = rep.target
    den = math.lcm(*(d for d, _rows in blocks))
    scaled = [(den // d, row) for d, rows in blocks for row in rows]
    pairs = [(r, row) for r, (_f, row) in enumerate(scaled) if row]
    re, im = {}, {}
    for (r, _row), tr in zip(pairs, _row_traces(rep, pairs)):
        f = scaled[r][0]
        for b, (x, y) in tr.items():
            re[b] = re.get(b, 0) + f * x
            im[b] = im.get(b, 0) + f * y
    real = not rep.is_complex
    return algebra.Multivector(rep.sig, rep.n, den * _UNIT_ROWS[t.ring_tag] * t.summands * t.m,
                               {b: x for b, x in re.items() if x},
                               {} if real else {b: y for b, y in im.items() if y})


def _row_traces(rep, rows):
    """For each (r, row) of ``rows``, a dict b -> (re, im) of k
    tr(rho(e_b)^-1 X) without zeros, X the matrix whose one nonzero
    numerator row is ``row`` at r (counted as in ``numerator_blocks``);
    k = 2 on H, through chi, else 1.  rho(e_b)^-1 is the conjugate
    transpose of a unit monomial, so the trace is conj(u) X[r][perm_b[r]],
    u the unit of rho(e_b) in row r: one lookup per blade.
    """
    t = rep.target
    m = t.m
    k = _UNIT_ROWS[t.ring_tag]
    # by_row[dr][code]: the (column, re, im) of row dr of the unit's block
    by_row = list(zip(*_UNIT_ENTRIES[t.ring_tag]))
    kcol = [k * (j % m) for j in range(t.summands * m)]
    entries = [(r // k, by_row[r % k], row.get, {}) for r, row in rows]
    for b in range(1 << rep.n):
        perm, codes = rep._blade(b)
        for i, units, get, acc in entries:
            dc, u, v = units[codes[i]]
            e = get(kcol[perm[i]] + dc)
            if e:
                acc[b] = (u * e[0] + v * e[1], u * e[1] - v * e[0])
    return [acc for _i, _units, _get, acc in entries]


def _has_len(x, n):
    return isinstance(x, (tuple, list)) and len(x) == n


# ---------------------------------------------------------------------------
# models derived from a compiled one

def signature_shift(sig: Signature, kind: str):
    """Exact generator substitution realizing a signature move.

    Returns (new_sig, gen_map) where gen_map lists, for each generator of the
    new signature (positives first), a multivector of the old algebra: the
    blade +e_b of each b in ``_shift_plan``, the one plan ``compile_rep``
    reads.
    """
    new_sig, blades = _shift_plan(sig, kind)
    return new_sig, [algebra.Multivector.real(sig, {b: 1}) for b in blades]


def invert(a):
    """Exact inverse of a multivector through its compiled matrix model;
    None if singular.

    rho is an isomorphism onto the target ring, so a is invertible exactly
    when every summand block of rho(a) is.  The numerator blocks are
    inverted by ``linalg.inverse_numerators``, read back with
    ``_trace_preimage``, and a x = 1 is checked: in a
    finite-dimensional algebra a one-sided inverse is two-sided.
    """
    rep = compile_complex_rep(a.n) if a.is_complex else compile_rep(a.sig)
    blocks = [linalg.inverse_numerators(a.den, rows) for rows in numerator_blocks(rep, a)]
    if None in blocks:
        return None
    inv_mv = _trace_preimage(rep, blocks)
    unit_mv = a._like(1, {0: 1}, {})
    if a * inv_mv != unit_mv:
        raise AssertionError("inverse read back from the matrix model is wrong")
    return inv_mv


def even_subring_rep(sig: Signature):
    """Even subring generators w^i = v^1 v^i and their derived signature.

    Returns (derived_sig, gen_map, representation).  w^i is the blade
    1 | 1 << (i - 1) with sign +1; its square -eta^11 eta^ii e is read off
    the signature, and generators squaring to +e are listed first.
    """
    if sig.n < 2:
        raise ValueError("even subring derivation needs n > 1")
    pos = [1 | 1 << (i - 1) for i in range(2, sig.n + 1) if sig.square(i) != sig.square(1)]
    neg = [1 | 1 << (i - 1) for i in range(2, sig.n + 1) if sig.square(i) == sig.square(1)]
    derived, blades = Signature(len(pos), len(neg)), pos + neg
    ambient = compile_rep(sig)
    rep = Representation._from_monos(derived, None, ambient.target, [ambient._blade(b) for b in blades])
    return (derived, [algebra.Multivector.real(sig, {b: 1}) for b in blades],
            _checked(rep, f"even subring model of {sig}"))


def quaternion_complexify(r: Representation) -> Representation:
    """Replace quaternion entries by 2x2 complex blocks (Mat(m,H) -> Mat(2m,C)):
    each unit code becomes its chi block, a 2x2 monomial of Gaussian units."""
    if r.target.kind != "MatH" or r.target.summands != 1:
        raise ValueError("complexification applies to single quaternionic targets")
    return _checked(Representation._from_monos(r.sig, r.complex_dim,
                                               TargetRing("MatC", 2 * r.target.m),
                                               _chi_monos(r._monos)),
                    "complexified model")


def _chi_monos(monos):
    """The complex adjoints chi of quaternion monomials, as Gaussian-unit
    monomials of twice the size."""
    code = {u: k for k, u in enumerate(GAUSSIAN_INT_UNITS)}
    # chi(unit) has one entry per row, listed in row order: the (column,
    # code) of rows 2i and 2i + 1
    return [tuple(zip(*[(2 * j + dc, code[u, v]) for j, c in zip(perm, codes)
                        for dc, u, v in _UNIT_ENTRIES[QUATERNION][c]]))
            for perm, codes in monos]


def real_irrep_dim(sig: Signature) -> int:
    """Real dimension of the natural column module of one target factor."""
    t = classify(sig)
    return t.m * KIND_REAL_DIM[t.kind]


def factor_projections(r: Representation):
    """The two single-factor representations of a direct-sum target.

    Each satisfies the relations; neither is injective on its own.
    """
    if r.target.summands != 2:
        raise ValueError("representation target is not a direct sum")
    m = r.target.m
    t = TargetRing(r.target.kind, m)
    out = []
    for idx, lo in enumerate((0, m)):  # factor idx: rows and columns lo .. lo + m - 1
        gens = [(tuple(j - lo for j in perm[lo:lo + m]), codes[lo:lo + m])
                for perm, codes in r._monos]
        rep = Representation._from_monos(r.sig, r.complex_dim, t, gens)
        if not rep.check_relations():
            raise AssertionError(f"factor {idx} breaks the anticommutation relations")
        out.append(rep)
    return out


# ---------------------------------------------------------------------------
# intertwiners

# the code of each unit's inverse
_UNIT_INV = tuple(row.index(0) for row in _UNIT_MUL)


class Intertwiner(namedtuple("Intertwiner", "matrix inverse ring_tag")):
    """Invertible S with S r1(v) S^-1 = r2(v) on all generators."""

    __slots__ = ()


def _intertwiner_space(monos1, monos2, m, ring_tag):
    """(free, combine) for {S : S A_g = B_g S}, A_g the unit monomials of
    ``monos1`` and B_g those of ``monos2``, by a walk over the equations.
    S has k coordinates per entry, entry (i, j) first at column (i m + j) k:
    k = 4 on H, the real parts in 1, t1, t2, t3, else 1.  Entry (i, pi_A(t))
    reads S[pi_B(i)][pi_A(t)] = b_i^-1 S[i][t] a_t, a_t in row t of A_g, b_i
    in row i of B_g; a unit times a basis unit is +- a basis unit, so each
    generator permutes the coordinates, times units.  The walk from the
    lowest unvisited column x_0 thus closes its connected set and gives each
    x in it a unit code lam[x], x = lam[x] x_0 (on H, x's axis is lam[x] >> 1
    and its sign lam[x] & 1).  The set is free exactly when every step
    agrees with the code recorded; otherwise x_0 = u x_0 for a unit u != 1,
    and the set holds only 0.  A free set's solutions are a line with no
    zero coordinate, so the reduced echelon form pivots on all its columns
    but the highest, c: ``free`` lists each c in increasing order, and v_c
    is lam[x] / lam[c] at each x of c's set (on H the sign only, as the
    coordinates are real).  ``combine(terms)`` is (1, rows) for sum f v_c
    over the (f, c) pairs of ``terms``: the numerator rows of S (chi on H).
    """
    k, h = (4 if ring_tag == QUATERNION else 1), _UNIT_ROWS[ring_tag]
    units = _UNIT_ENTRIES[ring_tag]
    steps = [(perm_a, codes_a, perm_b, [_UNIT_INV[c] for c in codes_b])
             for (perm_a, codes_a), (perm_b, codes_b) in zip(monos1, monos2)]
    lam = [None] * (k * m * m)
    sets = {}
    for root in range(k * m * m):
        if lam[root] is None:
            lam[root] = 2 * (root % k)
            seen, free = [root], True
            for x in seen:  # seen grows as it is walked
                i, t = divmod(x // k, m)
                for perm_a, codes_a, perm_b, inv_b in steps:
                    u = _UNIT_MUL[_UNIT_MUL[inv_b[i]][lam[x]]][codes_a[t]]
                    # the axis of u picks the coordinate on H; k - 1 = 0 on R, C
                    y = (perm_b[i] * m + perm_a[t]) * k + (u >> 1 & k - 1)
                    if lam[y] is None:
                        lam[y] = u
                        seen.append(y)
                    free = free and lam[y] == u
            if free:
                c = max(seen)
                div = lam[c] & 1 if k == 4 else _UNIT_INV[lam[c]]
                # v_c as (row, column, re, im): the unit's block at each entry
                sets[c] = [(h * (x // k // m) + dr, h * (x // k % m) + dc, re, im) for x in seen
                           for dr, (dc, re, im) in enumerate(units[_UNIT_MUL[lam[x]][div]])]

    def combine(terms):
        rows = [{} for _ in range(h * m)]
        for f, c in terms:
            for r, col, re, im in sets[c]:
                p, q = rows[r].get(col, (0, 0))
                rows[r][col] = (p + f * re, q + f * im)
        return 1, rows

    return sorted(sets), combine


def solve_intertwiner(monos1, monos2, m, ring_tag):
    """Invertible S with S A_g S^-1 = B_g, or None if none exists, for the
    m x m unit monomials A_g of ``monos1`` and B_g of ``monos2``.

    S is the first point of the solution space, in ``linalg.first_accepted``
    order, whose numerator rows have an inverse; S and S^-1 are returned as
    their dense views.  S A_g = B_g S is checked exactly on the numerator
    rows (``_intertwines``, on chi over H), and a failure is a solver fault:
    AssertionError.
    """
    free, combine = _intertwiner_space(monos1, monos2, m, ring_tag)

    def with_inverse(s):
        sinv = linalg.inverse_numerators(*s)
        return None if sinv is None else (s, sinv)

    found = linalg.first_accepted(free, with_inverse, combine)
    if found is None:
        return None
    if ring_tag == QUATERNION:
        monos1, monos2 = _chi_monos(monos1), _chi_monos(monos2)
    left = [(1, [{j: GAUSSIAN_INT_UNITS[c]} for j, c in zip(*a)]) for a in monos1]
    if not _intertwines(found[0][1], left, monos2):
        raise AssertionError("the solved intertwiner fails S A_g = B_g S")
    return Intertwiner(*(linalg.dense_matrix(*x, ring_tag) for x in found), ring_tag)


def _intertwines(U, left, monos):
    """Whether U L_i = M_i U for every i, exactly, on numerators.

    U is given by its numerator rows N, at any scale, L_i by its (d, rows)
    in ``left`` and M_i by its Gaussian-unit monomial (perm, codes) in
    ``monos``.  Row r of U L_i is the sum of U[r][k] times row k of L_i, and
    row r of M_i U is u_r times row perm[r] of U, u_r the unit of M_i in
    row r; so row r of N L_i times d is compared with d u_r times row
    perm[r] of N, the nonzero entries only."""
    for (d, L), (perm, codes) in zip(left, monos):
        for r, row in enumerate(U):
            acc = {}
            for k, (a, b) in row.items():
                for j, (c, e) in L[k].items():
                    x, y = acc.get(j, (0, 0))
                    acc[j] = (x + a * c - b * e, y + a * e + b * c)
            u, w = GAUSSIAN_INT_UNITS[codes[r]]
            want = {j: (d * (a * u - b * w), d * (a * w + b * u)) for j, (a, b) in U[perm[r]].items()}
            if {j: e for j, e in acc.items() if e[0] or e[1]} != want:
                return False
    return True


def rep_equivalence(r1: Representation, r2: Representation):
    """Exact intertwiner between two representations, or None.

    Both must have the same single-factor target ring and dimension; use
    ``factor_projections`` first for direct-sum targets.
    """
    if r1.target.summands != 1 or r2.target.summands != 1:
        raise ValueError("use factor_projections before comparing direct sums")
    if (r1.target.kind, r1.target.m) != (r2.target.kind, r2.target.m):
        raise ValueError("representations target different matrix rings")
    if (r1.sig, r1.complex_dim) != (r2.sig, r2.complex_dim):
        raise ValueError("representations have different source algebras")
    return solve_intertwiner(r1._monos, r2._monos, r1.target.m, r1.target.ring_tag)
