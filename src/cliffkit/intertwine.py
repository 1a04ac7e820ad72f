"""Maps between compiled models, and the models derived from one.

A model compile never reaches this layer: ``reprs`` builds, checks and
writes a model, and everything here reads one it has compiled.  Inverses
read back through the model (``invert``), the even subring and its model
(``even_subring_rep``, its blades and signs read off the signature, as
``reprs._shift_plan`` reads a signature move's), the substitution of a
signature move as multivectors (``signature_shift``), the summands of a
direct-sum target (``factor_projections``), the complex adjoint of a
quaternion model (``quaternion_complexify``) and intertwiners between two
models (``solve_intertwiner``, ``rep_equivalence``).  They work on the
monomial form ``reprs`` stores, and ``algebra`` runs only where a
multivector is built.
"""

from __future__ import annotations

from collections import namedtuple

from . import algebra, linalg
from .reprs import (
    GAUSSIAN_INT_UNITS,
    KIND_REAL_DIM,
    _UNIT_ENTRIES,
    _UNIT_MUL,
    _UNIT_ROWS,
    Representation,
    TargetRing,
    _checked,
    _shift_plan,
    classify,
    compile_complex_rep,
    compile_rep,
)
from .scalars import QUATERNION, Signature


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
    ``Representation._trace_preimage``, and a x = 1 is checked: in a
    finite-dimensional algebra a one-sided inverse is two-sided.
    """
    rep = compile_complex_rep(a.n) if a.is_complex else compile_rep(a.sig)
    blocks = [linalg.inverse_numerators(a.den, rows) for rows in rep.numerator_blocks(a)]
    if None in blocks:
        return None
    inv_mv = rep._trace_preimage(blocks)
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

    def invertible(s):
        sinv = linalg.inverse_numerators(*s)
        return None if sinv is None else (s, sinv)

    found = linalg.first_accepted(free, invertible, combine)
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
