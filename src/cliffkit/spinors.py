"""Spinor spaces as minimal left ideals of the complexified algebra.

A Hermitian idempotent p = (e + s)/2 generates the left ideal A p; the ideal
is minimal exactly when its complex dimension is 2^(n/2), and then left
multiplication on it is equivalent to the compiled column model.  All linear
algebra is exact, and the spinor chain runs on the monomial form of the
compiled model: every rho(e_b) has one unit in each row and column
(``Representation._blade``), so rho(x) is needed only as sparse
Gaussian-integer rows (``intertwine.numerator_blocks``).  Every
elimination runs the sparse Bareiss kernel of ``linalg`` on rows that hold
their nonzero entries only: the rows e_b p or the preimages of rho(A p) for
the ideal, and rows of |p1| + |p2| entries for g p1 = p2 g, of which even n
eliminates only a spanning set (``find_conjugator``); the reduced rows are
read straight into multivector numerators.  After ``left_ideal`` the
only elimination is U^-1: coordinates, the left action and U are read off
the pivots and the monomial columns as numerator rows, stay so through the
inverse and the intertwining check, and cross to dense matrices only in
the returned ``SpinorModel``.  ``primitive_idempotent`` compiles no model:
its rank 1 is proved from its roots.  The chiral 4x4 model of Cl(1,3) and
Cl(4,0) (``chiral_rep``) acts on C^2 + C^2: its two 2x2 blocks are the Weyl
spinor spaces on which ``spin_block_check`` reads an even versor.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import linalg
from .algebra import (
    Multivector,
    Signature,
    blade_mul,
    complex_unit,
    multiplication_rows,
)
from .intertwine import (
    GAUSSIAN_INT_UNITS,
    Intertwiner,
    _intertwines,
    _row_traces,
    invert,
    invertible,
    numerator_blocks,
    rho,
)
from .reprs import (
    Representation,
    TargetRing,
    _checked,
    _times_minus_i,
    compile_complex_rep,
    compile_rep,
)
from .scalars import GAUSSIAN, GaussianRational


class HermitianIdempotent(namedtuple("HermitianIdempotent", "n s p")):
    """p = (e + s)/2 for a Hermitian square root of unity s != e."""

    __slots__ = ()


def make_idempotent(s: Multivector) -> HermitianIdempotent:
    if not s.is_complex:
        raise ValueError("idempotents live in the complex algebra")
    return HermitianIdempotent(s.n, s, idempotent_from_factors(s.n, [s]))


def idempotent_from_factors(n, factors):
    """Product of commuting projectors (e + s_k)/2; the s_k must commute.
    Once idempotent it is Hermitian: in the unitary model it is a product of
    orthogonal projections, so of norm <= 1, and such an idempotent is one."""
    e = complex_unit(n)
    half = GaussianRational(1) / 2
    p = e
    for s in factors:
        if s * s != e:
            raise ValueError("factor does not square to the unit")
        if s.star() != s:
            raise ValueError("factor is not Hermitian")
        p = p * ((e + s) * half)
    if p * p != p:
        raise ValueError("factors do not commute: product is not idempotent")
    if p == e:
        raise ValueError("trivial idempotent")
    return p


class SpinorSpace(namedtuple("SpinorSpace", "n p basis pivots")):
    """Left ideal A p with a reduced echelon basis: basis[r] has coefficient
    1 at the blade pivots[r] and 0 at the other pivots, so the coordinates of
    an element of the ideal are its coefficients at the pivots."""

    __slots__ = ()

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, mv: Multivector) -> bool:
        if not mv.is_complex or mv.n != self.n:
            raise ValueError("element lives in a different algebra")
        return self.coordinates(mv) is not None

    def coordinates(self, mv: Multivector):
        """Coefficients of mv at the pivots, or None if they do not
        recombine to mv: then mv is outside the ideal."""
        out = [mv.coeff(piv) for piv in self.pivots]
        span = Multivector.complex_alg(self.n, {})
        for c, psi in zip(out, self.basis):
            span = span + psi * c
        return out if span == mv else None


def left_ideal(p) -> SpinorSpace:
    """Canonical basis of the left ideal generated by an idempotent (a
    multivector of the complex algebra or a ``HermitianIdempotent``).

    The basis is the reduced echelon form, which is unique, of one of two
    sparse spanning sets of A p: the 2^n rows e_b p, of |p| entries each, or
    the m * rank rho(p) preimages of ``_row_preimages``, of about 2^n / m
    entries per nonzero entry of a row space basis of rho(p).  The
    elimination takes the set with fewer nonzero entries, with no dense
    width: the preimages for a primitive p, whose image has rank 1, and the
    rows e_b p for a p of few terms and high rank, such as (e + e1)/2.
    """
    if isinstance(p, HermitianIdempotent):
        p = p.p
    if not p.is_complex:
        raise ValueError("left ideals live in the complex algebra")
    n = p.n
    if p * p != p:
        raise ValueError("not an idempotent")
    rep = compile_complex_rep(n)
    bases = [[row for row, _b, _c in linalg.echelon_numerators(block)]
             for block in numerator_blocks(rep, p)]
    if sum(len(v) for basis in bases for v in basis) <= len(p.re.keys() | p.im.keys()):
        rows = _row_preimages(rep, bases)
    else:
        # row b: the numerators of e_b p
        rows = multiplication_rows([(p, "right", 1)], transpose=True)
    done = linalg.echelon_numerators(rows)
    basis = tuple(Multivector(None, n, *linalg.reduced_numerators(row, b))
                  for row, b, _c in done)
    return SpinorSpace(n, p, basis, tuple(c for _row, _b, c in done))


def _row_preimages(rep, bases):
    """Numerators of the preimages of the matrices whose one nonzero row is
    a row v of ``bases[s]``, at row i of block s; they span A p when
    bases[s] is a basis of the row space of block s of rho(p).

    rho is an isomorphism onto Mat(m, C), or Mat(m, C) + Mat(m, C) for odd
    n, so rho(A p) = {Y rho(p)}.  The preimages are read by the trace
    formula (``intertwine._row_traces``), one lookup per blade, and
    leave out its common factor 1 / size.
    """
    m = rep.target.m
    return _row_traces(rep, [(s * m + i, v) for s, basis in enumerate(bases)
                             for v in basis for i in range(m)])


def is_minimal(space: SpinorSpace) -> bool:
    if space.n % 2:
        raise ValueError("minimality criterion implemented for even n")
    return space.dim == 1 << (space.n // 2)


# ---------------------------------------------------------------------------
# primitive idempotent

def primitive_idempotent(n: int) -> HermitianIdempotent:
    """The primitive Hermitian idempotent
    p = (e + e^1)/2 * prod_{j=1}^{n/2-1} (e + i e^(2j) e^(2j+1))/2.

    Its n/2 roots commute, since e^1 and the disjoint bivectors share no
    generator; they are Hermitian, since (i e^a e^b)* = -i e^b e^a =
    i e^a e^b; they square to e and are independent, so every product of
    distinct roots is a signed nonscalar blade and the scalar part of p is
    2^(-n/2).  rho(e_b) is traceless for b != 0 in the compiled model
    Mat(m, C), m = 2^(n/2), so rank rho(p) = tr rho(p) = m 2^(-n/2) = 1:
    p is primitive, and dim A p = m.  ``idempotent_from_factors`` checks
    the roots and p exactly, which is all this proof reads; no model is
    compiled.  Minimality is checked where the ideal is used: verify-all's
    spinor-ideals criterion, and ``is_minimal`` before a matrix model.

    p is also the first such product in a depth-first search over the
    signed blade roots +e^1, -e^1, ..., +e^n, -e^n, then +-i e^a e^b with
    a < b in lexicographic order: once e^1 is chosen, every +-e^j and
    every i e^1 e^b anticommutes with it, so the first root that
    commutes with e^1 and is independent of it is +i e^2 e^3; after that,
    each pair sharing exactly one index with a chosen pair anticommutes
    with it, which leaves (4, 5), (6, 7), and so on.
    """
    if n <= 0 or n % 2:
        raise ValueError("primitive idempotent needs positive even n")
    roots = [Multivector.complex_alg(n, {1: 1})]
    roots += [Multivector.complex_alg(n, {3 << (2 * j - 1): GaussianRational(0, 1)})
              for j in range(1, n // 2)]
    p = idempotent_from_factors(n, roots)
    return HermitianIdempotent(n, p * 2 - complex_unit(n), p)


# ---------------------------------------------------------------------------
# matrix model and conjugation

SpinorModel = namedtuple("SpinorModel", "rep left_action intertwiner")


def spinor_matrix_model(space: SpinorSpace, seed=0) -> SpinorModel:
    """Intertwiner between left multiplication on the ideal and the compiled
    column model: U L_i = rho(e^i) U with U invertible.

    L_i is read off the pivots (``_left_action``) and U off the monomial
    columns (``_column_model``): U[:, j] = rho(psi_j) w, where psi_j is the
    j-th canonical basis element of the ideal and w = rho(p)[:, k] the first
    nonzero column of rho(p).  Since psi_j = psi_j p, that is column k of
    rho(psi_j).  Then rho(e^i) U = U L_i because rho(e^i psi) = rho(e^i)
    rho(psi).  By Schur's lemma the intertwiners form a line, and U is scaled
    so that its last nonzero entry in row-major order is 1: the point of that
    line that ``solve_intertwiner`` picks.  That U is invertible and that
    U L_i = rho(e^i) U (the same as U L_i U^-1 = rho(e^i) for invertible U)
    are checked exactly (``_intertwines``).  The check also certifies every
    column of L_i: psi -> rho(psi) w is injective on the ideal exactly when U
    is invertible, and rho(e^i) U[:, j] is the image of e^i psi_j.  No dense
    rho image is built: U, U^-1 and the L_i stay numerator rows up to the
    dense views returned.  The result does not depend on ``seed``.
    """
    n = space.n
    if not is_minimal(space):
        raise ValueError("matrix model applies to minimal ideals")
    rep = compile_complex_rep(n)
    d, at = _basis_numerators(space.basis)
    left = _left_action(space, d, at)
    U = _column_model(rep, space, at)
    Uinv = linalg.inverse_numerators(*U)
    if Uinv is None or not _intertwines(U[1], left, rep._monos):
        raise AssertionError("no invertible intertwiner onto the column model")
    return SpinorModel(rep, tuple(linalg.dense_matrix(*L, GAUSSIAN) for L in left),
                       Intertwiner(linalg.dense_matrix(*U, GAUSSIAN),
                                   linalg.dense_matrix(*Uinv, GAUSSIAN), GAUSSIAN))


def _basis_numerators(basis):
    """(d, at): d the lcm of the denominators of the psi_j in ``basis``, and
    at[b] the (j, re, im) of each psi_j that holds blade b, j ascending: the
    numerators of psi_j at b over d."""
    d = math.lcm(*(psi.den for psi in basis))
    at = {}
    for j, psi in enumerate(basis):
        f = d // psi.den
        for b in psi.re.keys() | psi.im.keys():
            at.setdefault(b, []).append((j, f * psi.re.get(b, 0), f * psi.im.get(b, 0)))
    return d, at


def _left_action(space, d, at):
    """(d, rows) per generator: L_i as numerator rows over d, with the
    basis numerators ``at`` over d (``_basis_numerators``).  L_i[r][j] is
    the coefficient of e^i psi_j at pivots[r]; A p is a left ideal, so
    e^i psi_j lies in it and these are its coordinates.  Since e^i e_b =
    s e_(b xor i), s read off the two bitmasks by ``blade_mul``, the entry
    is s psi_j at pivots[r] xor i: one lookup in the numerators, no
    product."""
    out = []
    for i in range(space.n):
        rows = []
        for piv in space.pivots:
            s, b = blade_mul(1 << i, piv, space.n)
            rows.append({j: (s * x, s * y) for j, x, y in at.get(b, ())})
        out.append((d, rows))
    return tuple(out)


def _column_model(rep, space, at):
    """(den, rows) of U, U[:, j] = column k of rho(psi_j), k the first
    nonzero column of rho(p), scaled so that its last nonzero entry in
    row-major order is 1.

    Column k of rho(e_b) holds one unit u, in the row r with perm_b[r] = k,
    so each blade b adds its coefficient in psi_j times u to U[r][j], for
    every psi_j that holds b: one row lookup per blade.  The sums run on
    the basis numerators ``at`` (``_basis_numerators``), over a common
    denominator that the scaling cancels."""
    m = rep.target.m
    [rho_p] = numerator_blocks(rep, space.p)
    k = min(min(row) for row in rho_p if row)
    num = [{} for _ in range(m)]
    for b, terms in at.items():
        perm, codes = rep._blade(b)
        r = perm.index(k)
        u, w = GAUSSIAN_INT_UNITS[codes[r]]
        row = num[r]
        for j, x, y in terms:
            p, q = row.get(j, (0, 0))
            row[j] = (p + x * u - y * w, q + x * w + y * u)
    num = [{j: e for j, e in row.items() if e[0] or e[1]} for row in num]
    last = next(row[max(row)] for row in reversed(num) if row)
    rows = []
    for row in num:
        den, re, im = linalg.reduced_numerators(row, last)
        rows.append({j: (re.get(j, 0), im.get(j, 0)) for j in re.keys() | im.keys()})
    return den, rows


def find_conjugator(p1: Multivector, p2: Multivector, seed=0):
    """Invertible g with g p1 g^-1 = p2, or None.

    Solves the exact linear system g p1 = p2 g in the algebra
    (``_conjugator_rows``) and picks an invertible point of the solution
    space, in ``linalg.first_accepted`` order, each point read off the
    reduced rows straight into multivector numerators.  A point g is
    accepted when rho(g) is invertible in the compiled matrix model
    (``intertwine.invertible``), which decides invertibility of g
    because rho is an isomorphism onto the target ring; no inverse is
    computed.  g p1 = p2 g is checked exactly on the accepted point, and a
    failure is a solver fault: AssertionError.  Every real signature and
    every complex dimension has a compiled model, odd n included.

    For even n in the complex algebra most of the 2^n rows are redundant,
    and the rank is known when p1 and p2 are idempotents: P_i = rho(p_i)
    has rank k_i = tr P_i = m <p_i>_0 in Mat(m, C), m = 2^(n/2), and the
    solutions G P1 = P2 G are Hom(im P1, im P2) + Hom(ker P1, ker P2), so
    the rank is r = 2^n - k1 k2 - (m - k1)(m - k2) (``_conjugator_rank``).
    Only S = ``linalg.spanning_rows(rows, r)``, rows independent over
    Q(i), is eliminated first, and its result is kept under one of two
    certificates:

    (A) v, the point of S's lowest free column c, is invertible and has
        v p1 = p2 v.  S's free columns contain the true ones, and a true
        solution is fixed by its values there, so c is the lowest true
        free column and v its basis vector: the first point the all-rows
        search tries, and it is accepted.
    (B) S has r rows, and p1 p1 = p1 and p2 p2 = p2 hold exactly.  Then r
        is the rank, so the independent S spans the row space, and its
        reduced rows, free columns and points are those of all rows.

    Otherwise all rows are eliminated.  Real signatures and odd n always
    eliminate all rows, since their rank formula depends on the division
    ring of the model.
    """
    if p1.space_key() != p2.space_key():
        raise ValueError("idempotents live in different algebras")
    rep = compile_complex_rep(p1.n) if p1.is_complex else compile_rep(p1.sig)
    rows = _conjugator_rows(p1, p2)
    rank = _conjugator_rank(p1, p2)
    solved = None
    if rank is not None:
        spanning = linalg.spanning_rows(rows, rank)
        free, point = linalg.nullspace_numerators(spanning, 1 << p1.n)
        if free:
            v = Multivector(*p1.space_key(), *point([(1, free[0])]))
            if invertible(rep, v) and v * p1 == p2 * v:
                return v
        if len(spanning) == rank and p1 * p1 == p1 and p2 * p2 == p2:
            solved = free, point
    free, point = solved or linalg.nullspace_numerators(rows, 1 << p1.n)
    g = linalg.first_accepted(free, lambda g: g if invertible(rep, g) else None,
                              lambda terms: Multivector(*p1.space_key(), *point(terms)), seed=seed)
    if g is not None and g * p1 != p2 * g:
        raise AssertionError("the solved conjugator fails g p1 = p2 g")
    return g


def _conjugator_rank(p1, p2):
    """r = 2^n - k1 k2 - (m - k1)(m - k2), with k_i = m <p_i>_0 and m =
    2^(n/2), for even n in the complex algebra when each k_i is an integer
    in [0, m]; else None.  It is the rank of g -> g p1 - p2 g only when
    the p_i are idempotents, which ``find_conjugator`` checks before it
    relies on it."""
    n = p1.n
    if not p1.is_complex or n % 2:
        return None
    m = 1 << (n // 2)
    ks = []
    for p in (p1, p2):
        k, rest = divmod(m * p.re.get(0, 0), p.den)
        if rest or p.im.get(0, 0) or not 0 <= k <= m:
            return None
        ks.append(k)
    k1, k2 = ks
    return (1 << n) - k1 * k2 - (m - k1) * (m - k2)


def _conjugator_rows(p1, p2):
    """The rows of g -> g p1 - p2 g on the blade basis, times d1 d2.

    The map is R(p1) - L(p2) = (d2 N_R - d1 N_L) / (d1 d2), with N_R and N_L
    the numerator rows of right multiplication by p1 and left
    multiplication by p2 over their denominators d1 and d2: row y holds the
    entries at x = y xor b for the blades b of p1 and of p2.  The scale
    d1 d2 does not change the (unique) reduced form.
    """
    return multiplication_rows([(p1, "right", p2.den), (p2, "left", -p1.den)])


def adjoint_automorphism(g: Multivector, a: Multivector) -> Multivector:
    """a -> g a g^-1 for any invertible multivector g."""
    ginv = invert(g)
    if ginv is None:
        raise ValueError("adjoint by a non-invertible multivector")
    return g * a * ginv


def stabilizer_membership(g: Multivector, space: SpinorSpace) -> bool:
    """Whether the adjoint by g maps the ideal into itself."""
    ginv = invert(g)
    if ginv is None:
        raise ValueError("stabilizer membership needs an invertible element")
    return all(space.contains(g * psi * ginv) for psi in space.basis)


# ---------------------------------------------------------------------------
# block structure of Spin(1,3) and Spin(4,0) in the chiral matrix model

# gamma^mu = [[0, sigmabar^mu], [sigma^mu, 0]] in 2x2 blocks as (perm, codes) on
# the Gaussian units (+1, -1, +i, -i), with sigma^mu = (1, sigma_1, sigma_2,
# sigma_3), the identity and the Pauli matrices, and sigmabar^mu = (1, -sigma_1,
# -sigma_2, -sigma_3)
_CHIRAL_GAMMA = (((2, 3, 0, 1), (0, 0, 0, 0)), ((3, 2, 1, 0), (1, 1, 0, 0)),
                 ((3, 2, 1, 0), (2, 3, 3, 2)), ((2, 3, 0, 1), (1, 0, 0, 1)))


def chiral_rep(sig: Signature) -> Representation:
    """Chiral 4x4 complex model of Cl(1,3) or Cl(4,0).  The Cl(4,0)
    generators are the Cl(1,3) ones with gamma^1, gamma^2, gamma^3 times -i."""
    if sig not in (Signature(1, 3), Signature(4, 0)):
        raise ValueError("chiral model available for (1,3) and (4,0) only")
    gens = _CHIRAL_GAMMA
    if sig == Signature(4, 0):
        gens = gens[:1] + _times_minus_i(gens[1:])
    return _checked(Representation._from_monos(sig, None, TargetRing("MatC", 4), gens),
                    f"chiral model of {sig}")


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


SpinBlockResult = namedtuple(
    "SpinBlockResult", "block_diagonal A D det_A det_D relation_ok component")


def spin_block_check(g, sig: Signature) -> SpinBlockResult:
    """Image of an even ``groups.Versor`` in the chiral model, split into
    2x2 blocks.

    For (1,3) the lower block must be Tr(A*) 1 - A* with A* the conjugate
    transpose, and pin-normalized versors have det A = +-1, the restricted
    component being det A = +1.  For (4,0) both blocks of a pin-normalized
    even versor are unimodular.
    """
    if g.sig != sig:
        raise ValueError("versor signature mismatch")
    if not g.is_spin:
        raise ValueError("block structure applies to even versors")
    rep = chiral_rep(sig)
    m = rho(rep, g.product)
    off_zero = not any(m[i][j] for i in range(4) for j in range(4) if (i < 2) != (j < 2))
    A = tuple(tuple(m[i][j] for j in range(2)) for i in range(2))
    D = tuple(tuple(m[i][j] for j in range(2, 4)) for i in range(2, 4))
    det_a = _det2(A)
    det_d = _det2(D)
    normalized = g.pin_normalized
    if sig == Signature(1, 3):
        # Tr(A*) 1 - A*, entry by entry
        (a, b), (c, d) = A
        want = ((d.conjugate(), -c.conjugate()), (-b.conjugate(), a.conjugate()))
        relation_ok = off_zero and D == want
        component = ("restricted" if det_a == 1 else "other") if normalized else "unnormalized"
    else:
        relation_ok = off_zero and (not normalized or (det_a == 1 and det_d == 1))
        component = "restricted" if normalized else "unnormalized"
    return SpinBlockResult(off_zero, A, D, det_a, det_d, relation_ok, component)
