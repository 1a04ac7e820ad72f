"""Spinor spaces as minimal left ideals of the complexified algebra.

A Hermitian idempotent p = (e + s)/2 generates the left ideal A p; the ideal
is minimal exactly when its complex dimension is 2^(n/2), and then left
multiplication on it is equivalent to the compiled column model.  All linear
algebra is exact over the Gaussian rationals.  The multiplication matrices
the ideal and the conjugator equation need (rows e_b p, and g -> g p1 - p2 g)
are built as Gaussian-integer numerator rows by
``algebra.multiplication_numerators`` and enter the Bareiss kernel as
integer rows (``linalg.rref_numerators``, ``linalg.nullspace_numerators``),
so no Gaussian rational is built until the reduced rows come out.  After
``left_ideal`` nothing is eliminated: coordinates are read off the pivots.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import linalg
from .algebra import (
    Multivector,
    complex_unit,
    from_coords,
    invert,
    multiplication_numerators,
)
from .reprs import Intertwiner, compile_complex_rep, compile_rep
from .scalars import GAUSSIAN, GaussianRational


class HermitianIdempotent(namedtuple("HermitianIdempotent", "n s p")):
    """p = (e + s)/2 for a Hermitian square root of unity s != e."""

    __slots__ = ()


def make_idempotent(s: Multivector) -> HermitianIdempotent:
    if not s.is_complex:
        raise ValueError("idempotents live in the complex algebra")
    return HermitianIdempotent(s.n, s, idempotent_from_factors(s.n, [s]))


def idempotent_from_factors(n, factors):
    """Product of commuting projectors (e + s_k)/2; the s_k must commute."""
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
    if p.star() != p:
        raise ValueError("product idempotent is not Hermitian")
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
    multivector of the complex algebra or a ``HermitianIdempotent``)."""
    if isinstance(p, HermitianIdempotent):
        p = p.p
    if not p.is_complex:
        raise ValueError("left ideals live in the complex algebra")
    n = p.n
    if p * p != p:
        raise ValueError("not an idempotent")
    # row b: the numerators of e_b p, whose span is the ideal
    _d, rows = multiplication_numerators(p, "right", transpose=True)
    red, pivots = linalg.rref_numerators(rows, 1 << n, GaussianRational)
    basis = tuple(
        from_coords(Multivector.complex_alg(n, {}), row) for row in red
    )
    return SpinorSpace(n, p, basis, tuple(pivots))


def is_minimal(space: SpinorSpace) -> bool:
    if space.n % 2:
        raise ValueError("minimality criterion implemented for even n")
    return space.dim == 1 << (space.n // 2)


# ---------------------------------------------------------------------------
# deterministic primitive idempotent search

def _candidate_roots(n):
    """Hermitian square roots of e among signed blades: +-e^i and +-i e^a e^b."""
    out = []
    for i in range(1, n + 1):
        blade = 1 << (i - 1)
        for sign in (1, -1):
            out.append(Multivector.complex_alg(n, {blade: GaussianRational(sign)}))
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            blade = (1 << (a - 1)) | (1 << (b - 1))
            for sign in (1, -1):
                out.append(
                    Multivector.complex_alg(n, {blade: GaussianRational(0, sign)})
                )
    return out


def primitive_idempotent(n: int) -> HermitianIdempotent:
    """First (in a fixed candidate order) primitive Hermitian idempotent
    built from n/2 commuting independent signed-blade square roots.

    A candidate p is primitive when rank rho(p) = 1 in the compiled model:
    rho is an isomorphism onto Mat(m, C), so dim A p = m rank rho(p), and
    the minimal dimension m = 2^(n/2) is rank 1.
    """
    if n <= 0 or n % 2:
        raise ValueError("primitive idempotent search needs positive even n")
    k = n // 2
    candidates = _candidate_roots(n)
    e = complex_unit(n)
    rep = compile_complex_rep(n)

    def dfs(start, chosen, products):
        if len(chosen) == k:
            p = idempotent_from_factors(n, chosen)
            if linalg.rank(rep.rho(p)) == 1:
                return chosen
            return None
        for idx in range(start, len(candidates)):
            s = candidates[idx]
            if any(s * c != c * s for c in chosen):
                continue
            # independence: s must not lie in the group generated so far
            if any(s == pr or s == -pr for pr in products):
                continue
            res = dfs(idx + 1, chosen + [s], products + [pr * s for pr in products])
            if res is not None:
                return res
        return None

    chosen = dfs(0, [], [e])
    if chosen is None:
        raise AssertionError("no primitive idempotent found in the candidate set")
    p = idempotent_from_factors(n, chosen)
    return HermitianIdempotent(n, p * 2 - e, p)


# ---------------------------------------------------------------------------
# matrix model and conjugation

SpinorModel = namedtuple("SpinorModel", "rep left_action intertwiner")


def spinor_matrix_model(space: SpinorSpace, seed=0) -> SpinorModel:
    """Intertwiner between left multiplication on the ideal and the compiled
    column model: U L_i = rho(e^i) U with U invertible.

    L_i is read off the pivots: A p is a left ideal, so e^i psi_j lies in
    it and L_i[r][j] is the coefficient of e^i psi_j at pivots[r].
    U is built, not solved for: U[:, j] = rho(psi_j) w, where psi_j is the
    j-th canonical basis element of the ideal and w = rho(p)[:, k] the first
    nonzero column of rho(p).  Since psi_j = psi_j p, that is column k of
    rho(psi_j).  Then rho(e^i) U = U L_i because rho(e^i psi) = rho(e^i)
    rho(psi).  By Schur's lemma the intertwiners form a line, and U is scaled
    so that its last nonzero entry in row-major order is 1: the point of that
    line that ``solve_intertwiner`` picks.  That U is invertible and that
    U L_i = rho(e^i) U (the same as U L_i U^-1 = rho(e^i) for invertible U,
    with the monomial rho(e^i) as the sparse left factor) are checked
    exactly.  The check also certifies every column of L_i: psi -> rho(psi) w
    is injective on the ideal exactly when U is invertible, and
    rho(e^i) U[:, j] is the image of e^i psi_j.  The result does not depend
    on ``seed``.
    """
    n = space.n
    if not is_minimal(space):
        raise ValueError("matrix model applies to minimal ideals")
    rep = compile_complex_rep(n)
    N = space.dim
    left = []
    for i in range(1, n + 1):
        gen = Multivector.complex_alg(n, {1 << (i - 1): GaussianRational(1)})
        cols = [gen * psi for psi in space.basis]
        left.append(tuple(tuple(col.coeff(piv) for col in cols) for piv in space.pivots))
    k = next(j for j, col in enumerate(zip(*rep.rho(space.p))) if any(col))
    images = [rep.rho(psi) for psi in space.basis]
    U = [[img[r][k] for img in images] for r in range(N)]
    last = next(x for row in reversed(U) for x in reversed(row) if x)
    U = tuple(tuple(x / last for x in row) for row in U)
    Uinv = linalg.inv(U)
    if Uinv is None or not all(
        linalg.mat_eq(linalg.matmul(U, L), linalg.matmul(g, U))
        for L, g in zip(left, rep.gens)
    ):
        raise AssertionError("no invertible intertwiner onto the column model")
    return SpinorModel(rep, tuple(left), Intertwiner(U, Uinv, GAUSSIAN))


def find_conjugator(p1: Multivector, p2: Multivector, seed=0):
    """Invertible g with g p1 g^-1 = p2, or None.

    Solves the exact linear system g p1 = p2 g in the algebra
    (``_conjugator_basis``) and picks an invertible point of the solution
    space, in ``linalg.first_accepted`` order.  A point g is accepted when
    g p1 = p2 g holds exactly and rho(g) is invertible in the compiled
    matrix model (``Representation.invertible``), which decides
    invertibility of g because rho is an isomorphism onto the target ring;
    no inverse is computed.  Every real signature and every
    complex dimension has a compiled model, odd n included.
    """
    if p1.space_key() != p2.space_key():
        raise ValueError("idempotents live in different algebras")
    rep = compile_complex_rep(p1.n) if p1.is_complex else compile_rep(p1.sig)
    basis = _conjugator_basis(p1, p2)

    def conjugates(v):
        g = from_coords(p1, v)
        if not g or not rep.invertible(g):
            return None
        return g if g * p1 == p2 * g else None

    return linalg.first_accepted(basis, conjugates, seed=seed)


def _conjugator_basis(p1, p2):
    """Nullspace basis of g -> g p1 - p2 g on the blade basis.

    The map is R(p1) - L(p2) = (d2 N_R - d1 N_L) / (d1 d2), with N_R and N_L
    the numerator matrices of right multiplication by p1 and left
    multiplication by p2 over their denominators d1 and d2.  The scale
    d1 d2 does not change the (unique) reduced form, so the integer rows give
    the basis of the rational matrix.
    """
    d1, right = multiplication_numerators(p1, "right")
    d2, left = multiplication_numerators(p2, "left")
    rows = [tuple([d2 * u - d1 * v for u, v in zip(r, l)] for r, l in zip(rr, ll))
            for rr, ll in zip(right, left)]
    ring = GaussianRational if p1.is_complex else Fraction
    return linalg.nullspace_numerators(rows, 1 << p1.n, ring)


def stabilizer_membership(g: Multivector, space: SpinorSpace) -> bool:
    """Whether the adjoint by g maps the ideal into itself."""
    ginv = invert(g)
    if ginv is None:
        raise ValueError("stabilizer membership needs an invertible element")
    return all(space.contains(g * psi * ginv) for psi in space.basis)
