"""Every failure branch of the verify-all criteria fires.

Each row corrupts one callee that a criterion reaches through a name in
``cliffkit.verify`` (a module attribute, or an attribute of a class or
module it names) and asserts the criterion's verdict: False, with the
branch's exact message.  Each corruption leaves every check before its
branch passing.
"""

import pytest

from cliffkit import cech, verify
from cliffkit.algebra import Signature, basis_vector
from cliffkit.groups import PseudoOrthogonalMatrix, Versor
from cliffkit.spinors import primitive_idempotent


def _vecs(g, vecs):
    return Versor._from_vecs(g.sig, tuple(vecs))


def _drop_denominator(zeta):
    # the integer numerators N of N / d, read as the matrix
    return lambda g: PseudoOrthogonalMatrix._from_int(g.sig, zeta(g).num, 1)


def _identity_on_three_factors_at_n4(zeta):
    # no lift at n = 4 has three factors (an odd count r is patched to r + 4),
    # and the kernel checks draw two: only the last loop's draws reach it
    return lambda g: PseudoOrthogonalMatrix.identity(g.sig) if (g.sig.n, len(g.vecs)) == (4, 3) else zeta(g)


def _pad_with_e1(cartan_dieudonne):
    # 2n copies of e_1 recompose to the identity
    def padded(m):
        cd = cartan_dieudonne(m)
        return cd._replace(vectors=cd.vectors + (basis_vector(m.sig, 1),) * (2 * m.sig.n))
    return padded


def _without_last_vector(cartan_dieudonne):
    def shortened(m):
        cd = cartan_dieudonne(m)
        return cd._replace(vectors=cd.vectors[:-1])
    return shortened


def _without_last_basis_vector(left_ideal):
    def shortened(p):
        space = left_ideal(p)
        return space._replace(basis=space.basis[:-1], pivots=space.pivots[:-1])
    return shortened


def _flip_first_triangle(scalar):
    return lambda lifts, t: -scalar(lifts, t) if t == (0, 1, 2) else scalar(lifts, t)


def _cocycles_without_coboundaries(z2_betti):
    # dim ker delta_k, with rank delta_(k-1) never subtracted
    return lambda c, k: len(c.simplices(k)) - cech._coboundary_solve(c, k)[0]


def _triangle_twice(filled_triangle):
    # built past Complex.build, which would drop the repeat
    def doubled():
        c = filled_triangle()
        return c._replace(triangles=c.triangles * 2)
    return doubled


def _with_solid_simplex(tetrahedron_boundary):
    def solid():
        c = tetrahedron_boundary()
        return cech.Complex.build(c.vertices, c.edges, c.triangles, [(0, 1, 2, 3)])
    return solid


def _with_extra_loop(projective_plane):
    # a circle through a new vertex, on edges listed after RP2's: H^1 has
    # dimension 2, and RP2's class is still the first one found
    def wedged():
        c = projective_plane()
        return cech.Complex.build(c.vertices + 1, c.edges + ((4, 6), (5, 6)), c.triangles)
    return wedged


# (criterion, name under cliffkit.verify, corruption of that name's value, detail)
_BRANCHES = [
    ("check_complex_models", "compile_complex_rep", lambda f: lambda n: f(n + 1),
     "n=2: target Mat(2,C) + Mat(2,C) != Mat(2,C)"),
    ("check_named_isomorphisms", "compile_rep", lambda f: lambda sig: f(Signature(sig.q, sig.p)),
     "(1,3): got Mat(4,R), want Mat(2,H)"),
    ("check_irrep_dimensions", "real_irrep_dim", lambda f: lambda sig: f(Signature(sig.q, sig.p)),
     "got 4 and 8, want 8 and 4"),
    ("check_vector_action", "zeta", _drop_denominator,
     "(0,2): zeta(g) does not preserve the form"),
    # g^-1 v g for g v g^-1
    ("check_vector_action", "zeta", lambda f: lambda g: f(g).inverse(),
     "(0,2): zeta(g) != g v g^-1"),
    # the draws have one or two factors, their products up to four
    ("check_vector_action", "zeta", lambda f: lambda g: f(_vecs(g, g.vecs[:2])),
     "(0,2): zeta(gh) != zeta(g) zeta(h)"),
    ("check_vector_action", "total_reflection_versor", lambda f: lambda sig: _vecs(f(sig), f(sig).vecs[:-1]),
     "(2,0): total reflection does not act as -identity"),
    ("check_double_cover", "lift_to_pin", lambda f: lambda m: _vecs(f(m), f(m).vecs[:-1]),
     "(1,1): round trip failed"),
    ("check_double_cover", "Versor", lambda cls: lambda sig, factors: cls(sig, tuple(factors)[:-1]),
     "(1,1): kernel versor is not scalar"),
    ("check_double_cover", "Versor.negated", lambda f: lambda g: _vecs(g, g.vecs[1:]),
     "(1,1): zeta distinguishes g from -g"),
    ("check_double_cover", "zeta", _identity_on_three_factors_at_n4,
     "(2,2): nonscalar versor in the kernel"),
    ("check_reflection_factorization", "cartan_dieudonne", _pad_with_e1,
     "(0,1): 3 reflections > 2n"),
    ("check_reflection_factorization", "cartan_dieudonne", lambda f: lambda m: f(m)._replace(fallback_count=0),
     "(2,1): 4 reflections without fallback > n"),
    ("check_reflection_factorization", "cartan_dieudonne", _without_last_vector,
     "(0,1): recomposition mismatch"),
    ("check_spinor_ideals", "left_ideal", _without_last_basis_vector,
     "n=2: ideal dimension 1"),
    ("check_spinor_ideals", "make_idempotent", lambda f: lambda s: primitive_idempotent(s.n),
     "(e+e1)/2 at n=4: ideal dimension 4, want 8"),
    ("check_idempotent_conjugacy", "random_unitary_versor", lambda f: lambda n, rng: 2 * f(n, rng),
     "trial 0: conjugate lost idempotency"),
    ("check_idempotent_conjugacy", "is_minimal", lambda f: lambda space: space.dim == 1 << space.n,
     "trial 0: conjugate not minimal"),
    ("check_idempotent_conjugacy", "find_conjugator", lambda f: lambda p1, p2, seed=0: None,
     "trial 0: no conjugator found"),
    # the edges h_i^-1 h_j become h_i h_j
    ("check_cech_obstruction", "PseudoOrthogonalMatrix.inverse", lambda f: lambda m: m,
     "tetrahedron cocycle check failed on (0, 1, 2)"),
    # w gains the one triangle, a generator of H^2 of the sphere
    ("check_cech_obstruction", "cech._triangle_scalar", _flip_first_triangle,
     "tetrahedron lift failed"),
    ("check_cech_obstruction", "cech.z2_betti", _cocycles_without_coboundaries,
     "tetrahedron lift count mismatch"),
    ("check_cech_obstruction", "cech.nontrivial_1cocycle", lambda f: lambda c: None,
     "no nontrivial 1-cocycle on the projective plane"),
    ("check_cech_obstruction", "cech.nontrivial_1cocycle", lambda f: lambda c: cech.Z2Cochain(c, 1, {c.edges[0]: 1}),
     "projective plane cocycle check failed on (0, 1, 3)"),
    ("check_cech_obstruction", "cech.nontrivial_1cocycle", lambda f: lambda c: cech.Z2Cochain(c, 1, {}),
     "obstructed cocycle was lifted"),
    ("check_cech_obstruction", "cech.filled_triangle", _triangle_twice,
     "filled triangle H^2 wrong"),
    ("check_cech_obstruction", "cech.tetrahedron_boundary", _with_solid_simplex,
     "tetrahedron boundary cohomology wrong"),
    ("check_cech_obstruction", "cech.projective_plane", _with_extra_loop,
     "projective plane cohomology wrong"),
]


@pytest.mark.parametrize("check, name, corrupt, detail", _BRANCHES, ids=[row[3] for row in _BRANCHES])
def test_criterion_branch_fires(monkeypatch, check, name, corrupt, detail):
    *path, attr = name.split(".")
    owner = verify
    for part in path:
        owner = getattr(owner, part)
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    assert getattr(verify, check)() == (False, detail)


def test_a_criterion_that_raises_fails_and_the_next_still_runs(monkeypatch):
    def raising(sig):
        raise ValueError("no model")

    monkeypatch.setattr(verify, "compile_rep", raising)
    monkeypatch.setattr(verify, "CRITERIA", [c for c in verify.CRITERIA
                                             if c[0] in ("named-isomorphisms", "irrep-dimensions")])
    assert [(r["name"], r["ok"], r["detail"]) for r in verify.run_all()] == [
        ("named-isomorphisms", False, "exception: ValueError('no model')"),
        ("irrep-dimensions", True, "real irrep dims: (1,3) -> 8, (3,1) -> 4")]
