"""End-to-end checks over the whole workbench.

Each check returns (ok, detail).  ``run_all`` executes every check with a
single seed and reports name, verdict and elapsed time; the CLI command
``verify-all`` and the acceptance test suite both run exactly this code.
"""

from __future__ import annotations

import time

from . import cech
from .algebra import Multivector, Signature, basis_vector
from .groups import (
    PseudoOrthogonalMatrix,
    Versor,
    cartan_dieudonne,
    lift_to_pin,
    reflection_matrix,
    total_reflection_versor,
    zeta,
)
from .reprs import (
    TargetRing,
    classify,
    compile_complex_rep,
    compile_rep,
    even_subring_rep,
    real_irrep_dim,
)
from .sampling import (
    random_anisotropic_vector,
    random_pseudo_orthogonal,
    random_unitary_versor,
    random_versor,
    rng_from_seed,
)
from .scalars import GaussianRational
from .spinors import (
    find_conjugator,
    is_minimal,
    left_ideal,
    make_idempotent,
    primitive_idempotent,
    spinor_matrix_model,
)


def _signatures(max_n, min_n=0):
    out = []
    for n in range(min_n, max_n + 1):
        for p in range(n + 1):
            out.append(Signature(p, n - p))
    return out


def check_classification_table(seed=0):
    """All signatures with p + q <= 8 compile onto their classified target."""
    for sig in _signatures(8):
        rep = compile_rep(sig)
        if rep.target != classify(sig):
            return False, f"{sig}: target {rep.target} != {classify(sig)}"
        if not rep.verify():
            return False, f"{sig}: representation failed verification"
    return True, "45 signatures compiled and verified"


def check_complex_models(seed=0):
    """Complex algebras of dimension 2, 4, 6 onto Mat(2^(n/2), C) with
    Hermitian generator images."""
    for n in (2, 4, 6):
        rep = compile_complex_rep(n)
        want = TargetRing("MatC", 1 << (n // 2))
        if rep.target != want:
            return False, f"n={n}: target {rep.target} != {want}"
        if not rep.verify():
            return False, f"n={n}: verification failed"
        for idx, g in enumerate(rep.gens):
            m = len(g)
            for i in range(m):
                for j in range(m):
                    if g[i][j] != g[j][i].conjugate():
                        return False, f"n={n}: generator {idx+1} is not Hermitian"
    return True, "complex models for n = 2, 4, 6 verified"


def check_named_isomorphisms(seed=0):
    cases = [
        (Signature(1, 3), TargetRing("MatH", 2)),
        (Signature(3, 1), TargetRing("MatR", 4)),
        (Signature(0, 3), TargetRing("MatH", 1, summands=2)),
        (Signature(2, 0), TargetRing("MatR", 2)),
        (Signature(1, 1), TargetRing("MatR", 2)),
    ]
    for sig, want in cases:
        rep = compile_rep(sig)
        if rep.target != want:
            return False, f"{sig}: got {rep.target}, want {want}"
    return True, "all named targets match"


def check_irrep_dimensions(seed=0):
    d13 = real_irrep_dim(Signature(1, 3))
    d31 = real_irrep_dim(Signature(3, 1))
    if d13 != 8 or d31 != 4:
        return False, f"got {d13} and {d31}, want 8 and 4"
    return True, "real irrep dims: (1,3) -> 8, (3,1) -> 4"


def _matches_definition(g, m):
    """Column a of m is g e_a g^-1, with g sandwiching as one dense product."""
    ginv = g.inverse_mv()
    return all(
        (g.product * basis_vector(g.sig, a) * ginv).vector_coords() == m.column(a - 1)
        for a in range(1, g.sig.n + 1)
    )


def check_vector_action(seed=0):
    """zeta lands in O(p,q), agrees with g v g^-1 and is multiplicative; 200
    versors and 100 product pairs per signature family with p + q <= 6."""
    rng = rng_from_seed(seed)
    sigs = _signatures(6, min_n=1)
    for sig in sigs:
        for _ in range(200):
            g = random_versor(sig, rng, num_factors=rng.randint(1, 2))
            if not zeta(g).preserves_form():
                return False, f"{sig}: zeta(g) does not preserve the form"
    pairs_done = 0
    while pairs_done < 100:
        for sig in sigs:
            g = random_versor(sig, rng, num_factors=rng.randint(1, 2))
            h = random_versor(sig, rng, num_factors=rng.randint(1, 2))
            zg, zh = zeta(g), zeta(h)
            if not (_matches_definition(g, zg) and _matches_definition(h, zh)):
                return False, f"{sig}: zeta(g) != g v g^-1"
            if zeta(g * h) != zg * zh:
                return False, f"{sig}: zeta(gh) != zeta(g) zeta(h)"
            pairs_done += 1
            if pairs_done >= 100:
                break
    # total reflection acts as -identity in even dimension
    for sig in (Signature(2, 0), Signature(1, 1), Signature(2, 2)):
        m = zeta(total_reflection_versor(sig))
        n = sig.n
        if any(m.mat[i][j] != (-1 if i == j else 0) for i in range(n) for j in range(n)):
            return False, f"{sig}: total reflection does not act as -identity"
    return True, "zeta sound and multiplicative on sampled versors"


_EVEN_SIGS_4 = [
    Signature(1, 1), Signature(2, 0), Signature(0, 2),
    Signature(2, 2), Signature(3, 1), Signature(1, 3),
    Signature(4, 0), Signature(0, 4),
]


def check_double_cover(seed=0):
    """lift_to_pin is a section of zeta; kernel versors are scalar."""
    rng = rng_from_seed(seed)
    done = 0
    while done < 100:
        for sig in _EVEN_SIGS_4:
            m = random_pseudo_orthogonal(sig, rng)
            g = lift_to_pin(m)
            if zeta(g) != m:
                return False, f"{sig}: round trip failed"
            done += 1
            if done >= 100:
                break
    for sig in _EVEN_SIGS_4:
        # versors built to map to the identity must have scalar products
        v = random_anisotropic_vector(sig, rng)
        g = Versor(sig, [v, v])
        if not (zeta(g).is_identity() and g.product.is_scalar()):
            return False, f"{sig}: kernel versor is not scalar"
        h = random_versor(sig, rng)
        if zeta(h) != zeta(h.negated()):
            return False, f"{sig}: zeta distinguishes g from -g"
    for sig in _EVEN_SIGS_4:
        for _ in range(25):
            h = random_versor(sig, rng, num_factors=rng.randint(1, 3))
            if zeta(h).is_identity() and not h.product.is_scalar():
                return False, f"{sig}: nonscalar versor in the kernel"
    return True, "100 lifts round-trip; kernel is the scalar line"


def check_reflection_factorization(seed=0):
    """Cartan-Dieudonne on 100 random reflection products per signature."""
    rng = rng_from_seed(seed)
    for sig in _signatures(6, min_n=1):
        n = sig.n
        for _ in range(100):
            m = random_pseudo_orthogonal(sig, rng)
            cd = cartan_dieudonne(m)
            if cd.r > 2 * n:
                return False, f"{sig}: {cd.r} reflections > 2n"
            if cd.fallback_count == 0 and cd.r > n:
                return False, f"{sig}: {cd.r} reflections without fallback > n"
            # recompose with dense integer products of reflection matrices
            # built from their own formula, independent of the integer
            # reflect step
            comp = PseudoOrthogonalMatrix.identity(sig)
            for w in cd.vectors:
                comp = comp * reflection_matrix(w)
            if comp != m:
                return False, f"{sig}: recomposition mismatch"
    return True, "factorizations recompose exactly within the count bounds"


def check_spinor_ideals(seed=0):
    for n in (2, 4, 6):
        idem = primitive_idempotent(n)
        space = left_ideal(idem)
        if space.dim != 1 << (n // 2):
            return False, f"n={n}: ideal dimension {space.dim}"
        if not is_minimal(space):
            return False, f"n={n}: ideal not minimal"
        spinor_matrix_model(space, seed=seed)
    # a single-factor idempotent at n = 4 is not primitive
    s = Multivector.complex_alg(4, {1: GaussianRational(1)})
    p = make_idempotent(s)
    space = left_ideal(p)
    if space.dim != 8:
        return False, f"(e+e1)/2 at n=4: ideal dimension {space.dim}, want 8"
    if is_minimal(space):
        return False, "(e+e1)/2 at n=4 reported minimal"
    return True, "minimal ideals have dimension 2^(n/2); models intertwine"


def check_idempotent_conjugacy(seed=0):
    """find_conjugator succeeds on 20 random minimal pairs at n = 4."""
    rng = rng_from_seed(seed)
    n = 4
    base = primitive_idempotent(n).p
    for trial in range(20):
        g1 = random_unitary_versor(n, rng)
        g2 = random_unitary_versor(n, rng)
        p1 = g1 * base * g1.reversion()
        p2 = g2 * base * g2.reversion()
        for p in (p1, p2):
            if p * p != p or p.star() != p:
                return False, f"trial {trial}: conjugate lost idempotency"
            if not is_minimal(left_ideal(p)):
                return False, f"trial {trial}: conjugate not minimal"
        g = find_conjugator(p1, p2, seed=seed + trial)
        if g is None:
            return False, f"trial {trial}: no conjugator found"
    return True, "20 random minimal pairs conjugated"


def check_even_subrings(seed=0):
    logged = []
    for sig in _signatures(6, min_n=2):
        derived, _gen_map, rep = even_subring_rep(sig)
        if not rep.verify():
            return False, f"{sig}: even subring relations failed"
        # the naive index-count formula predicts (q, p-1); log disagreements
        if sig.p == 0:
            logged.append(f"{sig}: formula signature (q,p-1) invalid, derived {derived}")
        elif (derived.p, derived.q) != (sig.q, sig.p - 1):
            logged.append(f"{sig}: formula (q,p-1) != derived {derived}")
        classify(derived)
    detail = "derived signatures verified from generator squares"
    if logged:
        detail += "; formula notes: " + "; ".join(logged)
    return True, detail


def check_cech_obstruction(seed=0):
    rng = rng_from_seed(seed)
    sig = Signature(2, 0)
    # coboundary-built cocycle on the 2-sphere lifts
    tetra = cech.tetrahedron_boundary()
    h = {v: zeta(random_versor(sig, rng)) for v in range(4)}
    edges = {(i, j): h[i].inverse() * h[j] for (i, j) in tetra.edges}
    coc = cech.GroupCocycle.build(tetra, sig, edges)
    ok, tri = cech.check_cocycle(coc)
    if not ok:
        return False, f"tetrahedron cocycle check failed on {tri}"
    res = cech.pin_lift_cocycle(coc)
    if not res.success:
        return False, "tetrahedron lift failed"
    if res.lift_count != 1 << cech.z2_betti(tetra, 1):
        return False, "tetrahedron lift count mismatch"
    # twisted cocycle on the projective plane is obstructed
    rp2 = cech.projective_plane()
    a = cech.nontrivial_1cocycle(rp2)
    if a is None:
        return False, "no nontrivial 1-cocycle on the projective plane"
    ident = PseudoOrthogonalMatrix.identity(sig)
    minus = PseudoOrthogonalMatrix(sig, [[-1, 0], [0, -1]])
    edges = {e: (minus if a.bit(e) else ident) for e in rp2.edges}
    coc2 = cech.GroupCocycle.build(rp2, sig, edges)
    ok, tri = cech.check_cocycle(coc2)
    if not ok:
        return False, f"projective plane cocycle check failed on {tri}"
    res2 = cech.pin_lift_cocycle(coc2)
    if res2.success or not res2.obstruction_nonzero:
        return False, "obstructed cocycle was lifted"
    if res2.discrepancy.is_coboundary():
        return False, "obstruction class is a coboundary"
    # cohomology oracle values
    if cech.z2_betti(cech.filled_triangle(), 2) != 0:
        return False, "filled triangle H^2 wrong"
    if cech.z2_betti(tetra, 2) != 1 or cech.z2_betti(tetra, 1) != 0:
        return False, "tetrahedron boundary cohomology wrong"
    if cech.z2_betti(rp2, 1) != 1 or cech.z2_betti(rp2, 2) != 1:
        return False, "projective plane cohomology wrong"
    return True, "lift succeeds on the sphere, obstructed class found on RP2"


CRITERIA = (
    ("classification-table", check_classification_table, 0.1),
    ("complex-models", check_complex_models, 0.02),
    ("named-isomorphisms", check_named_isomorphisms, None),
    ("irrep-dimensions", check_irrep_dimensions, None),
    ("vector-action-soundness", check_vector_action, 2.0),
    ("double-cover", check_double_cover, 0.75),
    ("reflection-factorization", check_reflection_factorization, 3.0),
    ("spinor-ideals", check_spinor_ideals, 0.06),
    ("idempotent-conjugacy", check_idempotent_conjugacy, 0.3),
    ("even-subrings", check_even_subrings, None),
    ("cech-pin-obstruction", check_cech_obstruction, 0.1),
)


def run_all(seed=0):
    """Run every check.  Returns a list of result dicts."""
    results = []
    for name, fn, budget in CRITERIA:
        start = time.monotonic()
        try:
            ok, detail = fn(seed=seed)
        except Exception as exc:  # pragma: no cover - diagnostics path
            ok, detail = False, f"exception: {exc!r}"
        elapsed = time.monotonic() - start
        results.append({
            "name": name,
            "ok": bool(ok),
            "detail": detail,
            "seconds": round(elapsed, 3),
            "budget": budget,
        })
    return results
