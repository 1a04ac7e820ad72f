"""Dense oracles for the writers that read a compiled model off its monomial
form.

Each builds its result the long way, from dense ring matrices: the images
rho(e_i) of the generators, read through ``intertwine.rho``, then
formatted entry by entry, sliced into summand blocks or mapped entry-wise
through the complex adjoint, and parsed back into a ``Representation`` by
its public constructor.  ``rep_to_json``, ``factor_projections`` and
``quaternion_complexify`` must give the same results without building any
of these matrices.  ``solve_intertwiner`` solves S A_g = B_g S over the
field R or C for dense A_g and B_g, which need not be monomial: the
system the monomial one in ``intertwine`` replaced.
``monomial_intertwiner_rows`` writes the monomial system as rows for the one
elimination kernel: the reference for the walk in ``intertwine`` that solves
it without eliminating.
"""

from cliffkit import intertwine, linalg
from cliffkit.algebra import Multivector
from cliffkit.intertwine import GAUSSIAN_INT_UNITS, Intertwiner
from cliffkit.reprs import _UNIT_MUL, Representation, TargetRing
from cliffkit.scalars import ONE, QUATERNION, format_scalar
import bareiss_oracle


def blade_image(rep, b):
    """rho(e_b) for the basis blade with bitmask b, read through ``rho``."""
    if rep.is_complex:
        return intertwine.rho(rep, Multivector.complex_alg(rep.n, {b: 1}))
    return intertwine.rho(rep, Multivector.real(rep.sig, {b: 1}))


def dense_gens(rep):
    """rho(e_i) for each generator e_i, read through ``rho``."""
    return [blade_image(rep, 1 << i) for i in range(rep.n)]


def _matrix_json(mat, ring_tag):
    return [[format_scalar(ring_tag, x) for x in row] for row in mat]


def json_by_dense_gens(rep):
    """The model's JSON document, every entry formatted on its own."""
    t = rep.target
    doc = {}
    if rep.sig is not None:
        doc["signature"] = [rep.sig.p, rep.sig.q]
    else:
        doc["complex_dim"] = rep.complex_dim
    doc["target"] = {"kind": t.kind, "m": t.m}
    if t.summands == 2:
        doc["target"]["summands"] = 2
        doc["generators"] = [[_matrix_json(g[0], t.ring_tag), _matrix_json(g[1], t.ring_tag)]
                             for g in dense_gens(rep)]
    else:
        doc["generators"] = [_matrix_json(g, t.ring_tag) for g in dense_gens(rep)]
    return doc


def factors_by_slicing(rep):
    """The two single-factor models of a direct-sum model, from the dense
    summand blocks of its generators."""
    t = TargetRing(rep.target.kind, rep.target.m)
    return [Representation(rep.sig, rep.complex_dim, t, [g[idx] for g in dense_gens(rep)])
            for idx in (0, 1)]


def complexify_by_adjoint(rep):
    """Mat(m, H) -> Mat(2m, C) through the dense complex adjoint chi."""
    return Representation(rep.sig, rep.complex_dim, TargetRing("MatC", 2 * rep.target.m),
                          [bareiss_oracle.complex_adjoint(g) for g in dense_gens(rep)])


def field_intertwiner_rows(gens1, gens2, m, ring_tag):
    """S A_g - B_g S = 0 written over the field R or C: row (g, i, j),
    column r m + c holds the coefficient of S[r][c] in entry (i, j)."""
    zero = ONE[ring_tag] * 0
    rows = []
    for A, B in zip(gens1, gens2):
        for i in range(m):
            for j in range(m):
                row = [zero] * (m * m)
                for c in range(m):
                    row[i * m + c] = row[i * m + c] + A[c][j]
                for r in range(m):
                    row[r * m + j] = row[r * m + j] - B[i][r]
                rows.append(row)
    return rows


def solve_intertwiner(gens1, gens2, m, ring_tag, seed=0):
    """Intertwiner with S A_g S^-1 = B_g for dense m x m matrices over R or
    C, or None: the first point of the field nullspace of
    ``field_intertwiner_rows``, in ``linalg.first_accepted`` order, with a
    dense inverse."""
    basis = bareiss_oracle.nullspace(field_intertwiner_rows(gens1, gens2, m, ring_tag))

    def invertible(v):
        s = tuple(tuple(v[i * m:(i + 1) * m]) for i in range(m))
        sinv = bareiss_oracle.inv(s)
        return None if sinv is None else (s, sinv)

    found = linalg.first_accepted(basis, invertible, bareiss_oracle.combination, seed=seed)
    if found is None:
        return None
    s, sinv = found
    assert all(bareiss_oracle.mat_eq(bareiss_oracle.matmul(bareiss_oracle.matmul(s, a), sinv), b)
               for a, b in zip(gens1, gens2))
    return Intertwiner(s, sinv, ring_tag)


def monomial_intertwiner_rows(monos1, monos2, m, ring_tag):
    """S A_g - B_g S = 0 for the unit monomials A_g of ``monos1`` and B_g of
    ``monos2``, as sparse Gaussian-integer rows over the flat coordinates of
    S: k per entry, entry (i, j) first at column (i m + j) k.

    Row t of A_g holds a_t at column pi_A(t) and row i of B_g holds b_i at
    pi_B(i), so entry (i, pi_A(t)) of S A_g - B_g S is
    S[i][t] a_t - b_i S[pi_B(i)][pi_A(t)]: each equation ties two entries.
    Over R and C an entry is its own coordinate (k = 1), and the equation is
    one row holding the Gaussian units a_t and -b_i.  Over H (k = 4) the
    coordinates are those in 1, t1, t2, t3; a unit times a basis unit is
    +- a basis unit, so the equation is one rational row per coordinate,
    again of two entries.  Rows whose entries cancel come out empty.
    """
    if ring_tag == QUATERNION:
        basis, split = (0, 2, 4, 6), lambda c: (c >> 1, GAUSSIAN_INT_UNITS[c & 1])
    else:
        basis, split = (0,), lambda c: (0, GAUSSIAN_INT_UNITS[c])
    k = len(basis)
    rows = []
    for (perm_a, codes_a), (perm_b, codes_b) in zip(monos1, monos2):
        for i in range(m):
            times_b = _UNIT_MUL[codes_b[i]]
            for t in range(m):
                # the k coordinate rows of entry (i, pi_A(t))
                block = [{} for _ in range(k)]
                left, right = (i * m + t) * k, (perm_b[i] * m + perm_a[t]) * k
                for w, u in enumerate(basis):
                    z, e = split(_UNIT_MUL[u][codes_a[t]])
                    block[z][left + w] = e
                    z, (x, y) = split(times_b[u])
                    p, q = block[z].get(right + w, (0, 0))
                    block[z][right + w] = (p - x, q - y)
                rows += [{j: e for j, e in row.items() if e[0] or e[1]} for row in block]
    return rows
