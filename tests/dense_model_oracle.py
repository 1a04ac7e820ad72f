"""Dense oracles for the writers that read a compiled model off its monomial
form.

Each builds its result the long way, from dense ring matrices: the images
rho(e_i) of the generators, read through ``Representation.rho``, then
formatted entry by entry, sliced into summand blocks or mapped entry-wise
through the complex adjoint, and parsed back into a ``Representation`` by
its public constructor.  ``rep_to_json``, ``factor_projections`` and
``quaternion_complexify`` must give the same results without building any
of these matrices.
"""

from cliffkit.algebra import Multivector
from cliffkit.reprs import Representation, TargetRing
from cliffkit.scalars import format_scalar
import bareiss_oracle


def dense_gens(rep):
    """rho(e_i) for each generator e_i, read through ``rho``."""
    if rep.is_complex:
        return [rep.rho(Multivector.complex_alg(rep.n, {1 << i: 1})) for i in range(rep.n)]
    return [rep.rho(Multivector.real(rep.sig, {1 << i: 1})) for i in range(rep.n)]


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
