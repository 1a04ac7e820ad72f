"""Finite Cech machinery over Z2 and the Pin-lift obstruction.

Complexes are finite simplicial complexes of dimension at most 3, and a Z2
coboundary row is an int bitmask over the faces.  The one elimination,
``gf2_echelon``, keeps forward pivot rows only: a rank is their count, and a
preimage or kernel vector is completed off them, highest pivot first.
A matrix-valued cocycle on the edges lifts to versors edge by edge; the
triangle discrepancies form a Z2 2-cocycle, and the lift extends to a
genuine Pin-valued cocycle exactly when that class vanishes, in which case
the number of inequivalent lifts is 2^dim H^1.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import _blade_products, _neg_mask, signature_from_json
from .groups import PseudoOrthogonalMatrix, Versor, lift_to_pin
from .scalars import is_json_int


# ---------------------------------------------------------------------------
# GF(2) elimination on int bitmask rows

def gf2_echelon(rows):
    """The forward echelon of the span of ``rows``, as a dict from each
    pivot (a bit length: a large int hashes in linear time) to the kept row
    whose lowest set bit it is.  Rows are inserted in turn; when two share a
    lowest bit, the larger stays and the smaller is xored with it, so a
    sorted star of rows does not chain one pivot through every row.  The
    pivots, so the rank, do not depend on which rows were kept, and
    ``_complete`` reads solutions off any such rows.  The cost follows the
    fill of the rows, not rows x columns."""
    pivot_rows = {}
    for r in rows:
        while r:
            low = (r & -r).bit_length()
            p = pivot_rows.get(low)
            if p is None:
                pivot_rows[low] = r
                break
            if r > p:
                pivot_rows[low] = r
                r, p = p, r
            r ^= p
    return pivot_rows


def _complete(pivot_rows, x):
    """The one x' that agrees with x off the pivots and has even parity
    against every pivot row: from the highest pivot down, the pivot's bit
    is set when the row's parity with x is odd.  x holds no pivot bit."""
    for low in sorted(pivot_rows, reverse=True):
        if (pivot_rows[low] & x).bit_count() & 1:
            x |= 1 << (low - 1)
    return x


# ---------------------------------------------------------------------------
# simplicial complexes

class Complex(namedtuple("Complex", "vertices edges triangles tetrahedra")):
    __slots__ = ()

    @classmethod
    def build(cls, vertices, edges=(), triangles=(), tetrahedra=()):
        def norm(simplices, k):
            out = []
            for s in simplices:
                t = tuple(sorted(s))
                if len(t) != k + 1 or len(set(t)) != k + 1:
                    raise ValueError(f"bad {k}-simplex {s}")
                if t[0] < 0 or t[-1] >= vertices:
                    raise ValueError(f"vertex out of range in {s}")
                out.append(t)
            out = sorted(set(out))
            return tuple(out)

        edges = norm(edges, 1)
        triangles = norm(triangles, 2)
        tetrahedra = norm(tetrahedra, 3)
        edge_set = set(edges)
        for t in triangles:
            for f in _faces(t):
                if f not in edge_set:
                    raise ValueError(f"triangle {t} has a missing edge {f}")
        tri_set = set(triangles)
        for s in tetrahedra:
            for f in _faces(s):
                if f not in tri_set:
                    raise ValueError(f"tetrahedron {s} has a missing face {f}")
        return cls(vertices, edges, triangles, tetrahedra)

    def simplices(self, k):
        if k == 0:
            return tuple((v,) for v in range(self.vertices))
        return (self.edges, self.triangles, self.tetrahedra)[k - 1]

    def to_json(self):
        doc = {"vertices": self.vertices, "simplices": {}}
        for k, name in ((1, "1"), (2, "2"), (3, "3")):
            s = self.simplices(k)
            if s:
                doc["simplices"][name] = [list(x) for x in s]
        return doc

    @classmethod
    def from_json(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError("complex JSON must be an object")
        vertices = doc["vertices"]
        if not is_json_int(vertices) or vertices < 0:
            raise ValueError("'vertices' must be a non-negative integer")
        s = doc.get("simplices", {})
        if not isinstance(s, dict):
            raise ValueError("'simplices' must be an object keyed by dimension")
        for k, simplices in s.items():
            if k not in ("1", "2", "3"):
                raise ValueError(f"unknown simplices key {k!r}: expected '1', '2' or '3'")
            if not (isinstance(simplices, list)
                    and all(_is_vertex_list(x) for x in simplices)):
                raise ValueError(f"simplices {k!r} must be a list of vertex lists")
        return cls.build(
            vertices,
            edges=s.get("1", ()),
            triangles=s.get("2", ()),
            tetrahedra=s.get("3", ()),
        )


def _is_vertex_list(x):
    return isinstance(x, list) and all(is_json_int(v) for v in x)


def _faces(simplex):
    return tuple(
        tuple(v for j, v in enumerate(simplex) if j != i)
        for i in range(len(simplex))
    )


def coboundary_matrix(c: Complex, k: int):
    """Rows indexed by (k+1)-simplices, columns by k-simplices (bitmasks)."""
    lower = c.simplices(k)
    upper = c.simplices(k + 1)
    index = {s: i for i, s in enumerate(lower)}
    rows = []
    for s in upper:
        bits = 0
        for f in _faces(s):
            bits |= 1 << index[f]
        rows.append(bits)
    return rows, len(lower)


def _coboundary_solve(c: Complex, k: int, w: int = 0):
    """(rank delta_k, eta) from one forward elimination of delta_k's rows
    with the (k+1)-cochain bitmask w at bit ncols.  w is not a coboundary,
    and eta is None, when that bit alone is a pivot row; otherwise eta, the
    completion of that bit, is the preimage of w that vanishes off the pivots."""
    rows, ncols = coboundary_matrix(c, k)
    rhs = 1 << ncols
    pivot_rows = gf2_echelon(r | rhs if (w >> i) & 1 else r for i, r in enumerate(rows))
    if ncols + 1 in pivot_rows:
        return len(pivot_rows) - 1, None
    return len(pivot_rows), _complete(pivot_rows, rhs) ^ rhs


def z2_betti(c: Complex, k: int) -> int:
    """dim H^k(c; Z2) = dim ker(delta_k) - rank(delta_{k-1})."""
    if not 0 <= k <= 3:
        raise ValueError("cohomology degree out of range")
    rank_up = _coboundary_solve(c, k)[0] if k < 3 else 0
    rank_down = _coboundary_solve(c, k - 1)[0] if k else 0
    return (len(c.simplices(k)) - rank_up) - rank_down


class Z2Cochain(namedtuple("Z2Cochain", "complex degree values")):
    """Z2 k-cochain: value per k-simplex."""

    __slots__ = ()

    def bit(self, simplex):
        return self.values.get(tuple(sorted(simplex)), 0)

    def is_zero(self):
        return not any(self.values.values())

    def _mask(self):
        return sum(1 << i for i, s in enumerate(self.complex.simplices(self.degree)) if self.bit(s))

    def coboundary(self):
        rows, _ = coboundary_matrix(self.complex, self.degree)
        x = self._mask()
        upper = self.complex.simplices(self.degree + 1)
        return Z2Cochain(self.complex, self.degree + 1,
                         {s: 1 for s, row in zip(upper, rows) if (row & x).bit_count() & 1})

    def coboundary_preimage(self):
        """A (k-1)-cochain eta with delta eta = self, as a bitmask over the
        (k-1)-simplices in order, or None if this is not a coboundary.
        There are no (-1)-cochains, so in degree 0 only the zero cochain is
        a coboundary."""
        if self.degree == 0:
            return 0 if self.is_zero() else None
        return _coboundary_solve(self.complex, self.degree - 1, self._mask())[1]

    def is_coboundary(self):
        """Whether this cochain is delta of a (k-1)-cochain."""
        return self.coboundary_preimage() is not None


# ---------------------------------------------------------------------------
# matrix-valued cocycles

class GroupCocycle(namedtuple("GroupCocycle", "complex sig edges")):
    """Pseudo-orthogonal matrices on the edges, g_ij for i < j."""

    __slots__ = ()

    @classmethod
    def build(cls, complex_, sig, edges):
        clean = {}
        known = set(complex_.edges)
        for e, m in edges.items():
            e = tuple(sorted(e))
            if e not in known:
                raise ValueError(f"matrix given for a non-edge {e}")
            if e in clean:
                raise ValueError(f"matrix given twice for edge {e}")
            if not isinstance(m, PseudoOrthogonalMatrix):
                m = PseudoOrthogonalMatrix(sig, m)
            if m.sig != sig:
                raise ValueError("matrix signature mismatch")
            clean[e] = m
        missing = known - set(clean)
        if missing:
            raise ValueError(f"edges without matrices: {sorted(missing)}")
        return cls(complex_, sig, clean)

    def to_json(self):
        return {
            "complex": self.complex.to_json(),
            "signature": [self.sig.p, self.sig.q],
            "edges": [
                {"e": list(e), "matrix": self.edges[e].to_json()["matrix"]}
                for e in self.complex.edges
            ],
        }

    @classmethod
    def from_json(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError("cocycle JSON must be an object")
        complex_ = Complex.from_json(doc["complex"])
        sig = signature_from_json(doc["signature"])
        items = doc["edges"]
        if not (isinstance(items, list) and all(isinstance(x, dict) for x in items)):
            raise ValueError("'edges' must be a list of {\"e\": [i, j], \"matrix\": rows} objects")
        edges = {}
        for item in items:
            if not _is_vertex_list(item["e"]):
                raise ValueError("edge 'e' must be a list of vertex integers")
            e = tuple(sorted(item["e"]))
            if e in edges:
                raise ValueError(f"matrix given twice for edge {e}")
            edges[e] = PseudoOrthogonalMatrix.from_json(item["matrix"], sig=sig)
        return cls.build(complex_, sig, edges)


def check_cocycle(coc: GroupCocycle):
    """g_ij g_jk = g_ik on every triangle; returns (ok, failing triangle)."""
    for t in coc.complex.triangles:
        i, j, k = t
        if coc.edges[(i, j)] * coc.edges[(j, k)] != coc.edges[(i, k)]:
            return False, t
    return True, None


def subgroup_reduction_check(coc: GroupCocycle, h: dict, member):
    """Whether h_i^-1 g_ij h_j lands in a subgroup on every edge.

    ``h`` maps each vertex to a PseudoOrthogonalMatrix and ``member`` is the
    subgroup membership predicate.  Returns (ok, witness edge or None).
    """
    for v in range(coc.complex.vertices):
        if v not in h:
            raise ValueError(f"missing 0-cochain value at vertex {v}")
    for e in coc.complex.edges:
        i, j = e
        conj = h[i].inverse() * coc.edges[e] * h[j]
        if not member(conj):
            return False, e
    return True, None


def canonical_sign(v: Versor) -> Versor:
    """Normalize so the lowest-blade nonzero coefficient is positive.

    The sign is read off the integer numerators of ``v.product``, whose
    denominator is positive.  The product is nonzero: a versor's factors
    are anisotropic, so it is invertible.  The public constructor checks
    each factor, and a lift stores axis vectors or vectors that
    ``groups._reflect`` accepted.
    """
    num = v.product.re
    if num[min(num)] < 0:
        return v.negated()
    return v


def _triangle_scalar(lifts, t):
    """The sign (+1 or -1) of the scalar s with L_ij L_jk = s L_ik on
    triangle t = (i, j, k).

    This is the discrepancy L_ij L_jk L_ik^-1 read with one product, on
    integer numerators: P the unreduced product of those of L_ij and L_jk,
    and C those of L_ik, whose denominators are positive.  With lead the
    lowest blade of C, L_ij L_jk is a scalar multiple of L_ik exactly when
    P and C have the same blades and P[b] C[lead] == C[b] P[lead] for every
    b; then s has the sign of P[lead] C[lead].  Neither test changes under
    a positive factor of P, and P is not zero, since a product of versors
    of anisotropic factors is invertible (``canonical_sign``).  ker zeta on
    versors is the nonzero scalars, so no such s means g_ij g_jk != g_ik
    for the lifts of the edges, a ValueError naming the triangle.
    """
    i, j, k = t
    a = lifts[(i, j)]
    P = _blade_products(a.product.re, lifts[(j, k)].product.re, _neg_mask(a.sig))
    C = lifts[(i, k)].product.re
    lead = min(C)
    p_lead, c_lead = P.get(lead, 0), C[lead]
    if P.keys() != C.keys() or any(P[b] * c_lead != c * p_lead for b, c in C.items()):
        raise ValueError(f"cocycle condition fails on triangle {list(t)}")
    return 1 if (p_lead > 0) == (c_lead > 0) else -1


PinLiftResult = namedtuple(
    "PinLiftResult", "success lifts discrepancy lift_count obstruction_nonzero")


def pin_lift_cocycle(coc: GroupCocycle) -> PinLiftResult:
    """Lift an O(p,q)-valued cocycle through zeta, edge by edge.

    Each edge matrix is lifted to a sign-normalized versor; the triangle
    products then differ from the lifted third edge by a nonzero scalar whose
    sign is the Z2 discrepancy cocycle w.  If w = delta eta for some edge
    cochain eta, resigning by eta yields a consistent Pin-valued cocycle and
    2^dim H^1 inequivalent lifts; otherwise the obstruction class in H^2 is
    nonzero and no lift exists.  Edges that are not a cocycle raise
    ValueError in the triangle pass, the one pass that multiplies lifts.

    Resigning edge e negates every product that e enters, so the resigned
    sign of triangle t is its raw sign times (-1)^(delta eta)(t), and every
    triangle is +1 exactly when delta eta = w.  That is checked once per
    triangle, as the parity of the resigned edges of t against t's bit of
    w, apart from the GF(2) solve that produced eta; no triangle is
    multiplied again.  Each distinct matrix on a resigned edge is negated
    once, and its resigned edges share that versor, as the others share its
    canonical lift.
    """
    c = coc.complex
    sig = coc.sig
    if sig.n % 2:
        raise ValueError("pin lifting is supported for even n only")
    # each distinct edge matrix is lifted once: matrices and versors are immutable
    lifted = {m: canonical_sign(lift_to_pin(m)) for m in dict.fromkeys(map(coc.edges.get, c.edges))}
    raw = {e: lifted[coc.edges[e]] for e in c.edges}
    w_values = {}
    for t in c.triangles:
        if _triangle_scalar(raw, t) < 0:
            w_values[t] = 1
    w = Z2Cochain(c, 2, w_values)
    if not w.coboundary().is_zero():
        raise AssertionError("discrepancy is not a 2-cocycle")
    rank1, eta = _coboundary_solve(c, 1, w._mask())
    if eta is None:
        return PinLiftResult(False, {}, w, 0, True)
    flipped = {e for i, e in enumerate(c.edges) if (eta >> i) & 1}
    for i, j, k in c.triangles:
        if ((i, j) in flipped) ^ ((j, k) in flipped) ^ ((i, k) in flipped) != ((i, j, k) in w_values):
            raise AssertionError("sign correction failed on a triangle")
    negs = {m: lifted[m].negated() for m in {coc.edges[e] for e in flipped}}
    lifts = {e: negs[coc.edges[e]] if e in flipped else raw[e] for e in c.edges}
    count = 1 << (len(c.edges) - rank1 - _coboundary_solve(c, 0)[0])
    return PinLiftResult(True, lifts, w, count, False)


# ---------------------------------------------------------------------------
# standard complexes used in tests and demos

def filled_triangle() -> Complex:
    return Complex.build(3, edges=[(0, 1), (0, 2), (1, 2)], triangles=[(0, 1, 2)])


def tetrahedron_boundary() -> Complex:
    verts = range(4)
    edges = [(i, j) for i in verts for j in verts if i < j]
    tris = [(i, j, k) for i in verts for j in verts for k in verts if i < j < k]
    return Complex.build(4, edges=edges, triangles=tris)


def projective_plane() -> Complex:
    """Six-vertex triangulation of the real projective plane."""
    tris = [
        (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
        (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5),
    ]
    edges = sorted({(a, b) for t in tris for a in t for b in t if a < b})
    return Complex.build(6, edges=edges, triangles=tris)


def nontrivial_1cocycle(c: Complex):
    """A Z2 1-cocycle that is not a coboundary, as a Z2Cochain, or None:
    the first kernel vector of delta_1, completed from its free columns in
    order, that does not reduce to 0 against the forward echelon of the
    vertex stars (the columns of delta_0, which span the coboundaries)."""
    rows, ncols = coboundary_matrix(c, 1)
    pivot_rows = gf2_echelon(rows)
    stars = [0] * c.vertices
    for i, (a, b) in enumerate(c.edges):
        stars[a] |= 1 << i
        stars[b] |= 1 << i
    star_rows = gf2_echelon(stars)
    if ncols == len(pivot_rows) + len(star_rows):
        return None
    for free in sorted(set(range(1, ncols + 1)) - pivot_rows.keys()):
        v = u = _complete(pivot_rows, 1 << (free - 1))
        while p := star_rows.get((u & -u).bit_length()):
            u ^= p
        if u:
            return Z2Cochain(c, 1, {e: 1 for j, e in enumerate(c.edges) if (v >> j) & 1})
    raise AssertionError("dim H^1 > 0 but every kernel vector of delta_1 is a coboundary")
