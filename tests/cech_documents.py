"""Large Cech documents for the cech commands near their size bound.

    python tests/cech_documents.py path N OUT.json
    python tests/cech_documents.py torus M OUT.json
    python tests/cech_documents.py torus-cocycle M OUT.json
    python tests/cech_documents.py distinct-cocycle M OUT.json
    python tests/cech_documents.py dihedral-cocycle M OUT.json
    python tests/cech_documents.py complete N OUT.json

``path`` writes a path on N vertices (2N - 1 simplices) and ``torus`` the
M x M grid torus (M^2 vertices, 3 M^2 edges, 2 M^2 triangles).
``torus-cocycle`` writes a coboundary g_ij = h_i^-1 h_j of seeded random
rational rotations h_i in O(2,0) on the edges of that torus, the input of
``cech check`` and ``cech lift``; its 3 M^2 edges carry at most 21 distinct
matrices.  ``distinct-cocycle`` writes g_ij = h_i^-1 h_j on the same torus
with seeded h_i in O(4,0), each a product of one to four reflections across
small random integer vectors, and asserts that no two edges carry the same
matrix.  ``dihedral-cocycle`` writes g_ij = h_i^-1 h_j on the same torus
with h_i seeded from the 8 symmetries of the square, rotations and
reflections: its edges carry at most 8 distinct matrices, and the
reflections make the lifts of some triangles disagree in sign, so
``cech lift`` resigns edges by eta.  ``complete`` writes the identity of
O(2,0) on every edge of the complete graph K_N (N + N(N - 1)/2 simplices),
whose H^1 has dimension (N - 1)(N - 2)/2.
"""

import json
import random
import sys
from fractions import Fraction

# (a, b, c) with a^2 + b^2 = c^2: the rotation [[a, -b], [b, a]] / c
PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))


def path_doc(n):
    return {"vertices": n, "simplices": {"1": [[i, i + 1] for i in range(n - 1)]}}


def torus_doc(m):
    """The grid torus: each square (i, j) of the m x m grid, with vertex
    (i, j) at i m + j and indices mod m, is cut into two triangles along its
    diagonal.  Needs m >= 3."""
    v = lambda i, j: (i % m) * m + j % m
    tris = []
    for i in range(m):
        for j in range(m):
            tris.append(sorted((v(i, j), v(i + 1, j), v(i + 1, j + 1))))
            tris.append(sorted((v(i, j), v(i, j + 1), v(i + 1, j + 1))))
    edges = sorted({(t[a], t[b]) for t in tris for a, b in ((0, 1), (0, 2), (1, 2))})
    return {"vertices": m * m, "simplices": {"1": [list(e) for e in edges], "2": tris}}


def _rotation(angle):
    a, b, c = angle
    return (Fraction(a, c), Fraction(b, c))


def _compose(x, y):
    # rotations as (cos, sin): the angles add
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def torus_cocycle_doc(m, seed=0):
    complex_doc = torus_doc(m)
    rng = random.Random(seed)
    h = [_rotation(rng.choice(PYTHAGOREAN)) for _ in range(m * m)]
    edges = []
    for i, j in complex_doc["simplices"]["1"]:
        # h_i^-1 h_j: the rotation by angle(h_j) - angle(h_i)
        c, s = _compose((h[i][0], -h[i][1]), h[j])
        edges.append({"e": [i, j], "matrix": [[str(c), str(-s)], [str(s), str(c)]]})
    return {"complex": complex_doc, "signature": [2, 0], "edges": edges}


def _reflection(u):
    # x -> x - 2 (u.x) / (u.u) u, as the matrix I - 2 u u^T / (u.u)
    q = sum(x * x for x in u)
    return [[int(i == j) - Fraction(2 * a * b, q) for j, b in enumerate(u)]
            for i, a in enumerate(u)]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def distinct_cocycle_doc(m, seed=0):
    complex_doc = torus_doc(m)
    rng = random.Random(seed)
    h = []
    for _ in range(m * m):
        g = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        for _ in range(rng.randint(1, 4)):
            u = [0] * 4
            while not any(u):
                u = [rng.randint(-3, 3) for _ in range(4)]
            g = _matmul(g, _reflection(u))
        h.append(g)
    edges, seen = [], set()
    for i, j in complex_doc["simplices"]["1"]:
        # h_i is orthogonal: h_i^-1 = h_i^T
        g = tuple(tuple(row) for row in _matmul([list(col) for col in zip(*h[i])], h[j]))
        assert g not in seen, f"edge {[i, j]} repeats a matrix"
        seen.add(g)
        edges.append({"e": [i, j], "matrix": [[str(x) for x in row] for row in g]})
    return {"complex": complex_doc, "signature": [4, 0], "edges": edges}


def dihedral_cocycle_doc(m, seed=0):
    square = [((a, -b), (b, a)) for a, b in ((1, 0), (0, 1), (-1, 0), (0, -1))]
    square += [((a, b), (b, -a)) for (a, _), (b, _) in square]
    rng = random.Random(seed)
    h = [rng.choice(square) for _ in range(m * m)]
    complex_doc = torus_doc(m)
    # h_i is orthogonal: h_i^-1 h_j = h_i^T h_j, whose entries are the
    # products of the columns of h_i and h_j
    edges = [{"e": [i, j], "matrix": [[str(sum(x * y for x, y in zip(col_i, col_j))) for col_j in zip(*h[j])]
                                      for col_i in zip(*h[i])]}
             for i, j in complex_doc["simplices"]["1"]]
    return {"complex": complex_doc, "signature": [2, 0], "edges": edges}


def complete_cocycle_doc(n):
    edges = [[i, j] for i in range(n) for j in range(i + 1, n)]
    ident = [["1", "0"], ["0", "1"]]
    return {"complex": {"vertices": n, "simplices": {"1": edges}}, "signature": [2, 0],
            "edges": [{"e": e, "matrix": ident} for e in edges]}


if __name__ == "__main__":
    kind, size, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    build = {"path": path_doc, "torus": torus_doc, "torus-cocycle": torus_cocycle_doc,
             "distinct-cocycle": distinct_cocycle_doc, "dihedral-cocycle": dihedral_cocycle_doc,
             "complete": complete_cocycle_doc}[kind]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(build(size), fh)
