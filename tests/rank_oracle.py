"""Rank oracle for the injectivity check: exact incremental rank over Q.

``Representation.check_injective`` proves injectivity by the trace form; the
tests compare its verdict with this elimination over the real coordinates of
the dense blade images rho(e_b) (``intertwine.rho``), over Q for a real
source and Q(i) for a complex one.
"""

import math

from cliffkit.scalars import I, ZERO, GaussianRational, Quaternion
from dense_model_oracle import blade_image


class SparseRankAccumulator:
    """Incremental rank over Q of sparse vectors (dicts position -> value).

    Values are ints or Fractions; a row is scaled to integers on entry and
    reduced fraction-free against the stored pivot rows (cross-multiply,
    then divide out the content), so no Fraction is built.  A row that does
    not vanish contributes a new pivot.
    """

    def __init__(self):
        self.pivot_rows = {}

    @property
    def rank(self):
        return len(self.pivot_rows)

    def add(self, vec):
        """Reduce vec (dict) and absorb it.  Returns True if rank grew."""
        vals = {k: v for k, v in vec.items() if v}
        den = math.lcm(*(v.denominator for v in vals.values()))
        row = {k: v.numerator * (den // v.denominator) for k, v in vals.items()}
        while row:
            p = min(row)
            piv = self.pivot_rows.get(p)
            if piv is None:
                g = math.gcd(*row.values())
                if row[p] < 0:
                    g = -g
                self.pivot_rows[p] = {k: v // g for k, v in row.items()}
                return True
            a, f = piv[p], row[p]
            if a != 1:
                row = {k: a * v for k, v in row.items()}
            for k, v in piv.items():
                nv = row.get(k, 0) - f * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
            if a != 1 and row:
                g = math.gcd(*row.values())
                if g != 1:
                    row = {k: v // g for k, v in row.items()}
        return False


def _real_coords(x):
    if isinstance(x, Quaternion):
        return x.coords()
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return (x,)


def blades_independent(rep):
    """Whether the 2^n dense blade images of ``rep`` are linearly independent
    over the source's field: over Q as real coordinate vectors for a real
    source, over Q(i) for a complex one.  Vectors v_1 ... v_N are independent
    over Q(i) exactly when v_1, i v_1, ..., v_N, i v_N are independent over
    Q, so a complex source adds each image and i times it."""
    acc = SparseRankAccumulator()
    # rho fills the zero entries with the ring's one ZERO, skipped here by
    # identity, which costs less than a zero test; ``add`` drops any other
    # zero, so the verdict does not rest on it
    zero = ZERO[rep.target.ring_tag]
    for b in range(1 << rep.n):
        img = blade_image(rep, b)
        blocks = img if rep.target.summands == 2 else (img,)
        entries = [(s, i, j, x) for s, block in enumerate(blocks)
                   for i, row in enumerate(block) for j, x in enumerate(row) if x is not zero]
        vectors = [entries]
        if rep.is_complex:
            vectors.append([(s, i, j, I * x) for s, i, j, x in entries])
        for vec in vectors:
            if not acc.add({(s, i, j, k): c for s, i, j, x in vec
                            for k, c in enumerate(_real_coords(x))}):
                return False
    return True
