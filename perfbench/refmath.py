"""Reference arithmetic for the benchmark, independent of cliffkit.

Every benchmark input is built here and every op output is checked here, so a
change to cliffkit can change neither the inputs nor the oracle.  Scalars are
``Fraction`` (Q), ``Gauss`` (Q(i)) and ``Quat`` (H, Hamilton units
t1 t2 = t3).  Multivectors are dicts {blade bitmask: coefficient}; bit k set
means generator e_(k+1), generators 0..p-1 square to +1 and p..n-1 to -1.
"""

from __future__ import annotations

from fractions import Fraction

# ---------------------------------------------------------------------------
# scalar rings


class Gauss:
    """re + im*i with rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        o = gauss(o)
        return Gauss(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = gauss(o)
        return Gauss(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return Gauss(-self.re, -self.im)

    def __mul__(self, o):
        o = gauss(o)
        return Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = gauss(o)
        d = o.re * o.re + o.im * o.im
        return self * Gauss(o.re / d, -o.im / d)

    def conj(self):
        return Gauss(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, o):
        o = gauss(o)
        return self.re == o.re and self.im == o.im



def gauss(x):
    return x if isinstance(x, Gauss) else Gauss(x)


class Quat:
    """a + b t1 + c t2 + d t3 with rational parts."""

    __slots__ = ("c",)

    def __init__(self, a=0, b=0, c=0, d=0):
        self.c = (Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def __add__(self, o):
        o = quat(o)
        return Quat(*(x + y for x, y in zip(self.c, o.c)))

    __radd__ = __add__

    def __sub__(self, o):
        o = quat(o)
        return Quat(*(x - y for x, y in zip(self.c, o.c)))

    def __neg__(self):
        return Quat(*(-x for x in self.c))

    def __mul__(self, o):
        o = quat(o)
        a1, b1, c1, d1 = self.c
        a2, b2, c2, d2 = o.c
        return Quat(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def __rmul__(self, o):
        return quat(o) * self

    def __bool__(self):
        return any(self.c)

    def __eq__(self, o):
        return self.c == quat(o).c


def quat(x):
    return x if isinstance(x, Quat) else Quat(x)


def parse_rational(s):
    return Fraction(str(s))


def parse_gauss(s):
    """Parse the Gaussian strings of the JSON format: '1/2', '-i', '2-1/3i'."""
    s = str(s).replace(" ", "")
    if not s.endswith("i"):
        return Gauss(Fraction(s))
    body = s[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    re_s, im_s = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
    im = {"": 1, "+": 1, "-": -1}.get(im_s)
    return Gauss(Fraction(re_s), Fraction(im_s) if im is None else im)


def parse_quat(v):
    if not isinstance(v, list) or len(v) != 4:
        raise ValueError(f"quaternion must be a list of four strings, got {v!r}")
    return Quat(*(Fraction(str(x)) for x in v))


PARSERS = {"MatR": parse_rational, "MatC": parse_gauss, "MatH": parse_quat}
ONES = {"MatR": Fraction(1), "MatC": Gauss(1), "MatH": Quat(1)}


# ---------------------------------------------------------------------------
# dense matrices over any of the rings


def matmul(a, b):
    zero = a[0][0] - a[0][0]
    out = []
    for row in a:
        acc = [zero] * len(b[0])
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def matadd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scaled_identity(m, c, zero):
    return [[c if i == j else zero for j in range(m)] for i in range(m)]


def mat_equal(a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def rank(rows):
    """Rank over a commutative field (Fraction or Gauss entries)."""
    m = [list(r) for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------
# pseudo-orthogonal matrices over Q


def eta_diag(p, q):
    return [1] * p + [-1] * q


def qform(eta, w):
    return sum(e * x * x for e, x in zip(eta, w))


def reflection(eta, w):
    """R(w) x = x - 2 <w,x>/<w,w> w as a matrix (columns are images)."""
    n = len(eta)
    norm = qform(eta, w)
    return [
        [Fraction(int(i == a)) - Fraction(2 * eta[a] * w[a] * w[i]) / norm for a in range(n)]
        for i in range(n)
    ]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def eta_inverse(eta, m):
    """M^-1 = eta M^T eta for M in O(p,q)."""
    n = len(eta)
    return [[eta[i] * m[j][i] * eta[j] for j in range(n)] for i in range(n)]


def preserves_form(eta, m):
    n = len(eta)
    if len(m) != n or any(len(row) != n for row in m):
        return False
    return all(
        sum(eta[k] * m[k][a] * m[k][b] for k in range(n)) == (eta[a] if a == b else 0)
        for a in range(n) for b in range(a, n)
    )


def anisotropic_vector(rng, eta, lo=-3, hi=3):
    while True:
        w = [rng.randint(lo, hi) for _ in eta]
        if qform(eta, w) != 0:
            return w


def reflection_product(rng, eta, count):
    m = identity(len(eta))
    for _ in range(count):
        m = matmul(m, reflection(eta, anisotropic_vector(rng, eta)))
    return m


# ---------------------------------------------------------------------------
# blades and multivectors


def blade_product(a, b, p):
    """(sign, blade) of e_A e_B; generators with index >= p square to -1.

    Moving each generator of B left past the generators of A with a higher
    index costs one transposition each; then every repeated generator
    contracts to its square.
    """
    swaps = 0
    rest = a
    while rest:
        low = rest & -rest
        swaps += (b & (low - 1)).bit_count()
        rest ^= low
    sign = -1 if swaps & 1 else 1
    if ((a & b) >> p).bit_count() & 1:
        sign = -sign
    return sign, a ^ b


def mv_mul(x, y, p):
    """Product of multivectors (dicts) with the first p generators positive.

    Pass p = n for the complexified algebra, where every generator squares
    to +1.
    """
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            s, blade = blade_product(a, b, p)
            c = ca * cb
            out[blade] = out.get(blade, 0) + (c if s > 0 else -c)
    return {k: v for k, v in out.items() if v}


def mv_vector(coords):
    return {1 << k: Fraction(c) for k, c in enumerate(coords) if c}


def mv_star(x):
    """Conjugate the coefficients and reverse the blades."""
    out = {}
    for b, c in x.items():
        k = b.bit_count()
        cc = gauss(c).conj()
        out[b] = -cc if (k * (k - 1) // 2) % 2 else cc
    return out


def mv_scale(x, c):
    return {b: v * c for b, v in x.items() if v * c}


def mv_add(x, y):
    out = dict(x)
    for b, c in y.items():
        out[b] = out.get(b, 0) + c
    return {b: c for b, c in out.items() if c}


def mv_equal(x, y):
    keys = set(x) | set(y)
    return all(x.get(k, 0) == y.get(k, 0) for k in keys)


def left_mul_rows(x, n):
    """Matrix of z -> x z on the blade basis of the complex algebra."""
    dim = 1 << n
    rows = [[Gauss(0)] * dim for _ in range(dim)]
    for col in range(dim):
        for b, c in x.items():
            s, blade = blade_product(b, col, n)
            rows[blade][col] = rows[blade][col] + (c if s > 0 else -c)
    return rows


def unit_sphere_point(rng, n, lo=-4, hi=4):
    """Rational point of S^(n-1) by inverse stereographic projection."""
    while True:
        t = [Fraction(rng.randint(lo, hi)) for _ in range(n - 1)]
        s = sum(x * x for x in t)
        pt = [2 * x / (s + 1) for x in t] + [(s - 1) / (s + 1)]
        if any(pt):
            return pt


def pseudoscalar_square(p, n):
    """Sign of (e_1 ... e_n)^2 in Cl(p, n - p)."""
    full = (1 << n) - 1
    return blade_product(full, full, p)[0]


# ---------------------------------------------------------------------------
# GF(2) linear algebra on bitmask rows, for the Cech inputs


def gf2_rank(rows):
    lead = {}
    for v in rows:
        while v:
            h = v.bit_length() - 1
            if h not in lead:
                lead[h] = v
                break
            v ^= lead[h]
    return len(lead)


def gf2_nullspace(rows, ncols):
    piv = {}
    for v in rows:
        for c, r in piv.items():
            if v >> c & 1:
                v ^= r
        if v:
            c = v.bit_length() - 1
            for c2 in piv:
                if piv[c2] >> c & 1:
                    piv[c2] ^= v
            piv[c] = v
    basis = []
    for f in range(ncols):
        if f in piv:
            continue
        x = 1 << f
        for c, r in piv.items():
            if r >> f & 1:
                x |= 1 << c
        basis.append(x)
    return basis


def coboundary_rows(vertices, edges, triangles):
    """delta0 (one row per edge, over vertices), delta1 (per triangle, over edges)."""
    index = {e: k for k, e in enumerate(edges)}
    d0 = [(1 << i) | (1 << j) for i, j in edges]
    d1 = [(1 << index[(i, j)]) | (1 << index[(j, k)]) | (1 << index[(i, k)])
          for i, j, k in triangles]
    return d0, d1


def z2_betti1(vertices, edges, triangles):
    d0, d1 = coboundary_rows(vertices, edges, triangles)
    return (len(edges) - gf2_rank(d1)) - gf2_rank(d0)


def nontrivial_cocycle(vertices, edges, triangles):
    """Edge bitmask of a Z2 1-cocycle that is not a coboundary, or None."""
    d0, d1 = coboundary_rows(vertices, edges, triangles)
    # image of delta0 is spanned by the edge stars of the vertices
    stars = [sum(1 << k for k, e in enumerate(edges) if v in e) for v in range(vertices)]
    base = gf2_rank(stars)
    for a in gf2_nullspace(d1, len(edges)):
        if gf2_rank(stars + [a]) > base:
            return a
    return None


# ---------------------------------------------------------------------------
# self-check against hand-computed products

_HAND_PRODUCTS = [
    # (p, n, left indices, right indices, sign, result indices), 1-based
    (2, 2, [1], [2], 1, [1, 2]),
    (2, 2, [2], [1], -1, [1, 2]),
    (2, 2, [1, 2], [1, 2], -1, []),
    (2, 2, [1], [1, 2], 1, [2]),
    (2, 2, [1, 2], [1], -1, [2]),
    (2, 2, [2], [1, 2], -1, [1]),
    (1, 2, [2], [2], -1, []),
    (1, 2, [1, 2], [1, 2], 1, []),
    (0, 2, [1, 2], [1, 2], -1, []),
    (0, 1, [1], [1], -1, []),
    (3, 3, [1, 2, 3], [1, 2, 3], -1, []),
    (3, 3, [1, 3], [2], -1, [1, 2, 3]),
    (1, 3, [2, 3], [2, 3], -1, []),
    (4, 4, [1, 2, 3, 4], [1, 2, 3, 4], 1, []),
]


def self_check():
    """Raise if the blade product disagrees with the hand-computed table."""
    def bits(ix):
        return sum(1 << (i - 1) for i in ix)

    for p, n, left, right, sign, res in _HAND_PRODUCTS:
        got = blade_product(bits(left), bits(right), p)
        if got != (sign, bits(res)):
            raise AssertionError(f"blade product e{left} e{right} in Cl({p},{n - p}) gave {got}")
    x = mv_vector([1, 2])
    if mv_mul(x, x, 2) != {0: Fraction(5)}:
        raise AssertionError("vector square is not its quadratic form")
    if parse_gauss("-1/2-1/3i") != Gauss(Fraction(-1, 2), Fraction(-1, 3)) or parse_gauss("-i") != Gauss(0, -1):
        raise AssertionError("Gaussian parser is wrong")
    if Quat(0, 1) * Quat(0, 0, 1) != Quat(0, 0, 0, 1):
        raise AssertionError("quaternion units are not Hamilton's")
