"""Compilation of Clifford algebras onto matrix rings.

Every real algebra over a signature (p, q) is isomorphic to a matrix ring
over R, C or H, or to a direct sum of two copies of one, and the target only
depends on (p - q) mod 8.  ``compile_rep`` produces explicit generator
matrices realizing that isomorphism: it reduces the signature with two exact
shifts (an index flip and a (p, q) -> (p - 4, q + 4) move), then stacks
(1, 1)-doublings over a small table of base cases.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import linalg
from .algebra import Multivector, Signature, basis_vector
from .scalars import (
    GAUSSIAN,
    QUATERNION,
    RATIONAL,
    TAU1,
    TAU2,
    TAU3,
    ZERO,
    GaussianRational,
    Quaternion,
    format_scalar,
    is_json_int,
    json_chunks,
    json_text,
    quaternion_to_complex_block,
)

KIND_RING = {"MatR": RATIONAL, "MatC": GAUSSIAN, "MatH": QUATERNION}
KIND_REAL_DIM = {"MatR": 1, "MatC": 2, "MatH": 4}


class TargetRing(namedtuple("TargetRing", "kind m summands")):
    """Mat(m, K) or, when summands == 2, Mat(m, K) + Mat(m, K)."""

    __slots__ = ()

    def __new__(cls, kind, m, summands=1):
        if not (isinstance(kind, str) and kind in KIND_RING):
            raise ValueError(f"unknown matrix ring kind {kind!r}")
        if not (is_json_int(m) and is_json_int(summands)) or m < 1 or summands not in (1, 2):
            raise ValueError("bad target ring shape")
        return tuple.__new__(cls, (kind, m, summands))

    def to_json(self):
        doc = {"kind": self.kind, "m": self.m}
        if self.summands == 2:
            doc["summands"] = 2
        return doc

    @property
    def ring_tag(self):
        return KIND_RING[self.kind]

    @property
    def real_dim(self):
        return self.summands * self.m * self.m * KIND_REAL_DIM[self.kind]

    def __str__(self):
        name = {"MatR": "R", "MatC": "C", "MatH": "H"}[self.kind]
        base = f"Mat({self.m},{name})"
        return base + " + " + base if self.summands == 2 else base


def classify(sig: Signature) -> TargetRing:
    """Matrix ring isomorphism class from (p - q) mod 8."""
    n = sig.n
    d = (sig.p - sig.q) % 8
    if d in (0, 2):
        return TargetRing("MatR", 1 << (n // 2))
    if d == 1:
        return TargetRing("MatR", 1 << ((n - 1) // 2), summands=2)
    if d in (3, 7):
        return TargetRing("MatC", 1 << ((n - 1) // 2))
    if d in (4, 6):
        return TargetRing("MatH", 1 << ((n - 2) // 2))
    return TargetRing("MatH", 1 << ((n - 3) // 2), summands=2)


# ---------------------------------------------------------------------------
# monomial matrices
#
# Every generator and blade image is monomial: one unit entry in each row and
# each column.  It is stored as (perm, codes): row i holds the unit with code
# codes[i] in column perm[i].  Codes index Q8 = {+1, -1, +t1, -t1, +t2, -t2,
# +t3, -t3} as 2 * axis + sign, so negation flips the low bit.  R uses the
# codes {+1, -1} and C uses {+1, -1, +i, -i}, the image of {+-1, +-t1}.  A
# direct sum Mat(m, K) + Mat(m, K) is stored block diagonally: the second
# summand occupies rows and columns m .. 2m - 1.

_Q8 = tuple(u * s for u in (Quaternion(1), TAU1, TAU2, TAU3) for s in (1, -1))
_RING_UNITS = {
    RATIONAL: (Fraction(1), Fraction(-1)),
    GAUSSIAN: tuple(GaussianRational(u.a, u.b) for u in _Q8[:4]),
    QUATERNION: _Q8,
}
_UNIT_CODE = {tag: {u: k for k, u in enumerate(units)} for tag, units in _RING_UNITS.items()}
# -1 is central, so the 16 products of the axis units fix the whole table
_AXIS_MUL = [[_UNIT_CODE[QUATERNION][x * y] for y in _Q8[::2]] for x in _Q8[::2]]
_UNIT_MUL = tuple(tuple(_AXIS_MUL[a >> 1][b >> 1] ^ ((a ^ b) & 1) for b in range(8))
                  for a in range(8))
_UNIT_INV = tuple(row.index(0) for row in _UNIT_MUL)
_MINUS_I = 3  # -t1, read as -i in C
# the units of R and C as Gaussian integers (re, im), in code order
GAUSSIAN_INT_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))
# each unit code as a k x k monomial block of Gaussian integers, row by row:
# the (column, re, im) of the one entry of each row; the unit itself on R
# and C (k = 1), its complex adjoint chi on H (k = 2)
_UNIT_ENTRIES = {
    RATIONAL: tuple(((0,) + u,) for u in GAUSSIAN_INT_UNITS[:2]),
    GAUSSIAN: tuple(((0,) + u,) for u in GAUSSIAN_INT_UNITS),
    QUATERNION: tuple(tuple(next((dc, int(z.re), int(z.im)) for dc, z in enumerate(row) if z)
                            for row in quaternion_to_complex_block(u)) for u in _Q8),
}
# k, the rows of each unit's block: the numerator rows that one row of rho takes
_UNIT_ROWS = {tag: len(units[0]) for tag, units in _UNIT_ENTRIES.items()}


def _mono_mul(x, y):
    p1, c1 = x
    p2, c2 = y
    mul = _UNIT_MUL
    return tuple(p2[j] for j in p1), tuple(mul[a][c2[j]] for a, j in zip(c1, p1))


def _mono_neg(x):
    return x[0], tuple(c ^ 1 for c in x[1])


def _to_mono(target, g):
    """(perm, codes) of a dense generator image; ValueError unless monomial
    with unit entries."""
    m = target.m
    parts = g if target.summands == 2 else (g,)
    if len(parts) != target.summands:
        raise ValueError("generator does not match the direct-sum target")
    code_of = _UNIT_CODE[target.ring_tag]
    perm, codes = [], []
    for s, part in enumerate(parts):
        if len(part) != m or any(len(row) != m for row in part):
            raise ValueError(f"generator is not an {m}x{m} matrix")
        for row in part:
            hits = [(j, x) for j, x in enumerate(row) if x]
            if len(hits) != 1 or hits[0][1] not in code_of:
                raise ValueError("generator is not monomial with unit entries")
            perm.append(s * m + hits[0][0])
            codes.append(code_of[hits[0][1]])
    if len(set(perm)) != len(perm):
        raise ValueError("generator is not monomial with unit entries")
    return tuple(perm), tuple(codes)


class Representation:
    """Generator images for an algebra, real (signature) or complex (n).

    The constructor takes dense matrices (a pair of them per generator for a
    direct-sum target).  Each must be monomial with unit entries; it is
    stored as (perm, codes), and products, relations and injectivity run on
    that form.  ``numerator_blocks`` is the one reading of rho(x) and
    ``_row_traces`` the one reading of rho^-1, both on the numerator rows of
    ``linalg``; ``rho`` and ``preimage`` cross to dense matrices at its two
    edges.  ``gens``, ``blade_image(b)`` and ``rep_to_json`` write a
    monomial image out as it is, through ``_dense``.  Instances
    are immutable (compiled models are cached and shared); the monomial
    blade images are a cache filled on first use.
    """

    def __init__(self, sig, complex_dim, target, gens):
        self._setup(sig, complex_dim, target, tuple(_to_mono(target, g) for g in gens))

    @classmethod
    def _from_monos(cls, sig, complex_dim, target, monos):
        rep = cls.__new__(cls)
        rep._setup(sig, complex_dim, target, tuple(monos))
        return rep

    def _setup(self, sig, complex_dim, target, monos):
        if (sig is None) == (complex_dim is None):
            raise ValueError("exactly one of signature / complex_dim required")
        size = target.summands * target.m
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "complex_dim", complex_dim)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_monos", monos)
        object.__setattr__(self, "_blades", {0: (tuple(range(size)), (0,) * size)})
        if len(monos) != self.n:
            raise ValueError("generator count does not match the algebra")

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    @property
    def n(self):
        return self.sig.n if self.sig is not None else self.complex_dim

    @property
    def is_complex(self):
        return self.sig is None

    @property
    def gens(self):
        """Dense generator images."""
        return tuple(self.blade_image(1 << i) for i in range(self.n))

    def gen_square(self, i):
        return self.sig.square(i) if self.sig is not None else 1

    def _blade(self, blade):
        img = self._blades.get(blade)
        if img is None:
            low = blade & -blade
            img = _mono_mul(self._monos[low.bit_length() - 1], self._blade(blade ^ low))
            self._blades[blade] = img
        return img

    def _signed_blade(self, mv):
        """Monomial image of a multivector +-blade."""
        terms = list(mv.terms.items())
        if len(terms) != 1 or terms[0][1] not in (1, -1):
            raise ValueError("substitution is not a signed blade")
        b, c = terms[0]
        img = self._blade(b)
        return img if c == 1 else _mono_neg(img)

    def _shape(self, rows):
        m = self.target.m
        rows = tuple(tuple(r) for r in rows)
        return (rows[:m], rows[m:]) if self.target.summands == 2 else rows

    def _dense(self, mono, units, zero):
        """The rows of a monomial image as lists: units[code] at column
        perm[i] % m of row i, ``zero`` elsewhere."""
        m = self.target.m
        rows = [[zero] * m for _ in mono[0]]
        for row, j, c in zip(rows, *mono):
            row[j % m] = units[c]
        return rows

    def blade_image(self, blade):
        """Dense image of a basis blade (bitmask)."""
        tag = self.target.ring_tag
        return self._shape(self._dense(self._blade(blade), _RING_UNITS[tag], ZERO[tag]))

    def rho(self, mv: Multivector):
        """Image of a multivector of the source algebra, the dense view
        (``linalg.dense_matrix``) of ``numerator_blocks`` over mv.den."""
        blocks = tuple(linalg.dense_matrix(mv.den, rows, self.target.ring_tag)
                       for rows in self.numerator_blocks(mv))
        return blocks if self.target.summands == 2 else blocks[0]

    def numerator_blocks(self, mv: Multivector):
        """rho(mv) as sparse Gaussian-integer rows (column -> (re, im), no
        zeros), one list of rows per summand block, every entry times mv.den.
        A quaternion block is given by its complex adjoint chi, a 2m x 2m
        block over Q(i).  The rows are read off the monomial blade images and
        the numerators of mv, with no ring element built.  mv must live in
        the source algebra."""
        if (mv.sig, mv.n) != (self.sig, self.n):
            raise ValueError("multivector does not live in the source algebra")
        t = self.target
        m = t.m
        re, im = mv.re, mv.im
        units, k = _UNIT_ENTRIES[t.ring_tag], _UNIT_ROWS[t.ring_tag]
        w = k * m
        # the rows of all blocks in order; row k i + dr is row dr of the
        # k x k block of rho row i
        rows = [{} for _ in range(t.summands * w)]
        for b in re | im:
            x, y = re.get(b, 0), im.get(b, 0)
            for i, (j, c) in enumerate(zip(*self._blade(b))):
                col = k * (j % m)
                for dr, (dc, u, v) in enumerate(units[c]):
                    row = rows[k * i + dr]
                    p, q = row.get(col + dc, (0, 0))
                    row[col + dc] = (p + x * u - y * v, q + x * v + y * u)
        rows = [{j: e for j, e in row.items() if e[0] or e[1]} for row in rows]
        return [rows[s:s + w] for s in range(0, len(rows), w)]

    def ranks(self, mv: Multivector):
        """Rank of each summand block of rho(mv) over the target's ring,
        from ``numerator_blocks`` by the one Bareiss kernel; a quaternion
        block A ranks as chi(A) / 2."""
        return [len(linalg.echelon_numerators(rows)) // _UNIT_ROWS[self.target.ring_tag]
                for rows in self.numerator_blocks(mv)]

    def invertible(self, mv: Multivector):
        """Whether rho(mv) is invertible: every summand block has full rank.

        A compiled model is injective onto a ring of the same dimension, so
        this decides whether mv is invertible in the source algebra.
        """
        return all(r == self.target.m for r in self.ranks(mv))

    def preimage(self, matrix):
        """Multivector x with rho(x) = matrix, or None.

        ``matrix`` is m x m over the target's ring, a pair of them for a
        direct sum (ValueError otherwise).  x is read off its numerator rows
        by ``_trace_preimage`` and returned once rho(x) = matrix holds
        exactly, on the numerators.
        """
        t = self.target
        m = t.m
        blocks = matrix if t.summands == 2 else (matrix,)
        if not (_has_len(blocks, t.summands) and all(
                _has_len(block, m) and all(_has_len(row, m) for row in block) for block in blocks)):
            shape = f"a pair of {m}x{m} matrices" if t.summands == 2 else f"a {m}x{m} matrix"
            raise ValueError(f"preimage expects {shape} over the target ring")
        den, rows = linalg.numerator_matrix([row for block in blocks for row in block], t.ring_tag)
        x = self._trace_preimage([(den, rows)])
        image = [row for block in self.numerator_blocks(x) for row in block]
        if all({j: (a * den, b * den) for j, (a, b) in got.items()}
               == {j: (a * x.den, b * x.den) for j, (a, b) in want.items()}
               for got, want in zip(image, rows)):
            return x
        return None

    def _trace_preimage(self, blocks):
        """x with coefficient tr(rho(e_b)^-1 X) / (summands * m) at e_b, its
        real part for a real source, X stacked from the rows / den of the
        (den, rows) pairs of ``blocks`` as ``numerator_blocks`` stacks them:
        the sum of ``_row_traces`` over the rows of X.  For X = rho(x) this
        is x: rho(e_b)^-1 rho(e_c) = +-rho(e_(b xor c)), and tr rho(e_C) = 0
        for C != 0 by the relations and, for omega at odd n,
        ``check_injective`` (its real part for a real source).
        """
        t = self.target
        den = math.lcm(*(d for d, _rows in blocks))
        scaled = [(den // d, row) for d, rows in blocks for row in rows]
        pairs = [(r, row) for r, (_f, row) in enumerate(scaled) if row]
        re, im = {}, {}
        for (r, _row), tr in zip(pairs, self._row_traces(pairs)):
            f = scaled[r][0]
            for b, (x, y) in tr.items():
                re[b] = re.get(b, 0) + f * x
                im[b] = im.get(b, 0) + f * y
        real = not self.is_complex
        return Multivector(self.sig, self.n, den * _UNIT_ROWS[t.ring_tag] * t.summands * t.m,
                           {b: x for b, x in re.items() if x},
                           {} if real else {b: y for b, y in im.items() if y})

    def _row_traces(self, rows):
        """For each (r, row) of ``rows``, a dict b -> (re, im) of k
        tr(rho(e_b)^-1 X) without zeros, X the matrix whose one nonzero
        numerator row is ``row`` at r (counted as in ``numerator_blocks``);
        k = 2 on H, through chi, else 1.  rho(e_b)^-1 is the conjugate
        transpose of a unit monomial, so the trace is conj(u) X[r][perm_b[r]],
        u the unit of rho(e_b) in row r: one lookup per blade.
        """
        t = self.target
        m = t.m
        k = _UNIT_ROWS[t.ring_tag]
        # by_row[dr][code]: the (column, re, im) of row dr of the unit's block
        by_row = list(zip(*_UNIT_ENTRIES[t.ring_tag]))
        kcol = [k * (j % m) for j in range(t.summands * m)]
        entries = [(r // k, by_row[r % k], row.get, {}) for r, row in rows]
        for b in range(1 << self.n):
            perm, codes = self._blade(b)
            for i, units, get, acc in entries:
                dc, u, v = units[codes[i]]
                e = get(kcol[perm[i]] + dc)
                if e:
                    acc[b] = (u * e[0] + v * e[1], u * e[1] - v * e[0])
        return [acc for _i, _units, _get, acc in entries]

    def check_relations(self):
        """v^a v^b + v^b v^a = 2 eta^{ab} e, exactly.

        For unit monomials this says (v^a)^2 is +-1 times the identity and
        v^a v^b = -v^b v^a: a sum of two unit monomials vanishes only when
        their entries sit at the same positions with opposite signs.
        """
        gens = self._monos
        size = self.target.summands * self.target.m
        ident = tuple(range(size))
        for a, ga in enumerate(gens):
            perm, codes = _mono_mul(ga, ga)
            want = 0 if self.gen_square(a + 1) == 1 else 1
            if perm != ident or codes != (want,) * size:
                return False
            for gb in gens[a + 1:]:
                ab, ba = _mono_mul(ga, gb), _mono_mul(gb, ga)
                if ab != _mono_neg(ba):
                    return False
        return True

    def check_injective(self):
        """Whether rho is injective, once ``check_relations`` holds
        (``verify`` runs it first); reads at most the image of omega.

        Take e_C with C != 0, omega.  If |C| is even, e_C anticommutes with
        every e_i, i in C; if |C| is odd, with every e_i, i not in C.  So
        rho(e_C) = -rho(e_i) rho(e_C) rho(e_i)^-1 and Re tr rho(e_C) = 0
        (tr rho(e_C) = 0 on a C target).  For even n omega is such a blade
        too, and nothing is left to test: Cl(p, q) and C(n) are then simple.
        For odd n the test is Re tr rho(omega) = 0, and Im tr rho(omega) = 0
        for a complex source, read off the fixed points perm[i] = i: code 0
        adds +1, code 1 adds -1 and codes 2, 3 add +-i.  It suffices: a unit
        monomial's conjugate transpose is its inverse, so rho(e_A)* rho(e_B)
        = +-rho(e_(A xor B)), and the 2^n images are nonzero and pairwise
        orthogonal under Re tr(X* Y), or tr(X* Y) for a complex source,
        hence independent.  It is necessary when the target has
        dimension 2^n over the source's field, as every ``compile_rep`` and
        ``compile_complex_rep`` model has: central omega then maps to +-i I
        (real source only) or to c(I, -I), c a unit, under an isomorphism.
        The Pauli matrices on C(3) pass the real test and fail this one:
        omega maps to i I (Lounesto, Clifford Algebras and Spinors;
        Porteous, Clifford Algebras and the Classical Groups).
        """
        if self.n % 2 == 0:
            return True
        perm, codes = self._blade((1 << self.n) - 1)
        fixed = [0] * 8
        for i, j in enumerate(perm):
            if i == j:
                fixed[codes[i]] += 1
        return fixed[0] == fixed[1] and (not self.is_complex or fixed[2] == fixed[3])

    def verify(self):
        """Anticommutation relations and injectivity, both exact."""
        return self.check_relations() and self.check_injective()


def _has_len(x, n):
    return isinstance(x, (tuple, list)) and len(x) == n


def _checked(rep, what):
    """``rep`` once it verifies; every model builder returns through here."""
    if not rep.verify():
        raise AssertionError(f"{what} failed verification")
    return rep


# ---------------------------------------------------------------------------
# base cases

F0, F1 = Fraction(0), Fraction(1)
SIGMA1 = ((F0, F1), (F1, F0))
SIGMA3 = ((F1, F0), (F0, -F1))
TAU2_MAT = ((F0, -F1), (F1, F0))

# (p, q) -> (target, generator images)
_BASES = {
    (0, 0): (TargetRing("MatR", 1), ()),
    (1, 0): (TargetRing("MatR", 1, summands=2), [(((F1,),), ((-F1,),))]),
    (0, 1): (TargetRing("MatC", 1), [((GaussianRational(0, 1),),)]),
    (0, 2): (TargetRing("MatH", 1), [((TAU1,),), ((TAU2,),)]),
    (1, 1): (TargetRing("MatR", 2), [SIGMA1, TAU2_MAT]),
    (2, 0): (TargetRing("MatR", 2), [SIGMA1, SIGMA3]),
    (0, 3): (TargetRing("MatH", 1, summands=2),
             [(((t,),), ((-t,),)) for t in (TAU1, TAU2, TAU3)]),
}


def base_rep(sig: Signature) -> Representation:
    if (sig.p, sig.q) not in _BASES:
        raise ValueError(f"{sig} is not a base case")
    target, gens = _BASES[sig.p, sig.q]
    return _checked(Representation(sig, None, target, gens), f"base model of {sig}")


# ---------------------------------------------------------------------------
# structural moves

def double_rep(r: Representation) -> Representation:
    """Representation of (p+1, q+1) on doubled matrices.

    New generators: v+ = [[0, 1], [1, 0]], v- = [[0, -1], [1, 0]] and, for
    each old generator image A, diag(A, -A).
    """
    if r.is_complex:
        raise ValueError("doubling applies to real representations")
    if not r.verify():
        raise ValueError("input representation does not verify")
    sig = Signature(r.sig.p + 1, r.sig.q + 1)
    t = r.target
    m = t.m

    def doubled(entry):
        # entry(s, row) = (column, code) in that row of summand s, both local
        # to the summand's 2m x 2m block
        perm, codes = [], []
        for s in range(t.summands):
            for row in range(2 * m):
                j, c = entry(s, row)
                perm.append(2 * m * s + j)
                codes.append(c)
        return tuple(perm), tuple(codes)

    def diag(g):
        perm, codes = g

        def entry(s, row):
            lower = row // m  # the lower block holds -A
            i = s * m + row % m
            return perm[i] - s * m + lower * m, codes[i] ^ lower
        return doubled(entry)

    v_plus = doubled(lambda s, row: ((row + m) % (2 * m), 0))
    v_minus = doubled(lambda s, row: ((row + m) % (2 * m), int(row < m)))
    # positives are v+ then old positives, negatives v- then old ones
    pos = [v_plus] + [diag(g) for g in r._monos[:r.sig.p]]
    neg = [v_minus] + [diag(g) for g in r._monos[r.sig.p:]]
    target = TargetRing(t.kind, 2 * m, summands=t.summands)
    return _checked(Representation._from_monos(sig, None, target, pos + neg),
                    f"doubled model of {sig}")


def signature_shift(sig: Signature, kind: str):
    """Exact generator substitution realizing a signature move.

    Returns (new_sig, gen_map) where gen_map lists, for each generator of the
    new signature (positives first), a multivector of the old algebra.

    kind "flip": (m, k) -> (k+1, m-1), built from w1 = v1, wi = v1 vi.
    kind "mod4": (p, q) -> (p-4, q+4), the first four positive generators are
    replaced by the four complementary triple products.
    """
    p, q = sig.p, sig.q
    n = sig.n
    v = [None] + [basis_vector(sig, i) for i in range(1, n + 1)]
    if kind == "flip":
        if p < 1 or n < 2:
            raise ValueError("flip needs at least one positive generator and n > 1")
        new_sig = Signature(q + 1, p - 1)
        pos = [v[1]] + [v[1] * v[i] for i in range(p + 1, n + 1)]
        neg = [v[1] * v[i] for i in range(2, p + 1)]
        return new_sig, pos + neg
    if kind == "mod4":
        if p < 4:
            raise ValueError("mod4 shift needs at least four positive generators")
        new_sig = Signature(p - 4, q + 4)
        pos = [v[i] for i in range(5, p + 1)]
        triples = [
            v[2] * v[3] * v[4],
            v[1] * v[3] * v[4],
            v[1] * v[2] * v[4],
            v[1] * v[2] * v[3],
        ]
        neg = triples + [v[i] for i in range(p + 1, n + 1)]
        return new_sig, pos + neg
    raise ValueError(f"unknown shift kind {kind!r}")


# real models keyed by Signature, complex ones by their dimension n
_COMPILE_CACHE = {}


def compile_rep(sig: Signature) -> Representation:
    """Exact matrix model of the real algebra over ``sig``.

    Plan: if p - q is within the base band [-3, 2], double the base case
    min(p, q) times.  Otherwise pull the signature into the band with flip
    (p - q >= 3) or mod4 (p - q <= -4) moves, compile the pulled-back
    signature, and push the generators through the substitution.
    """
    cached = _COMPILE_CACHE.get(sig)
    if cached is not None:
        return cached
    d = sig.p - sig.q
    if -3 <= d <= 2:
        rep = base_rep(Signature(max(d, 0), max(-d, 0)))
        for _ in range(min(sig.p, sig.q)):
            rep = double_rep(rep)
    else:
        if d >= 3:
            src = Signature(sig.q + 1, sig.p - 1)
            kind = "flip"
        else:
            src = Signature(sig.p + 4, sig.q - 4)
            kind = "mod4"
        src_rep = compile_rep(src)
        new_sig, gen_map = signature_shift(src, kind)
        if new_sig != sig:
            raise AssertionError("shift plan produced the wrong signature")
        gens = [src_rep._signed_blade(mv) for mv in gen_map]
        rep = _checked(Representation._from_monos(sig, None, src_rep.target, gens),
                       f"{kind}-shifted model of {sig}")
    want = classify(sig)
    if rep.target != want:
        raise AssertionError(f"compiled target {rep.target} != classified {want}")
    _COMPILE_CACHE[sig] = rep
    return rep


def compile_complex_rep(n: int) -> Representation:
    """Matrix model of the complexified algebra of dimension n >= 0.

    Routes through the signature (n - k, k), k = n // 2: the negative
    generators v^j there correspond to i e^j in the complex algebra, so e^j
    maps to -i times the real image.  The target is Mat(2^k, C) for even n
    and Mat(2^k, C) + Mat(2^k, C) for odd n.  Cached like ``compile_rep``.
    """
    if n < 0:
        raise ValueError("complex compilation needs n >= 0")
    cached = _COMPILE_CACHE.get(n)
    if cached is not None:
        return cached
    k = n // 2
    real = compile_rep(Signature(n - k, k))
    gens = real._monos[:n - k] + _times_minus_i(real._monos[n - k:])
    target = TargetRing("MatC", real.target.m, real.target.summands)
    rep = _checked(Representation._from_monos(None, n, target, gens),
                   f"complex model of C({n})")
    _COMPILE_CACHE[n] = rep
    return rep


def _times_minus_i(monos):
    """The Gaussian-unit monomials ``monos``, each times -i."""
    times = _UNIT_MUL[_MINUS_I]
    return tuple((perm, tuple(times[c] for c in codes)) for perm, codes in monos)


def invert(a):
    """Exact inverse of a multivector through its compiled matrix model;
    None if singular.

    rho is an isomorphism onto the target ring, so a is invertible exactly
    when every summand block of rho(a) is.  The numerator blocks are
    inverted by ``linalg.inverse_numerators``, read back with
    ``Representation._trace_preimage``, and a x = x a = 1 is checked.
    """
    rep = compile_complex_rep(a.n) if a.is_complex else compile_rep(a.sig)
    blocks = [linalg.inverse_numerators(a.den, rows) for rows in rep.numerator_blocks(a)]
    if None in blocks:
        return None
    inv_mv = rep._trace_preimage(blocks)
    unit_mv = a._like(1, {0: 1}, {})
    if a * inv_mv != unit_mv or inv_mv * a != unit_mv:
        raise AssertionError("inverse read back from the matrix model is wrong")
    return inv_mv


def even_subring_rep(sig: Signature):
    """Even subring generators w^i = v^1 v^i and their derived signature.

    Returns (derived_sig, gen_map, representation).  The derived signature is
    computed from the exact squares (w^i)^2 = -eta^11 eta^ii e; generators
    squaring to +e are listed first.
    """
    n = sig.n
    if n < 2:
        raise ValueError("even subring derivation needs n > 1")
    v1 = basis_vector(sig, 1)
    pos, neg = [], []
    for i in range(2, n + 1):
        w = v1 * basis_vector(sig, i)
        sq = (w * w).scalar_part()
        if sq == 1:
            pos.append(w)
        elif sq == -1:
            neg.append(w)
        else:
            raise AssertionError("even subring generator square is not +-1")
    derived = Signature(len(pos), len(neg))
    gen_map = pos + neg
    ambient = compile_rep(sig)
    gens = [ambient._signed_blade(w) for w in gen_map]
    rep = Representation._from_monos(derived, None, ambient.target, gens)
    return derived, gen_map, _checked(rep, f"even subring model of {sig}")


def quaternion_complexify(r: Representation) -> Representation:
    """Replace quaternion entries by 2x2 complex blocks (Mat(m,H) -> Mat(2m,C)):
    each unit code becomes its chi block, a 2x2 monomial of Gaussian units."""
    if r.target.kind != "MatH" or r.target.summands != 1:
        raise ValueError("complexification applies to single quaternionic targets")
    return _checked(Representation._from_monos(r.sig, r.complex_dim,
                                               TargetRing("MatC", 2 * r.target.m),
                                               _chi_monos(r._monos)),
                    "complexified model")


def _chi_monos(monos):
    """The complex adjoints chi of quaternion monomials, as Gaussian-unit
    monomials of twice the size."""
    code = {u: k for k, u in enumerate(GAUSSIAN_INT_UNITS)}
    # chi(unit) has one entry per row, listed in row order: the (column,
    # code) of rows 2i and 2i + 1
    return [tuple(zip(*[(2 * j + dc, code[u, v]) for j, c in zip(perm, codes)
                        for dc, u, v in _UNIT_ENTRIES[QUATERNION][c]]))
            for perm, codes in monos]


def real_irrep_dim(sig: Signature) -> int:
    """Real dimension of the natural column module of one target factor."""
    t = classify(sig)
    return t.m * KIND_REAL_DIM[t.kind]


def factor_projections(r: Representation):
    """The two single-factor representations of a direct-sum target.

    Each satisfies the relations; neither is injective on its own.
    """
    if r.target.summands != 2:
        raise ValueError("representation target is not a direct sum")
    m = r.target.m
    t = TargetRing(r.target.kind, m)
    out = []
    for idx, lo in enumerate((0, m)):  # factor idx: rows and columns lo .. lo + m - 1
        gens = [(tuple(j - lo for j in perm[lo:lo + m]), codes[lo:lo + m])
                for perm, codes in r._monos]
        rep = Representation._from_monos(r.sig, r.complex_dim, t, gens)
        if not rep.check_relations():
            raise AssertionError(f"factor {idx} breaks the anticommutation relations")
        out.append(rep)
    return out


# ---------------------------------------------------------------------------
# intertwiners

class Intertwiner(namedtuple("Intertwiner", "matrix inverse ring_tag")):
    """Invertible S with S r1(v) S^-1 = r2(v) on all generators."""

    __slots__ = ()


def _intertwiner_space(monos1, monos2, m, ring_tag):
    """(free, combine) for {S : S A_g = B_g S}, A_g the unit monomials of
    ``monos1`` and B_g those of ``monos2``, by a walk over the equations.
    S has k coordinates per entry, entry (i, j) first at column (i m + j) k:
    k = 4 on H, the real parts in 1, t1, t2, t3, else 1.  Entry (i, pi_A(t))
    reads S[pi_B(i)][pi_A(t)] = b_i^-1 S[i][t] a_t, a_t in row t of A_g, b_i
    in row i of B_g; a unit times a basis unit is +- a basis unit, so each
    generator permutes the coordinates, times units.  The walk from the
    lowest unvisited column x_0 thus closes its connected set and gives each
    x in it a unit code lam[x], x = lam[x] x_0 (on H, x's axis is lam[x] >> 1
    and its sign lam[x] & 1).  The set is free exactly when every step
    agrees with the code recorded; otherwise x_0 = u x_0 for a unit u != 1,
    and the set holds only 0.  A free set's solutions are a line with no
    zero coordinate, so the reduced echelon form pivots on all its columns
    but the highest, c: ``free`` lists each c in increasing order, and v_c
    is lam[x] / lam[c] at each x of c's set (on H the sign only, as the
    coordinates are real).  ``combine(terms)`` is (1, rows) for sum f v_c
    over the (f, c) pairs of ``terms``: the numerator rows of S (chi on H).
    """
    k, h = (4 if ring_tag == QUATERNION else 1), _UNIT_ROWS[ring_tag]
    units = _UNIT_ENTRIES[ring_tag]
    steps = [(perm_a, codes_a, perm_b, [_UNIT_INV[c] for c in codes_b])
             for (perm_a, codes_a), (perm_b, codes_b) in zip(monos1, monos2)]
    lam = [None] * (k * m * m)
    sets = {}
    for root in range(k * m * m):
        if lam[root] is None:
            lam[root] = 2 * (root % k)
            seen, free = [root], True
            for x in seen:  # seen grows as it is walked
                i, t = divmod(x // k, m)
                for perm_a, codes_a, perm_b, inv_b in steps:
                    u = _UNIT_MUL[_UNIT_MUL[inv_b[i]][lam[x]]][codes_a[t]]
                    # the axis of u picks the coordinate on H; k - 1 = 0 on R, C
                    y = (perm_b[i] * m + perm_a[t]) * k + (u >> 1 & k - 1)
                    if lam[y] is None:
                        lam[y] = u
                        seen.append(y)
                    free = free and lam[y] == u
            if free:
                c = max(seen)
                div = lam[c] & 1 if k == 4 else _UNIT_INV[lam[c]]
                # v_c as (row, column, re, im): the unit's block at each entry
                sets[c] = [(h * (x // k // m) + dr, h * (x // k % m) + dc, re, im) for x in seen
                           for dr, (dc, re, im) in enumerate(units[_UNIT_MUL[lam[x]][div]])]

    def combine(terms):
        rows = [{} for _ in range(h * m)]
        for f, c in terms:
            for r, col, re, im in sets[c]:
                p, q = rows[r].get(col, (0, 0))
                rows[r][col] = (p + f * re, q + f * im)
        return 1, rows

    return sorted(sets), combine


def solve_intertwiner(monos1, monos2, m, ring_tag):
    """Invertible S with S A_g S^-1 = B_g, or None if none exists, for the
    m x m unit monomials A_g of ``monos1`` and B_g of ``monos2``.

    S is the first point of the solution space, in ``linalg.first_accepted``
    order, whose numerator rows have an inverse; S and S^-1 are returned as
    their dense views.  S A_g = B_g S is checked exactly on the numerator
    rows (``_intertwines``, on chi over H), and a failure is a solver fault:
    AssertionError.
    """
    free, combine = _intertwiner_space(monos1, monos2, m, ring_tag)

    def invertible(s):
        sinv = linalg.inverse_numerators(*s)
        return None if sinv is None else (s, sinv)

    found = linalg.first_accepted(free, invertible, combine)
    if found is None:
        return None
    if ring_tag == QUATERNION:
        monos1, monos2 = _chi_monos(monos1), _chi_monos(monos2)
    left = [(1, [{j: GAUSSIAN_INT_UNITS[c]} for j, c in zip(*a)]) for a in monos1]
    if not _intertwines(found[0][1], left, monos2):
        raise AssertionError("the solved intertwiner fails S A_g = B_g S")
    return Intertwiner(*(linalg.dense_matrix(*x, ring_tag) for x in found), ring_tag)


def _intertwines(U, left, monos):
    """Whether U L_i = M_i U for every i, exactly, on numerators.

    U is given by its numerator rows N, at any scale, L_i by its (d, rows)
    in ``left`` and M_i by its Gaussian-unit monomial (perm, codes) in
    ``monos``.  Row r of U L_i is the sum of U[r][k] times row k of L_i, and
    row r of M_i U is u_r times row perm[r] of U, u_r the unit of M_i in
    row r; so row r of N L_i times d is compared with d u_r times row
    perm[r] of N, the nonzero entries only."""
    for (d, L), (perm, codes) in zip(left, monos):
        for r, row in enumerate(U):
            acc = {}
            for k, (a, b) in row.items():
                for j, (c, e) in L[k].items():
                    x, y = acc.get(j, (0, 0))
                    acc[j] = (x + a * c - b * e, y + a * e + b * c)
            u, w = GAUSSIAN_INT_UNITS[codes[r]]
            want = {j: (d * (a * u - b * w), d * (a * w + b * u)) for j, (a, b) in U[perm[r]].items()}
            if {j: e for j, e in acc.items() if e[0] or e[1]} != want:
                return False
    return True


def rep_equivalence(r1: Representation, r2: Representation):
    """Exact intertwiner between two representations, or None.

    Both must have the same single-factor target ring and dimension; use
    ``factor_projections`` first for direct-sum targets.
    """
    if r1.target.summands != 1 or r2.target.summands != 1:
        raise ValueError("use factor_projections before comparing direct sums")
    if (r1.target.kind, r1.target.m) != (r2.target.kind, r2.target.m):
        raise ValueError("representations target different matrix rings")
    if (r1.sig, r1.complex_dim) != (r2.sig, r2.complex_dim):
        raise ValueError("representations have different source algebras")
    return solve_intertwiner(r1._monos, r2._monos, r1.target.m, r1.target.ring_tag)


# ---------------------------------------------------------------------------
# JSON interface

def _json_list(items, depth):
    """The JSON texts ``items``, at least one, as a list nested ``depth``
    levels deep, laid out as ``json.dumps`` does with ``indent=2``."""
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def rep_to_json(r: Representation):
    """The model as JSON text chunks, one per generator, written off the
    monomial form: the ring's units and zero are formatted once, and no
    ring element is built.  The chunks join to ``json_text`` of the model
    document {"signature": [p, q]} or {"complex_dim": N}, with "target"
    and "generators"."""
    t = r.target
    doc = {"target": t.to_json()}
    if r.sig is not None:
        doc["signature"] = [r.sig.p, r.sig.q]
    else:
        doc["complex_dim"] = r.complex_dim
    # an entry sits below the generator list, a summand pair and a matrix row
    depth = 4 + (t.summands == 2)

    def text(x):
        return json_text(format_scalar(t.ring_tag, x)).replace("\n", "\n" + "  " * depth)

    units, zero = [text(u) for u in _RING_UNITS[t.ring_tag]], text(ZERO[t.ring_tag])

    def generator(mono):
        rows = [_json_list(row, depth - 1) for row in r._dense(mono, units, zero)]
        if t.summands == 2:
            return _json_list([_json_list(rows[:t.m], 3), _json_list(rows[t.m:], 3)], 2)
        return _json_list(rows, 2)

    return json_chunks(doc, "generators", map(generator, r._monos))
