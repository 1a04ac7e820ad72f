"""Compilation of Clifford algebras onto matrix rings.

Every real algebra over a signature (p, q) is isomorphic to a matrix ring
over R, C or H, or to a direct sum of two copies of one, and the target only
depends on (p - q) mod 8.  ``compile_rep`` produces explicit generator
matrices realizing that isomorphism: it reduces the signature with two exact
shifts (an index flip and a (p, q) -> (p - 4, q + 4) move), then stacks
(1, 1)-doublings over a small table of base cases, all on unit monomials:
a doubling is the tensor product Cl(p + 1, q + 1) = Mat(2, R) (x) Cl(p, q)
with the (1, 1) base model.  ``compile_rep`` proves each model it returns
(relations, injectivity and the classified target) once, before it caches
it; the base case and the doublings under it are not checked on their own.
This layer holds what a compile runs and no more: the class table, the
monomial ``Representation`` with its checks and its dense generator
images, the base cases, the structural moves and the JSON writer.  A
compile reads blade bitmasks and monomials only, and imports no other
layer, so a cold ``compile`` or ``classify`` runs ``cli``, ``scalars`` and
this layer alone.  The code that starts from a compiled model and that no
compile calls (the readers rho, numerator_blocks, ranks, invertible and
preimage, inverses, the even subring model, factor projections,
complexification, intertwiners) is in ``intertwine``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

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
    Signature,
    format_scalar,
    is_json_int,
    json_chunks,
    json_text,
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
_MINUS_I = 3  # -t1, read as -i in C


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
    that form.  ``gens`` and ``rep_to_json`` write a monomial image out as
    it is, through ``_dense``; the readers of a model (``rho``,
    ``numerator_blocks``, ``ranks``, ``invertible``, ``preimage``) are
    functions in ``intertwine`` that take it first, and ``rho(rep, e_b)``
    is the dense image of a blade.
    Instances are immutable (compiled models are cached and shared); the
    monomial blade images are a cache filled on first use.
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
        """Dense generator images, a pair of blocks each for a direct sum."""
        t = self.target
        units, zero = _RING_UNITS[t.ring_tag], ZERO[t.ring_tag]
        rows = [tuple(map(tuple, self._dense(g, units, zero))) for g in self._monos]
        return tuple((r[:t.m], r[t.m:]) if t.summands == 2 else r for r in rows)

    def _blade(self, blade):
        img = self._blades.get(blade)
        if img is None:
            low = blade & -blade
            img = _mono_mul(self._monos[low.bit_length() - 1], self._blade(blade ^ low))
            self._blades[blade] = img
        return img

    def _dense(self, mono, units, zero):
        """The rows of a monomial image as lists: units[code] at column
        perm[i] % m of row i, ``zero`` elsewhere."""
        m = self.target.m
        rows = [[zero] * m for _ in mono[0]]
        for row, j, c in zip(rows, *mono):
            row[j % m] = units[c]
        return rows

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
            # code 0 is +1, code 1 is -1; every generator of C(n) squares to +1
            want = int(self.sig is not None and self.sig.square(a + 1) == -1)
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


def _checked(rep, what):
    """``rep`` once it verifies; every model builder returns through here,
    ``compile_rep`` once per model it caches."""
    if not rep.verify():
        raise AssertionError(f"{what} failed verification")
    return rep


# ---------------------------------------------------------------------------
# base cases

# (p, q) -> (target, generator monomials): units on the diagonal up to (0, 3),
# sigma1 and sigma3 for (2, 0), sigma1 and tau2 = [[0, -1], [1, 0]] for (1, 1)
_BASES = {
    (0, 0): (TargetRing("MatR", 1), ()),
    (1, 0): (TargetRing("MatR", 1, summands=2), (((0, 1), (0, 1)),)),
    (0, 1): (TargetRing("MatC", 1), (((0,), (2,)),)),
    (0, 2): (TargetRing("MatH", 1), (((0,), (2,)), ((0,), (4,)))),
    (1, 1): (TargetRing("MatR", 2), (((1, 0), (0, 0)), ((1, 0), (1, 0)))),
    (2, 0): (TargetRing("MatR", 2), (((1, 0), (0, 0)), ((0, 1), (0, 1)))),
    (0, 3): (TargetRing("MatH", 1, summands=2), tuple(((0, 1), (c, c + 1)) for c in (2, 4, 6))),
}


# ---------------------------------------------------------------------------
# structural moves

def _kron(x, a, m):
    """x (x) A on each summand block of the monomial A, m rows each: x is a
    2 x 2 monomial, and block (r, x's column in row r) holds x's unit in row
    r times A."""
    (xp, xc), (ap, ac) = x, a
    rows = [(s + xp[r] * m, xc[r], i) for s in range(0, len(ap), m) for r in (0, 1)
            for i in range(s, s + m)]
    return (tuple(col + ap[i] for col, _c, i in rows),
            tuple(_UNIT_MUL[c][ac[i]] for _col, c, i in rows))


def _double(r: Representation) -> Representation:
    """The unchecked model of (p+1, q+1) on doubled matrices, Cl(p+1, q+1) =
    Mat(2, R) (x) Cl(p, q), the 2 x 2 factors read off the (1, 1) base:
    v+ (x) 1 and v- (x) 1 for its generators v+ = sigma1 = [[0, 1], [1, 0]]
    and v- = tau2 = [[0, -1], [1, 0]], and diag(A, -A) = sigma3 (x) A, its
    omega sigma3 = v+ v-, for each old generator image A of the real model r.
    """
    sig = Signature(r.sig.p + 1, r.sig.q + 1)
    t = r.target
    v_plus, v_minus = _BASES[1, 1][1]
    sigma3, one = _mono_mul(v_plus, v_minus), r._blade(0)
    old = [_kron(sigma3, g, t.m) for g in r._monos]
    # positives are v+ then old positives, negatives v- then old ones
    gens = [_kron(v_plus, one, t.m), *old[:r.sig.p], _kron(v_minus, one, t.m), *old[r.sig.p:]]
    target = TargetRing(t.kind, 2 * t.m, summands=t.summands)
    return Representation._from_monos(sig, None, target, gens)


def _shift_plan(sig: Signature, kind: str):
    """(new_sig, blades): the generator substitution of a signature move,
    each new generator (positives first) the blade bitmask b of the old
    algebra whose ascending product e_b it is, with sign +1.

    kind "flip": (m, k) -> (k+1, m-1), built from w1 = v1, wi = v1 vi.
    kind "mod4": (p, q) -> (p-4, q+4), the first four positive generators are
    replaced by the four complementary triple products v2 v3 v4, v1 v3 v4,
    v1 v2 v4 and v1 v2 v3.
    """
    p, q = sig.p, sig.q
    n = sig.n
    if kind == "flip":
        if p < 1 or n < 2:
            raise ValueError("flip needs at least one positive generator and n > 1")
        pairs = [1 | 1 << i for i in range(1, n)]  # v1 vi for i = 2 .. n
        return Signature(q + 1, p - 1), [1] + pairs[p - 1:] + pairs[:p - 1]
    if kind == "mod4":
        if p < 4:
            raise ValueError("mod4 shift needs at least four positive generators")
        rest = [1 << i for i in range(4, n)]  # v5 .. vn
        triples = [0b1110, 0b1101, 0b1011, 0b0111]
        return Signature(p - 4, q + 4), rest[:p - 4] + triples + rest[p - 4:]
    raise ValueError(f"unknown shift kind {kind!r}")


# real models keyed by Signature, complex ones by their dimension n
_COMPILE_CACHE = {}


def compile_rep(sig: Signature) -> Representation:
    """Exact matrix model of the real algebra over ``sig``.

    Plan: if p - q is within the base band [-3, 2], double the base case
    min(p, q) times.  Otherwise pull the signature into the band with flip
    (p - q >= 3) or mod4 (p - q <= -4) moves, compile the pulled-back
    signature, and push the generators through the substitution.  The base
    case, the doublings and the shift plan are unchecked steps: the one
    proof is ``_checked`` and the classified target on the model of ``sig``
    returned and cached, so a shift reads a source model that its own
    compile has proved, and the shifted model is proved against ``sig``
    whatever signature the plan names.
    """
    cached = _COMPILE_CACHE.get(sig)
    if cached is not None:
        return cached
    d = sig.p - sig.q
    if -3 <= d <= 2:
        base = Signature(max(d, 0), max(-d, 0))
        target, monos = _BASES[base.p, base.q]
        rep, what = Representation._from_monos(base, None, target, monos), "base"
        for _ in range(min(sig.p, sig.q)):
            rep, what = _double(rep), "doubled"
    else:
        if d >= 3:
            src = Signature(sig.q + 1, sig.p - 1)
            kind = "flip"
        else:
            src = Signature(sig.p + 4, sig.q - 4)
            kind = "mod4"
        src_rep = compile_rep(src)
        gens = [src_rep._blade(b) for b in _shift_plan(src, kind)[1]]
        rep, what = Representation._from_monos(sig, None, src_rep.target, gens), f"{kind}-shifted"
    _checked(rep, f"{what} model of {sig}")
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
