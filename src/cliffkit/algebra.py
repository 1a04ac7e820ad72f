"""Clifford algebra elements with exact coefficients.

A multivector lives either in a real algebra over a signature (p, q), with
rational coefficients, or in the complexified algebra of dimension n, with
Gaussian rational coefficients and a Euclidean metric.  Blades are bitmasks:
bit i-1 set means the generator with index i (1-based) is present, and the
stored blade is always the ascending-index product.  Products run
fraction-free: integer (real) or Gaussian-integer (complex) numerators over
one common denominator per operand, with one Fraction or GaussianRational
built per output term.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .scalars import (
    GAUSSIAN,
    ONE,
    RATIONAL,
    ZERO,
    GaussianRational,
    format_scalar,
    parse_scalar,
)


class Signature(namedtuple("Signature", "p q")):
    """Number of generators squaring to +e and to -e."""

    __slots__ = ()

    def __new__(cls, p, q):
        if p < 0 or q < 0:
            raise ValueError("signature components must be nonnegative")
        return tuple.__new__(cls, (p, q))

    @property
    def n(self):
        return self.p + self.q

    def square(self, i):
        """Square of generator i (1-based): +1 or -1."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range for {self}")
        return 1 if i <= self.p else -1

    def __str__(self):
        return f"({self.p},{self.q})"


def blade_mul(b1, b2, sig):
    """Product of two basis blades; returns (sign, blade bitmask).

    ``sig`` may be a Signature or an int n (complex algebra, all squares +1,
    which has the sign rule of the signature (n, 0)).
    """
    if not isinstance(sig, Signature):
        sig = Signature(sig, 0)
    # Multivector.real raises ValueError for a blade outside the algebra
    prod = Multivector.real(sig, {b1: 1}) * Multivector.real(sig, {b2: 1})
    [(blade, sign)] = prod.terms.items()
    return int(sign), blade


def blade_indices(blade):
    """Ascending 1-based generator indices of a blade bitmask."""
    out = []
    i = 1
    while blade:
        if blade & 1:
            out.append(i)
        blade >>= 1
        i += 1
    return out


def blade_from_indices(indices):
    b = 0
    for i in indices:
        if i < 1:
            raise ValueError("generator indices are 1-based")
        bit = 1 << (i - 1)
        if b & bit:
            raise ValueError("repeated generator index in blade")
        b |= bit
    return b


class Multivector:
    """Immutable sparse multivector.  Zero coefficients are never stored."""

    __slots__ = ("sig", "n", "ring", "terms", "_neg_mask")

    def __init__(self, sig, n, ring, terms):
        # use the .real / .complex_alg constructors in client code
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        if sig is None:
            object.__setattr__(self, "_neg_mask", 0)
        else:
            object.__setattr__(
                self, "_neg_mask", ((1 << n) - 1) ^ ((1 << sig.p) - 1)
            )

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def real(cls, sig, terms=None):
        if not isinstance(sig, Signature):
            raise TypeError("real multivector needs a Signature")
        clean = {}
        for b, c in (terms or {}).items():
            if not isinstance(c, (int, Fraction)):
                raise TypeError("real multivector coefficients must be rational")
            if b >> sig.n or b < 0:
                raise ValueError("blade out of range for the signature")
            if c:
                clean[b] = c
        return cls(sig, sig.n, RATIONAL, clean)

    @classmethod
    def complex_alg(cls, n, terms=None):
        if n < 0:
            raise ValueError("complex algebra dimension must be nonnegative")
        clean = {}
        for b, c in (terms or {}).items():
            if isinstance(c, (int, Fraction)):
                c = GaussianRational.coerce(c)
            elif not isinstance(c, GaussianRational):
                raise TypeError("complex multivector coefficients must be Gaussian rationals")
            if b >> n or b < 0:
                raise ValueError("blade out of range for the algebra dimension")
            if c:
                clean[b] = c
        return cls(None, n, GAUSSIAN, clean)

    def _wrap(self, terms):
        clean = {b: c for b, c in terms.items() if c}
        return Multivector(self.sig, self.n, self.ring, clean)

    @property
    def is_complex(self):
        return self.sig is None

    def space_key(self):
        return (self.sig, self.n, self.ring)

    def _check_space(self, other):
        if not isinstance(other, Multivector):
            raise TypeError("expected a Multivector")
        if self.space_key() != other.space_key():
            raise ValueError("signature or ring mismatch between multivectors")

    # -- basic ring structure ------------------------------------------------

    def __add__(self, other):
        self._check_space(other)
        terms = dict(self.terms)
        for b, c in other.terms.items():
            nv = terms.get(b, 0) + c
            if nv:
                terms[b] = nv
            else:
                terms.pop(b, None)
        return Multivector(self.sig, self.n, self.ring, terms)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Multivector(self.sig, self.n, self.ring, {b: -c for b, c in self.terms.items()})

    def scale(self, c):
        if self.ring == RATIONAL and not isinstance(c, (int, Fraction)):
            raise TypeError("real multivector scaled by a non-rational")
        if self.ring == GAUSSIAN and isinstance(c, (int, Fraction)):
            c = GaussianRational.coerce(c)
        if not c:
            return Multivector(self.sig, self.n, self.ring, {})
        return Multivector(self.sig, self.n, self.ring, {b: c * v for b, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        self._check_space(other)
        # fraction-free: multiply integer numerators over one common
        # denominator per operand, and divide each output term once
        mask = self._neg_mask
        if self.ring == RATIONAL:
            d1, t1 = _int_terms(self.terms)
            d2, t2 = _int_terms(other.terms)
            d = d1 * d2
            acc = _blade_products(t1, t2, mask)
            return Multivector(self.sig, self.n, self.ring,
                               {b: Fraction(c, d) for b, c in acc.items()})
        # Gaussian: (r1 + i i1)(r2 + i i2) on the integer real and imaginary
        # parts, whose terms are only the nonzero ones
        d1, r1, i1 = _gaussian_int_terms(self.terms)
        d2, r2, i2 = _gaussian_int_terms(other.terms)
        d = d1 * d2
        re = _blade_products(r1, r2, mask)
        for b, c in _blade_products(i1, i2, mask).items():
            re[b] = re.get(b, 0) - c
        im = _blade_products(r1, i2, mask)
        for b, c in _blade_products(i1, r2, mask).items():
            im[b] = im.get(b, 0) + c
        terms = {}
        for b in re | im:
            x, y = re.get(b, 0), im.get(b, 0)
            if x or y:
                terms[b] = GaussianRational(Fraction(x, d), Fraction(y, d))
        return Multivector(self.sig, self.n, self.ring, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, c):
        if isinstance(c, int):
            c = Fraction(c)
        if self.ring == GAUSSIAN:
            c = GaussianRational.coerce(c)
        return self.scale(ONE[self.ring] / c)

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.space_key() == other.space_key() and self.terms == other.terms

    def __hash__(self):
        return hash((self.sig, self.n, self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- queries -------------------------------------------------------------

    def coeff(self, blade):
        return self.terms.get(blade, ZERO[self.ring])

    def scalar_part(self):
        return self.coeff(0)

    def grades(self):
        return sorted({b.bit_count() for b in self.terms})

    def grade_project(self, k):
        return self._wrap({b: c for b, c in self.terms.items() if b.bit_count() == k})

    def is_scalar(self):
        return all(b == 0 for b in self.terms)

    def vector_coords(self):
        """Coordinates on the grade-1 basis; errors if other grades appear."""
        if any(b.bit_count() != 1 for b in self.terms):
            raise ValueError("multivector is not homogeneous of grade 1")
        zero = ZERO[self.ring]
        return tuple(self.terms.get(1 << (i - 1), zero) for i in range(1, self.n + 1))

    # -- involutions ----------------------------------------------------------

    def reversion(self):
        out = {}
        for b, c in self.terms.items():
            k = b.bit_count()
            out[b] = -c if (k * (k - 1) // 2) & 1 else c
        return Multivector(self.sig, self.n, self.ring, out)

    def star(self):
        """Hermitian involution: conjugate coefficients and reverse blades."""
        if self.ring != GAUSSIAN:
            raise ValueError("star involution is defined on the complex algebra only")
        out = {}
        for b, c in self.terms.items():
            k = b.bit_count()
            cc = c.conjugate()
            out[b] = -cc if (k * (k - 1) // 2) & 1 else cc
        return Multivector(self.sig, self.n, self.ring, out)

    def grade_involution(self):
        out = {}
        for b, c in self.terms.items():
            out[b] = -c if b.bit_count() & 1 else c
        return Multivector(self.sig, self.n, self.ring, out)

    def __repr__(self):
        space = f"C({self.n})" if self.is_complex else f"Cl{self.sig}"
        if not self.terms:
            return f"<{space} 0>"
        bits = []
        for b in sorted(self.terms, key=lambda x: (x.bit_count(), x)):
            name = "e" if b == 0 else "e" + "".join(str(i) for i in blade_indices(b))
            bits.append(f"({self.terms[b]})*{name}")
        return f"<{space} " + " + ".join(bits) + ">"


def _int_terms(terms):
    """(d, numerators): the rational coefficients of ``terms`` are
    numerators[b] / d, with d the lcm of their denominators."""
    d = math.lcm(*(c.denominator for c in terms.values()))
    return d, {b: c.numerator * (d // c.denominator) for b, c in terms.items()}


def _gaussian_int_terms(terms):
    """(d, re, im): the Gaussian rational coefficients of ``terms`` are
    (re[b] + i im[b]) / d, with d the lcm of the denominators of their parts;
    re and im keep only nonzero numerators."""
    parts = [(b, c.re, c.im) for b, c in terms.items()]
    d = math.lcm(*(x.denominator for _b, x, _y in parts),
                 *(y.denominator for _b, _x, y in parts))
    re = {b: x.numerator * (d // x.denominator) for b, x, _y in parts if x}
    im = {b: y.numerator * (d // y.denominator) for b, _x, y in parts if y}
    return d, re, im


def _blade_products(t1, t2, neg_mask):
    """Coefficients of (sum t1[b] e_b)(sum t2[b] e_b), zeros dropped.

    Sorting e_b1 e_b2 into ascending order moves each generator of b1 past
    every lower generator of b2, and each shared generator squaring to -1
    (bits of ``neg_mask``) gives one more sign.  Bit j of ``flips`` is the
    parity of both for a generator j of b2, so the sign of the pair is the
    parity of flips & b2.
    """
    acc = {}
    for b1, c1 in t1.items():
        # bit j of above: parity of the generators of b1 above j
        above = b1 >> 1
        k = 1
        while above >> k:
            above ^= above >> k
            k <<= 1
        flips = above ^ (b1 & neg_mask)
        for b2, c2 in t2.items():
            c = c1 * c2
            if (flips & b2).bit_count() & 1:
                c = -c
            b = b1 ^ b2
            nv = acc.get(b, 0) + c
            if nv:
                acc[b] = nv
            else:
                acc.pop(b, None)
    return acc


# ---------------------------------------------------------------------------
# convenience constructors

def unit(sig):
    return Multivector.real(sig, {0: 1})


def basis_vector(sig, i):
    if not 1 <= i <= sig.n:
        raise ValueError(f"generator index {i} out of range for {sig}")
    return Multivector.real(sig, {1 << (i - 1): 1})


def vector(sig, coords):
    if len(coords) != sig.n:
        raise ValueError("coordinate count does not match the signature")
    return Multivector.real(sig, {1 << k: c for k, c in enumerate(coords)})


def complex_unit(n):
    return Multivector.complex_alg(n, {0: 1})


def complex_basis_vector(n, i):
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range for dimension {n}")
    return Multivector.complex_alg(n, {1 << (i - 1): 1})


# ---------------------------------------------------------------------------
# operations

def eta(v, w):
    """Symmetric bilinear form on grade-1 elements: vw + wv = 2 eta(v,w) e."""
    prod = v * w + w * v
    if any(b != 0 for b in prod.terms):
        raise ValueError("eta is defined on grade-1 elements only")
    half = Fraction(1, 2)
    return prod.scalar_part() * half


def complexify_embed(a):
    """Embed a real multivector into the complex algebra of dimension p + q.

    Generator i maps to e^i when it squares to +e and to i*e^i when it
    squares to -e, so blades keep their bitmask and pick up a power of i.
    """
    if a.is_complex:
        raise ValueError("multivector is already complex")
    sig = a.sig
    n = sig.n
    neg_mask = ((1 << n) - 1) ^ ((1 << sig.p) - 1)
    i_pow = (GaussianRational(1), GaussianRational(0, 1),
             GaussianRational(-1), GaussianRational(0, -1))
    terms = {}
    for b, c in a.terms.items():
        t = (b & neg_mask).bit_count()
        terms[b] = i_pow[t & 3] * c
    return Multivector.complex_alg(n, terms)


def multiplication_numerators(a, side, transpose=False):
    """(d, rows): the matrix of x -> a x (side "left") or x -> x a (side
    "right") on the blade basis as Gaussian-integer rows over d, the lcm of
    the denominators of a.

    Row y is a pair (re, im) of int lists whose entry x is d times the
    coefficient of e_y in the image of e_x (imaginary parts are zero for a
    real algebra); with ``transpose`` row x holds the image of e_x instead.
    A blade times a multivector is a signed permutation of its terms, so the
    rows are read off ``_blade_products`` with no rational arithmetic.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if a.is_complex:
        d, re, im = _gaussian_int_terms(a.terms)
    else:
        d, re = _int_terms(a.terms)
        im = {}
    dim = 1 << a.n
    mask = a._neg_mask
    out_re = [[0] * dim for _ in range(dim)]
    out_im = [[0] * dim for _ in range(dim)]
    for part, out in ((re, out_re), (im, out_im)):
        if not part:
            continue
        for x in range(dim):
            blade = {x: 1}
            if side == "left":
                image = _blade_products(part, blade, mask)
            else:
                image = _blade_products(blade, part, mask)
            if transpose:
                row = out[x]
                for y, c in image.items():
                    row[y] = c
            else:
                for y, c in image.items():
                    out[y][x] = c
    return d, list(zip(out_re, out_im))


def from_coords(model, coords):
    """Multivector in the same space as ``model`` from dense coordinates."""
    terms = {b: c for b, c in enumerate(coords) if c}
    if model.is_complex:
        return Multivector.complex_alg(model.n, terms)
    return Multivector.real(model.sig, terms)


def invert(a):
    """Exact inverse through the compiled matrix model; None if singular.

    rho is an isomorphism onto the target ring, so a is invertible exactly
    when every summand block of rho(a) is; the inverse blocks are read back
    with ``Representation.preimage``, and a x = x a = 1 is checked.
    """
    from . import linalg
    from .reprs import compile_complex_rep, compile_rep

    rep = compile_complex_rep(a.n) if a.is_complex else compile_rep(a.sig)
    img = rep.rho(a)
    pair = rep.target.summands == 2
    blocks = [linalg.inv(block) for block in (img if pair else (img,))]
    if None in blocks:
        return None
    inv_mv = rep.preimage(blocks if pair else blocks[0])
    unit_mv = a._wrap({0: ONE[a.ring]})
    if inv_mv is None or a * inv_mv != unit_mv or inv_mv * a != unit_mv:
        raise AssertionError("inverse read back from the matrix model is wrong")
    return inv_mv


# ---------------------------------------------------------------------------
# JSON interface

def multivector_to_json(a):
    ring = a.ring
    doc = {"ring": ring}
    if a.is_complex:
        doc["complex_dim"] = a.n
    else:
        doc["signature"] = [a.sig.p, a.sig.q]
    doc["terms"] = [
        {"blade": blade_indices(b), "coeff": format_scalar(ring, a.terms[b])}
        for b in sorted(a.terms, key=lambda x: (x.bit_count(), x))
    ]
    return doc


def signature_from_json(doc):
    """Signature from a JSON [p, q] pair of integers."""
    if not (isinstance(doc, list) and len(doc) == 2
            and all(isinstance(x, int) for x in doc)):
        raise ValueError("signature must be a [p, q] pair of integers")
    return Signature(*doc)


def multivector_from_json(doc):
    if not isinstance(doc, dict):
        raise ValueError("multivector JSON must be an object")
    ring = doc.get("ring", RATIONAL)
    terms_doc = doc.get("terms", [])
    if not isinstance(terms_doc, list):
        raise ValueError("multivector 'terms' must be a list")
    terms = {}
    for t in terms_doc:
        if not (isinstance(t, dict) and isinstance(t.get("blade"), list)
                and all(isinstance(i, int) for i in t["blade"])
                and isinstance(t.get("coeff"), str)):
            raise ValueError("a term needs a 'blade' list of integers and a 'coeff' string")
        b = blade_from_indices(t["blade"])
        c = parse_scalar(ring, t["coeff"])
        terms[b] = terms.get(b, 0) + c if b in terms else c
    if "signature" in doc:
        sig = signature_from_json(doc["signature"])
        if ring != RATIONAL:
            raise ValueError("real multivectors use the rational ring")
        return Multivector.real(sig, terms)
    if "complex_dim" in doc:
        if ring != GAUSSIAN:
            raise ValueError("complex multivectors use the gaussian ring")
        if not isinstance(doc["complex_dim"], int):
            raise ValueError("'complex_dim' must be an integer")
        return Multivector.complex_alg(doc["complex_dim"], terms)
    raise ValueError("multivector JSON needs 'signature' or 'complex_dim'")
