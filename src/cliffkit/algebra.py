"""Clifford algebra elements with exact coefficients.

A multivector lives either in a real algebra over a signature (p, q), with
rational coefficients, or in the complexified algebra of dimension n, with
Gaussian rational coefficients and a Euclidean metric.  Blades are bitmasks:
bit i-1 set means the generator with index i (1-based) is present, and the
stored blade is always the ascending-index product.  A multivector is held
as integer numerators over one positive denominator (real and imaginary
numerators in the complex algebra), reduced by their gcd, and every
operation runs on those ints: a product multiplies the numerators and the
denominators and builds no Fraction.  The Fraction or GaussianRational
coefficients (``terms``) are a view built only when read.  The ring and
the sign mask (``_neg_mask``) follow from the signature and are not stored.
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
    is_json_int,
    numerators,
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
    """Product of two basis blades; returns (sign, blade bitmask), the sign
    read off the bitmasks by ``_flips`` as ``_blade_products`` reads it.

    ``sig`` may be a Signature or an int n (complex algebra, all squares +1,
    which has the sign rule of the signature (n, 0)).
    """
    n, mask = (sig.n, _neg_mask(sig)) if isinstance(sig, Signature) else (sig, 0)
    if b1 < 0 or b2 < 0 or (b1 | b2) >> n:
        raise ValueError("blade out of range for the algebra")
    return -1 if (_flips(b1, mask) & b2).bit_count() & 1 else 1, b1 ^ b2


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
    """Immutable sparse multivector, held as integer numerators over one
    denominator: the coefficient of e_b is (re[b] + i im[b]) / den, with
    ``im`` empty in a real algebra.

    The triple is canonical: den > 0, gcd(den, every numerator) = 1 and no
    zero numerator is stored, so ``==`` and ``hash`` compare it directly.
    ``ring`` and the sign mask follow from ``sig``, None in the complex
    algebra.  ``terms`` is the Fraction (real) or GaussianRational (complex)
    view, built on first read and cached.  ``re`` and ``im`` are owned by
    the multivector and must not be mutated.
    """

    __slots__ = ("sig", "n", "den", "re", "im", "_terms")

    def __init__(self, sig, n, den, re, im):
        # use the .real / .complex_alg constructors in client code: den > 0,
        # and re and im hold nonzero ints; the triple is reduced by the gcd
        g = math.gcd(den, *re.values(), *im.values())
        if g != 1:
            den //= g
            re = {b: c // g for b, c in re.items()}
            im = {b: c // g for b, c in im.items()}
        set_ = object.__setattr__
        set_(self, "sig", sig)
        set_(self, "n", n)
        set_(self, "den", den)
        set_(self, "re", re)
        set_(self, "im", im)
        set_(self, "_terms", None)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def real(cls, sig, terms=None):
        """The multivector of rational ``terms``, read by ``scalars.numerators``."""
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
        d, re = numerators(clean.values())
        return cls(sig, sig.n, d, dict(zip(clean, re)), {})

    @classmethod
    def complex_alg(cls, n, terms=None):
        """The multivector of Gaussian rational ``terms`` (ints and Fractions
        coerced), their real and imaginary parts read by ``scalars.numerators``."""
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
        d, xy = numerators(x for c in clean.values() for x in (c.re, c.im))
        return cls(None, n, d, {b: x for b, x in zip(clean, xy[0::2]) if x},
                   {b: y for b, y in zip(clean, xy[1::2]) if y})

    @property
    def ring(self):
        return GAUSSIAN if self.sig is None else RATIONAL

    @property
    def terms(self):
        """The coefficients as a dict blade -> Fraction (real algebra) or
        GaussianRational (complex algebra), zeros never stored."""
        terms = self._terms
        if terms is None:
            d, re, im = self.den, self.re, self.im
            if self.ring == RATIONAL:
                terms = {b: Fraction(c, d) for b, c in re.items()}
            else:
                terms = {b: GaussianRational(Fraction(re.get(b, 0), d), Fraction(im.get(b, 0), d))
                         for b in re | im}
            object.__setattr__(self, "_terms", terms)
        return terms

    @property
    def is_complex(self):
        return self.sig is None

    def space_key(self):
        return (self.sig, self.n)

    def _check_space(self, other):
        if not isinstance(other, Multivector):
            raise TypeError("expected a Multivector")
        if self.space_key() != other.space_key():
            raise ValueError("signature or ring mismatch between multivectors")

    def _like(self, den, re, im):
        """A multivector of the same space from numerators over den."""
        return Multivector(self.sig, self.n, den, re, im)

    def _signed(self, flip, conjugate=False):
        """The coefficient of e_b negated where flip(b) is 1 (or True), and
        conjugated too with ``conjugate``."""
        return self._like(self.den, {b: -c if flip(b) else c for b, c in self.re.items()},
                          {b: -c if flip(b) != conjugate else c for b, c in self.im.items()})

    # -- basic ring structure ------------------------------------------------

    def _combine(self, other, sign):
        """self + sign * other over the lcm of the two denominators."""
        self._check_space(other)
        d = math.lcm(self.den, other.den)
        f, g = d // self.den, sign * (d // other.den)
        return self._like(d, _merge(_merge({}, self.re, f), other.re, g),
                          _merge(_merge({}, self.im, f), other.im, g))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._signed(lambda b: True)

    def scale(self, c):
        # c = (x + i y) / d with integers x, y and d > 0
        if self.ring == RATIONAL:
            if not isinstance(c, (int, Fraction)):
                raise TypeError("real multivector scaled by a non-rational")
            d, (x, y) = numerators((c, 0))
        else:
            c = GaussianRational.coerce(c)
            d, (x, y) = numerators((c.re, c.im))
        return self._like(self.den * d, _merge(_merge({}, self.re, x), self.im, -y),
                          _merge(_merge({}, self.im, x), self.re, y))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        self._check_space(other)
        # (r1 + i i1)(r2 + i i2) over d1 d2, on the integer numerators; the
        # imaginary parts are empty in a real algebra
        mask = _neg_mask(self.sig)
        r1, i1, r2, i2 = self.re, self.im, other.re, other.im
        re = _blade_products(r1, r2, mask)
        im = {}
        if i1 or i2:
            _merge(re, _blade_products(i1, i2, mask), -1)
            im = _merge(_blade_products(r1, i2, mask), _blade_products(i1, r2, mask), 1)
        return self._like(self.den * other.den, re, im)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, c):
        return self.scale(ONE[self.ring] / c)

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return (self.space_key() == other.space_key() and self.den == other.den
                and self.re == other.re and self.im == other.im)

    def __hash__(self):
        return hash((self.sig, self.n, self.den,
                     frozenset(self.re.items()), frozenset(self.im.items())))

    def __bool__(self):
        return bool(self.re or self.im)

    # -- queries -------------------------------------------------------------

    def coeff(self, blade):
        return self.terms.get(blade, ZERO[self.ring])

    def scalar_part(self):
        return self.coeff(0)

    def grades(self):
        return sorted({b.bit_count() for b in self.re | self.im})

    def grade_project(self, k):
        return self._like(self.den, {b: c for b, c in self.re.items() if b.bit_count() == k},
                          {b: c for b, c in self.im.items() if b.bit_count() == k})

    def is_scalar(self):
        return all(b == 0 for b in self.re | self.im)

    def vector_coords(self):
        """Coordinates on the grade-1 basis; errors if other grades appear."""
        if any(b.bit_count() != 1 for b in self.re | self.im):
            raise ValueError("multivector is not homogeneous of grade 1")
        zero = ZERO[self.ring]
        return tuple(self.terms.get(1 << (i - 1), zero) for i in range(1, self.n + 1))

    def vector_numerators(self):
        """Integer coordinates u of a grade-1 element of a real algebra, which
        is u / den; errors if other grades appear."""
        u = [0] * self.n
        for b, c in self.re.items():
            if b.bit_count() != 1:
                raise ValueError("multivector is not homogeneous of grade 1")
            u[b.bit_length() - 1] = c
        return u

    # -- involutions ----------------------------------------------------------

    def reversion(self):
        return self._signed(_reversion_flip)

    def star(self):
        """Hermitian involution: conjugate coefficients and reverse blades."""
        if self.ring != GAUSSIAN:
            raise ValueError("star involution is defined on the complex algebra only")
        return self._signed(_reversion_flip, conjugate=True)

    def grade_involution(self):
        return self._signed(lambda b: b.bit_count() & 1)

    def __repr__(self):
        space = f"C({self.n})" if self.is_complex else f"Cl{self.sig}"
        if not self:
            return f"<{space} 0>"
        bits = []
        for b in sorted(self.terms, key=lambda x: (x.bit_count(), x)):
            name = "e" if b == 0 else "e" + "".join(str(i) for i in blade_indices(b))
            bits.append(f"({self.terms[b]})*{name}")
        return f"<{space} " + " + ".join(bits) + ">"


def _reversion_flip(b):
    """Whether reversing blade b flips its sign: k(k-1)/2 odd for k = |b|."""
    return (b.bit_count() >> 1) & 1


def _merge(acc, terms, factor):
    """acc += factor * terms in place on integer numerators, dropping the
    sums that cancel; returns acc."""
    if factor:
        for b, c in terms.items():
            nv = acc.get(b, 0) + factor * c
            if nv:
                acc[b] = nv
            else:
                acc.pop(b, None)
    return acc


def _flips(b1, neg_mask):
    """Bit j is the sign parity of e_b1 e_j sorted into ascending order:
    the generators of b1 above j, and j itself when b1 holds it and it
    squares to -1 (bits of ``neg_mask``)."""
    above = b1 >> 1
    k = 1
    while above >> k:
        above ^= above >> k
        k <<= 1
    return above ^ (b1 & neg_mask)


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
        flips = _flips(b1, neg_mask)
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


def _neg_mask(sig):
    """The bits of the generators squaring to -1: the last q of Cl(p, q), none in C(n)."""
    return 0 if sig is None else ((1 << sig.q) - 1) << sig.p


def vector_chain(sig, vecs):
    """The product v_1 ... v_k (1 for k = 0) of the grade-1 elements
    v = u / d of Cl(sig), given as (u, d) pairs of integer coordinates u
    and d > 0: the numerators are folded vector by vector and the
    Multivector is built and reduced once."""
    mask = _neg_mask(sig)
    num = {0: 1}
    for u, _ in vecs:
        num = _blade_products(num, {1 << i: x for i, x in enumerate(u) if x}, mask)
    return Multivector(sig, sig.n, math.prod(d for _, d in vecs), num, {})


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
    # i^t c is real for even t and imaginary for odd t, negated for t = 2, 3 mod 4
    re, im, mask = {}, {}, _neg_mask(a.sig)
    for b, c in a.re.items():
        t = (b & mask).bit_count()
        (im if t & 1 else re)[b] = -c if t & 2 else c
    return Multivector(None, a.n, a.den, re, im)


def multiplication_rows(parts, transpose=False):
    """Sparse Gaussian-integer rows of sum f N(a) over the (a, side, f) of
    ``parts``.  N(a) is a.den times the matrix of x -> a x (side "left") or
    x -> x a (side "right") on the blade basis: row y maps x to a.den times
    the (re, im) coefficient of e_y in the image of e_x; with ``transpose``
    row x holds the image of e_x.

    A blade times a multivector is a signed permutation of its terms, so row
    r has one entry per blade b of each a, at column r xor b, with the sign
    of e_b e_x (side "left") or e_x e_b ("right") for the blade x that a
    multiplies: one ``_flips`` lookup and one parity per entry.  Entries that
    cancel are dropped.
    """
    first = parts[0][0]
    mask = _neg_mask(first.sig)
    flips = [_flips(x, mask) for x in range(1 << first.n)]
    rows = [{} for _ in flips]
    for a, side, f in parts:
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        for b in a.re | a.im:
            fb, re, im = flips[b], f * a.re.get(b, 0), f * a.im.get(b, 0)
            for r, row in enumerate(rows):
                x = r if transpose else r ^ b
                u, v = re, im
                if ((flips[x] & b) if side == "right" else (fb & x)).bit_count() & 1:
                    u, v = -u, -v
                y = r ^ b
                if y in row:
                    p, q = row.pop(y)
                    u, v = p + u, q + v
                if u or v:
                    row[y] = (u, v)
    return rows


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
            and all(is_json_int(x) for x in doc)):
        raise ValueError("signature must be a [p, q] pair of integers")
    return Signature(*doc)


def multivector_from_json(doc, algebra):
    """A multivector of ``algebra``, a Signature or a complex dimension N,
    from JSON.  The algebra the document names is read first and must be
    that one, so a document of any other, or with a blade index outside
    1..n, is rejected before a term's bit is built."""
    if not isinstance(doc, dict):
        raise ValueError("multivector JSON must be an object")
    ring = doc.get("ring", RATIONAL)
    if "signature" in doc:
        sig = signature_from_json(doc["signature"])
        if ring != RATIONAL:
            raise ValueError("real multivectors use the rational ring")
        n = sig.n
    elif "complex_dim" in doc:
        if ring != GAUSSIAN:
            raise ValueError("complex multivectors use the gaussian ring")
        sig, n = None, doc["complex_dim"]
        if not is_json_int(n):
            raise ValueError("'complex_dim' must be an integer")
    else:
        raise ValueError("multivector JSON needs 'signature' or 'complex_dim'")
    if (n if sig is None else sig) != algebra:
        found = f"C({n})" if sig is None else f"Cl{sig}"
        want = f"Cl{algebra}" if isinstance(algebra, Signature) else f"C({algebra})"
        raise ValueError(f"multivector of {found} where {want} is expected")
    terms_doc = doc.get("terms", [])
    if not isinstance(terms_doc, list):
        raise ValueError("multivector 'terms' must be a list")
    terms = {}
    for t in terms_doc:
        if not (isinstance(t, dict) and isinstance(t.get("blade"), list)
                and all(is_json_int(i) for i in t["blade"])
                and isinstance(t.get("coeff"), str)):
            raise ValueError("a term needs a 'blade' list of integers and a 'coeff' string")
        if not all(1 <= i <= n for i in t["blade"]):
            raise ValueError(f"blade index out of range 1..{n}")
        b = blade_from_indices(t["blade"])
        c = parse_scalar(ring, t["coeff"])
        terms[b] = terms.get(b, 0) + c if b in terms else c
    return Multivector.complex_alg(n, terms) if sig is None else Multivector.real(sig, terms)
