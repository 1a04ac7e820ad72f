"""Exact scalar rings: rationals, Gaussian rationals and rational quaternions.

Rationals are plain ``fractions.Fraction`` (ints are accepted everywhere and
mix freely).  The core runs on integer numerators, and ``numerators`` is the
one way in: every constructor that holds its entries as ints over one
denominator reads its rationals there.  The two division rings here are the
value types of the API and JSON edge: ``Multivector.terms``, dense model
matrices and the parsed and formatted JSON scalars.  Their operator protocol
is written once, in ``_DivisionRing``, on each element's tuple of rational
coordinates (real part first); a subclass adds only its slots, constructor,
``coords()`` and product.  ``Signature`` (p, q), the metric of a real
algebra, lives here too, so a layer that names a signature but builds no
multivector leaves ``algebra`` unrun.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction
from operator import add, sub

RATIONAL = "rational"
GAUSSIAN = "gaussian"
QUATERNION = "quaternion"


class Signature(namedtuple("Signature", "p q")):
    """Number of generators squaring to +e and to -e."""

    __slots__ = ()

    def __new__(cls, p, q):
        if not (is_json_int(p) and is_json_int(q)):
            raise TypeError("signature components must be integers")
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


def numerators(values):
    """(d, ints): the ints and Fractions ``values`` as integer numerators
    over d, the lcm of their denominators (1 for no values), so that
    values[i] == Fraction(ints[i], d)."""
    pairs = [x.as_integer_ratio() for x in values]
    d = math.lcm(*(b for _a, b in pairs))
    return d, [a * (d // b) for a, b in pairs]


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational number, got {type(x).__name__}")


class _DivisionRing:
    """Immutable element of an exact division ring over Q, read through
    ``coords()``; the rationals embed as the real part, so a real element
    equals and hashes like its Fraction."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def coerce(cls, x):
        if isinstance(x, cls):
            return x
        return cls(_as_fraction(x))

    def conjugate(self):
        re, *im = self.coords()
        return type(self)(re, *(-x for x in im))

    def norm(self):
        return sum(x * x for x in self.coords())

    def __bool__(self):
        return any(self.coords())

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.coords() == other.coords()
        if isinstance(other, (int, Fraction)):
            c = self.coords()
            return c[0] == other and not any(c[1:])
        return NotImplemented

    def __hash__(self):
        c = self.coords()
        return hash(c) if any(c[1:]) else hash(c[0])

    def __add__(self, other):
        return type(self)(*map(add, self.coords(), self.coerce(other).coords()))

    __radd__ = __add__

    def __sub__(self, other):
        return type(self)(*map(sub, self.coords(), self.coerce(other).coords()))

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __neg__(self):
        return type(self)(*(-x for x in self.coords()))

    def __rmul__(self, other):
        # scalars commute with everything
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError(f"division by zero {type(self).__name__}")
        return self.conjugate() * (1 / n)

    def __truediv__(self, other):
        # right division: self * other^-1
        return self * self.coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.coerce(other) * self.inverse()

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self.coords()))})"


class GaussianRational(_DivisionRing):
    """a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def coords(self):
        return (self.re, self.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return NotImplemented

    def __str__(self):
        return format_gaussian(self)


I = GaussianRational(0, 1)


class Quaternion(_DivisionRing):
    """a + b*t1 + c*t2 + d*t3 with exact rational components.

    The imaginary units satisfy t1*t2 = t3 = -t2*t1 and (tk)^2 = -1.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))
        object.__setattr__(self, "c", _as_fraction(c))
        object.__setattr__(self, "d", _as_fraction(d))

    def coords(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.a * other, self.b * other, self.c * other, self.d * other)
        if isinstance(other, Quaternion):
            a1, b1, c1, d1 = self.coords()
            a2, b2, c2, d2 = other.coords()
            return Quaternion(
                a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 + c1 * a2 + d1 * b2 - b1 * d2,
                a1 * d2 + d1 * a2 + b1 * c2 - c1 * b2,
            )
        return NotImplemented


def quaternion_to_complex_block(x):
    """a + b t1 + c t2 + d t3 as [[a - d i, -c - b i], [c - b i, a + d i]]:
    the injective ring homomorphism H -> Mat(2, C), entry by entry."""
    a, b, c, d = Quaternion.coerce(x).coords()
    return ((GaussianRational(a, -d), GaussianRational(-c, -b)),
            (GaussianRational(c, -b), GaussianRational(a, d)))


TAU1 = Quaternion(0, 1, 0, 0)
TAU2 = Quaternion(0, 0, 1, 0)
TAU3 = Quaternion(0, 0, 0, 1)


# additive and multiplicative unit of each ring
ZERO = {RATIONAL: Fraction(0), GAUSSIAN: GaussianRational(0), QUATERNION: Quaternion(0)}
ONE = {RATIONAL: Fraction(1), GAUSSIAN: GaussianRational(1), QUATERNION: Quaternion(1)}


# ---------------------------------------------------------------------------
# string formats used in the JSON interfaces

def json_text(doc) -> str:
    """``doc`` in the layout of every JSON document cliffkit writes."""
    return json.dumps(doc, indent=2, sort_keys=True)


def json_chunks(doc, key, items):
    """The text of ``json_text`` for ``doc`` with the list of ``items`` at
    the key ``key``, streamed: one chunk per item, each item a JSON text
    already laid out at depth 2, inside that list.  ``doc`` holds no other
    null."""
    head, tail = json_text({**doc, key: None}).split("null")
    yield head + "["
    sep, close = "\n    ", "]"
    for text in items:
        yield sep + text
        sep, close = ",\n    ", "\n  ]"
    yield close + tail


def dump_json(chunks, path):
    """Write the JSON text ``chunks`` to ``path``, then a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
        fh.write("\n")


def is_json_int(x) -> bool:
    """Whether a parsed JSON value is an integer: JSON's true and false
    parse as bool, a subclass of int, and are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def format_rational(x) -> str:
    return str(_as_fraction(x))


def _fraction(s: str) -> Fraction:
    """Fraction(s), reporting a zero denominator as a ValueError.

    Exponent notation is rejected: Fraction would expand "1e9999999" into a
    ten-million-digit integer.
    """
    if "e" in s or "E" in s:
        raise ValueError(f"exponent notation is not accepted: {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def parse_rational(s: str) -> Fraction:
    return _fraction(s.strip())


def format_gaussian(z) -> str:
    z = GaussianRational.coerce(z)
    if z.im == 0:
        return str(z.re)
    if z.im == 1:
        im = "i"
    elif z.im == -1:
        im = "-i"
    else:
        im = f"{z.im}i"
    if z.re == 0:
        return im
    sign = "+" if z.im > 0 else ""
    return f"{z.re}{sign}{im}"


def parse_gaussian(s: str) -> GaussianRational:
    s = s.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    if "i" not in s:
        return GaussianRational(_fraction(s))
    if not s.endswith("i"):
        raise ValueError(f"malformed Gaussian rational: {s!r}")
    body = s[:-1]
    split = None
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in "+-" and body[idx - 1] not in "+-/":
            split = idx
            break
    if split is None:
        re_part, im_part = "0", body
    else:
        re_part, im_part = body[:split], body[split:]
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = _fraction(im_part)
    return GaussianRational(_fraction(re_part), im)


def format_quaternion(q) -> list:
    q = Quaternion.coerce(q)
    return [str(x) for x in q.coords()]


def format_scalar(ring_tag, x):
    if ring_tag == RATIONAL:
        return format_rational(x)
    if ring_tag == GAUSSIAN:
        return format_gaussian(x)
    return format_quaternion(x)


def parse_scalar(ring_tag, s):
    """A rational or Gaussian rational from its string; multivector
    documents hold no other ring."""
    return parse_rational(s) if ring_tag == RATIONAL else parse_gaussian(s)
