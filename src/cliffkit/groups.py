"""Pin and Spin groups acting on the pseudo-orthogonal group.

Versors are products of anisotropic grade-1 elements.  The vector action
used throughout is the untwisted adjoint zeta(g): v -> g v g^-1, under which
a single vector w acts as minus the reflection R(w): x -> x - 2 B(w,x)/Q(w) w
across its orthogonal hyperplane, and the total reflection
omega = v^1 ... v^n acts (for even n) as -identity.

The O(p,q) side runs on Python ints.  A ``PseudoOrthogonalMatrix`` is held
as an integer matrix N over one denominator d > 0 with gcd(d, N) = 1, and a
``Versor`` as one integer vector u and denominator d per factor u / d; their
Fraction and Multivector views are built only when read.  Q(u) != 0 is
checked once, by the public ``Versor`` constructor; ``Versor._from_vecs``
checks nothing, as ``lift_to_pin`` (after ``_reflect``), ``__mul__`` and
``negated`` (of checked versors) and ``total_reflection_versor`` (unit
vectors) pass it vectors anisotropic by construction.  ``zeta``,
``cartan_dieudonne`` and the sampler reflect through one integer step,
``_reflect``: a rational w is replaced by the primitive integer vector u on
its ray (R(u) = R(w)), so N/d -> (|Q(u)| N - 2 sgn(Q(u)) B(u,N) u) /
(|Q(u)| d), reduced by a gcd.  Its arithmetic reads only the support S of
u: O(n |S|) on n columns plus the scaling by |Q(u)| when |Q(u)| != 1, so an
axis vector +-e_a is a sign flip, though copying the n columns of length n
keeps each step O(n^2).  ``reflection_product`` applies it
to the identity, and ``zeta`` is (-1)^k R(v_1) ... R(v_k) built that way
from the versor's integer vectors.  A versor's inverse is the reversion
over the product of the factor norms, so ``zeta`` and ``lift_to_pin``
multiply no multivectors.  The form M^T eta M = eta is checked where a
matrix enters from outside (the public constructor, so also JSON, cocycles
and the CLI); the integer paths build only products, inverses and
reflections, which preserve it.  The sandwich g e_a g^-1 is kept only as the oracle
(``verify._matches_definition`` and the tests' ``_dense_zeta_columns``),
and the dense ``reflection_matrix`` only as the reference that the
recomposition checks multiply out.  Lifting goes the other way: a
pseudo-orthogonal matrix is factored into at most 2n reflections on
integer vectors, and the versor of those vectors, patched by omega when
the count is odd, maps onto it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import chain
from operator import mul

from .algebra import Multivector, Signature, signature_from_json, vector_chain
from .scalars import format_rational, is_json_int, numerators, parse_rational


class PseudoOrthogonalMatrix:
    """Exact rational matrix M with M^T eta M = eta, held as N / d.

    ``num`` is an integer matrix N (a tuple of row tuples) and ``den`` an
    int d > 0 with gcd(d, every entry of N) = 1, so the pair is canonical
    and ``==`` and ``hash`` compare it directly.  The public constructor
    (rational rows, also behind ``from_json``, ``GroupCocycle.build`` and
    the CLI) reads its entries through ``Fraction`` and ``scalars.numerators``
    and is the trust boundary: it runs the integer ``preserves_form``.
    ``reflection_product``, ``reflection_matrix``, ``__mul__``, ``inverse``
    and ``identity`` build through ``_from_int``, which only reduces by the
    gcd: products and inverses of form-preserving matrices and products of
    reflections preserve the form by construction.  ``mat`` is the Fraction
    view for JSON, the CLI and the tests, built on first use and cached.
    """

    __slots__ = ("sig", "num", "den", "_mat")

    def __new__(cls, sig: Signature, mat):
        n = sig.n
        rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in mat]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError("matrix shape does not match the signature")
        d, flat = numerators(chain.from_iterable(rows))
        self = cls._from_int(sig, [flat[i * n:(i + 1) * n] for i in range(n)], d)
        if not self.preserves_form():
            raise ValueError("matrix does not preserve the bilinear form")
        return self

    @classmethod
    def _from_int(cls, sig, num, den):
        """The matrix num / den for an integer matrix num and int den > 0,
        reduced by the gcd; the caller guarantees that it preserves the form."""
        g = math.gcd(den, *chain.from_iterable(num))
        if g != 1:
            num = [[x // g for x in row] for row in num]
            den //= g
        self = object.__new__(cls)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "num", tuple(tuple(row) for row in num))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_mat", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("PseudoOrthogonalMatrix is immutable")

    @property
    def mat(self):
        """The entries as a tuple of Fraction row tuples."""
        mat = self._mat
        if mat is None:
            d = self.den
            mat = tuple(tuple(Fraction(x, d) for x in row) for row in self.num)
            object.__setattr__(self, "_mat", mat)
        return mat

    def preserves_form(self):
        """M^T eta M == eta exactly, entry by entry on the upper triangle.

        With M = N / d the identity reads N^T eta N == d^2 eta, so the sums
        run over ints.
        """
        n = self.sig.n
        sq = _eta(self.sig)
        cols = list(zip(*self.num))
        d2 = self.den * self.den
        for a in range(n):
            eta_col = [s * x for s, x in zip(sq, cols[a])]
            for b in range(a, n):
                want = sq[a] * d2 if a == b else 0
                if sum(map(mul, eta_col, cols[b])) != want:
                    return False
        return True

    @classmethod
    def identity(cls, sig):
        n = sig.n
        return cls._from_int(sig, [[int(i == j) for j in range(n)] for i in range(n)], 1)

    def __mul__(self, other):
        if not isinstance(other, PseudoOrthogonalMatrix):
            return NotImplemented
        if other.sig != self.sig:
            raise ValueError("signature mismatch")
        cols = list(zip(*other.num))
        num = [[sum(map(mul, row, col)) for col in cols] for row in self.num]
        return PseudoOrthogonalMatrix._from_int(self.sig, num, self.den * other.den)

    def inverse(self):
        # M^-1 = eta^-1 M^T eta, and eta is its own inverse
        n = self.sig.n
        sq = _eta(self.sig)
        num = self.num
        inv = [[sq[i] * num[j][i] * sq[j] for j in range(n)] for i in range(n)]
        return PseudoOrthogonalMatrix._from_int(self.sig, inv, self.den)

    def det(self):
        """(-1)^r as a Fraction, r the number of reflections of
        ``cartan_dieudonne``: M is their product, and each reflection has
        determinant -1."""
        return Fraction(-1) ** len(_cartan_dieudonne(self)[0])

    def column(self, a):
        """Image coordinates of basis vector a (0-based)."""
        return tuple(row[a] for row in self.mat)

    def is_identity(self):
        n = self.sig.n
        return self.den == 1 and all(
            self.num[i][j] == (i == j) for i in range(n) for j in range(n)
        )

    def __eq__(self, other):
        if not isinstance(other, PseudoOrthogonalMatrix):
            return NotImplemented
        return self.sig == other.sig and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.sig, self.den, self.num))

    def to_json(self):
        return {
            "signature": [self.sig.p, self.sig.q],
            "matrix": [[format_rational(x) for x in row] for row in self.mat],
        }

    @classmethod
    def from_json(cls, doc, sig=None):
        if isinstance(doc, list):
            rows = doc
        elif isinstance(doc, dict):
            rows = doc["matrix"]
            if "signature" in doc:
                doc_sig = signature_from_json(doc["signature"])
                if sig is not None and doc_sig != sig:
                    raise ValueError(f"matrix signature {doc_sig} conflicts with {sig}")
                sig = doc_sig
        else:
            raise ValueError("matrix JSON must be a list of rows or an object")
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise ValueError("matrix must be a list of rows")
        if sig is None:
            raise ValueError("signature required to read a matrix")
        if not all(is_json_int(x) or isinstance(x, str) for row in rows for x in row):
            raise ValueError("matrix entries must be integers or rational strings")
        return cls(sig, [[x if is_json_int(x) else parse_rational(x) for x in row] for row in rows])


def _eta(sig):
    """The diagonal of eta: p entries +1, then q entries -1."""
    return [1] * sig.p + [-1] * sig.q


def _bform(sig, x, y):
    """B(x, y) on coordinates; Q(x) is _bform(sig, x, x)."""
    p = sig.p
    return sum(map(mul, x[:p], y[:p])) - sum(map(mul, x[p:], y[p:]))


def _primitive(w):
    """The primitive integer vector on the ray of a rational vector w: its
    ``scalars.numerators`` over their gcd.  R(lambda w) = R(w) for every
    lambda != 0, so reflecting across it is reflecting across w.  The zero
    vector stays zero (``_reflect`` rejects it as isotropic).
    """
    return _primitive_int(numerators(w)[1])


def _primitive_int(u):
    """The integer vector u divided by the gcd of its entries."""
    g = math.gcd(*u) or 1
    return [x // g for x in u]


def _reflect(sig, u, cols, d):
    """R(u) on the columns of X/d, for integer u, X and d > 0.

    R(u) x = (Q(u) x - 2 B(u,x) u)/Q(u), so the new columns are
    |Q(u)| X - 2 sgn(Q(u)) B(u,X) u over |Q(u)| d, returned as new lists
    (X', d') divided by the gcd of d' and every entry.  Q(u) and
    2 sgn(Q(u)) eta u are formed on the support S of u, and only the rows
    in S change beyond the scaling: the arithmetic is O(n |S|) on n columns,
    plus n^2 when |Q(u)| != 1, so an axis vector +-e_a is a sign flip of
    row a.  Every column is still copied, so a step costs O(n^2) in all.
    """
    p = sig.p
    supp = [(i, x, x if i < p else -x) for i, x in enumerate(u) if x]
    qu = sum(x * e for _, x, e in supp)
    if qu == 0:
        raise ValueError("cannot reflect across an isotropic vector")
    q = abs(qu)
    two = 2 if qu > 0 else -2
    supp = [(i, x, two * e) for i, x, e in supp]
    out = []
    for x in cols:
        f = 0
        for i, _, c in supp:
            f += c * x[i]
        y = [q * xi for xi in x] if q != 1 else list(x)
        if f:
            for i, ui, _ in supp:
                y[i] -= f * ui
        out.append(y)
    d *= q
    if d != 1:
        g = math.gcd(d, *chain.from_iterable(out))
        if g != 1:
            out = [[xi // g for xi in x] for x in out]
            d //= g
    return out, d


def reflection_product(sig, ws) -> PseudoOrthogonalMatrix:
    """R(w_1) ... R(w_r) for rational coordinate vectors w_1, ..., w_r.

    The reflections run across the primitive integer vectors of the w_i,
    through ``_reflection_chain``.
    """
    return _reflection_chain(sig, [_primitive(w) for w in ws], 1)


def _reflection_chain(sig, us, sign):
    """sign * R(u_1) ... R(u_r) for primitive integer vectors u_1, ..., u_r.

    The columns start as sign * identity and are reflected across u_r, ...,
    u_1 in turn (innermost factor first) over one common denominator, so
    each factor costs O(n^2) integer operations and no n x n product is
    formed.
    """
    n = sig.n
    cols = [[sign * int(i == a) for i in range(n)] for a in range(n)]
    d = 1
    for u in reversed(us):
        cols, d = _reflect(sig, u, cols, d)
    return PseudoOrthogonalMatrix._from_int(sig, list(zip(*cols)), d)


def reflection_matrix(w: Multivector) -> PseudoOrthogonalMatrix:
    """Reflection across the hyperplane orthogonal to an anisotropic vector.

    With u the primitive integer vector on the ray of w, R(w) = R(u) is
    (Q(u) I - 2 u (eta u)^T) / Q(u), built densely from that formula (not
    through ``_reflect``) so it can serve as an independent reference.
    """
    sig = w.sig
    if sig is None:
        raise ValueError("reflections are defined in the real algebra")
    u = _primitive_int(w.vector_numerators())
    qu = _bform(sig, u, u)
    if qu == 0:
        raise ValueError("cannot reflect across an isotropic vector")
    n = sig.n
    eta_u = [s * x for s, x in zip(_eta(sig), u)]
    num = [[qu * (i == a) - 2 * u[i] * eta_u[a] for a in range(n)] for i in range(n)]
    if qu < 0:
        num = [[-x for x in row] for row in num]
    return PseudoOrthogonalMatrix._from_int(sig, num, abs(qu))


class Versor:
    """Product of anisotropic grade-1 elements of a real algebra.

    ``vecs`` holds each factor v = u / d as the pair (u, d), u a tuple of
    ints; ``parity``, ``pin_normalized`` and ``_norm`` are read off it.  The
    public constructor is the one check of the signature and of Q(u) != 0.
    ``_from_vecs`` checks nothing: ``lift_to_pin``, ``__mul__``, ``negated``
    and ``total_reflection_versor`` pass it anisotropic vectors.  ``factors``
    (Multivector views) and ``product``, the chain v_1 ... v_k (1 for no
    factors), are built on first read.
    """

    __slots__ = ("sig", "vecs", "_factors", "_product")

    def __init__(self, sig: Signature, factors):
        factors = tuple(factors)
        if any(v.sig != sig for v in factors):
            raise ValueError("factor signature mismatch")
        vecs = tuple((tuple(v.vector_numerators()), v.den) for v in factors)
        if any(_bform(sig, u, u) == 0 for u, _ in vecs):
            raise ValueError("versor factors must be anisotropic vectors")
        for name, value in ("sig", sig), ("vecs", vecs), ("_factors", factors), ("_product", None):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_vecs(cls, sig, vecs):
        """The versor of the anisotropic factors u / d, (u, d) in ``vecs``."""
        self = object.__new__(cls)
        for name, value in ("sig", sig), ("vecs", vecs), ("_factors", None), ("_product", None):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Versor is immutable")

    @property
    def factors(self):
        """The factors as Multivectors, built on first read."""
        factors = self._factors
        if factors is None:
            factors = tuple(_vector_mv(self.sig, u, d) for u, d in self.vecs)
            object.__setattr__(self, "_factors", factors)
        return factors

    @property
    def product(self):
        """v_1 v_2 ... v_k as a Multivector, built on first read by
        ``algebra.vector_chain`` from the integer vectors."""
        prod = self._product
        if prod is None:
            prod = vector_chain(self.sig, self.vecs)
            object.__setattr__(self, "_product", prod)
        return prod

    @property
    def parity(self):
        return len(self.vecs) % 2

    @property
    def is_spin(self):
        return self.parity == 0

    @property
    def pin_normalized(self):
        """Whether every factor v = u / d has Q(v) = +-1, that is |Q(u)| = d^2."""
        return all(abs(_bform(self.sig, u, u)) == d * d for u, d in self.vecs)

    @property
    def _norm(self):
        """Q(v_1) ... Q(v_k) as a Fraction, with Q(u / d) = Q(u) / d^2."""
        return Fraction(math.prod(_bform(self.sig, u, u) for u, _ in self.vecs),
                        math.prod(d * d for _, d in self.vecs))

    def inverse_mv(self):
        """Inverse of the product: its reversion v_k ... v_1 over Q(v_1) ... Q(v_k)."""
        return self.product.reversion() / self._norm

    def __mul__(self, other):
        if not isinstance(other, Versor):
            return NotImplemented
        if other.sig != self.sig:
            raise ValueError("signature mismatch")
        return Versor._from_vecs(self.sig, self.vecs + other.vecs)

    def negated(self):
        """A versor whose product is the negative of this one: its first
        factor negated, and a product already multiplied out carried over."""
        if self.vecs:
            (u, d), *rest = self.vecs
            neg = Versor._from_vecs(self.sig, ((tuple(-x for x in u), d), *rest))
        else:
            # the empty product is 1, and e_1 (-Q(e_1) e_1) = -1
            s, e1 = -self.sig.square(1), _unit_vecs(self.sig.n)[0][0]
            neg = Versor._from_vecs(self.sig, ((e1, 1), (tuple(s * x for x in e1), 1)))
        if self._product is not None:
            object.__setattr__(neg, "_product", -self._product)
        return neg

    def __repr__(self):
        return f"Versor({self.sig}, {len(self.vecs)} factors, {self.product!r})"


def _vector_mv(sig, u, d):
    """The grade-1 Multivector u / d for integer coordinates u and d > 0."""
    return Multivector(sig, sig.n, d, {1 << i: x for i, x in enumerate(u) if x}, {})


def _unit_vecs(n):
    """e_1, ..., e_n as (u, 1) pairs."""
    return [(tuple(int(i == a) for i in range(n)), 1) for a in range(n)]


def total_reflection_versor(sig: Signature) -> Versor:
    return Versor._from_vecs(sig, tuple(_unit_vecs(sig.n)))


def zeta(g: Versor) -> PseudoOrthogonalMatrix:
    """Untwisted adjoint action on grade 1: column a is g e_a g^-1.

    A single vector v acts as x -> v x v^-1 = -R(v) x, minus the reflection
    x -> x - 2 B(v,x)/Q(v) v, so for g = v_1 ... v_k
    zeta(g) = (-1)^k R(v_1) ... R(v_k), built by ``_reflection_chain`` from
    the primitive integer vectors on the rays of the versor's stored
    vectors.  The sandwich itself is the oracle in
    ``verify._matches_definition`` and the tests' ``_dense_zeta_columns``.
    """
    us = [_primitive_int(u) for u, _ in g.vecs]
    return _reflection_chain(g.sig, us, -1 if g.parity else 1)


class CDResult(namedtuple("CDResult", "vectors fallback_count")):
    """Reflection factorization: M = R(w_1) o ... o R(w_r)."""

    __slots__ = ()

    @property
    def r(self):
        return len(self.vectors)


def cartan_dieudonne(M: PseudoOrthogonalMatrix) -> CDResult:
    """Factor M into at most 2n reflections across anisotropic vectors.

    The a-th step maps the current image x of basis vector e_a back to e_a,
    reflecting across x - e_a when that vector is anisotropic and otherwise
    across x + e_a followed by e_a (two reflections, the isotropic fallback).
    """
    vecs, fallbacks = _cartan_dieudonne(M)
    return CDResult(tuple(_vector_mv(M.sig, u, d) for u, d in vecs), fallbacks)


def _cartan_dieudonne(M):
    """``cartan_dieudonne`` on integers: the reflection vectors w = u / d as
    (u, d) pairs, and the isotropic fallback count."""
    sig = M.sig
    n = sig.n
    eye = [[int(i == a) for i in range(n)] for a in range(n)]
    # the columns of M as integer columns over its denominator d
    d = M.den
    cols = [list(col) for col in zip(*M.num)]
    vecs = []
    fallbacks = 0

    def apply_reflection(v, den):
        # reflect every column across v / den (v integer) and record that vector
        nonlocal cols, d
        cols, d = _reflect(sig, _primitive_int(v), cols, d)
        vecs.append((tuple(v), den))

    for a, e_a in enumerate(eye):
        x = cols[a]
        if x == [d * ei for ei in e_a]:
            continue
        w = [xi - d * ei for xi, ei in zip(x, e_a)]
        if _bform(sig, w, w) != 0:
            apply_reflection(w, d)
        else:
            fallbacks += 1
            apply_reflection([xi + d * ei for xi, ei in zip(x, e_a)], d)
            apply_reflection(e_a, 1)
        if cols[a] != [d * ei for ei in e_a]:
            raise AssertionError("reflection step failed to fix the basis vector")
    if d != 1 or cols != eye:
        raise AssertionError("factorization left a nonidentity residue")
    return vecs, fallbacks


def lift_to_pin(M: PseudoOrthogonalMatrix) -> Versor:
    """A versor g with zeta(g) = M exactly.  Even n only.

    zeta of a single vector is minus its reflection, so the raw product of
    the factorization vectors maps to (-1)^r M; an odd count is patched by
    appending the total reflection, which zeta sends to -identity.
    """
    sig = M.sig
    if sig.n % 2:
        raise ValueError("pin lifting is supported for even n only")
    vecs, _ = _cartan_dieudonne(M)
    if len(vecs) % 2:
        vecs += _unit_vecs(sig.n)
    g = Versor._from_vecs(sig, tuple(vecs))
    if zeta(g) != M:
        raise AssertionError("lift does not map back onto the input matrix")
    return g

