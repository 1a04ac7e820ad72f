"""Blade arithmetic, involutions and inversion in the core algebra."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffkit.algebra import (
    Multivector,
    Signature,
    basis_vector,
    blade_from_indices,
    blade_indices,
    blade_mul,
    complex_basis_vector,
    complex_unit,
    complexify_embed,
    eta,
    multiplication_rows,
    multivector_from_json,
    multivector_to_json,
    unit,
    vector,
)
from cliffkit.reprs import invert
from cliffkit.scalars import GaussianRational
from inverse_oracle import dense_inverse, map_matrix


def test_signature_validation():
    for p, q in ((-1, 2), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            Signature(p, q)
    sig = Signature(2, 1)
    assert sig.n == 3
    assert sig.square(1) == 1 and sig.square(2) == 1 and sig.square(3) == -1
    with pytest.raises(ValueError):
        sig.square(4)


def test_signature_is_an_ordered_immutable_value():
    sig = Signature(q=1, p=2)
    assert repr(sig) == "Signature(p=2, q=1)" and str(sig) == "(2,1)"
    assert sig == Signature(2, 1) and sig != Signature(1, 2) and sig != Signature(2, 0)
    assert hash(sig) == hash(Signature(2, 1)) == hash((2, 1))
    assert len({sig, Signature(2, 1), Signature(1, 2)}) == 2
    sigs = [Signature(2, 1), Signature(0, 3), Signature(2, 0), Signature(1, 3)]
    assert sorted(sigs) == [Signature(0, 3), Signature(1, 3), Signature(2, 0), Signature(2, 1)]
    assert Signature(1, 3) < Signature(3, 1) <= Signature(3, 1) and Signature(2, 2) > Signature(2, 1)
    with pytest.raises(AttributeError):
        sig.p = 3


def test_blade_mul_examples():
    sig = Signature(2, 0)
    # e2 * e1 = -e12
    assert blade_mul(0b10, 0b01, sig) == (-1, 0b11)
    assert blade_mul(0b01, 0b10, sig) == (1, 0b11)
    # generator squares
    assert blade_mul(0b01, 0b01, sig) == (1, 0)
    assert blade_mul(0b01, 0b01, Signature(0, 1)) == (-1, 0)
    # complex algebra: int n means Euclidean squares
    assert blade_mul(0b10, 0b10, 2) == (1, 0)
    # e12 * e2 = e1
    assert blade_mul(0b11, 0b10, sig) == (1, 0b01)
    with pytest.raises(ValueError):
        blade_mul(0b100, 0b01, sig)


@pytest.mark.parametrize("space", [Signature(2, 1), Signature(1, 3), 3], ids=str)
def test_map_matrix_matches_blade_mul(space):
    # left and right multiplication matrices built term by term from blade_mul
    rng = random.Random(17)
    n = space if isinstance(space, int) else space.n
    dim = 1 << n
    for _ in range(6):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if isinstance(space, int):
                c = GaussianRational(c, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            terms[rng.randrange(dim)] = c
        if isinstance(space, int):
            a = Multivector.complex_alg(space, terms)
        else:
            a = Multivector.real(space, terms)
        zero = GaussianRational(0) if a.is_complex else Fraction(0)
        left = [[zero] * dim for _ in range(dim)]
        right = [[zero] * dim for _ in range(dim)]
        for b, c in a.terms.items():
            for x in range(dim):
                s, y = blade_mul(b, x, space)
                left[y][x] = left[y][x] + s * c
                s, y = blade_mul(x, b, space)
                right[y][x] = right[y][x] + s * c
        assert map_matrix(a, lambda x: a * x) == tuple(map(tuple, left))
        assert map_matrix(a, lambda x: x * a) == tuple(map(tuple, right))


def _random_element(space, rng):
    n = space if isinstance(space, int) else space.n
    terms = {}
    for _ in range(rng.randint(0, 6)):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        if isinstance(space, int):
            c = GaussianRational(c, Fraction(rng.randint(-4, 4), rng.randint(1, 6)))
        terms[rng.randrange(1 << n)] = c
    if isinstance(space, int):
        return Multivector.complex_alg(space, terms)
    return Multivector.real(space, terms)


@pytest.mark.parametrize(
    "space",
    [Signature(p, n - p) for n in range(6) for p in range(n + 1)] + list(range(6)),
    ids=str,
)
def test_multiplication_numerators_match_map_matrix(space):
    # the sparse integer rows over d are the dense oracle's left and right
    # multiplication matrices, row by row and (transposed) column by column,
    # with every nonzero entry stored and no zero one
    rng = random.Random(23)
    for _ in range(4):
        a = _random_element(space, rng)
        dim = 1 << a.n
        for side, f in (("left", lambda x: a * x), ("right", lambda x: x * a)):
            d, rows = a.den, multiplication_rows([(a, side, 1)])
            assert len(rows) == dim
            assert all(0 <= x < dim and (u or v) for row in rows for x, (u, v) in row.items())
            if a.is_complex:
                got = tuple(tuple(GaussianRational(Fraction(u, d), Fraction(v, d))
                                  for u, v in (row.get(x, (0, 0)) for x in range(dim))) for row in rows)
            else:
                assert not any(v for row in rows for _u, v in row.values())
                got = tuple(tuple(Fraction(row.get(x, (0, 0))[0], d) for x in range(dim)) for row in rows)
            assert got == map_matrix(a, f)
            cols = multiplication_rows([(a, side, 1)], transpose=True)
            assert cols == [{y: row[x] for y, row in enumerate(rows) if x in row} for x in range(dim)]
    with pytest.raises(ValueError):
        multiplication_rows([(a, "both", 1)])


def _schoolbook(a, b):
    """a * b term by term in Fractions (GaussianRationals in the complex
    algebra, where every generator squares to +1), each blade pair sorted by
    adjacent swaps."""
    square = (lambda i: 1) if a.is_complex else a.sig.square
    field = GaussianRational.coerce if a.is_complex else Fraction
    acc = {}
    for b1, c1 in a.terms.items():
        for b2, c2 in b.terms.items():
            idx, sign = blade_indices(b1) + blade_indices(b2), 1
            for i in range(len(idx)):
                for j in range(len(idx) - 1 - i):
                    if idx[j] > idx[j + 1]:
                        idx[j], idx[j + 1] = idx[j + 1], idx[j]
                        sign = -sign
            out = []
            for i in idx:
                if out and out[-1] == i:
                    out.pop()
                    sign *= square(i)
                else:
                    out.append(i)
            blade = blade_from_indices(out)
            acc[blade] = acc.get(blade, field(0)) + field(sign) * field(c1) * field(c2)
    return {k: v for k, v in acc.items() if v}


@st.composite
def rational_operands(draw):
    n = draw(st.integers(0, 5))
    p = draw(st.integers(0, n))
    sig = Signature(p, n - p)
    coeff = st.one_of(
        st.integers(-5, 5),
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
    )
    terms = st.dictionaries(st.integers(0, (1 << n) - 1), coeff, max_size=6)
    return [Multivector.real(sig, draw(terms)) for _ in range(3)]


def _unreduced(x, k):
    """The rational x as a Fraction whose numerator and denominator are
    both multiplied by k (Fraction itself would reduce them)."""
    f = Fraction()
    f._numerator, f._denominator = x.numerator * k, x.denominator * k
    return f


def _spellings(a):
    """a rebuilt from its coefficients given as ints where integral, as
    reduced Fractions and as unreduced Fractions."""
    def build(f):
        if a.is_complex:
            return Multivector.complex_alg(a.n, {b: GaussianRational(f(c.re), f(c.im))
                                                 for b, c in a.terms.items()})
        return Multivector.real(a.sig, {b: f(c) for b, c in a.terms.items()})
    as_int = (lambda x: int(x) if x.denominator == 1 else x)
    return [build(as_int), build(Fraction), build(lambda x: _unreduced(x, 6))]


def _assert_canonical_layout(ops, scalars):
    """Numerators over one denominator, canonical after every operation."""
    results = [y for a in ops for y in _spellings(a)]
    for x in ops:
        results += [x.reversion(), x.grade_involution(), -x]
        results += [x.grade_project(k) for k in range(x.n + 1)]
        results += [x.scale(s) for s in scalars] + [x / s for s in scalars if s]
        results += [x + y for y in ops] + [x - y for y in ops] + [x * y for y in ops]
        if x.is_complex:
            results.append(x.star())
    for x in results:
        nums = [*x.re.values(), *x.im.values()]
        assert x.den > 0 and math.gcd(x.den, *nums) == 1 and 0 not in nums
        assert all(type(c) is int for c in nums)
        if not x.is_complex:
            assert not x.im and all(type(v) is Fraction for v in x.terms.values())
    # a == b exactly when a.terms == b.terms, and equal values hash alike
    by_terms = {}
    for x in results:
        by_terms.setdefault((x.space_key(), frozenset(x.terms.items())), []).append(x)
    for first, *rest in by_terms.values():
        assert all(x == first and hash(x) == hash(first) for x in rest)
    firsts = [xs[0] for xs in by_terms.values()]
    assert all((x == y) == (x is y) for x, y in itertools.product(firsts, repeat=2))


@settings(deadline=None, max_examples=200)
@given(rational_operands())
def test_rational_product_matches_fraction_schoolbook(ops):
    # int coefficients, zeros and mixed denominators all come out as Fractions
    a, b, c = ops
    for x, y in ((a, b), (a * b, c)):
        xy = x * y
        assert xy.terms == _schoolbook(x, y)
        assert all(type(v) is Fraction for v in xy.terms.values())
    _assert_canonical_layout(ops, (0, 3, Fraction(-4, 6), _unreduced(Fraction(5, 3), 4)))


@st.composite
def gaussian_operands(draw):
    n = draw(st.integers(0, 5))
    part = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    coeff = st.one_of(
        st.integers(-5, 5),
        part,
        st.builds(GaussianRational, part, part),
        st.builds(GaussianRational, st.just(0), part),
    )
    terms = st.dictionaries(st.integers(0, (1 << n) - 1), coeff, max_size=6)
    return [Multivector.complex_alg(n, draw(terms)) for _ in range(3)]


@settings(deadline=None, max_examples=200)
@given(gaussian_operands())
def test_gaussian_product_matches_schoolbook(ops):
    # empty operands, int, real, imaginary and mixed coefficients
    a, b, c = ops
    for x, y in ((a, b), (a * b, c), (c, c.star())):
        xy = x * y
        assert xy.terms == _schoolbook(x, y)
        assert all(type(v) is GaussianRational for v in xy.terms.values())
    _assert_canonical_layout(ops, (0, Fraction(2, 6), GaussianRational(0, 2),
                                   GaussianRational(Fraction(-1, 2), _unreduced(Fraction(3, 4), 2))))


def test_gaussian_product_int_coefficients():
    e1, e2 = 1, 2
    a = Multivector.complex_alg(2, {0: 2, e1: 3})
    b = Multivector.complex_alg(2, {e1: GaussianRational(0, Fraction(1, 2)), e2: -1})
    # (2 + 3 e1)(i/2 e1 - e2) = 3i/2 + i e1 - 2 e2 - 3 e12
    want = {0: GaussianRational(0, Fraction(3, 2)), e1: GaussianRational(0, 1),
            e2: GaussianRational(-2), e1 | e2: GaussianRational(-3)}
    assert (a * b).terms == want == _schoolbook(a, b)
    assert (a * Multivector.complex_alg(2)).terms == {}


def test_blade_index_helpers():
    assert blade_indices(0b1011) == [1, 2, 4]
    assert blade_from_indices([1, 2, 4]) == 0b1011
    with pytest.raises(ValueError):
        blade_from_indices([0])
    with pytest.raises(ValueError):
        blade_from_indices([2, 2])


@pytest.mark.parametrize("p,q", [(3, 0), (2, 1), (1, 2), (0, 3)])
def test_blade_mul_associative_exhaustive(p, q):
    sig = Signature(p, q)
    dim = 1 << sig.n
    for a, b, c in itertools.product(range(dim), repeat=3):
        s1, ab = blade_mul(a, b, sig)
        s2, ab_c = blade_mul(ab, c, sig)
        t1, bc = blade_mul(b, c, sig)
        t2, a_bc = blade_mul(a, bc, sig)
        assert ab_c == a_bc
        assert s1 * s2 == t1 * t2


def test_generator_relations_all_small_signatures():
    for n in range(1, 6):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            e = unit(sig)
            for i in range(1, n + 1):
                vi = basis_vector(sig, i)
                for j in range(i, n + 1):
                    vj = basis_vector(sig, j)
                    anti = vi * vj + vj * vi
                    want = e * Fraction(2 * sig.square(i)) if i == j else e * 0
                    assert anti == want


def test_multivector_algebra_basics():
    sig = Signature(1, 1)
    a = vector(sig, [Fraction(1), Fraction(2)])
    b = vector(sig, [Fraction(3), Fraction(-1)])
    assert a + b == vector(sig, [Fraction(4), Fraction(1)])
    assert (a * b).grades() == [0, 2]
    assert eta(a, b) == Fraction(1 * 3 - 2 * (-1))
    assert a.grade_project(1) == a
    assert not a.grade_project(0)
    with pytest.raises(ValueError):
        (a * b).vector_coords()
    assert a.vector_coords() == (Fraction(1), Fraction(2))


mv_terms = st.dictionaries(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=-4, max_value=4),
    max_size=4,
)


@settings(deadline=None, max_examples=80)
@given(mv_terms, mv_terms)
def test_reversion_antihomomorphism(t1, t2):
    sig = Signature(2, 1)
    a = Multivector.real(sig, t1)
    b = Multivector.real(sig, t2)
    assert (a * b).reversion() == b.reversion() * a.reversion()
    assert a.reversion().reversion() == a


@settings(deadline=None, max_examples=80)
@given(mv_terms, mv_terms)
def test_grade_involution_homomorphism(t1, t2):
    sig = Signature(1, 2)
    a = Multivector.real(sig, t1)
    b = Multivector.real(sig, t2)
    assert (a * b).grade_involution() == a.grade_involution() * b.grade_involution()


def test_star_involution_laws():
    n = 3
    i = GaussianRational(0, 1)
    a = Multivector.complex_alg(n, {0b001: i, 0b110: GaussianRational(2, 1)})
    b = Multivector.complex_alg(n, {0: GaussianRational(1, 1), 0b011: i})
    assert (a * b).star() == b.star() * a.star()
    assert a.star().star() == a
    # generators are Hermitian, i is conjugated
    e1 = complex_basis_vector(n, 1)
    assert e1.star() == e1
    assert (e1 * i).star() == e1 * (-i)
    with pytest.raises(ValueError):
        basis_vector(Signature(1, 0), 1).star()


def test_complexify_embed_is_homomorphism():
    sig = Signature(1, 2)
    a = Multivector.real(sig, {0b001: 2, 0b110: Fraction(1, 3)})
    b = Multivector.real(sig, {0b010: -1, 0b111: 1})
    fa, fb = complexify_embed(a), complexify_embed(b)
    assert complexify_embed(a * b) == fa * fb
    assert complexify_embed(a + b) == fa + fb
    # a negative-square generator picks up a factor of i
    v3 = basis_vector(sig, 3)
    assert complexify_embed(v3) == complex_basis_vector(3, 3) * GaussianRational(0, 1)
    # and its image still squares to -e
    img = complexify_embed(v3)
    assert img * img == complex_unit(3) * GaussianRational(-1)
    # a blade with t negative-square generators picks up i^t, t = 0 ... 3
    sig = Signature(1, 3)
    i_pow = (1, GaussianRational(0, 1), -1, GaussianRational(0, -1))
    for blade in range(1 << sig.n):
        t = (blade >> 1).bit_count()
        e_b = Multivector.real(sig, {blade: Fraction(-2, 3)})
        want = Multivector.complex_alg(4, {blade: i_pow[t] * Fraction(-2, 3)})
        assert complexify_embed(e_b) == want


def test_invert():
    sig = Signature(2, 0)
    v = vector(sig, [Fraction(3), Fraction(4)])
    vinv = invert(v)
    assert v * vinv == unit(sig)
    assert vinv * v == unit(sig)
    # 1 + e1 has (1+e1)(1-e1) = 0 when e1^2 = e, so it is singular
    s = unit(sig) + basis_vector(sig, 1)
    assert invert(s) is None
    # isotropic vector in a split signature
    iso = vector(Signature(1, 1), [Fraction(1), Fraction(1)])
    assert invert(iso) is None


# every real signature with n <= 5, then C(0) ... C(5)
INVERT_SPACES = [Signature(p, n - p) for n in range(6) for p in range(n + 1)] + list(range(6))


def _inverse_inputs(space, rng):
    """0, 1, random elements (dense and three-term), 1 + e_b for every blade
    b != 0 and e_b + e_c: zero divisors such as 1 + e_b with e_b^2 = 1 among
    them."""
    if isinstance(space, int):
        n, make = space, lambda terms: Multivector.complex_alg(space, terms)

        def coeff():
            return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
    else:
        n, make = space.n, lambda terms: Multivector.real(space, terms)

        def coeff():
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    size = 1 << n
    out = [make({}), make({0: 1})]
    out += [make({b: coeff() for b in range(size)}) for _ in range(2)]
    out += [make({rng.randrange(size): coeff() for _ in range(3)}) for _ in range(2)]
    for b in range(1, size):
        out += [make({0: 1, b: 1}), make({b: 1, (3 * b + 1) % size: 1})]
    return out


@pytest.mark.parametrize("space", INVERT_SPACES,
                         ids=lambda s: f"C({s})" if isinstance(s, int) else f"Cl{s}")
def test_invert_matches_dense_oracle(space):
    # invert reads the inverse back from the compiled model; the oracle
    # eliminates the 2^n x 2^n left regular matrix
    results = set()
    for a in _inverse_inputs(space, random.Random(str(space))):
        want = dense_inverse(a)
        assert invert(a) == want, a
        results.add(want is None)
    assert results == {True, False}


def test_space_mismatch_errors():
    a = unit(Signature(1, 1))
    b = unit(Signature(2, 0))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(TypeError):
        Multivector.real(Signature(1, 0), {0: GaussianRational(1)})
    with pytest.raises(TypeError):
        a * "x"


def test_json_roundtrip_real_and_complex():
    sig = Signature(2, 1)
    a = Multivector.real(sig, {0: Fraction(1, 2), 0b101: Fraction(-3)})
    assert multivector_from_json(multivector_to_json(a), sig) == a
    b = Multivector.complex_alg(
        2, {0b01: GaussianRational(1, 2), 0b11: GaussianRational(0, Fraction(-1, 3))}
    )
    assert multivector_from_json(multivector_to_json(b), 2) == b
    with pytest.raises(ValueError):
        multivector_from_json({"ring": "rational", "terms": []}, sig)
