"""Seeded random generators for vectors, versors and matrices.

Everything takes an explicit ``random.Random`` so runs are reproducible from
a single seed.  Coefficients are kept small to keep exact arithmetic fast.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Multivector, Signature, vector
from .groups import PseudoOrthogonalMatrix, Versor, _bform, reflection_product
from .scalars import GaussianRational


def rng_from_seed(seed) -> random.Random:
    return random.Random(seed)


def _anisotropic_coords(sig: Signature, rng):
    """Integer coordinates in [-3, 3] of a vector with Q(v) != 0, drawn
    until one is found (the zero vector is isotropic, so never returned)."""
    while True:
        coords = [rng.randint(-3, 3) for _ in range(sig.n)]
        if _bform(sig, coords, coords) != 0:
            return coords


def random_anisotropic_vector(sig: Signature, rng) -> Multivector:
    return vector(sig, _anisotropic_coords(sig, rng))


def random_versor(sig: Signature, rng, num_factors=2) -> Versor:
    return Versor(
        sig, [random_anisotropic_vector(sig, rng) for _ in range(num_factors)]
    )


def random_pseudo_orthogonal(sig: Signature, rng) -> PseudoOrthogonalMatrix:
    """The product of 1 to max(1, n) reflections, the count drawn first."""
    ws = [_anisotropic_coords(sig, rng) for _ in range(rng.randint(1, max(1, sig.n)))]
    return reflection_product(sig, ws)


def rational_unit_vector(n, rng):
    """A rational point on the unit sphere S^(n-1), by stereographic
    projection of a point with integer coordinates in [-4, 4]."""
    while True:
        t = [Fraction(rng.randint(-4, 4)) for _ in range(n - 1)]
        norm2 = sum(x * x for x in t)
        denom = norm2 + 1
        coords = [2 * x / denom for x in t] + [(norm2 - 1) / denom]
        if any(coords):
            return coords


def random_unitary_versor(n, rng) -> Multivector:
    """Product of two real unit vectors in the complex algebra: g* = g^-1."""
    g = Multivector.complex_alg(n, {0: GaussianRational(1)})
    for _ in range(2):
        coords = rational_unit_vector(n, rng)
        v = Multivector.complex_alg(
            n,
            {1 << k: GaussianRational(c) for k, c in enumerate(coords) if c},
        )
        g = g * v
    return g
