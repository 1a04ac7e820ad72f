"""Dense oracles on the 2^n x 2^n blade basis.

``map_matrix`` builds the matrix of a linear map on the algebra one image
at a time, in field arithmetic, from the dense columns ``coords_vector``.
The tests compare the sparse integer rows of
``algebra.multiplication_rows`` and the spinor-side eliminations with it, ``from_coords`` reads a dense coordinate vector back into a
multivector, and ``dense_inverse`` checks
``intertwine.invert`` against the left regular representation: x = a^-1 solves
a x = 1, so it is column 0 of the inverse of the matrix of x -> a x.
"""

from fractions import Fraction

from cliffkit.algebra import Multivector
from cliffkit.scalars import ZERO, GaussianRational
import bareiss_oracle


def coords_vector(a):
    """Dense coordinate column of a on the blade basis."""
    return tuple(a.terms.get(b, ZERO[a.ring]) for b in range(1 << a.n))


def from_coords(model, coords):
    """Multivector in the same space as ``model`` from dense coordinates."""
    terms = {b: c for b, c in enumerate(coords) if c}
    if model.is_complex:
        return Multivector.complex_alg(model.n, terms)
    return Multivector.real(model.sig, terms)


def map_matrix(model, f):
    """Matrix of a linear map f on the algebra of ``model``, on the blade
    basis: column b holds the coordinates of f(e_b)."""
    if model.is_complex:
        blades = [Multivector.complex_alg(model.n, {b: GaussianRational(1)})
                  for b in range(1 << model.n)]
    else:
        blades = [Multivector.real(model.sig, {b: Fraction(1)}) for b in range(1 << model.n)]
    return tuple(zip(*(coords_vector(f(e)) for e in blades)))


def dense_inverse(a):
    """Inverse of a by elimination on its left regular matrix; None if
    singular."""
    left_inv = bareiss_oracle.inv(map_matrix(a, lambda x: a * x))
    if left_inv is None:
        return None
    return from_coords(a, [row[0] for row in left_inv])
