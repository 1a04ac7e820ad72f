"""Dense inverse oracle for ``algebra.invert``.

``invert`` reads the inverse back from the compiled matrix model; the tests
compare it with the left regular representation: x = a^-1 solves a x = 1, so
it is column 0 of the inverse of the 2^n x 2^n matrix of x -> a x.
"""

from cliffkit import linalg
from cliffkit.algebra import from_coords, map_matrix


def dense_inverse(a):
    """Inverse of a by elimination on its left regular matrix; None if
    singular."""
    left_inv = linalg.inv(map_matrix(a, lambda x: a * x))
    if left_inv is None:
        return None
    return from_coords(a, [row[0] for row in left_inv])
