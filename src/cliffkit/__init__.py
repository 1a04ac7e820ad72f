"""Exact-arithmetic Clifford algebra workbench.

Blade arithmetic over exact scalar rings, compilation of real and complex
Clifford algebras onto classified matrix rings, Pin/Spin groups with
constructive lifting, spinor spaces as minimal left ideals, and finite Cech
Z2 obstruction computations.
"""

from .algebra import (
    Multivector,
    Signature,
    basis_vector,
    blade_mul,
    complex_basis_vector,
    complex_unit,
    complexify_embed,
    eta,
    invert,
    multivector_from_json,
    multivector_to_json,
    unit,
    vector,
)
from .cech import (
    Complex,
    GroupCocycle,
    Z2Cochain,
    check_cocycle,
    pin_lift_cocycle,
    subgroup_reduction_check,
    z2_betti,
)
from .groups import (
    CDResult,
    PseudoOrthogonalMatrix,
    Versor,
    adjoint_automorphism,
    cartan_dieudonne,
    lift_to_pin,
    spin_block_check,
    total_reflection_versor,
    zeta,
)
from .reprs import (
    Intertwiner,
    Representation,
    TargetRing,
    classify,
    compile_complex_rep,
    compile_rep,
    double_rep,
    even_subring_rep,
    factor_projections,
    quaternion_complexify,
    real_irrep_dim,
    rep_equivalence,
    signature_shift,
)
from .scalars import GaussianRational, Quaternion
from .spinors import (
    HermitianIdempotent,
    SpinorSpace,
    find_conjugator,
    is_minimal,
    left_ideal,
    make_idempotent,
    primitive_idempotent,
    spinor_matrix_model,
    stabilizer_membership,
)

__version__ = "0.1.0"
