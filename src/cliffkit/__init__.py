"""Exact-arithmetic Clifford algebra workbench.

Blade arithmetic over exact scalar rings, compilation of real and complex
Clifford algebras onto classified matrix rings, Pin/Spin groups with
constructive lifting, spinor spaces as minimal left ideals, and finite Cech
Z2 obstruction computations.

Each layer is registered lazily: its code runs on its first attribute
access, so a CLI command runs only the layers it calls.  The first public
name read from the package binds every name below at once.
"""

import importlib.util
import sys

# each layer, registered lazily below -> the public names the package
# re-exports from it (linalg has none)
_API = {
    "algebra": "Multivector Signature basis_vector blade_mul complex_basis_vector complex_unit "
    "complexify_embed eta multivector_from_json multivector_to_json unit vector",
    "cech": "Complex GroupCocycle Z2Cochain check_cocycle pin_lift_cocycle "
    "subgroup_reduction_check z2_betti",
    "groups": "CDResult PseudoOrthogonalMatrix Versor cartan_dieudonne lift_to_pin "
    "total_reflection_versor zeta",
    "linalg": "",
    "reprs": "Intertwiner Representation TargetRing classify compile_complex_rep compile_rep "
    "double_rep even_subring_rep factor_projections invert quaternion_complexify real_irrep_dim "
    "rep_equivalence signature_shift",
    "scalars": "GaussianRational Quaternion",
    "spinors": "HermitianIdempotent SpinorSpace adjoint_automorphism find_conjugator is_minimal "
    "left_ideal make_idempotent primitive_idempotent spin_block_check spinor_matrix_model "
    "stabilizer_membership",
}
__all__ = [name for names in _API.values() for name in names.split()]
__version__ = "0.1.0"

for _layer in _API:
    _spec = importlib.util.find_spec(f"{__name__}.{_layer}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_layer] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for layer, names in _API.items():
        space = vars(globals()[layer])  # runs the layer, linalg included
        globals().update((n, space[n]) for n in names.split())
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
