"""Exact arithmetic, matroid data, and finite-poset topology over the
tropical phase hyperfield.

The names below are loaded from their modules on first use (PEP 562), so
``import tphi`` loads no submodule and the command line pays only for the
modules its subcommand runs.
"""

from importlib import import_module

_HOME = {
    "hyperfield": "TPhi ArcSet ZERO ONE unit boxplus_pair boxplus_fold contains_zero",
    "phased": "GPFunction gp_verify_all perp_membership transversal",
    "poset": "FinitePoset MirroredPoset build_poset mirror_check geometric_discrete_check",
    "simplicial": "SimplicialComplex order_complex join barycentric_subdivision collapse_certify",
    "homology": "homology_groups rational_betti smith_normal_form format_homology",
    "models": "build_tphi_power build_perp_poset enum_grassmannian",
    "mccord": "basis_certificates cw_type_report finite_space_homology",
}
_MODULE_OF = {name: mod for mod, names in _HOME.items() for name in names.split()}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{mod}", __name__), name)
