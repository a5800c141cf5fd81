"""Exact arithmetic, matroid data, and finite-poset topology over the
tropical phase hyperfield."""

from .hyperfield import TPhi, ArcSet, ZERO, ONE, unit, boxplus_pair, boxplus_fold, contains_zero
from .phased import GPFunction, gp_verify_all, perp_membership, transversal
from .poset import FinitePoset, MirroredPoset, build_poset, mirror_check, geometric_discrete_check
from .simplicial import SimplicialComplex, order_complex, join, barycentric_subdivision, collapse_certify
from .homology import homology_groups, rational_betti, smith_normal_form, format_homology
from .models import build_tphi_power, build_perp_poset, enum_grassmannian
from .mccord import basis_certificates, cw_type_report, finite_space_homology
