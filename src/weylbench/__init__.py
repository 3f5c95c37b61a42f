"""Exact workbench for the group schemes attached to a grading on a
finite-dimensional algebra: automorphisms, stabilizer, diagonal group, and
Weyl groups, evaluated at concrete commutative test rings."""

from .abgroups import (
    FGAbelianGroup,
    Presentation,
    enumerate_characters,
    group_from_presentation,
    smith_normal_form,
    subgroup_generated,
)
from .battery import theorem_battery
from .comrings import (
    GroupAlgebra,
    TestRing,
    base_field_ring,
    build_ring,
    dual_numbers,
    enumerate_units,
    group_algebra_finite,
    product_ring,
    truncated_poly,
)
from .galg import (
    Algebra,
    Grading,
    build_algebra,
    build_grading,
    extend_scalars,
    grading_over,
    product_pattern,
    universal_group,
    verify_grading_generic,
)
from .points import (
    PointMatrix,
    automorphism_membership,
    autgamma_membership,
    block_permutations,
    cent_membership_generic,
    dgroup_norm_membership,
    diag_membership,
    diag_points,
    enumerate_points,
    generic_psi,
    norm_membership_generic,
    point_matrix,
    stab_membership,
    tau_from_character,
)
from .scalars import (
    dth_root,
    extension_field,
    prime_field,
    rationals,
    unit_order,
)
from .weyl import (
    PermGroup,
    admissible_permutations,
    ses_check,
    thin_constraints,
    thin_solve,
    weyl_closure,
    weyl_over_field,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
