"""Exact computation of translation symmetries of holomorphic gerbes on
complex tori, their trivializations, and the two obstructions to
equivariance."""

from .exact import (
    GaussianRational,
    Rational,
    UnitValue,
    hermite_normal_form,
    lattice_membership,
    unit_reduce,
)
from .torus import (
    AltForm2,
    AltForm3,
    HodgeImage,
    NotAComplexStructure,
    TorusData,
    anti_invariant_part,
    check_complex_structure,
    contract3,
    hodge_projection,
    j_pullback2,
    skew_symmetrize,
    type_condition_check,
)
from .gerbe import (
    Character,
    ExponentFn,
    GerbeData,
    TypeConditionFailed,
    cocycle_exponent,
    exponent_im,
    exponent_re,
    gerbes_isomorphic,
    pair_exponent,
    translate_gerbe,
    translation_factor,
)
from .symmetry import (
    Decomposition,
    InvarianceClass,
    NotInSubgroup,
    SubgroupCase,
    case_decomposition,
    fixes_gerbe,
    in_case_subgroup,
    invariance_class,
)
from .trivialization import (
    TranslationContext,
    integral_part_exponent,
    invariant_part_exponent,
    residual_is_trivial,
    symmetric_part_exponent,
    trivialization_residual,
    trivializing_exponent,
    unitarize_exponent,
    verify_trivialization,
)
from .obstruction import (
    ClosedFormMismatch,
    FirstObstructionNonzero,
    InternalMismatch,
    ObstructionContext,
    ObstructionKind,
    SecondObstructionValues,
    SubgroupSpec,
    ThetaGroupElement,
    VanishingResult,
    defect_character,
    defect_correction_value,
    first_obstruction_alternating,
    first_obstruction_character,
    gerbal_class,
    lift_defect_character,
    lift_defect_exponent,
    obstruction_vanishes,
    second_obstruction_alternating,
    second_obstruction_cocycle,
    theta_group_multiply,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
