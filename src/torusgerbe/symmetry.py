"""Translation symmetries of a gerbe.

A translation by w fixes the gerbe class exactly when the contraction
E(w,.,.) lies in Alt^2(Z) + {type (1,1) forms}.  Two distinguished
subgroups admit a linear choice of decomposition data and are the ones all
obstruction computations run over: the integral case (contraction has
integer coefficients) and the type (1,1) case (contraction is J-invariant).
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .exact import Frozen
from .torus import (
    AltForm2,
    AltForm3,
    TorusData,
    contract3,
    integral_anti_invariant_member,
    pullback_combination,
    pullback_over,
)
from .gerbe import SHIFT_COEFFICIENTS


class NotInSubgroup(ValueError):
    """Raised when a vector fails the membership required by the chosen case."""


class SubgroupCase(enum.Enum):
    """`in_case_subgroup`, `case_decomposition`, the contexts and
    `SubgroupSpec` take a member or its value (else ValueError)."""

    INTEGRAL = "integral"
    TYPE_ONE_ONE = "oneone"


class InvarianceClass(Frozen):
    """Contraction representative and whether its class vanishes."""

    _fields = ("representative", "is_zero")


class Decomposition(Frozen):
    """Splitting of the translation shift into (1,1) and integral pieces.

    invariant_part + integral_part always equals the translation shift form;
    when the case membership holds the invariant part is of type (1,1) and
    the integral part has integer coefficients.
    """

    _fields = ("invariant_part", "integral_part")


def invariance_class(torus: TorusData, e3: AltForm3, w) -> InvarianceClass:
    """Class of the translation action of w on the gerbe presentation."""
    rep = contract3(e3, w)
    return InvarianceClass(
        representative=rep, is_zero=integral_anti_invariant_member(torus, rep)
    )


def fixes_gerbe(torus: TorusData, e3: AltForm3, w) -> bool:
    """Whether translation by w preserves the isomorphism class."""
    return integral_anti_invariant_member(torus, contract3(e3, w))


def in_case_subgroup(torus: TorusData, e3: AltForm3, w, case: SubgroupCase) -> bool:
    """Membership of w in the chosen decomposition subgroup."""
    case = SubgroupCase(case)
    omega = contract3(e3, w)
    if omega.dim != torus.dim:
        raise ValueError("form/torus dimension mismatch")
    return member_over(torus, omega.upper, omega.den, case)


def case_decomposition(
    torus: TorusData, e3: AltForm3, w, case: SubgroupCase, check: bool = True
) -> Decomposition:
    """Linear-in-w decomposition data for the chosen case.

    Integral case: invariant part -3/8*(E(w,.,.) + E(w,i.,i.)), integral
    part E(w,.,.).  Type (1,1) case: invariant part is the full translation
    shift (which equals E(w,.,.)/4 on the subgroup), integral part zero.
    With check=False the same formulas are applied to any w; the resulting
    data then fails its defining property exactly when w is outside the
    subgroup, which is what the trivialization verifier witnesses.
    """
    case = SubgroupCase(case)
    omega = contract3(e3, w)
    invariant = pullback_combination(torus, omega, *invariant_coefficients(case))
    if check:
        require_case_member(member_over(torus, omega.upper, omega.den, case), case)
    if case is SubgroupCase.INTEGRAL:
        return Decomposition(invariant_part=invariant, integral_part=omega)
    zero = AltForm2.zero(torus.dim)
    return Decomposition(invariant_part=invariant, integral_part=zero)


def require_case_member(member: bool, case: SubgroupCase):
    """Raise NotInSubgroup for a vector whose case membership is False."""
    if not member:
        what = "integral" if case is SubgroupCase.INTEGRAL else "of type (1,1)"
        raise NotInSubgroup(f"contraction with the 3-form is not {what}")


def member_over(torus: TorusData, nums, den: int, case: SubgroupCase) -> bool:
    """`in_case_subgroup` for the vector w whose contraction E(w,.,.) has the
    coordinates nums / den on the pairs a < b, in lexicographic order, for
    integers nums over the positive integer den."""
    if case is SubgroupCase.INTEGRAL:
        return not any(x % den for x in nums)
    return not any(pullback_over(torus, nums, den, 1, -1)[0])


def invariant_coefficients(case: SubgroupCase) -> tuple[Fraction, Fraction]:
    """(c0, c1) with invariant part c0*omega + c1*J^T*omega*J of the case
    decomposition of omega = E(w,.,.): -3/8*(omega + J^T*omega*J) in the
    integral case, the full translation shift in the type (1,1) case."""
    if case is SubgroupCase.INTEGRAL:
        return Fraction(-3, 8), Fraction(-3, 8)
    return SHIFT_COEFFICIENTS
