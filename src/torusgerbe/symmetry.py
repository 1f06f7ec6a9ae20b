"""Translation symmetries of a gerbe.

A translation by w fixes the gerbe class exactly when the contraction
E(w,.,.) lies in Alt^2(Z) + {type (1,1) forms}.  Two distinguished
subgroups admit a linear choice of decomposition data and are the ones all
obstruction computations run over: the integral case (contraction has
integer coefficients) and the type (1,1) case (contraction is J-invariant).
Membership in either is decided in one place, `case_member`, which
`in_case_subgroup`, `case_decomposition` and the translation records read.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .exact import Frozen
from .torus import AltForm2, AltForm3, TorusData, integral_anti_invariant_member
from .torus import pullback_combination
from .gerbe import SHIFT_COEFFICIENTS, GerbeTables, gerbe_tables


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
    rep = gerbe_tables(torus, e3).contraction(w)
    return InvarianceClass(
        representative=rep, is_zero=integral_anti_invariant_member(torus, rep)
    )


def fixes_gerbe(torus: TorusData, e3: AltForm3, w) -> bool:
    """Whether translation by w preserves the isomorphism class.  It reads
    `gerbe_tables(torus, e3)`, so each E asked about lives as long as the torus."""
    return integral_anti_invariant_member(torus, gerbe_tables(torus, e3).contraction(w))


def in_case_subgroup(torus: TorusData, e3: AltForm3, w, case: SubgroupCase) -> bool:
    """Membership of w in the chosen decomposition subgroup: `case_member`
    of w's lift, `GerbeTables.lift`; E is not contracted by w."""
    case = SubgroupCase(case)
    tables = gerbe_tables(torus, e3)
    return case_member(tables, case, *tables.lift(w))


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
    tables = gerbe_tables(torus, e3)
    omega = tables.contraction(w)
    invariant = pullback_combination(torus, omega, *invariant_coefficients(case))
    if check:
        require_case_member(case_member(tables, case, *tables.lift(w)), case)
    if case is SubgroupCase.INTEGRAL:
        return Decomposition(invariant_part=invariant, integral_part=omega)
    zero = AltForm2.zero(torus.dim)
    return Decomposition(invariant_part=invariant, integral_part=zero)


def require_case_member(member: bool, case: SubgroupCase):
    """Raise NotInSubgroup for a vector whose case membership is False."""
    if not member:
        what = "integral" if case is SubgroupCase.INTEGRAL else "of type (1,1)"
        raise NotInSubgroup(f"contraction with the 3-form is not {what}")


def case_member(tables: GerbeTables, case: SubgroupCase, dw: int, x) -> bool:
    """Whether w = x/dw, for integers x over the positive integer dw, is in
    the case subgroup of the torus and E of tables, by one packed product:
    in the integral case x^T times E's `contraction_table`, the coordinates
    of E(w,.,.) over de*dw, must all be divisible by de*dw; in the type
    (1,1) case x^T times `GerbeTables.anti_rows`, those of dj**2*(omega -
    J^T*omega*J) for omega = E(w,.,.) times de*dw, must be zero."""
    if case is SubgroupCase.INTEGRAL:
        de, rows = tables.e.contraction_table
        return not any([y % (de * dw) for y in rows.times(x)])
    return not any(tables.anti_rows.times(x))


def invariant_coefficients(case: SubgroupCase) -> tuple[Fraction, Fraction]:
    """(c0, c1) with invariant part c0*omega + c1*J^T*omega*J of the case
    decomposition of omega = E(w,.,.): -3/8*(omega + J^T*omega*J) in the
    integral case, the full translation shift in the type (1,1) case."""
    if case is SubgroupCase.INTEGRAL:
        return Fraction(-3, 8), Fraction(-3, 8)
    return SHIFT_COEFFICIENTS
