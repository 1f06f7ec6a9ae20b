"""Obstructions to lifting a group of symmetry translations to the gerbe.

Composing the chosen trivializations of two translations differs from the
trivialization of their sum by a constant character of the lattice; that
defect is the extension cocycle of the theta group.  Its alternating
reduction is the first obstruction to equivariance, with a closed form per
decomposition case.  When the first obstruction vanishes, the coboundary of
the correction used to unitarize the defect produces a degree-3 class, the
second obstruction, computed here three ways: by brute-force alternation,
by the bilinear closed expression in the decomposition data, and by the
per-case closed form.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import (
    GaussianRational,
    UnitValue,
    Vec,
    basis_vec,
    dot,
    mat_vec,
    to_vec,
    unit_reduce,
    vec_add,
    vec_mat,
)
from .gerbe import Character, ExponentFn, GerbeData, VectorForms, exponent_im
from .symmetry import (
    NotInSubgroup,
    SubgroupCase,
    contraction_decomposition,
    contraction_member,
)
from .torus import AltForm2, contract3
from .trivialization import TranslationContext, trivializing_exponent


class InternalMismatch(RuntimeError):
    """Two computations that must agree exactly did not; an implementation bug."""


class ClosedFormMismatch(RuntimeError):
    """A closed form disagreed with its defining skew-symmetrization."""


class FirstObstructionNonzero(ValueError):
    """The requested class is only defined once the first obstruction vanishes."""


@dataclass(frozen=True)
class VectorData:
    """What the obstruction formulas read about one vector w: its exponent
    forms, its case membership and its (1,1) decomposition piece F_w (given
    by the case formulas whether or not w is a member)."""

    forms: VectorForms
    member: bool
    invariant: AltForm2


@dataclass(frozen=True)
class ObstructionContext:
    """A gerbe together with the decomposition case all formulas use.

    The per-vector data is computed once per distinct vector and kept for
    the life of the context; it takes no part in equality or hashing.
    """

    gerbe: GerbeData
    case: SubgroupCase
    _vectors: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def vector(self, w) -> VectorData:
        """The data of w, computed on first use."""
        w = to_vec(w)
        data = self._vectors.get(w)
        if data is None:
            t, e3 = self.gerbe.torus, self.gerbe.e
            omega = contract3(e3, w)
            data = VectorData(
                forms=VectorForms.of_contraction(t, e3, w, omega),
                member=contraction_member(t, omega, self.case),
                invariant=contraction_decomposition(
                    t, omega, self.case, check=False
                ).invariant_part,
            )
            self._vectors[w] = data
        return data

    def member(self, w) -> bool:
        return self.vector(w).member

    def require_member(self, w, what: str = "vector") -> VectorData:
        data = self.vector(w)
        if not data.member:
            raise NotInSubgroup(f"{what} is not in the chosen subgroup")
        return data

    def invariant_part(self, w) -> AltForm2:
        return self.vector(w).invariant

    def translation(self, w, check: bool = True) -> TranslationContext:
        return TranslationContext.create(self.gerbe, w, self.case, check=check)


def lift_defect_exponent(ctx: ObstructionContext, w1, w2, lam) -> GaussianRational:
    """Exponent of the defect character of composing the trivializations of
    w1 and w2 against the one of w1 + w2, evaluated at a lattice vector:

        i/2*F2(iw1,lam) - 1/2*F2(w1,lam) - i*l(w2,w1,lam) - l(w2,iw1,lam)

    where F2 is the (1,1) decomposition piece for w2.
    """
    t = ctx.gerbe.torus
    w1, w2, lam = to_vec(w1), to_vec(w2), to_vec(lam)
    ctx.require_member(w1, "w1")
    ctx.require_member(w2, "w2")
    f2 = ctx.invariant_part(w2)
    iw1 = t.mul_i(w1)
    re = -f2.evaluate(w1, lam) / 2 - exponent_im(t, ctx.gerbe.e, w2, iw1, lam)
    im = f2.evaluate(iw1, lam) / 2 - exponent_im(t, ctx.gerbe.e, w2, w1, lam)
    return GaussianRational(re, im)


def lift_defect_character(ctx: ObstructionContext, w1, w2) -> Character:
    """The defect character, computed both from the trivializer composition
    and from the closed exponent, and asserted identical."""
    w1, w2 = to_vec(w1), to_vec(w2)
    ctx.require_member(w1, "w1")
    ctx.require_member(w2, "w2")
    t = ctx.gerbe.torus
    t1 = ctx.translation(w1)
    t2 = ctx.translation(w2)
    t12 = ctx.translation(vec_add(w1, w2))
    composed = []
    for k in range(t.dim):
        lam = basis_vec(t.dim, k)
        fn = (
            trivializing_exponent(t2, lam).shift(w1)
            - trivializing_exponent(t12, lam)
            + trivializing_exponent(t1, lam)
        )
        if not fn.linear_part_is_zero:
            raise InternalMismatch("composition defect depends on the base point")
        composed.append(fn.const)
    char = Character(tuple(composed))
    if char != defect_character(ctx, w1, w2):
        raise InternalMismatch(
            "trivializer composition disagrees with the closed defect exponent"
        )
    return char


def defect_character(ctx: ObstructionContext, w1, w2) -> Character:
    """The defect character of (w1, w2) from the closed exponent, on the
    lattice basis."""
    dim = ctx.gerbe.torus.dim
    return Character(
        tuple(
            lift_defect_exponent(ctx, w1, w2, basis_vec(dim, k)) for k in range(dim)
        )
    )


def _correction_covector(ctx: ObstructionContext, w1, w2) -> Vec:
    """The covector r = w1^T*L_w2 - (J*w1)^T*F2/2, where L_w2 is the form of
    l(w2,.,.); the correction exponent of (w1, w2) is i*r.v + r.(Jv)."""
    d1 = ctx.require_member(w1, "w1")
    d2 = ctx.require_member(w2, "w2")
    a = vec_mat(d1.forms.w, d2.forms.l)
    b = vec_mat(d1.forms.iw, d2.invariant.entries)
    return tuple(x - y / 2 for x, y in zip(a, b))


def defect_correction_fn(ctx: ObstructionContext, w1, w2) -> ExponentFn:
    """Exponent, linear in v, of the correction whose lattice coboundary
    unitarizes the defect character:

        i*l(w2,w1,v) + l(w2,w1,iv) - i/2*F2(iw1,v) - 1/2*F2(iw1,iv)
    """
    r = _correction_covector(ctx, w1, w2)
    return ExponentFn(GaussianRational.real(0), mat_vec(ctx.gerbe.torus.jt, r), r)


def defect_correction_value(ctx: ObstructionContext, w1, w2, v) -> GaussianRational:
    """The correction exponent evaluated at v."""
    return defect_correction_fn(ctx, w1, w2).evaluate(to_vec(v))


def first_obstruction_character(ctx: ObstructionContext, w1, w2) -> Character:
    """Unitary representative of the defect class:

        lam -> exp((E(iw2,iw1,lam) - E(iw2,w1,i*lam))/8 - F2(w1,lam))

    Equals the defect character times the lattice coboundary of the
    correction factor, exactly.
    """
    d1 = ctx.require_member(w1, "w1")
    d2 = ctx.require_member(w2, "w2")
    w1 = d1.forms.w
    omega_i2 = d2.forms.omega_i.entries  # E(iw2,.,.)
    a = vec_mat(d1.forms.iw, omega_i2)  # E(iw2, iw1, e_k)
    b = mat_vec(ctx.gerbe.torus.jt, vec_mat(w1, omega_i2))  # E(iw2, w1, i*e_k)
    f = vec_mat(w1, d2.invariant.entries)  # F2(w1, e_k)
    return Character(
        tuple(GaussianRational.real((x - y) / 8 - z) for x, y, z in zip(a, b, f))
    )


def _closed_form_first(ctx: ObstructionContext, w1: Vec, w2: Vec) -> Character:
    """exp(E(w2,w1,lam)) in the integral case, exp(E(w1,w2,lam)) in the
    type (1,1) case, read off the contraction E(w,.,.) alone."""
    if ctx.case is SubgroupCase.INTEGRAL:
        x, w = w1, w2
    else:
        x, w = w2, w1
    row = vec_mat(x, ctx.vector(w).forms.omega.entries)
    return Character(tuple(GaussianRational.real(v) for v in row))


def first_obstruction_alternating(ctx: ObstructionContext, w1, w2) -> Character:
    """Skew-symmetrization of the unitary representative in (w1, w2).

    Cross-checked against the per-case closed form: exp(E(w2,w1,lam)) in the
    integral case, exp(E(w1,w2,lam)) in the type (1,1) case.
    """
    w1, w2 = to_vec(w1), to_vec(w2)
    skew = first_obstruction_character(ctx, w1, w2) * first_obstruction_character(
        ctx, w2, w1
    ).inverse()
    closed = _closed_form_first(ctx, w1, w2)
    if not skew.equivalent(closed):
        raise ClosedFormMismatch(
            "first obstruction: skew-symmetrization disagrees with the closed form"
        )
    return skew


def second_obstruction_cocycle(ctx: ObstructionContext, w1, w2, w3) -> GaussianRational:
    """Exponent of the degree-3 cocycle: the correction for (w2, w3)
    evaluated at w1."""
    w1 = to_vec(w1)
    ctx.require_member(w1, "w1")
    return defect_correction_fn(ctx, w2, w3).evaluate(w1)


@dataclass(frozen=True)
class SecondObstructionValues:
    """The three computed values of the second obstruction on a triple.

    skew: brute-force alternation of the degree-3 cocycle over all six
    permutations (the oracle).  general_factor: the bilinear closed
    expression 3*(F3(w1,w2) + F1(w2,w3) - F2(w1,w3)) in the decomposition
    data.  closed_form: the per-case closed form, exp(-9*E(w1,w2,w3)) in the
    integral case and exp(36*E(w1,w2,w3)) in the type (1,1) case; this one
    is the authority for vanishing decisions.  The three are recorded side
    by side because they are genuinely different scalar multiples of
    E(w1,w2,w3); agreement flags state equality of the reduced values.
    """

    skew: UnitValue
    general_factor: UnitValue
    closed_form: UnitValue
    skew_exponent: GaussianRational
    skew_is_real: bool
    agree_skew_general: bool
    agree_skew_closed: bool
    agree_general_closed: bool

    @property
    def all_nontrivial(self) -> bool:
        return not (
            self.skew.is_trivial
            or self.general_factor.is_trivial
            or self.closed_form.is_trivial
        )


def second_obstruction_alternating(
    ctx: ObstructionContext, w1, w2, w3
) -> SecondObstructionValues:
    """The second obstruction on a triple, computed three ways.

    The skew alternates the degree-3 cocycle over the six permutations,
    each term being the correction covector of (b, c) evaluated at a; the
    bilinear expression reads the (1,1) pieces F_w; the closed form reads E
    alone.  Disagreements are reported in the returned flags, not raised.
    """
    d1 = ctx.require_member(w1, "w1")
    d2 = ctx.require_member(w2, "w2")
    d3 = ctx.require_member(w3, "w3")
    w1, w2, w3 = d1.forms.w, d2.forms.w, d3.forms.w

    skew_exp = GaussianRational.real(0)
    for a, b, c, sign in (
        (d1, w2, w3, 1),
        (d1, w3, w2, -1),
        (d2, w3, w1, 1),
        (d2, w1, w3, -1),
        (d3, w1, w2, 1),
        (d3, w2, w1, -1),
    ):
        r = _correction_covector(ctx, b, c)
        term = GaussianRational(dot(r, a.forms.iw), dot(r, a.forms.w))
        skew_exp = skew_exp + (term if sign > 0 else -term)

    f1, f2, f3 = d1.invariant, d2.invariant, d3.invariant
    general_exp = 3 * (
        f3.evaluate(w1, w2) + f1.evaluate(w2, w3) - f2.evaluate(w1, w3)
    )

    e_val = ctx.gerbe.e.evaluate(w1, w2, w3)
    coef = Fraction(-9) if ctx.case is SubgroupCase.INTEGRAL else Fraction(36)
    closed_exp = coef * e_val

    skew = unit_reduce(skew_exp)
    general = unit_reduce(general_exp)
    closed = unit_reduce(closed_exp)
    return SecondObstructionValues(
        skew=skew,
        general_factor=general,
        closed_form=closed,
        skew_exponent=skew_exp,
        skew_is_real=skew_exp.is_real,
        agree_skew_general=skew.exponent == general.exponent,
        agree_skew_closed=skew.exponent == closed.exponent,
        agree_general_closed=general.exponent == closed.exponent,
    )


@dataclass(frozen=True)
class ThetaGroupElement:
    """Element (character, translation vector) of the lifted theta group."""

    character: Character
    w: Vec


def theta_group_multiply(
    a: ThetaGroupElement, b: ThetaGroupElement, ctx: ObstructionContext
) -> ThetaGroupElement:
    """(a1, w1) * (a2, w2) = (a1 * a2 * defect(w1, w2), w1 + w2)."""
    w = vec_add(to_vec(a.w), to_vec(b.w))
    ctx.require_member(w, "product vector")
    defect = defect_character(ctx, a.w, b.w)
    return ThetaGroupElement(character=a.character * b.character * defect, w=w)


@dataclass(frozen=True)
class SubgroupSpec:
    """Finitely many subgroup generators together with the ambient case.

    Vanishing decisions also draw on the standard lattice basis: the group
    under study always sits over the lattice, whose vectors are included
    whenever they satisfy the case membership (always, in the integral
    case).
    """

    generators: tuple[Vec, ...]
    case: SubgroupCase

    @staticmethod
    def create(generators, case: SubgroupCase) -> "SubgroupSpec":
        return SubgroupSpec(tuple(to_vec(g) for g in generators), case)


class ObstructionKind(enum.Enum):
    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class VanishingResult:
    """Decision plus certificate for an obstruction on a generated subgroup."""

    vanishes: bool
    certificate: tuple[Vec, ...] | None
    tuples_checked: int
    cross_check_disagreements: tuple[tuple[Vec, Vec, Vec], ...] = ()

    def __bool__(self) -> bool:
        return self.vanishes


def _candidate_vectors(ctx: ObstructionContext, spec: SubgroupSpec) -> list[Vec]:
    seen = []
    for g in spec.generators:
        ctx.require_member(g, "generator")
        if g not in seen:
            seen.append(g)
    dim = ctx.gerbe.torus.dim
    for k in range(dim):
        ek = basis_vec(dim, k)
        if ek not in seen and ctx.member(ek):
            seen.append(ek)
    return seen


def obstruction_vanishes(
    gerbe: GerbeData, spec: SubgroupSpec, which: ObstructionKind
) -> VanishingResult:
    """Decide vanishing of the chosen obstruction on the generated subgroup.

    The alternating classes are multilinear, so generator tuples decide the
    question.  The certificate is the first failing tuple in lexicographic
    order of the candidate list (user generators first, then admissible
    lattice basis vectors).  For the second obstruction the per-case closed
    form is the authority; triples where the brute-force alternation
    disagrees with it are surfaced, never silently resolved.
    """
    ctx = ObstructionContext(gerbe=gerbe, case=spec.case)
    vectors = _candidate_vectors(ctx, spec)
    t = gerbe.torus
    checked = 0

    if which is ObstructionKind.FIRST:
        for w1, w2 in itertools.combinations(vectors, 2):
            checked += 1
            char = first_obstruction_alternating(ctx, w1, w2)
            if not char.is_trivial:
                for k, e in enumerate(char.exponents):
                    if e.im != 0 or e.re.denominator != 1:
                        lam = basis_vec(t.dim, k)
                        return VanishingResult(False, (w1, w2, lam), checked)
        return VanishingResult(True, None, checked)

    disagreements = []
    failure = None
    for w1, w2, w3 in itertools.combinations(vectors, 3):
        checked += 1
        values = second_obstruction_alternating(ctx, w1, w2, w3)
        if not values.agree_skew_closed:
            disagreements.append((w1, w2, w3))
        if failure is None and not values.closed_form.is_trivial:
            failure = (w1, w2, w3)
    return VanishingResult(
        failure is None, failure, checked, tuple(disagreements)
    )


def gerbal_class(ctx: ObstructionContext, w1, w2, w3) -> UnitValue:
    """Closed-form class of the induced action on sheaves for a triple:
    exp(-3/2*E(w1,w2,w3)) in the integral case, exp(6*E(w1,w2,w3)) in the
    type (1,1) case.  Defined only when the first obstruction vanishes on
    the three pairs."""
    w1, w2, w3 = to_vec(w1), to_vec(w2), to_vec(w3)
    for w, name in ((w1, "w1"), (w2, "w2"), (w3, "w3")):
        ctx.require_member(w, name)
    for a, b in ((w1, w2), (w1, w3), (w2, w3)):
        if not first_obstruction_alternating(ctx, a, b).is_trivial:
            raise FirstObstructionNonzero(
                "first obstruction does not vanish on the given vectors"
            )
    coef = Fraction(-3, 2) if ctx.case is SubgroupCase.INTEGRAL else Fraction(6)
    return unit_reduce(coef * ctx.gerbe.e.evaluate(w1, w2, w3))
