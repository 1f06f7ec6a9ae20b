"""Obstructions to lifting a group of symmetry translations to the gerbe.

Composing the chosen trivializations of two translations differs from the
trivialization of their sum by a constant character of the lattice; that
defect is the extension cocycle of the theta group.  Its alternating
reduction is the first obstruction to equivariance, with a closed form per
decomposition case.  When the first obstruction vanishes, the coboundary of
the correction used to unitarize the defect produces a degree-3 class, the
second obstruction, computed here three ways: by brute-force alternation,
by the bilinear closed expression in the decomposition data, and by the
per-case closed form.  All three are read off tables built once per query
over its candidate vectors: the correction covector of each ordered pair
at every candidate, and E contracted at most once per candidate.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction

from .exact import Frozen, GaussianRational, UnitValue, basis_vec, to_vec, vec_add
from .exact import InternalMismatch, int_vec_mat, sized_vector, unit_reduce
from .gerbe import Character, ExponentFn, GerbeData, exponent_im
from .symmetry import NotInSubgroup, SubgroupCase
from .trivialization import TranslationContext, _lifted_record, trivializing_exponent


class ClosedFormMismatch(RuntimeError):
    """A closed form disagreed with its defining skew-symmetrization."""


class FirstObstructionNonzero(ValueError):
    """The requested class is only defined once the first obstruction vanishes."""


class ObstructionContext(Frozen):
    """A gerbe together with the decomposition case all formulas use.

    The record of each distinct vector (a `TranslationContext`) is built
    once and kept for the life of the context in `_vectors`, keyed by the
    numerators and then the denominators of w, so a lookup lifts nothing and
    a miss lifts w once; the cache takes no part in equality, hashing or
    repr.
    """

    _fields = ("gerbe", "case")

    def __init__(self, gerbe, case):
        # built once per obstruction query: a member skips the enum lookup
        if type(case) is not SubgroupCase:
            case = SubgroupCase(case)
        vars(self).update(gerbe=gerbe, case=case, _vectors={})

    def vector(self, w) -> TranslationContext:
        """The record of w, built on first use without the membership check."""
        w = to_vec(w)
        key = (*[v.numerator for v in w], *[v.denominator for v in w])
        data = self._vectors.get(key)
        if data is None:
            g = self.gerbe
            data = self._vectors[key] = _lifted_record(g, w, self.case, g.torus.lift(w))
        return data

    def require_member(self, w, what: str = "vector") -> TranslationContext:
        data = self.vector(w)
        if not data.member:
            raise NotInSubgroup(f"{what} is not in the chosen subgroup")
        return data


def lift_defect_character(ctx: ObstructionContext, w1, w2) -> Character:
    """The defect character, computed both from the trivializer composition
    and from the closed exponent, and asserted identical."""
    w1, w2 = to_vec(w1), to_vec(w2)
    t1 = ctx.require_member(w1, "w1")
    t2 = ctx.require_member(w2, "w2")
    t = ctx.gerbe.torus
    t12 = ctx.vector(vec_add(w1, w2))
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
    """The defect character of composing the trivializations of w1 and w2
    against the one of w1 + w2, from the closed exponent at lam

        i/2*F2(iw1,lam) - 1/2*F2(w1,lam) - i*l(w2,w1,lam) - l(w2,iw1,lam)

    where F2 is the (1,1) decomposition piece for w2, read on the whole
    lattice basis at once: F2(v, e_k) is -(F2 applied to v)_k.
    """
    t, e3 = ctx.gerbe.torus, ctx.gerbe.e
    w1, w2 = to_vec(w1), to_vec(w2)
    ctx.require_member(w1, "w1")
    f2 = ctx.require_member(w2, "w2").invariant
    iw1 = t.mul_i(w1)
    exps = []
    for a, b, ek in zip(f2.apply(w1), f2.apply(iw1), t.basis()):
        re = a / 2 - exponent_im(t, e3, w2, iw1, ek)
        exps.append(GaussianRational(re, -b / 2 - exponent_im(t, e3, w2, w1, ek)))
    return Character(tuple(exps))


def lift_defect_exponent(ctx: ObstructionContext, w1, w2, lam) -> GaussianRational:
    """The exponent of `defect_character` of (w1, w2) at the lattice vector
    lam."""
    return defect_character(ctx, w1, w2).exponent_at(lam)


def defect_correction_fn(ctx: ObstructionContext, w1, w2) -> ExponentFn:
    """Exponent, linear in v, of the correction whose lattice coboundary
    unitarizes the defect character:

        i*l(w2,w1,v) + l(w2,w1,iv) - i/2*F2(iw1,v) - 1/2*F2(iw1,iv)

    that is i*r.v + r.(Jv) for the covector r = w1^T*R_w2.
    """
    d1 = ctx.require_member(w1, "w1")
    d2 = ctx.require_member(w2, "w2")
    t, den, r = ctx.gerbe.torus, d1.dw * d2.den, int_vec_mat(d1.x, d2.r)
    lin_re = [Fraction(y, t.j_columns[0] * den) for y in t.times_j([r])[0]]
    lin_im = [Fraction(y, den) for y in r]
    return ExponentFn(GaussianRational.real(0), tuple(lin_re), tuple(lin_im))


def defect_correction_value(ctx: ObstructionContext, w1, w2, v) -> GaussianRational:
    """The correction exponent evaluated at v."""
    return defect_correction_fn(ctx, w1, w2).evaluate(v)


def _character(nums, den: int) -> Character:
    return Character(tuple([GaussianRational.real(Fraction(y, den)) for y in nums]))


def first_obstruction_character(ctx: ObstructionContext, w1, w2) -> Character:
    """Unitary representative of the defect class:

        lam -> exp((E(iw2,iw1,lam) - E(iw2,w1,i*lam))/8 - F2(w1,lam))

    that is lam -> exp(w1^T*M_w2*lam).  Equals the defect character times
    the lattice coboundary of the correction factor, exactly.
    """
    d1 = ctx.require_member(w1, "w1")
    d2 = ctx.require_member(w2, "w2")
    return _character(int_vec_mat(d1.x, d2.m), d1.dw * d2.den)


def _first_alternating(ctx: ObstructionContext, d1, d2):
    """(den, skew): the alternating first character's exponents on the
    lattice basis over one denominator, checked against the closed form."""
    den = d1.dw * d2.den  # = d2.dw * d1.den: the records share their scale
    skew = [a - b for a, b in zip(int_vec_mat(d1.x, d2.m), int_vec_mat(d2.x, d1.m))]
    x, w = (d1, d2) if ctx.case is SubgroupCase.INTEGRAL else (d2, d1)
    if any((s - c) % den for s, c in zip(skew, int_vec_mat(x.x, w.omega))):
        raise ClosedFormMismatch(
            "first obstruction: skew-symmetrization disagrees with the closed form"
        )
    return den, skew


def first_obstruction_alternating(ctx: ObstructionContext, w1, w2) -> Character:
    """Skew-symmetrization of the unitary representative in (w1, w2).

    Cross-checked against the per-case closed form: exp(E(w2,w1,lam)) in the
    integral case, exp(E(w1,w2,lam)) in the type (1,1) case, which reads
    the contraction E(w,.,.) alone.
    """
    d1 = ctx.require_member(w1, "w1")
    d2 = ctx.require_member(w2, "w2")
    den, skew = _first_alternating(ctx, d1, d2)
    return _character(skew, den)


def second_obstruction_cocycle(ctx: ObstructionContext, w1, w2, w3) -> GaussianRational:
    """Exponent of the degree-3 cocycle: the correction for (w2, w3)
    evaluated at w1."""
    w1 = to_vec(w1)
    ctx.require_member(w1, "w1")
    return defect_correction_fn(ctx, w2, w3).evaluate(w1)


class SecondObstructionValues(Frozen):
    """The three computed values of the second obstruction on a triple.

    skew: brute-force alternation of the degree-3 cocycle over all six
    permutations (the oracle).  general_factor: the bilinear closed
    expression 3*(F3(w1,w2) + F1(w2,w3) - F2(w1,w3)) in the decomposition
    data.  closed_form: the per-case closed form, exp(-9*E(w1,w2,w3)) in the
    integral case and exp(36*E(w1,w2,w3)) in the type (1,1) case; this one
    is the authority for vanishing decisions.  The three are recorded side
    by side because they are genuinely different scalar multiples of
    E(w1,w2,w3); agreement flags state equality of the reduced values.
    `second_obstruction_alternating` reads them off the same per-query
    tables as `obstruction_vanishes`, built over its three vectors alone.
    """

    _fields = (
        "skew",
        "general_factor",
        "closed_form",
        "skew_exponent",
        "skew_is_real",
        "agree_skew_general",
        "agree_skew_closed",
        "agree_general_closed",
    )

    @property
    def all_nontrivial(self) -> bool:
        return not (
            self.skew.is_trivial
            or self.general_factor.is_trivial
            or self.closed_form.is_trivial
        )


def _alternate(t, i: int, j: int, k: int) -> int:
    """The sum of t[b][c][a] over the permutations (a, b, c) of (i, j, k),
    signed by their parity."""
    return t[j][k][i] - t[k][j][i] - t[i][k][j] + t[k][i][j] + t[i][j][k] - t[j][i][k]


def _second_triples(ctx: ObstructionContext, records):
    """((den, skew_re, skew_im, general, closed), flags) for each triple of
    the records, in lexicographic order of their indices: the three values
    as numerators over one denominator, and whether skew and general, skew
    and closed, and general and closed agree.

    The values are read off per-query tables.  For each ordered pair (b, c)
    of records, one product of b with the stacked rows [R_c | F_c] and then
    with the columns of every record a gives b^T*R_c*(ia), b^T*R_c*a and
    b^T*F_c*a: the correction covector r = b^T*R_c at a is r.(ia) + i*r.a,
    and the bilinear expression sums three F-terms.  E is contracted once
    per first index i, and E(i, j, a) is read for every a off one product
    per pair i < j.  Nothing is built for fewer than three records.
    """
    n = len(records)
    if n < 3:
        return
    xs = [d.x for d in records]
    cols = [list(c) for c in zip(*xs)]  # row p: coordinate p of every record
    z = [0] * n
    # columns ia and a against the R half of [R_c | F_c], a against its F half
    block = [[*i, *c, *z] for i, c in zip(zip(*[d.ix for d in records]), cols)]
    block += [[*z, *z, *c] for c in cols]
    stacked = [[r + f for r, f in zip(d.r, d.f)] for d in records]
    re, im, gen = ([[None] * n for _ in range(n)] for _ in range(3))
    for b, c in itertools.permutations(range(n), 2):
        row = int_vec_mat(int_vec_mat(xs[b], stacked[c]), block)
        re[b][c], im[b][c], gen[b][c] = row[:n], row[n : 2 * n], row[2 * n :]
    dj = ctx.gerbe.torus.j_columns[0]
    coef = -9 if ctx.case is SubgroupCase.INTEGRAL else 36
    for i, di in enumerate(records[:-2]):
        m, de = ctx.gerbe.e.contract_over(di.x)
        unit = coef * dj * di.den // (de * di.dw)  # coef*den / (de*dws)
        for j in range(i + 1, n - 1):
            e_row = int_vec_mat(int_vec_mat(xs[j], m), cols)  # E(i, j, a) for every a
            dij = dj * di.den * records[j].dw
            for k in range(j + 1, n):
                den = dij * records[k].dw  # dj*dws times the records' shared scale
                skew_re, skew_im = _alternate(re, i, j, k), dj * _alternate(im, i, j, k)
                general = 3 * dj * (gen[i][k][j] + gen[j][i][k] - gen[i][j][k])
                closed = unit * e_row[k]
                real = skew_im == 0
                yield (den, skew_re, skew_im, general, closed), (
                    real and (skew_re - general) % den == 0,
                    real and (skew_re - closed) % den == 0,
                    (general - closed) % den == 0,
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
    ds = [ctx.require_member(w, f"w{k}") for k, w in enumerate((w1, w2, w3), 1)]
    (den, skew_re, skew_im, general, closed), flags = next(_second_triples(ctx, ds))
    skew = GaussianRational(Fraction(skew_re, den), Fraction(skew_im, den))
    general, closed = (unit_reduce(Fraction(y, den)) for y in (general, closed))
    return SecondObstructionValues(
        unit_reduce(skew), general, closed, skew, skew_im == 0, *flags
    )


class ThetaGroupElement(Frozen):
    """Element (character, translation vector) of the lifted theta group."""

    _fields = ("character", "w")

    def __post_init__(self):
        object.__setattr__(self, "w", to_vec(self.w))


def theta_group_multiply(
    a: ThetaGroupElement, b: ThetaGroupElement, ctx: ObstructionContext
) -> ThetaGroupElement:
    """(a1, w1) * (a2, w2) = (a1 * a2 * defect(w1, w2), w1 + w2); a
    ValueError unless both vectors have the torus's dimension."""
    d = ctx.gerbe.torus.dim
    w = vec_add(sized_vector(a.w, d, "a.w"), sized_vector(b.w, d, "b.w"))
    ctx.require_member(w, "product vector")
    defect = defect_character(ctx, a.w, b.w)
    return ThetaGroupElement(character=a.character * b.character * defect, w=w)


class SubgroupSpec(Frozen):
    """Finitely many subgroup generators together with the ambient case.

    Vanishing decisions also draw on the standard lattice basis: a basis
    vector e_k is added whenever it is a case member (always, in the
    integral case).  In the (1,1) case a member lattice vector that the
    member basis vectors do not span is included only as a generator.
    """

    _fields = ("generators", "case")

    def __init__(self, generators, case):
        # the generators as `to_vec` tuples, and the case a member or its
        # value, else ValueError, as for the contexts
        vars(self).update(generators=tuple(to_vec(g) for g in generators), case=SubgroupCase(case))

    @staticmethod
    def create(generators, case: SubgroupCase) -> "SubgroupSpec":
        return SubgroupSpec(generators, case)


class ObstructionKind(enum.Enum):
    FIRST = "first"
    SECOND = "second"


class VanishingResult(Frozen):
    """Decision plus certificate for an obstruction on a generated subgroup:
    the certificate is the first failing tuple of vectors, or None, and the
    disagreements are the triples whose cross-check failed."""

    _fields = ("vanishes", "certificate", "tuples_checked", "cross_check_disagreements")

    def __init__(self, vanishes, certificate, tuples_checked, cross_check_disagreements=()):
        vars(self).update(
            vanishes=vanishes,
            certificate=certificate,
            tuples_checked=tuples_checked,
            cross_check_disagreements=cross_check_disagreements,
        )

    def __bool__(self) -> bool:
        return self.vanishes


def obstruction_vanishes(
    gerbe: GerbeData, spec: SubgroupSpec, which: ObstructionKind
) -> VanishingResult:
    """Decide vanishing of the chosen obstruction on the generated subgroup.

    The alternating classes are multilinear, so generator tuples decide the
    question on the subgroup they span.  The candidates are the generators,
    then the lattice basis vectors that are case members: every one in the
    integral case, while in the (1,1) case a member lattice vector outside
    the span of the member basis vectors counts only as a generator.  The
    certificate is the first failing tuple in lexicographic order of the
    candidates.  For the second obstruction the per-case closed form is the
    authority; triples where the brute-force alternation disagrees with it
    are surfaced, never silently resolved.  which is an `ObstructionKind`
    or its value, else ValueError.
    """
    which = ObstructionKind(which)
    ctx = ObstructionContext(gerbe=gerbe, case=spec.case)
    dim = gerbe.torus.dim
    candidates = {}  # (dw, *x) -> (w, record): one entry per distinct vector
    for g in spec.generators:
        data = ctx.require_member(g, "generator")
        candidates.setdefault((data.dw, *data.x), (g, data))
    for data in TranslationContext.basis(gerbe, spec.case):
        if data.member:
            candidates.setdefault((data.dw, *data.x), (data.w, data))
    records = candidates.values()
    checked = 0

    if which is ObstructionKind.FIRST:
        for (w1, d1), (w2, d2) in itertools.combinations(records, 2):
            checked += 1
            den, skew = _first_alternating(ctx, d1, d2)
            for k, s in enumerate(skew):
                if s % den:
                    return VanishingResult(False, (w1, w2, basis_vec(dim, k)), checked)
        return VanishingResult(True, None, checked)

    disagreements = []
    failure = None
    values = _second_triples(ctx, [d for _, d in records])
    for ((w1, _), (w2, _), (w3, _)), ((den, *_, closed), flags) in zip(
        itertools.combinations(records, 3), values
    ):
        checked += 1
        if not flags[1]:
            disagreements.append((w1, w2, w3))
        if failure is None and closed % den:
            failure = (w1, w2, w3)
    return VanishingResult(failure is None, failure, checked, tuple(disagreements))


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
