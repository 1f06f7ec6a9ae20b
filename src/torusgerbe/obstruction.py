"""Obstructions to lifting a group of symmetry translations to the gerbe.

Composing the chosen trivializations of two translations differs from the
trivialization of their sum by a constant character of the lattice; that
defect is the extension cocycle of the theta group.  Its alternating
reduction is the first obstruction to equivariance, with a closed form per
decomposition case.  When the first obstruction vanishes, the coboundary of
the correction used to unitarize the defect produces a degree-3 class, the
second obstruction, computed here three ways: by alternation over the six
permutations, by the bilinear closed expression in the decomposition data,
and by the per-case closed form.

Both obstructions are alternating and multilinear in the vectors, so each
is fixed by its values on the tuples of lattice basis vectors.  Those are
kept in two `forms.AlternatingTable`s, built once per (torus, E, case) from
the basis rows and shared by translated gerbes: FIRST's
skew-symmetrization beside its closed form on the basis pairs, and
SECOND's alternation beside its closed form on the basis triples.  A tuple
of basis vectors reads one signed row and any other tuple its wedge vector
times the rows; the decisions read no record's matrices.
`second_obstruction_alternating` reads its skew and closed form off
SECOND's table and the bilinear expression off its three records.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction

from .exact import Frozen, GaussianRational, UnitValue, basis_vec, to_vec, vec_add
from .exact import InternalMismatch, int_dot, int_vec_mat, sized_vector, unit_reduce
from .forms import AlternatingTable
from .gerbe import Character, ExponentFn, GerbeData, exponent_im
from .symmetry import NotInSubgroup, SubgroupCase
from .trivialization import TranslationContext, _basis_index, _basis_records, _lifted_record
from .trivialization import trivializing_exponent


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
        """The record of w, built on first use without the membership check;
        a ValueError naming w unless it has the torus's dimension."""
        return self._record(sized_vector(w, self.gerbe.torus.dim, "w"))

    def require_member(self, w, what: str = "vector") -> TranslationContext:
        """The record of w; a ValueError naming w as what unless it has the
        torus's dimension, NotInSubgroup unless it is a case member."""
        data = self._record(sized_vector(w, self.gerbe.torus.dim, what))
        if not data.member:
            raise NotInSubgroup(f"{what} is not in the chosen subgroup")
        return data

    def _record(self, w) -> TranslationContext:
        key = (*[v.numerator for v in w], *[v.denominator for v in w])
        data = self._vectors.get(key)
        if data is None:
            data = self._vectors[key] = _lifted_record(self.gerbe, w, self.case)
        return data


def lift_defect_character(ctx: ObstructionContext, w1, w2) -> Character:
    """The defect character, computed both from the trivializer composition
    and from the closed exponent, and asserted identical."""
    t1 = ctx.require_member(w1, "w1")
    t2 = ctx.require_member(w2, "w2")
    t, w1 = ctx.gerbe.torus, t1.w
    t12 = ctx.vector(vec_add(w1, t2.w))
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

    on the whole lattice basis at once, for F2 = F_w2 and l = `exponent_im`:
    F2(v, e_k) is (v^T*F_w2)_k, read off the records' integers at v = w1
    and iw1, as w1's record holds x1 and dj*J*x1 for w1 = x1/dw1.
    """
    t, e3 = ctx.gerbe.torus, ctx.gerbe.e
    d1, d2 = ctx.require_member(w1, "w1"), ctx.require_member(w2, "w2")
    w1, w2, iw1, den = d1.w, d2.w, t.mul_i(d1.w), 2 * d1.dw * d2.den
    exps = []
    for a, b, ek in zip(int_vec_mat(d1.x, d2.f), int_vec_mat(d1.ix, d2.f), t.basis()):
        re = Fraction(-a, den) - exponent_im(t, e3, w2, iw1, ek)
        im = Fraction(b, den * t.j_columns[0]) - exponent_im(t, e3, w2, w1, ek)
        exps.append(GaussianRational(re, im))
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
    return _correction_fn(ctx, ctx.require_member(w1, "w1"), ctx.require_member(w2, "w2"))


def _correction_fn(ctx: ObstructionContext, d1, d2) -> ExponentFn:
    """`defect_correction_fn` of the records d1 and d2."""
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


def _pair_rows(basis) -> AlternatingTable:
    """FIRST on the basis pairs, over the basis records' den: row (a, b) is
    [skew | closed], skew = row a of M_{e_b} - row b of M_{e_a}, closed =
    row a of E(e_b,.,.), negated in the type (1,1) case.  For w1 = x1/dw1
    and w2 = x2/dw2, wedge(x1, x2) times the rows is w1^T*M_w2 - w2^T*M_w1
    and w1^T*E(w2,.,.) (or w2^T*E(w1,.,.)) over dw1*dw2*den."""
    rs, d = basis.records, len(basis.records)
    sign = 1 if basis.case is SubgroupCase.INTEGRAL else -1
    rows = [
        [u - v for u, v in zip(rs[b].m[a], rs[a].m[b])] + [sign * y for y in rs[b].omega[a]]
        for a, b in itertools.combinations(range(d), 2)
    ]
    return AlternatingTable(basis.den, rows, 2, d)


def _alternate(t, i: int, j: int, k: int) -> int:
    """The sum of t[b][c][a] over the permutations (a, b, c) of (i, j, k),
    signed by their parity."""
    return t[j][k][i] - t[k][j][i] - t[i][k][j] + t[k][i][j] + t[i][j][k] - t[j][i][k]


def _triple_rows(basis) -> AlternatingTable:
    """SECOND on the basis triples, over dj*den for the basis den: row (a,
    b, c) is [skew_re, skew_im, closed].  The degree-3 cocycle at (e_a, e_b,
    e_c) is the correction covector r = e_b^T*R_c at e_a, r.(i*e_a) +
    i*r.e_a, so with re[b][c] row b of dj*R_c*J and im[b][c] row b of R_c,
    skew_re and skew_im/dj are their `_alternate`s.  closed is coef*E(e_a,
    e_b, e_c), coef = -9 in the integral case and 36 in the type (1,1)
    case, from E's integer coefficient k over de."""
    rs, t, e3 = basis.records, basis.gerbe.torus, basis.gerbe.e
    d, dj = len(rs), t.j_columns[0]
    rj = [t.times_j(c.r) for c in rs]
    re = [[rj[c][b] for c in range(d)] for b in range(d)]
    im = [[c.r[b] for c in rs] for b in range(d)]
    de, ks = e3.int_entries
    coef = -9 if basis.case is SubgroupCase.INTEGRAL else 36
    unit, coeffs = coef * dj * basis.den // de, {(p, q, r): k for p, q, r, k in ks}
    rows = [
        [_alternate(re, *abc), dj * _alternate(im, *abc), unit * coeffs.get(abc, 0)]
        for abc in itertools.combinations(range(d), 3)
    ]
    return AlternatingTable(dj * basis.den, rows, 3, d, 3)


def _candidate(data) -> tuple[int, list[int], int]:
    """(dw, x, k) of a record: k is the index of the basis vector w = e_k,
    else -1."""
    return data.dw, data.x, _basis_index(data.dw, data.x)


def _first_alternating(table: AlternatingTable, c1, c2):
    """(den, skew): the alternating first character's exponents on the
    lattice basis over one denominator, for the candidates (dw, x, k) of
    `_candidate`, read off the FIRST `table` and checked against the closed
    form, its other half."""
    den, row = table.den * c1[0] * c2[0], table.on_pair(c1, c2)
    d = len(row) // 2
    skew = row[:d]
    if any([(s - c) % den for s, c in zip(skew, row[d:])]):
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
    table = _basis_records(ctx.gerbe, ctx.case).table(_pair_rows)
    den, skew = _first_alternating(table, _candidate(d1), _candidate(d2))
    return _character(skew, den)


def second_obstruction_cocycle(ctx: ObstructionContext, w1, w2, w3) -> GaussianRational:
    """Exponent of the degree-3 cocycle: the correction for (w2, w3)
    evaluated at w1."""
    d1, d2, d3 = [ctx.require_member(w, f"w{k}") for k, w in enumerate((w1, w2, w3), 1)]
    return _correction_fn(ctx, d2, d3).evaluate(d1.w)


class SecondObstructionValues(Frozen):
    """The three computed values of the second obstruction on a triple.

    skew: alternation of the degree-3 cocycle over all six permutations.
    general_factor: the bilinear closed expression 3*(F3(w1,w2) + F1(w2,w3)
    - F2(w1,w3)) in the decomposition data.  closed_form: the per-case closed form, exp(-9*E(w1,w2,w3)) in the
    integral case and exp(36*E(w1,w2,w3)) in the type (1,1) case; this one
    is the authority for vanishing decisions.  The three are recorded side
    by side because they are genuinely different scalar multiples of
    E(w1,w2,w3); agreement flags state equality of the reduced values.
    `second_obstruction_alternating` reads skew and closed_form off
    SECOND's basis table, as `obstruction_vanishes` does, and computes
    general_factor from the three records' F_w.
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


def second_obstruction_alternating(
    ctx: ObstructionContext, w1, w2, w3
) -> SecondObstructionValues:
    """The second obstruction on a triple, computed three ways.

    The skew alternates the degree-3 cocycle over the six permutations,
    each term being the correction covector of (b, c) evaluated at a, and
    the closed form reads E alone: both are one row of SECOND's basis
    table (`_triple_rows`).  The bilinear expression reads the (1,1)
    pieces F_w of the records.  Disagreements are reported in the returned
    flags, not raised.
    """
    d1, d2, d3 = ds = [ctx.require_member(w, f"w{k}") for k, w in enumerate((w1, w2, w3), 1)]
    table = _basis_records(ctx.gerbe, ctx.case).table(_triple_rows)
    den, skew_re, skew_im, closed = next(table.on_triples([*map(_candidate, ds)]))
    x1, x2, x3 = d1.x, d2.x, d3.x
    general = int_dot(int_vec_mat(x1, d3.f), x2) + int_dot(int_vec_mat(x2, d1.f), x3)
    general = 3 * ctx.gerbe.torus.j_columns[0] * (general - int_dot(int_vec_mat(x1, d2.f), x3))
    skew = GaussianRational(Fraction(skew_re, den), Fraction(skew_im, den))
    values = [unit_reduce(v) for v in (skew, Fraction(general, den), Fraction(closed, den))]
    real = skew_im == 0
    agree = [real and (skew_re - general) % den == 0, real and (skew_re - closed) % den == 0]
    return SecondObstructionValues(*values, skew, real, *agree, (general - closed) % den == 0)


class ThetaGroupElement(Frozen):
    """Element (character, translation vector) of the lifted theta group."""

    _fields = ("character", "w")

    def __post_init__(self):
        object.__setattr__(self, "w", sized_vector(self.w, self.character.dim, "w"))


def theta_group_multiply(
    a: ThetaGroupElement, b: ThetaGroupElement, ctx: ObstructionContext
) -> ThetaGroupElement:
    """(a1, w1) * (a2, w2) = (a1 * a2 * defect(w1, w2), w1 + w2), naming a.w
    or b.w as `require_member` does.  The sum needs no check: membership is
    linear in E(w,.,.) and F_w, so the sum of two members is one."""
    w1, w2 = ctx.require_member(a.w, "a.w").w, ctx.require_member(b.w, "b.w").w
    defect = defect_character(ctx, w1, w2)
    return ThetaGroupElement(character=a.character * b.character * defect, w=vec_add(w1, w2))


class SubgroupSpec(Frozen):
    """Finitely many subgroup generators together with the ambient case.

    Vanishing decisions also draw on the standard lattice basis: a basis
    vector e_k is added whenever it is a case member (always, in the
    integral case).  In the (1,1) case a member lattice vector that the
    member basis vectors do not span is included only as a generator.
    """

    _fields = ("generators", "case")

    def __init__(self, generators, case):
        # the generators as `to_vec` tuples of one length, and the case a
        # member or its value, else ValueError, as for the contexts
        gens = tuple([to_vec(g) for g in generators])
        for k, g in enumerate(gens):
            if len(g) != len(gens[0]):
                what = f"generators[{k}] has {len(g)} entries"
                raise ValueError(f"dimension mismatch: {what}, not {len(gens[0])}")
        vars(self).update(generators=gens, case=SubgroupCase(case))

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
    authority; triples where the alternation disagrees with it
    are surfaced, never silently resolved.  which is an `ObstructionKind`
    or its value, else ValueError.
    """
    which = ObstructionKind(which)
    ctx = ObstructionContext(gerbe=gerbe, case=spec.case)
    dim, basis = gerbe.torus.dim, _basis_records(gerbe, ctx.case)
    candidates = {}  # (dw, *x) -> (w, (dw, x, k)): one entry per distinct vector
    for g in spec.generators:
        data = ctx.require_member(g, "generator")
        candidates.setdefault((data.dw, *data.x), (g, _candidate(data)))
    for k, data in enumerate(basis.records):
        if data.member:
            candidates.setdefault((data.dw, *data.x), (data.w, (data.dw, data.x, k)))
    ws, cs = [w for w, _ in candidates.values()], [c for _, c in candidates.values()]
    checked = 0

    if which is ObstructionKind.FIRST:
        table = basis.table(_pair_rows)
        for (w1, c1), (w2, c2) in itertools.combinations(zip(ws, cs), 2):
            checked += 1
            den, skew = _first_alternating(table, c1, c2)
            for k, s in enumerate(skew):
                if s % den:
                    return VanishingResult(False, (w1, w2, basis_vec(dim, k)), checked)
        return VanishingResult(True, None, checked)

    disagreements = []
    failure = None
    # below three candidates there is no triple, and no table is built
    values = basis.table(_triple_rows).on_triples(cs) if len(cs) > 2 else ()
    for (w1, w2, w3), (den, skew_re, skew_im, closed) in zip(
        itertools.combinations(ws, 3), values
    ):
        checked += 1
        if skew_im or (skew_re - closed) % den:
            disagreements.append((w1, w2, w3))
        if failure is None and closed % den:
            failure = (w1, w2, w3)
    return VanishingResult(failure is None, failure, checked, tuple(disagreements))


def gerbal_class(ctx: ObstructionContext, w1, w2, w3) -> UnitValue:
    """Closed-form class of the induced action on sheaves for a triple:
    exp(-3/2*E(w1,w2,w3)) in the integral case, exp(6*E(w1,w2,w3)) in the
    type (1,1) case.  Defined only when the first obstruction vanishes on
    the three pairs of records, each decided on `_first_alternating`."""
    ds = [ctx.require_member(w, f"w{k}") for k, w in enumerate((w1, w2, w3), 1)]
    table = _basis_records(ctx.gerbe, ctx.case).table(_pair_rows)
    for c1, c2 in itertools.combinations(map(_candidate, ds), 2):
        den, skew = _first_alternating(table, c1, c2)
        if any(s % den for s in skew):
            raise FirstObstructionNonzero("first obstruction does not vanish on the given vectors")
    coef = Fraction(-3, 2) if ctx.case is SubgroupCase.INTEGRAL else Fraction(6)
    return unit_reduce(coef * ctx.gerbe.e.evaluate(*[d.w for d in ds]))
