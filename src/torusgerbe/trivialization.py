"""Explicit trivialization of a symmetry translation.

For w in one of the decomposition subgroups, the translated gerbe is
identified with the original by a 1-cochain whose exponent is assembled
from four factors: a holomorphic unitarizing factor linear in v, a constant
factor cancelling the symmetric part of the remaining real term, and two
factors bounding the integral and the (1,1) halves of what is left.  The
verifier checks, entirely in exact arithmetic, that the product trivializes
the translation factor up to an integer constant.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .exact import GaussianRational, InternalMismatch, Vec, alternating_full, int_dot
from .exact import int_vec_mat, mat_vec, to_vec, vec_is_integral
from .gerbe import ExponentFn, GerbeData, VectorForms, exponent_over, forms_over
from .gerbe import require_lattice
from .symmetry import Decomposition, SubgroupCase, case_decomposition, invariant_coefficients
from .symmetry import member_over, require_case_member
from .torus import AltForm2, pullback_over


@dataclass(frozen=True)
class TranslationContext:
    """Translation by w with its trivialization: the one per-vector record
    that the trivializer and the obstruction formulas read, in integers.

    Only gerbe, w and case are compared, hashed and shown.  (dw, x, ix) is
    `TorusData.lift` of w.  The matrices are over den = 16*dj**3*de*dw,
    whose factor before dw all records share: omega = E(w,.,.), f = F_w
    (the (1,1) piece by the case formulas, member or not), m = M_w =
    (J^T*omega_i - omega_i*J)/8 - F_w for omega_i = E(iw,.,.), and r = R_w
    = L_w - J^T*F_w/2.  The unitary first character of (w1, w2) is lam ->
    w1^T*M_w2*lam, the correction covector w1^T*R_w2; `kernel` reads R_w,
    M_w and F_w.

    Each matrix is linear in x, so only the records of the lattice basis
    vectors are built from the contractions, once per (gerbe, case), and
    kept on the gerbe (`GerbeData.basis_records`).  The record of any other
    w = x/dw is sum_k x_k*(record of e_k) over dw times their den: the same
    integers as built directly, since no step of the direct build reduces
    its denominator.
    """

    gerbe: GerbeData
    w: Vec
    case: SubgroupCase
    dw: int = field(compare=False, repr=False)
    x: list = field(compare=False, repr=False)
    ix: list = field(compare=False, repr=False)
    den: int = field(compare=False, repr=False)
    member: bool = field(compare=False, repr=False)
    omega: list = field(compare=False, repr=False)
    f: list = field(compare=False, repr=False)
    m: list = field(compare=False, repr=False)
    r: list = field(compare=False, repr=False)

    @staticmethod
    def create(
        gerbe: GerbeData, w, case: SubgroupCase, check: bool = True
    ) -> "TranslationContext":
        """The record of w, combined from the gerbe's basis records (a basis
        vector gets its cached record); with check, NotInSubgroup outside
        the subgroup."""
        w = to_vec(w)
        dw, x, ix = gerbe.torus.lift(w)
        records, rows = _basis_records(gerbe, case)
        d = len(x)
        if dw == 1 and x.count(0) == d - 1 and 1 in x:
            data = records[x.index(1)]
        else:
            flat = int_vec_mat(x, rows)
            omega, f, m, r = (
                [flat[k : k + d] for k in range(s, s + d * d, d)]
                for s in range(0, 4 * d * d, d * d)
            )
            t, den = gerbe.torus, dw * records[0].den
            coords = [omega[p][q] for p, q, _ in t.pullback_map[1]]  # pairs p < q
            member = member_over(t, coords, den, case)
            data = TranslationContext(gerbe, w, case, dw, x, ix, den, member, omega, f, m, r)
        if check:
            require_case_member(data.member, case)
        return data

    @staticmethod
    def basis(gerbe: GerbeData, case: SubgroupCase) -> tuple["TranslationContext", ...]:
        """The records of the lattice basis vectors e_1..e_d, built once per
        (gerbe, case)."""
        return _basis_records(gerbe, case)[0]

    @functools.cached_property
    def forms(self) -> VectorForms:
        return VectorForms.create(self.gerbe.torus, self.gerbe.e, self.w)

    @functools.cached_property
    def invariant(self) -> AltForm2:
        """F_w, the (1,1) piece of the case decomposition."""
        return AltForm2.from_upper(self.f, self.den)

    @functools.cached_property
    def dec(self) -> Decomposition:
        g = self.gerbe
        return case_decomposition(g.torus, g.e, self.w, self.case, check=False)

    @functools.cached_property
    def kernel(self) -> tuple[int, tuple]:
        """(den, rows): the trivializer as one integer matrix over one
        denominator, read off the record and J's columns alone.  At a lattice
        vector lam its linear part is (re + i*im)*lam / den and its constant
        lam^T*(qre + i*qim)*lam / den, where, with eps the integral piece
        (E(w,.,.) in the integral case, zero in the other),

            re  = -J^T*R_w                                  im  = -R_w
            qre = M_w/4 - (strict upper triangle of eps)/2  qim = J^T*F_w/4

        Only the symmetric part of qre enters the constant; that of M_w/4 is
        the symmetric part of J^T*omega_i/16 for omega_i = E(iw,.,.).  Row a
        of rows is row a of qre and of qim followed by column a of re and of
        im, so lam^T*rows is lam^T*qre, lam^T*qim, re*lam, im*lam.
        """
        t = self.gerbe.torus
        dj, r = t.j_columns[0], range(t.dim)
        # column a of re is row a of -R^T*J, and J^T*F = -(F*J)^T
        rj, fj = t.times_j(list(zip(*self.r))), t.times_j(self.f)
        ke = 2 * dj if self.case is SubgroupCase.INTEGRAL else 0  # eps = E(w,.,.) or 0
        rows = []
        for a in r:
            qre = [dj * self.m[a][b] - (ke * self.omega[a][b] if a < b else 0) for b in r]
            qim = [-fj[b][a] for b in r]
            im = [-4 * dj * self.r[b][a] for b in r]
            rows.append((*qre, *qim, *[-4 * y for y in rj[a]], *im))
        return 4 * dj * self.den, tuple(rows)


def _direct_record(gerbe: GerbeData, w: Vec, case: SubgroupCase) -> TranslationContext:
    """The record of w built from the contractions of E by w and iw; run
    for the lattice basis vectors only, by `_basis_records`."""
    t = gerbe.torus
    dw, x, ix, do, omega, omega_i, l = forms_over(t, gerbe.e, w)
    coords = [omega[p][q] for p, q, _ in t.pullback_map[1]]  # pairs p < q
    member = member_over(t, coords, do, case)
    f, df = pullback_over(t, coords, do, *invariant_coefficients(case))
    f = alternating_full(f)
    # omega_i*J and F*J, times dj; J^T*F = -(F*J)^T as F is alternating
    xj, zj = t.times_j(omega_i), t.times_j(f)
    dj, r = t.j_columns[0], range(t.dim)
    # the case coefficients have denominator 8, so df = 8*dj**2*do
    den = 16 * dj**3 * do
    kf, kz = den // df, den // (2 * dj * df)
    return TranslationContext(
        gerbe, w, case, dw, x, ix, den, member,
        [[den // do * y for y in row] for row in omega],
        [[kf * y for y in row] for row in f],
        [[-2 * dj * (xj[a][b] + xj[b][a]) - kf * f[a][b] for b in r] for a in r],
        [[dj * dj * l[a][b] + kz * zj[b][a] for b in r] for a in r],
    )


def _stacked(records) -> tuple[tuple, list]:
    """(records, rows) for the basis records e_1..e_d: row k holds record
    k's omega, f, m and r flattened, so x^T*rows is the four matrices of
    x/dw flattened, over dw*records[0].den."""
    rows = [[y for mat in (b.omega, b.f, b.m, b.r) for row in mat for y in row] for b in records]
    return tuple(records), rows


def _basis_records(gerbe: GerbeData, case: SubgroupCase) -> tuple[tuple, list]:
    """`_stacked` of the basis records of case, built once per gerbe."""
    basis = gerbe.basis_records.get(case)
    if basis is None:
        records = [_direct_record(gerbe, ek, case) for ek in gerbe.torus.basis()]
        basis = gerbe.basis_records[case] = _stacked(records)
    return basis


def unitarize_exponent(ctx: TranslationContext, lam) -> ExponentFn:
    """Exponent of the holomorphic factor -i*l(w,v,lam) - l(w,iv,lam).

    With L the bilinear form of l(w,.,.), the covectors of v -> l(w,v,lam)
    and v -> l(w,iv,lam) are L*lam and J^T*L*lam.
    """
    im = mat_vec(ctx.forms.l, to_vec(lam))
    re = mat_vec(ctx.gerbe.torus.jt, im)
    return ExponentFn(
        GaussianRational.real(0), tuple(-x for x in re), tuple(-x for x in im)
    )


def symmetric_part_exponent(ctx: TranslationContext, lam) -> Fraction:
    """Constant exponent E(iw, i*lam, lam) / 16.

    Its coboundary cancels the symmetric part of the real factor left after
    unitarizing, which is what the trivialization identity requires.
    """
    lam = to_vec(lam)
    return ctx.forms.omega_i.evaluate(ctx.gerbe.torus.mul_i(lam), lam) / 16


def integral_part_exponent(ctx: TranslationContext, lam) -> Fraction:
    """Constant exponent -1/2 * sum_{i<j} lam_i lam_j eps_ij over the basis
    in index order; defined for lattice vectors only."""
    lam = to_vec(lam)
    if not vec_is_integral(lam):
        raise ValueError("defined on lattice (integer) vectors only")
    eps = ctx.dec.integral_part
    pairs = itertools.combinations(range(len(lam)), 2)
    return -sum([lam[i] * lam[j] * eps.entry(i, j) for i, j in pairs], Fraction(0)) / 2


def invariant_part_exponent(ctx: TranslationContext, lam) -> ExponentFn:
    """Exponent i/2*F(iv,lam) - 1/2*F(v,lam) + i/4*F(i*lam,lam) for the
    (1,1) piece F of the decomposition; holomorphic in v."""
    lam = to_vec(lam)
    t = ctx.gerbe.torus
    f = ctx.dec.invariant_part
    flam = f.apply(lam)
    lin_re = tuple(-x / 2 for x in flam)
    lin_im = tuple(x / 2 for x in mat_vec(t.jt, flam))
    const = GaussianRational(Fraction(0), f.evaluate(t.mul_i(lam), lam) / 4)
    return ExponentFn(const, lin_re, lin_im)


def _trivializer_numerators(ctx: TranslationContext, x: list[int]) -> list[int]:
    """[const_re, const_im, *lin_re, *lin_im] of the trivializer at the
    lattice vector x, as numerators over the denominator of ctx.kernel."""
    z, d = int_vec_mat(x, ctx.kernel[1]), len(x)
    return [int_dot(z[:d], x), int_dot(z[d : 2 * d], x), *z[2 * d :]]


def _exponent_of(nums: list[int], den: int) -> ExponentFn:
    """The ExponentFn whose [const_re, const_im, *lin_re, *lin_im] is nums / den."""
    f = [Fraction(y, den) for y in nums]
    d = (len(f) - 2) // 2
    return ExponentFn(GaussianRational(f[0], f[1]), tuple(f[2 : 2 + d]), tuple(f[2 + d :]))


def trivializing_exponent(ctx: TranslationContext, lam) -> ExponentFn:
    """Exponent of the full trivializing cochain at a lattice vector: the
    sum of the four factors above, evaluated through ctx.kernel."""
    lam = to_vec(lam)
    if len(lam) != ctx.gerbe.torus.dim:
        raise ValueError("dimension mismatch")
    if not vec_is_integral(lam):
        raise ValueError("defined on lattice (integer) vectors only")
    return _exponent_of(_trivializer_numerators(ctx, [v.numerator for v in lam]), ctx.kernel[0])


def _lattice_pair(ctx: TranslationContext, l1, l2) -> list[list[int]]:
    """[l1, l2] as integer lists, checked as `translation_factor` checks them."""
    pair = to_vec(l1), to_vec(l2)
    require_lattice(pair[0], "l1")
    require_lattice(pair[1], "l2")
    if any(len(v) != ctx.gerbe.torus.dim for v in pair):
        raise ValueError("vector/torus dimension mismatch")
    return [[v.numerator for v in lam] for lam in pair]


def _residual_over(ctx: TranslationContext, x1: list[int], x2: list[int]) -> tuple:
    """(r, h): the residual at the lattice pair (x1, x2) in integers.

    r is [const_re, const_im, *lin_re, *lin_im] of the coboundary
    T(l2)(v + l1) - T(l1 + l2)(v) + T(l1)(v) of the trivializer T, as
    numerators over ctx.kernel[0], and h = (re, dre, im, dim) is the
    translation factor H_{l1,l2}(w) from E and J alone (`exponent_over`).
    """
    t = ctx.gerbe.torus
    x12 = [a + b for a, b in zip(x1, x2)]
    t2, t12, t1 = (_trivializer_numerators(ctx, x) for x in (x2, x12, x1))
    r = [a - b + c for a, b, c in zip(t2, t12, t1)]
    # evaluating T(l2) at v + l1 adds its linear part at l1 to the constant
    d = len(x1)
    r[0] += int_dot(t2[2 : 2 + d], x1)
    r[1] += int_dot(t2[2 + d :], x1)
    lattice = [(1, x, t.mul_i_over(x)) for x in (x1, x2)]
    return r, exponent_over(t, ctx.gerbe.e, (ctx.dw, ctx.x, ctx.ix), *lattice)


def _pair_passes(ctx: TranslationContext, x1: list[int], x2: list[int]) -> bool:
    """`residual_is_trivial` of the residual at (x1, x2), on its integers:
    no linear part, the imaginary constant cancels, the real one is integral."""
    r, (re, dre, im, dim) = _residual_over(ctx, x1, x2)
    k = ctx.kernel[0]
    return not any(r[2:]) and r[1] * dim + im * k == 0 and (r[0] * dre + re * k) % (k * dre) == 0


def trivialization_residual(ctx: TranslationContext, l1, l2) -> ExponentFn:
    """Exponent of exp(H_{l1,l2}(w)) times the coboundary of the trivializer.

    For w in the decomposition subgroup this is an integer constant; the
    linear part vanishes and the constant is real.  Both parts come from
    the integer residual that `first_failing_pair` decides on.
    """
    r, (re, dre, im, dim) = _residual_over(ctx, *_lattice_pair(ctx, l1, l2))
    h = GaussianRational(Fraction(re, dre), Fraction(im, dim))
    return _exponent_of(r, ctx.kernel[0]).add_const(h)


def residual_is_trivial(r: ExponentFn) -> bool:
    return r.linear_part_is_zero and r.const.im == 0 and r.const.re.denominator == 1


def default_verification_pairs(
    dim: int, extra_random: int = 10, seed: int = 0
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All ordered basis pairs, then seeded random integer pairs in [-3, 3],
    generated lazily as `int` tuples: dim**2 + extra_random pairs in all."""
    basis = [tuple([int(a == k) for a in range(dim)]) for k in range(dim)]
    yield from itertools.product(basis, repeat=2)
    rng = random.Random(seed)
    for _ in range(extra_random):
        yield tuple([tuple([rng.randint(-3, 3) for _ in range(dim)]) for _ in range(2)])


def first_failing_pair(
    ctx: TranslationContext,
    pairs: Iterable[Sequence] | None = None,
    extra_random: int = 10,
    seed: int = 0,
) -> tuple[Vec, Vec] | None:
    """The first pair whose residual is not an integer constant, or None.

    Explicit pairs are checked in order.  Without them the dim**2 basis
    pairs come first and decide, since the residual is bilinear; a random
    pair failing after them can only be a program fault and raises
    InternalMismatch.  The pairs are consumed one at a time.
    """
    d = ctx.gerbe.torus.dim
    if pairs is None:
        pairs, decided = default_verification_pairs(d, extra_random, seed), d * d
    else:
        pairs, decided = (_lattice_pair(ctx, l1, l2) for l1, l2 in pairs), None
    for k, (x1, x2) in enumerate(pairs):
        if not _pair_passes(ctx, x1, x2):
            if decided is not None and k >= decided:
                raise InternalMismatch("a random pair failed where every basis pair passed")
            return to_vec(x1), to_vec(x2)
    return None


def verify_trivialization(
    ctx: TranslationContext,
    pairs: Iterable[Sequence] | None = None,
    extra_random: int = 10,
    seed: int = 0,
) -> bool:
    """Whether the trivialization identity holds on the lattice pairs.

    Each factor of the trivializer is at most quadratic in the lattice
    vector, so the residual is bilinear in (l1, l2), its constant part
    included.  Without explicit pairs the dim**2 basis pairs decide the
    identity on the whole lattice; the extra_random seeded pairs then run
    as a self-check, and one failing there raises InternalMismatch.  Every
    pair evaluates the trivializer three times and the translation factor
    once, from E and J, in integers, and checks the linear part as well as
    the constant.  With explicit pairs the answer is whether all of them
    pass.  False witnesses that w is not a symmetry of the gerbe for the
    chosen case.
    """
    return first_failing_pair(ctx, pairs, extra_random, seed) is None
