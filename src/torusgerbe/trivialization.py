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
        data = _lifted_record(gerbe, w, case, gerbe.torus.lift(w))
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


def _lifted_record(gerbe: GerbeData, w: Vec, case: SubgroupCase, lifted) -> TranslationContext:
    """The record of w from its lift (dw, x, ix), unchecked: the cached
    record of a basis vector, else the combination of the basis records."""
    dw, x, ix = lifted
    records, rows = _basis_records(gerbe, case)
    d = len(x)
    if dw == 1 and x.count(0) == d - 1 and 1 in x:
        return records[x.index(1)]
    flat = int_vec_mat(x, rows)
    omega, f, m, r = (
        [flat[k : k + d] for k in range(s, s + d * d, d)] for s in range(0, 4 * d * d, d * d)
    )
    t, den = gerbe.torus, dw * records[0].den
    coords = [omega[p][q] for p, q, _ in t.pullback_map[1]]  # pairs p < q
    member = member_over(t, coords, den, case)
    return TranslationContext(gerbe, w, case, dw, x, ix, den, member, omega, f, m, r)


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


def _evaluated(ctx: TranslationContext, x) -> tuple:
    """(x, z, ix) for the lattice vector x: z = x^T*rows for the kernel's
    rows and ix = dj*J*x, the integers the residual core takes."""
    return x, int_vec_mat(x, ctx.kernel[1]), ctx.gerbe.torus.mul_i_over(x)


def _basis_evaluated(ctx: TranslationContext) -> list[tuple]:
    """`_evaluated` of the lattice basis vectors, read off without a product:
    z of e_a is row a of the kernel and ix is dj times column a of J."""
    t = ctx.gerbe.torus
    d = t.dim
    out = []
    for a, (row, col) in enumerate(zip(ctx.kernel[1], t.j_columns[1])):
        ix = [0] * d
        for p, c in col:
            ix[p] = c
        out.append(([int(k == a) for k in range(d)], row, ix))
    return out


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
    x = [v.numerator for v in lam]
    z, d = int_vec_mat(x, ctx.kernel[1]), len(x)
    return _exponent_of([int_dot(z, x), int_dot(z[d:], x), *z[2 * d :]], ctx.kernel[0])


def _lattice_pair(ctx: TranslationContext, l1, l2) -> list[list[int]]:
    """[l1, l2] as integer lists, checked as `translation_factor` checks them."""
    pair = to_vec(l1), to_vec(l2)
    require_lattice(pair[0], "l1")
    require_lattice(pair[1], "l2")
    if any(len(v) != ctx.gerbe.torus.dim for v in pair):
        raise ValueError("vector/torus dimension mismatch")
    return [[v.numerator for v in lam] for lam in pair]


def _residual_over(ctx: TranslationContext, v1: tuple, v2: tuple) -> tuple:
    """(r, h): the residual at the lattice pair (l1, l2) in integers, from
    their evaluations v1 and v2 (`_evaluated`, or `_basis_evaluated` for
    basis vectors).

    r is [const_re, const_im, *lin_re, *lin_im] of the coboundary
    T(l2)(v + l1) - T(l1 + l2)(v) + T(l1)(v) of the trivializer T, as
    numerators over ctx.kernel[0].  T(l1 + l2) is evaluated from z1 + z2,
    the integers a product with l1 + l2 gives, as x^T*rows is linear in x.
    h = (re, dre, im, dim) is the translation factor H_{l1,l2}(w) from E
    and J alone (`exponent_over`).
    """
    (x1, z1, ix1), (x2, z2, ix2) = v1, v2
    d = len(x1)
    x12 = [a + b for a, b in zip(x1, x2)]
    z12 = [a + b for a, b in zip(z1, z2)]
    # T at x with z = x^T*rows: the constant z[:d].x + i*z[d:2d].x (int_dot
    # stops at the end of x) and the linear part z[2d:]; evaluating T(l2) at
    # v + l1 adds its linear part at l1 to the constant
    lin = 2 * d
    re = int_dot(z2, x2) - int_dot(z12, x12) + int_dot(z1, x1) + int_dot(z2[lin:], x1)
    im = int_dot(z2[d:], x2) - int_dot(z12[d:], x12) + int_dot(z1[d:], x1)
    im += int_dot(z2[lin + d :], x1)
    r = [re, im, *[a - b + c for a, b, c in zip(z2[lin:], z12[lin:], z1[lin:])]]
    lattice = (1, x1, ix1), (1, x2, ix2)
    return r, exponent_over(ctx.gerbe.torus, ctx.gerbe.e, (ctx.dw, ctx.x, ctx.ix), *lattice)


def _pair_passes(ctx: TranslationContext, v1: tuple, v2: tuple) -> bool:
    """`residual_is_trivial` of the residual at the evaluated pair, on its
    integers: no linear part, the imaginary constant cancels, the real one
    is integral."""
    r, (re, dre, im, dim) = _residual_over(ctx, v1, v2)
    k = ctx.kernel[0]
    return not any(r[2:]) and r[1] * dim + im * k == 0 and (r[0] * dre + re * k) % (k * dre) == 0


def trivialization_residual(ctx: TranslationContext, l1, l2) -> ExponentFn:
    """Exponent of exp(H_{l1,l2}(w)) times the coboundary of the trivializer.

    For w in the decomposition subgroup this is an integer constant; the
    linear part vanishes and the constant is real.  Both parts come from
    the integer residual that `first_failing_pair` decides on.
    """
    v1, v2 = (_evaluated(ctx, x) for x in _lattice_pair(ctx, l1, l2))
    r, (re, dre, im, dim) = _residual_over(ctx, v1, v2)
    h = GaussianRational(Fraction(re, dre), Fraction(im, dim))
    return _exponent_of(r, ctx.kernel[0]).add_const(h)


def residual_is_trivial(r: ExponentFn) -> bool:
    return r.linear_part_is_zero and r.const.im == 0 and r.const.re.denominator == 1


def _random_pairs(dim: int, count: int, seed: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """count seeded pairs of integer vectors with entries in [-3, 3]: each
    pair is one draw below 7**(2*dim), whose base-7 digits minus 3, lowest
    first, are l1 and then l2."""
    rng = random.Random(seed)
    span, powers = 7 ** (2 * dim), [7**k for k in range(2 * dim)]
    for _ in range(count):
        n = rng.randrange(span)
        digits = [n // p % 7 - 3 for p in powers]
        yield tuple(digits[:dim]), tuple(digits[dim:])


def default_verification_pairs(
    dim: int, extra_random: int = 10, seed: int = 0
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All ordered basis pairs, then seeded random integer pairs in [-3, 3],
    one draw each, generated lazily as `int` tuples: dim**2 + extra_random
    pairs in all."""
    basis = [tuple([int(a == k) for a in range(dim)]) for k in range(dim)]
    yield from itertools.product(basis, repeat=2)
    yield from _random_pairs(dim, extra_random, seed)


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
    InternalMismatch.  The basis vectors are evaluated once per call, off
    the kernel's rows and J's columns; every other vector costs one product
    with the kernel.  The pairs are consumed one at a time.
    """
    d = ctx.gerbe.torus.dim
    if pairs is None:
        drawn = _random_pairs(d, extra_random, seed)
        evaluated = itertools.chain(
            itertools.product(_basis_evaluated(ctx), repeat=2),
            ((_evaluated(ctx, x1), _evaluated(ctx, x2)) for x1, x2 in drawn),
        )
        decided = d * d
    else:
        checked = (_lattice_pair(ctx, l1, l2) for l1, l2 in pairs)
        evaluated = ((_evaluated(ctx, x1), _evaluated(ctx, x2)) for x1, x2 in checked)
        decided = None
    for k, (v1, v2) in enumerate(evaluated):
        if not _pair_passes(ctx, v1, v2):
            if decided is not None and k >= decided:
                raise InternalMismatch("a random pair failed where every basis pair passed")
            return to_vec(v1[0]), to_vec(v2[0])
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
    identity on the whole lattice; the extra_random seeded pairs, one draw
    each, then run as a self-check, and one failing there raises
    InternalMismatch.  Every pair evaluates the trivializer three times and
    the translation factor once, from E and J, in integers, and checks the
    linear part as well as the constant.  A basis vector's evaluation is a
    row of the kernel, any other vector's one product with it, and the
    evaluation at l1 + l2 is the sum of the two.  With explicit pairs the
    answer is whether all of them pass.  False witnesses that w is not a
    symmetry of the gerbe for the chosen case.
    """
    return first_failing_pair(ctx, pairs, extra_random, seed) is None
