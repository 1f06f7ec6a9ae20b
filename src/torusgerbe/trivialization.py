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
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .exact import Frozen, GaussianRational, InternalMismatch, PackedRows, Vec, basis_vec
from .exact import int_dot, int_vec_mat, lattice_vector, mat_vec, sized_vector, to_vec
from .gerbe import ExponentFn, GerbeData, balanced_digits, exponent_im, exponent_over
from .gerbe import forms_over
from .symmetry import Decomposition, SubgroupCase, case_decomposition, case_member
from .symmetry import invariant_coefficients, require_case_member
from .torus import alternating_matrix, pullback_over


def _block(s: int) -> functools.cached_property:
    """Matrix s of the record's omega, f, m and r, cut from its `_flat` on
    first read."""

    def build(ctx: "TranslationContext") -> list[list[int]]:
        d = len(ctx.x)
        flat = ctx._flat[s * d * d : (s + 1) * d * d]
        return [flat[k : k + d] for k in range(0, d * d, d)]

    return functools.cached_property(build)


class TranslationContext(Frozen):
    """Translation by w with its trivialization: the one per-vector record
    that the trivializer and the obstruction formulas read, in integers.

    Only gerbe, w and case are compared, hashed and shown.  Every record
    is its lift: (dw, x, ix) is `TorusData.lift` of w and den = dw*den0,
    for den0 = 16*dj**3*de the `_Basis.den` of (torus, E).  Its matrices
    are over den: omega = E(w,.,.), f = F_w (the (1,1) piece by the case
    formulas, member or not), m = M_w = (J^T*omega_i - omega_i*J)/8 - F_w
    for omega_i = E(iw,.,.), and r = R_w = L_w - J^T*F_w/2.  The unitary
    first character of (w1, w2) is lam -> w1^T*M_w2*lam, the correction
    covector w1^T*R_w2; `kernel` reads R_w, M_w and F_w.

    Each matrix is linear in x, so a record builds its four matrices on
    first read as x^T times the d packed `_Basis.rows` (the matrices of
    e_1..e_d, built from the contractions once per (torus, E, case), in
    `GerbeData.tables`).  Its `member` is `symmetry.case_member` of its
    lift.  The obstruction decisions and the trivialization identity read
    no record matrix.
    """

    _fields = ("gerbe", "w", "case", "dw", "x", "ix", "den")
    _compare = ("gerbe", "w", "case")

    def __init__(self, gerbe, w, case, dw, x, ix, den):
        vars(self).update(gerbe=gerbe, w=w, case=case, dw=dw, x=x, ix=ix, den=den)

    @functools.cached_property
    def member(self) -> bool:
        """Whether w is in the case subgroup: `case_member` of its lift."""
        return case_member(self.gerbe.tables, self.case, self.dw, self.x)

    @functools.cached_property
    def _flat(self) -> list[int]:
        """omega, f, m and r flattened: x^T times the basis's packed `rows`."""
        return _basis_records(self.gerbe, self.case).rows.times(self.x)

    omega, f, m, r = map(_block, range(4))

    @staticmethod
    def create(
        gerbe: GerbeData, w, case: SubgroupCase, check: bool = True
    ) -> "TranslationContext":
        """The record of w, `_lifted_record`; a ValueError naming w unless
        it has the torus's dimension, and with check, NotInSubgroup outside
        the subgroup, read off `member`."""
        case = SubgroupCase(case)
        w = sized_vector(w, gerbe.torus.dim, "w")
        data = _lifted_record(gerbe, w, case)
        if check:
            require_case_member(data.member, case)
        return data

    @functools.cached_property
    def dec(self) -> Decomposition:
        g = self.gerbe
        return case_decomposition(g.torus, g.e, self.w, self.case, check=False)

    @functools.cached_property
    def kernel(self) -> tuple[int, tuple]:
        """(den, (qre, qim, re, im)): the trivializer as four d x d integer
        matrices over one denominator, `_kernel_blocks` of the record."""
        return _kernel_den(self), _kernel_blocks(self)

def _kernel_den(ctx) -> int:
    """4*dj*den of a record (or of a `_Basis`), the denominator of the
    kernel and of the residual."""
    return 4 * ctx.gerbe.torus.j_columns[0] * ctx.den


def _kernel_blocks(ctx: TranslationContext) -> tuple:
    """(qre, qim, re, im): the trivializer as four d x d integer matrices
    over k = `_kernel_den`, read off the record and J's columns alone.  At
    a lattice vector lam its linear part is (re + i*im)*lam / k and its
    constant lam^T*(qre + i*qim)*lam / k, where, with eps the integral
    piece (E(w,.,.) in the integral case, zero in the other),

        re  = -J^T*R_w                                  im  = -R_w
        qre = M_w/4 - (strict upper triangle of eps)/2  qim = J^T*F_w/4

    Only the symmetric part of qre enters the constant; that of M_w/4 is
    the symmetric part of J^T*omega_i/16 for omega_i = E(iw,.,.).
    """
    t = ctx.gerbe.torus
    dj = t.j_columns[0]
    # J^T*R = (R^T*J)^T, and J^T*F = -(F*J)^T
    rj, fj = t.times_j(list(zip(*ctx.r))), t.times_j(ctx.f)
    ke = 2 * dj if ctx.case is SubgroupCase.INTEGRAL else 0  # eps = E(w,.,.) or 0
    qre = [
        [dj * y - (ke * e if a < b else 0) for b, (y, e) in enumerate(zip(mr, er))]
        for a, (mr, er) in enumerate(zip(ctx.m, ctx.omega))
    ]
    qim = [[-y for y in row] for row in zip(*fj)]
    re = [[-4 * y for y in row] for row in zip(*rj)]
    im = [[-4 * dj * y for y in row] for row in ctx.r]
    return qre, qim, re, im


def _basis_index(dw: int, x) -> int:
    """k when x/dw is the lattice basis vector e_k, else -1."""
    return x.index(1) if dw == 1 and x.count(0) == len(x) - 1 and 1 in x else -1


def _lifted_record(gerbe: GerbeData, w: Vec, case: SubgroupCase) -> TranslationContext:
    """The record of w, its lift (dw, x, ix), unchecked: the basis's own
    record of a basis vector when gerbe built the basis, else a new one."""
    dw, x, ix = gerbe.torus.lift(w)
    basis, k = _basis_records(gerbe, case), _basis_index(dw, x)
    if k >= 0 and basis.gerbe is gerbe:
        return basis.records[k]
    return TranslationContext(gerbe, w, case, dw, x, ix, dw * basis.den)


def _basis_row(gerbe: GerbeData, w: Vec, case: SubgroupCase, den: int) -> list[int]:
    """omega, f, m and r of the record of w flattened, over den =
    16*dj**3*de*dw, built from the contractions of E by w and iw;
    `_basis_records` runs it at the basis vectors, once per (torus, E,
    case)."""
    t = gerbe.torus
    _, _, _, do, omega, omega_i, l = forms_over(t, gerbe.e, w)
    coords = [omega[p][q] for p, q in itertools.combinations(range(t.dim), 2)]
    f, df = pullback_over(t, coords, do, *invariant_coefficients(case))
    f = alternating_matrix(f, t.dim)
    # omega_i*J and F*J, times dj; J^T*F = -(F*J)^T as F is alternating
    xj, zj = t.times_j(omega_i), t.times_j(f)
    dj, ks = t.j_columns[0], range(t.dim)
    # the case coefficients have denominator 8, so df = 8*dj**2*do
    kf, kz = den // df, den // (2 * dj * df)
    omega, f = [[den // do * y for y in row] for row in omega], [[kf * y for y in row] for row in f]
    m = [[-2 * dj * (xj[a][b] + xj[b][a]) - f[a][b] for b in ks] for a in ks]
    r = [[dj * dj * l[a][b] + kz * zj[b][a] for b in ks] for a in ks]
    return [y for mat in (omega, f, m, r) for row in mat for y in row]


class _Basis(Frozen):
    """The lattice basis e_1..e_d of a (torus, E, case) as d packed rows:
    row k of `rows` is `_basis_row` of e_k, so rows.times(x) is the four
    matrices of x/dw flattened, over dw*den.  gerbe is the gerbe that built
    it.  The `records` of e_1..e_d (its lifts) and the identity's
    `residual_rows` are built on first use.  Compared by identity."""

    _fields = ("gerbe", "case", "den", "rows")
    __eq__, __hash__ = object.__eq__, object.__hash__

    @functools.cached_property
    def records(self) -> tuple[TranslationContext, ...]:
        """The records of e_1..e_d: the gerbe's lifts, as any record."""
        g, t, case, den = self.gerbe, self.gerbe.torus, self.case, self.den
        return tuple([TranslationContext(g, ek, case, *t.lift(ek), den) for ek in t.basis()])

    @functools.cached_property
    def residual_rows(self) -> PackedRows:
        """Packed row k: the residual of every basis pair at w = e_k over k0
        = `_kernel_den` of record k, flattened.  The lattice coboundary of
        the trivializer T, T(l2)(v + l1) - T(l1 + l2)(v) + T(l1)(v), is the
        constant l1^T*(ar + i*ai)*l2, as T's linear part is linear in lam
        and its constant quadratic: ar = re - qre - qre^T and ai = im - qim
        - qim^T of record k's `_kernel_blocks` (not cached on the records).
        Row k of the factor rows of `GerbeTables.factors`, over (dre, dim),
        is added times k0/dre and k0/dim."""
        k0, (dre, dim, factors, _) = _kernel_den(self), self.gerbe.tables.factors
        n = len(self.records) ** 2
        scales = [k0 // dre] * n + [k0 // dim] * n
        rows = []
        for (qre, qim, re, im), h in zip(map(_kernel_blocks, self.records), factors.rows):
            halves = ((re, qre), (im, qim))
            cob = (x - y - z for a, q in halves for r in zip(a, q, zip(*q)) for x, y, z in zip(*r))
            rows.append([c + s * y for c, s, y in zip(cob, scales, h)])
        return PackedRows(rows)


def _basis_records(gerbe: GerbeData, case: SubgroupCase) -> _Basis:
    """The `_Basis` of case in the gerbe's tables, built by the gerbe that asks first."""
    return gerbe.tables.table(case, _build_basis, gerbe, case)


def _build_basis(gerbe: GerbeData, case: SubgroupCase) -> _Basis:
    t = gerbe.torus
    den = 16 * t.j_columns[0] ** 3 * gerbe.e.int_entries[0]
    rows = PackedRows([_basis_row(gerbe, ek, case, den) for ek in t.basis()])
    return _Basis(gerbe, case, den, rows)


def unitarize_exponent(ctx: TranslationContext, lam) -> ExponentFn:
    """Exponent of the holomorphic factor -i*l(w,v,lam) - l(w,iv,lam) at a
    lattice vector, for l = exponent_im: the covector of v -> l(w,v,lam)
    is (l(w,e_k,lam))_k, and that of v -> l(w,iv,lam) is J^T times it."""
    t, e3 = ctx.gerbe.torus, ctx.gerbe.e
    lam = lattice_vector(lam, t.dim, "lam")
    im = [exponent_im(t, e3, ctx.w, ek, lam) for ek in t.basis()]
    return -ExponentFn(0, mat_vec(t.jt, im), im)


def symmetric_part_exponent(ctx: TranslationContext, lam) -> Fraction:
    """Constant exponent E(iw, i*lam, lam) / 16 at a lattice vector.

    Its coboundary cancels the symmetric part of the real factor left after
    unitarizing, which is what the trivialization identity requires.
    """
    t = ctx.gerbe.torus
    lam = lattice_vector(lam, t.dim, "lam")
    return ctx.gerbe.e.evaluate(t.mul_i(ctx.w), t.mul_i(lam), lam) / 16


def integral_part_exponent(ctx: TranslationContext, lam) -> Fraction:
    """Constant exponent -1/2 * sum_{i<j} lam_i lam_j eps_ij over the basis
    in index order; defined for lattice vectors only."""
    lam = lattice_vector(lam, ctx.gerbe.torus.dim, "lam")
    eps = ctx.dec.integral_part
    pairs = itertools.combinations(range(len(lam)), 2)
    return -sum([lam[i] * lam[j] * eps.entry(i, j) for i, j in pairs], Fraction(0)) / 2


def invariant_part_exponent(ctx: TranslationContext, lam) -> ExponentFn:
    """Exponent i/2*F(iv,lam) - 1/2*F(v,lam) + i/4*F(i*lam,lam) at a lattice
    vector, for the (1,1) piece F of the decomposition; holomorphic in v."""
    t = ctx.gerbe.torus
    lam = lattice_vector(lam, t.dim, "lam")
    f = ctx.dec.invariant_part
    flam = f.apply(lam)
    lin_re = tuple(-x / 2 for x in flam)
    lin_im = tuple(x / 2 for x in mat_vec(t.jt, flam))
    const = GaussianRational(Fraction(0), f.evaluate(t.mul_i(lam), lam) / 4)
    return ExponentFn(const, lin_re, lin_im)


def trivializing_exponent(ctx: TranslationContext, lam) -> ExponentFn:
    """Exponent of the full trivializing cochain at a lattice vector: the
    sum of the four factors above, read off the blocks of ctx.kernel."""
    x = [v.numerator for v in lattice_vector(lam, ctx.gerbe.torus.dim, "lam")]
    den, (qre, qim, re, im) = ctx.kernel
    const = [Fraction(int_dot(int_vec_mat(x, q), x), den) for q in (qre, qim)]
    lin = ([Fraction(int_dot(row, x), den) for row in m] for m in (re, im))
    return ExponentFn(GaussianRational(*const), *lin)


def _lattice_pair(ctx: TranslationContext, l1, l2) -> list[list[int]]:
    """[l1, l2] as integer lists, checked as `translation_factor` checks them."""
    d = ctx.gerbe.torus.dim
    pair = lattice_vector(l1, d, "l1"), lattice_vector(l2, d, "l2")
    return [[v.numerator for v in lam] for lam in pair]


def _residual(ctx: TranslationContext) -> tuple[int, list, list]:
    """(k, re, im): the halves of x^T*`_Basis.residual_rows`, whose entry
    a*d + b over k = `_kernel_den` is the residual at (e_a, e_b).  By
    bilinearity the residual at (x1, x2) is [u*v for u in x1 for v in x2]
    dotted with each half over k: an integer constant when the real dot is
    divisible by k and the imaginary one is zero.  Every lattice pair is
    decided on this residual.
    """
    flat = _basis_records(ctx.gerbe, ctx.case).residual_rows.times(ctx.x)
    n = len(ctx.x) ** 2
    return _kernel_den(ctx), flat[:n], flat[n:]


def _check_at_w(ctx: TranslationContext) -> None:
    """Raise InternalMismatch unless h = x^T*rows, the translation factors
    of the basis pairs read off `GerbeTables.factors`, is the factor at w
    itself, from E and J: one `exponent_over` call decides all d**2 pairs.

    The factor is trilinear, so at (w, sum_a B**(d*a)*e_a, sum_b B**b*e_b)
    each numerator is sum_(a,b) B**(d*a + b) times its value at (w, e_a,
    e_b), over dw times the rows' denominators.  Every such value is at most
    h0*sum_k |x_k| = hw in absolute value for h0 the entry's digit bound,
    so with B = 2*hw + 1 the `balanced_digits` of the numerators, in
    row-major order, are those values and the rest is 0.
    """
    g, d = ctx.gerbe, len(ctx.x)
    t, (dre, dim, rows, h0) = g.torus, g.tables.factors
    h = rows.times(ctx.x)
    hw = h0 * sum(map(abs, ctx.x))
    firsts, seconds = ([(2 * hw + 1) ** (s * k) for k in range(d)] for s in (d, 1))
    packed = [(1, y, t.mul_i_over(y)) for y in (firsts, seconds)]
    re, dre_w, im, dim_w = exponent_over(t, g.e, (ctx.dw, ctx.x, ctx.ix), *packed)
    if (
        (dre_w, dim_w) != (ctx.dw * dre, ctx.dw * dim)
        or balanced_digits(re, hw, d * d) != [*h[: d * d], 0]
        or balanced_digits(im, hw, d * d) != [*h[d * d :], 0]
    ):
        raise InternalMismatch("the factor rows disagree with the translation factor at w")


def trivialization_residual(ctx: TranslationContext, l1, l2) -> ExponentFn:
    """Exponent of exp(H_{l1,l2}(w)) times the coboundary of the trivializer.

    The coboundary is a constant bilinear in (l1, l2), so the linear part
    is zero here by construction; for w in the decomposition subgroup the
    constant is a real integer.  It is read off `_residual`, as
    `first_failing_pair` reads it, after `_check_at_w`.
    """
    x1, x2 = _lattice_pair(ctx, l1, l2)
    k, re, im = _residual(ctx)
    _check_at_w(ctx)
    pair = [u * v for u in x1 for v in x2]
    zero = (Fraction(0),) * len(x1)
    const = GaussianRational(Fraction(int_dot(pair, re), k), Fraction(int_dot(pair, im), k))
    return ExponentFn(const, zero, zero)


def residual_is_trivial(r: ExponentFn) -> bool:
    return r.linear_part_is_zero and r.const.im == 0 and r.const.re.denominator == 1


def random_verification_pairs(
    dim: int, count: int = 10, seed: int = 0
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """count seeded integer pairs in [-3, 3], generated lazily as `int`
    tuples: each is one draw below 7**(2*dim), whose base-7 digits minus 3,
    lowest first, are l1 and then l2.  ValueError for count < 0."""
    if count < 0:
        raise ValueError("the random pair count must be non-negative")
    return _seeded_pairs(dim, count, seed)


def _seeded_pairs(dim: int, count: int, seed: int):
    """`random_verification_pairs` once its count is checked: nothing is
    seeded or drawn before the first pair is read."""
    rng, powers = random.Random(seed), [7**k for k in range(2 * dim)]
    for n in map(rng.randrange, [7 ** (2 * dim)] * count):
        digits = [n // p % 7 - 3 for p in powers]
        yield tuple(digits[:dim]), tuple(digits[dim:])


def first_failing_pair(
    ctx: TranslationContext,
    pairs: Iterable[Sequence] | None = None,
    extra_random: int = 10,
    seed: int = 0,
) -> tuple[Vec, Vec] | None:
    """The first pair whose residual is not an integer constant, or None.

    Without explicit pairs the dim**2 basis pairs (e_a, e_b), in row-major
    order, come first and decide, since the residual is bilinear; they are
    decided together on `_residual`, one table product that holds the
    trivializer's coboundary and the translation factors of the gerbe's
    `GerbeTables.factors` (from E and J).  When every basis pair passes, two
    self-checks follow, and a failure of either after a passing basis can
    only be a program fault and raises InternalMismatch:
    - `_check_at_w` compares the factors x^T*rows with the translation
      factor at w itself, from E and J, in one packed `exponent_over` call;
    - the extra_random `random_verification_pairs` of seed are read off
      the residual's two flattened halves, one Kronecker list and two dots
      each.  A seeded pair's residual is an integer combination of the
      entries the basis has just cleared, so it can fail only on a fault
      in that reading (`int_dot`).
    Explicit pairs are read off the same halves, one at a time and in
    order, after `_check_at_w`, so each verdict rests on the factor at w.
    """
    d = ctx.gerbe.torus.dim
    drawn = random_verification_pairs(d, extra_random, seed)
    k, re, im = _residual(ctx)
    if pairs is None:
        # the first basis pair (e_a, e_b), at a*d + b, that fails
        failing = next((n for n, (y, z) in enumerate(zip(re, im)) if z or y % k), None)
        if failing is not None:
            return tuple(basis_vec(d, a) for a in divmod(failing, d))
    _check_at_w(ctx)
    checked = drawn if pairs is None else (_lattice_pair(ctx, l1, l2) for l1, l2 in pairs)
    for x1, x2 in checked:
        pair = [u * v for u in x1 for v in x2]
        if int_dot(pair, im) or int_dot(pair, re) % k:
            if pairs is None:
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
    vector and its linear part is linear in it, so the residual at (l1, l2)
    is a constant bilinear in them: the coboundary of the trivializer plus
    the translation factor H_{l1,l2}(w), which comes from E and J.  Every
    pair is read off one residual, x^T times per-(torus, E, case) integer
    rows that hold both.  Without explicit pairs the dim**2 basis pairs
    decide the identity on the whole lattice, all at once.  Two self-checks
    follow a passing basis: the factors read off the rows are compared
    with the factor at w itself, from E and J, for all basis pairs in one
    packed evaluation, and the extra_random seeded pairs, one draw each,
    are read off the same residual, which can fail only on a fault in that
    reading.  Either failing raises InternalMismatch; a negative
    extra_random is a ValueError.  Every pair checks that the imaginary
    constant cancels and the real one is an integer.  With explicit pairs
    the check at w runs first and the answer is whether all of them pass.
    False witnesses that w is not a symmetry of the gerbe for the chosen
    case.
    """
    return first_failing_pair(ctx, pairs, extra_random, seed) is None
