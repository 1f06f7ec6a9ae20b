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
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

from .exact import (
    GaussianRational,
    Vec,
    basis_vec,
    mat_vec,
    to_vec,
    vec_add,
    vec_is_integral,
)
from .gerbe import ExponentFn, GerbeData, VectorForms, translation_factor
from .symmetry import Decomposition, SubgroupCase, contraction_decomposition


@dataclass(frozen=True)
class TranslationContext:
    """Everything needed to trivialize translation by a fixed w."""

    gerbe: GerbeData
    w: Vec
    case: SubgroupCase
    dec: Decomposition
    forms: VectorForms

    @staticmethod
    def create(
        gerbe: GerbeData, w, case: SubgroupCase, check: bool = True
    ) -> "TranslationContext":
        w = to_vec(w)
        forms = VectorForms.create(gerbe.torus, gerbe.e, w)
        return TranslationContext(
            gerbe=gerbe,
            w=w,
            case=case,
            dec=contraction_decomposition(gerbe.torus, forms.omega, case, check),
            forms=forms,
        )

    @functools.cached_property
    def kernel(self) -> tuple[int, tuple, tuple, tuple, tuple]:
        """(den, re, im, qre, qim): the trivializer as integer matrices over
        one denominator.  At a lattice vector lam its linear part is
        (re + i*im)*lam / den and its constant lam^T*(qre + i*qim)*lam / den,
        where, with F and eps the (1,1) and integral pieces, L the bilinear
        form of the vector record and omega_i = E(iw,.,.),

            re  = -J^T*L - F/2           im  = -L + J^T*F/2
            qre = J^T*omega_i/16 - (strict upper triangle of eps)/2
            qim = J^T*F/4

        Each matrix is a tuple of sparse rows ((column, entry), ...).
        """
        d = self.gerbe.torus.dim
        dj, cols = self.gerbe.torus.j_columns
        dl = lcm(*[x.denominator for row in self.forms.l for x in row])
        l = [[x.numerator * (dl // x.denominator) for x in row] for row in self.forms.l]
        (df, f), (do, om), (de, eps) = (
            (x.den, x.int_matrix())
            for x in (self.dec.invariant_part, self.forms.omega_i, self.dec.integral_part)
        )

        def jt(m):  # dj * J^T * m for an integer matrix m
            return [
                [sum(x * m[p][b] for p, x in col) for b in range(d)] for col in cols
            ]

        jl, jf, jo = jt(l), jt(f), jt(om)
        g = lcm(dl, df, do, de)
        # each term's factor is den = 16*dj*g over that term's denominator
        kl, kf, kq = 16 * g // dl, 8 * g // df, 4 * g // df
        ko, ke = g // do, 8 * dj * g // de
        r = range(d)
        re = [[-kl * jl[a][b] - dj * kf * f[a][b] for b in r] for a in r]
        im = [[-dj * kl * l[a][b] + kf * jf[a][b] for b in r] for a in r]
        qre = [[ko * jo[a][b] - (ke * eps[a][b] if a < b else 0) for b in r] for a in r]
        qim = [[kq * x for x in row] for row in jf]
        return (16 * dj * g, *(_sparse_rows(m) for m in (re, im, qre, qim)))


def _sparse_rows(m: list[list[int]]) -> tuple:
    """The rows ((column, entry), ...) of the nonzero entries of m."""
    return tuple([tuple([(b, x) for b, x in enumerate(row) if x]) for row in m])


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
    total = Fraction(0)
    d = len(lam)
    for i in range(d):
        if lam[i] == 0:
            continue
        for j in range(i + 1, d):
            if lam[j] != 0:
                total += lam[i] * lam[j] * eps.entry(i, j)
    return -total / 2


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


def _trivializer_numerators(ctx: TranslationContext, lam: Vec) -> list[int]:
    """[const_re, const_im, *lin_re, *lin_im] of the trivializer at a lattice
    vector, as numerators over the denominator of ctx.kernel."""
    if len(lam) != ctx.gerbe.torus.dim:
        raise ValueError("dimension mismatch")
    if not vec_is_integral(lam):
        raise ValueError("defined on lattice (integer) vectors only")
    _, re, im, qre, qim = ctx.kernel
    x = [v.numerator for v in lam]
    return [
        sum(xa * sum(c * x[b] for b, c in row) for xa, row in zip(x, q) if xa)
        for q in (qre, qim)
    ] + [sum(c * x[b] for b, c in row) for m in (re, im) for row in m]


def _exponent_of(nums: list[int], den: int) -> ExponentFn:
    """The ExponentFn whose [const_re, const_im, *lin_re, *lin_im] is nums / den."""
    f = [Fraction(y, den) for y in nums]
    d = (len(f) - 2) // 2
    lin_re, lin_im = tuple(f[2 : 2 + d]), tuple(f[2 + d :])
    return ExponentFn(GaussianRational(f[0], f[1]), lin_re, lin_im)


def trivializing_exponent(ctx: TranslationContext, lam) -> ExponentFn:
    """Exponent of the full trivializing cochain at a lattice vector: the
    sum of the four factors above, evaluated through ctx.kernel."""
    return _exponent_of(_trivializer_numerators(ctx, to_vec(lam)), ctx.kernel[0])


def trivialization_residual(ctx: TranslationContext, l1, l2) -> ExponentFn:
    """Exponent of exp(H_{l1,l2}(w)) times the coboundary of the trivializer.

    For w in the decomposition subgroup this is an integer constant; the
    linear part vanishes and the constant is real.  The coboundary
    T(l2)(v + l1) - T(l1 + l2)(v) + T(l1)(v) of the trivializer T is
    combined from its three evaluations in integers over ctx.kernel's den.
    """
    l1, l2 = to_vec(l1), to_vec(l2)
    h = translation_factor(ctx.gerbe, ctx.w, l1, l2)
    t2, t12, t1 = (_trivializer_numerators(ctx, v) for v in (l2, vec_add(l1, l2), l1))
    r = [a - b + c for a, b, c in zip(t2, t12, t1)]
    # evaluating T(l2) at v + l1 adds its linear part at l1 to the constant
    d = len(l1)
    x1 = [v.numerator for v in l1]
    r[0] += sum(y * x for y, x in zip(t2[2 : 2 + d], x1))
    r[1] += sum(y * x for y, x in zip(t2[2 + d :], x1))
    return _exponent_of(r, ctx.kernel[0]).add_const(h)


def residual_is_trivial(r: ExponentFn) -> bool:
    return (
        r.linear_part_is_zero
        and r.const.im == 0
        and r.const.re.denominator == 1
    )


def default_verification_pairs(
    dim: int, extra_random: int = 10, seed: int = 0
) -> Iterator[tuple[Vec, Vec]]:
    """All ordered basis pairs, then seeded random integer pairs in [-3, 3],
    generated lazily: dim**2 + extra_random pairs in all."""
    basis = [basis_vec(dim, a) for a in range(dim)]
    for a in basis:
        for b in basis:
            yield a, b
    rng = random.Random(seed)
    for _ in range(extra_random):
        l1 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
        l2 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
        yield l1, l2


def first_failing_pair(
    ctx: TranslationContext,
    pairs: Iterable[Sequence] | None = None,
    extra_random: int = 10,
    seed: int = 0,
) -> tuple[Vec, Vec] | None:
    """The first pair whose residual is not an integer constant, or None.

    Without explicit pairs the default pairs are checked in order, so the
    basis pairs come first; the pairs are consumed one at a time.
    """
    if pairs is None:
        pairs = default_verification_pairs(ctx.gerbe.torus.dim, extra_random, seed)
    for l1, l2 in pairs:
        if not residual_is_trivial(trivialization_residual(ctx, l1, l2)):
            return to_vec(l1), to_vec(l2)
    return None


def verify_trivialization(
    ctx: TranslationContext,
    pairs: Iterable[Sequence] | None = None,
    extra_random: int = 10,
    seed: int = 0,
) -> bool:
    """Whether the trivialization identity holds on all sampled lattice pairs.

    Each factor of the trivializer is at most quadratic in the lattice
    vector, so the residual is bilinear in (l1, l2), its constant part
    included: the basis pairs among the default pairs already decide the
    identity on the whole lattice, and the random pairs are an independent
    extra check.  Failure for some pair witnesses that w is not a symmetry
    of the gerbe for the chosen case.
    """
    return first_failing_pair(ctx, pairs, extra_random, seed) is None
