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

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact import GaussianRational, Vec, mat_vec, to_vec, vec_add, vec_is_integral
from .gerbe import ExponentFn, GerbeData, VectorForms, translation_factor
from .symmetry import Decomposition, SubgroupCase, contraction_decomposition
from .torus import contract3


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
        if len(w) != gerbe.torus.dim:
            raise ValueError("vector/torus dimension mismatch")
        omega = contract3(gerbe.e, w)
        return TranslationContext(
            gerbe=gerbe,
            w=w,
            case=case,
            dec=contraction_decomposition(gerbe.torus, omega, case, check),
            forms=VectorForms.of_contraction(gerbe.torus, gerbe.e, w, omega),
        )


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


def trivializing_exponent(ctx: TranslationContext, lam) -> ExponentFn:
    """Exponent of the full trivializing cochain at a lattice vector."""
    lam = to_vec(lam)
    fn = unitarize_exponent(ctx, lam) + invariant_part_exponent(ctx, lam)
    const = GaussianRational.real(
        symmetric_part_exponent(ctx, lam) + integral_part_exponent(ctx, lam)
    )
    return fn.add_const(const)


def trivialization_residual(ctx: TranslationContext, l1, l2) -> ExponentFn:
    """Exponent of exp(H_{l1,l2}(w)) times the coboundary of the trivializer.

    For w in the decomposition subgroup this is an integer constant; the
    linear part vanishes and the constant is real.
    """
    l1, l2 = to_vec(l1), to_vec(l2)
    h = translation_factor(ctx.gerbe, ctx.w, l1, l2)
    r = (
        trivializing_exponent(ctx, l2).shift(l1)
        - trivializing_exponent(ctx, vec_add(l1, l2))
        + trivializing_exponent(ctx, l1)
    )
    return r.add_const(h)


def residual_is_trivial(r: ExponentFn) -> bool:
    return (
        r.linear_part_is_zero
        and r.const.im == 0
        and r.const.re.denominator == 1
    )


def default_verification_pairs(
    dim: int, extra_random: int = 10, seed: int = 0
) -> list[tuple[Vec, Vec]]:
    """All ordered basis pairs plus seeded random integer pairs in [-3, 3]."""
    from .exact import basis_vec

    pairs = [
        (basis_vec(dim, a), basis_vec(dim, b)) for a in range(dim) for b in range(dim)
    ]
    rng = random.Random(seed)
    for _ in range(extra_random):
        l1 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
        l2 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
        pairs.append((l1, l2))
    return pairs


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
    if pairs is None:
        pairs = default_verification_pairs(ctx.gerbe.torus.dim, extra_random, seed)
    return all(
        residual_is_trivial(trivialization_residual(ctx, l1, l2)) for l1, l2 in pairs
    )
