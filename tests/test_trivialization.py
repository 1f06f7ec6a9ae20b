"""Trivializing cochain factors and the exact cancellation chain.

The four factor exponents are checked term-by-term against the raw
defining formulas, and the full verifier is exercised both on symmetries
(identity holds) and on non-symmetries (identity fails), which is the
decidable content of the symmetry criterion.
"""

import functools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgerbe import (
    AltForm2,
    AltForm3,
    GaussianRational,
    GerbeData,
    NotInSubgroup,
    ObstructionKind,
    SubgroupCase,
    SubgroupSpec,
    TranslationContext,
    exponent_im,
    in_case_subgroup,
    integral_part_exponent,
    invariant_part_exponent,
    obstruction_vanishes,
    symmetric_part_exponent,
    translation_factor,
    trivialization_residual,
    trivializing_exponent,
    unitarize_exponent,
    verify_trivialization,
)
import torusgerbe.exact
from torusgerbe.exact import PackedRows, basis_vec, int_vec_mat, vec_add
from torusgerbe.trivialization import residual_is_trivial

from helpers import (
    conjugated_instance,
    e,
    gerbe4,
    gerbe6,
    rand_altform3_int,
    rand_rational_vec,
    rand_vec,
    reference_exponent_im,
    reference_exponent_re,
    sample_integral_instance,
    sample_oneone_instance,
    torus4,
    vec,
)

INT = SubgroupCase.INTEGRAL
ONEONE = SubgroupCase.TYPE_ONE_ONE


def ctx4(e_scale, w, case=INT, check=True):
    return TranslationContext.create(gerbe4(e_scale), w, case, check=check)


class TestUnitarizeExponent:
    def test_zero_form(self):
        t = torus4()
        g = GerbeData(t, AltForm2.zero(4), AltForm3.zero(4))
        ctx = TranslationContext.create(g, vec(F(1, 3), 0, 0, 0), INT)
        assert unitarize_exponent(ctx, e(4, 2)).is_zero

    def test_zero_lattice_argument(self):
        ctx = ctx4(1, e(4, 1))
        assert unitarize_exponent(ctx, vec(0, 0, 0, 0)).is_zero

    def test_fixture_covectors(self):
        # hand-computed at w = e1, lam = e2 for the unit 3-form
        ctx = ctx4(1, e(4, 1))
        fn = unitarize_exponent(ctx, e(4, 2))
        assert fn.const.is_zero
        assert fn.lin_re == vec(0, 0, F(-1, 16), 0)
        assert fn.lin_im == vec(0, 0, 0, F(-1, 16))

    def test_matches_trilinear_definition(self):
        # covector caching must agree with the direct trilinear values
        rng = random.Random(0)
        for _ in range(8):
            g, w = sample_integral_instance(rng)
            ctx = TranslationContext.create(g, w, INT)
            lam = rand_vec(rng, 4)
            fn = unitarize_exponent(ctx, lam)
            t = g.torus
            for k in range(4):
                ek = basis_vec(4, k)
                assert fn.lin_im[k] == -reference_exponent_im(t, g.e, w, ek, lam)
                assert fn.lin_re[k] == -reference_exponent_im(
                    t, g.e, w, t.mul_i(ek), lam
                )

    def test_holomorphic(self):
        rng = random.Random(1)
        for _ in range(8):
            g, w = sample_integral_instance(rng)
            ctx = TranslationContext.create(g, w, INT)
            assert unitarize_exponent(ctx, rand_vec(rng, 4)).is_holomorphic(g.torus)


class TestSymmetricPartExponent:
    def test_diagonal_zero(self):
        ctx = ctx4(1, e(4, 1))
        assert symmetric_part_exponent(ctx, e(4, 1)) == 0

    def test_frozen_value(self):
        # w = e4/7, lam = e2: E(Jw, J*lam, lam)/16 = E(e3,e1,e2)/(7*16)
        ctx = ctx4(1, vec(0, 0, 0, F(1, 7)))
        assert symmetric_part_exponent(ctx, e(4, 2)) == F(1, 112)

    def test_both_contractions_zero(self):
        t = torus4()
        g = GerbeData(t, AltForm2.zero(4), AltForm3.zero(4))
        ctx = TranslationContext.create(g, vec(1, 2, 3, 4), INT)
        assert symmetric_part_exponent(ctx, e(4, 1)) == 0

    def test_weighted_form_simplifies(self):
        # (3/2)E(iw,i*lam,lam) + (1/2)E(iw,lam,i*lam) == E(iw,i*lam,lam)
        rng = random.Random(2)
        t = torus4()
        for _ in range(10):
            f = rand_altform3_int(rng, 4)
            w = rand_rational_vec(rng, 4)
            lam = rand_vec(rng, 4)
            iw, ilam = t.mul_i(w), t.mul_i(lam)
            weighted = (
                F(3, 2) * f.evaluate(iw, ilam, lam)
                + F(1, 2) * f.evaluate(iw, lam, ilam)
            )
            assert weighted == f.evaluate(iw, ilam, lam)


class TestIntegralPartExponent:
    def test_basis_vector_empty_sum(self):
        ctx = ctx4(2, vec(F(1, 2), 0, 0, 0))
        for k in range(1, 5):
            assert integral_part_exponent(ctx, e(4, k)) == 0

    def test_single_cross_term(self):
        # integral part e2^e3 for this w; lam = e2 + e3 gives -1/2
        ctx = ctx4(2, vec(F(1, 2), 0, 0, 0))
        assert ctx.dec.integral_part == AltForm2.from_pairs(4, {(1, 2): 1})
        assert integral_part_exponent(ctx, vec(0, 1, 1, 0)) == F(-1, 2)

    def test_zero_integral_part(self):
        g = gerbe6()
        ctx = TranslationContext.create(g, vec(F(1, 2), 0, 0, 0, 0, 0), ONEONE)
        assert ctx.dec.integral_part.is_zero
        assert integral_part_exponent(ctx, vec(1, 1, 1, 1, 1, 1)) == 0

    def test_lattice_only(self):
        ctx = ctx4(2, vec(F(1, 2), 0, 0, 0))
        with pytest.raises(ValueError):
            integral_part_exponent(ctx, vec(F(1, 2), 0, 0, 0))

    def test_length_is_checked(self):
        # a short vector summed over its own coordinates read 0, a long one
        # raised IndexError; both are the package's dimension mismatch
        contexts = (
            ctx4(2, vec(F(1, 2), 0, 0, 0)),
            TranslationContext.create(gerbe6(), vec(F(1, 2), 0, 0, 0, 0, 0), ONEONE),
        )
        for ctx in contexts:
            d = ctx.gerbe.torus.dim
            for lam in ((1,), (1,) * (d - 1), (1,) * (d + 1), (0,) * (d + 3)):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    integral_part_exponent(ctx, lam)
            assert integral_part_exponent(ctx, (0,) * d) == 0


class TestInvariantPartExponent:
    def test_zero_invariant_part(self):
        t = torus4()
        g = GerbeData(t, AltForm2.zero(4), AltForm3.zero(4))
        ctx = TranslationContext.create(g, vec(1, 0, 0, 0), INT)
        assert invariant_part_exponent(ctx, e(4, 2)).is_zero

    def test_fixture_constant(self):
        # constant is i/4 * F(J*lam, lam) for the decomposition piece F
        ctx = ctx4(2, vec(F(1, 2), 0, 0, 0))
        fw = ctx.dec.invariant_part
        for k in range(1, 5):
            lam = e(4, k)
            fn = invariant_part_exponent(ctx, lam)
            t = ctx.gerbe.torus
            assert fn.const == GaussianRational(
                F(0), fw.evaluate(t.mul_i(lam), lam) / 4
            )

    def test_zero_linear_part_when_contraction_vanishes(self):
        ctx = ctx4(2, vec(F(1, 2), 0, 0, 0))
        fw = ctx.dec.invariant_part
        # find lam with F(., lam) = 0: e1-column of the fixture piece
        lam = e(4, 1)
        if all(fw.evaluate(basis_vec(4, k), lam) == 0 for k in range(4)):
            fn = invariant_part_exponent(ctx, lam)
            assert fn.lin_re == vec(0, 0, 0, 0) and fn.lin_im == vec(0, 0, 0, 0)

    def test_holomorphic(self):
        rng = random.Random(3)
        for _ in range(8):
            g, w = sample_integral_instance(rng)
            ctx = TranslationContext.create(g, w, INT)
            fn = invariant_part_exponent(ctx, rand_vec(rng, 4))
            assert fn.is_holomorphic(g.torus)


class TestTrivializingExponent:
    def test_zero_translation(self):
        ctx = ctx4(1, vec(0, 0, 0, 0))
        for k in range(1, 5):
            assert trivializing_exponent(ctx, e(4, k)).is_zero

    def test_sum_of_factor_oracle(self):
        # term-by-term expansion of all four factors, composed in-test
        rng = random.Random(4)
        for _ in range(6):
            g, w = sample_integral_instance(rng)
            t = g.torus
            ctx = TranslationContext.create(g, w, INT)
            lam = rand_vec(rng, 4, -2, 2)
            got = trivializing_exponent(ctx, lam)
            ilam = t.mul_i(lam)
            eps = ctx.dec.integral_part
            fw = ctx.dec.invariant_part
            const = GaussianRational(
                g.e.evaluate(t.mul_i(w), ilam, lam) / 16
                - sum(
                    (
                        lam[i] * lam[j] * eps.entry(i, j)
                        for i in range(4)
                        for j in range(i + 1, 4)
                    ),
                    F(0),
                )
                / 2,
                fw.evaluate(ilam, lam) / 4,
            )
            for _ in range(3):
                v = rand_rational_vec(rng, 4)
                iv = t.mul_i(v)
                expected = (
                    const
                    + GaussianRational(
                        -reference_exponent_im(t, g.e, w, iv, lam)
                        - fw.evaluate(v, lam) / 2,
                        -reference_exponent_im(t, g.e, w, v, lam)
                        + fw.evaluate(iv, lam) / 2,
                    )
                )
                assert got.evaluate(v) == expected

    def test_holomorphic_everywhere(self):
        rng = random.Random(5)
        for sampler in (sample_integral_instance, sample_oneone_instance):
            for _ in range(4):
                g, w = sampler(rng)
                case = INT if sampler is sample_integral_instance else ONEONE
                ctx = TranslationContext.create(g, w, case)
                fn = trivializing_exponent(ctx, rand_vec(rng, g.torus.dim, -2, 2))
                assert fn.is_holomorphic(g.torus)


class TestCancellationChain:
    """The four coboundary steps, exactly, on random symmetric data."""

    def _delta_const(self, values, l1, l2):
        # coboundary of a constant-in-v cochain given as a callable
        return values(l2) - values(vec_add(l1, l2)) + values(l1)

    def test_unitarize_step(self):
        # translation factor plus the unitarizer coboundary is the real
        # residual k(w,l1,l2) - l(w,i*l1,l2)
        rng = random.Random(6)
        for _ in range(10):
            g, w = sample_integral_instance(rng)
            t = g.torus
            ctx = TranslationContext.create(g, w, INT)
            l1, l2 = rand_vec(rng, 4, -2, 2), rand_vec(rng, 4, -2, 2)
            d_eta = (
                unitarize_exponent(ctx, l2).shift(l1)
                - unitarize_exponent(ctx, vec_add(l1, l2))
                + unitarize_exponent(ctx, l1)
            )
            assert d_eta.linear_part_is_zero
            total = translation_factor(g, w, l1, l2) + d_eta.const
            expected = reference_exponent_re(
                t, g.e, w, l1, l2
            ) - reference_exponent_im(t, g.e, w, t.mul_i(l1), l2)
            assert total == GaussianRational.real(expected)

    def test_symmetric_step(self):
        # adding the constant-correction coboundary leaves exactly half of
        # the translation shift form
        rng = random.Random(7)
        for _ in range(10):
            g, w = sample_integral_instance(rng)
            t = g.torus
            ctx = TranslationContext.create(g, w, INT)
            l1, l2 = rand_vec(rng, 4, -2, 2), rand_vec(rng, 4, -2, 2)
            residual = reference_exponent_re(
                t, g.e, w, l1, l2
            ) - reference_exponent_im(t, g.e, w, t.mul_i(l1), l2)
            residual += self._delta_const(
                lambda lam: symmetric_part_exponent(ctx, lam), l1, l2
            )
            halves = (ctx.dec.invariant_part + ctx.dec.integral_part).evaluate(l1, l2) / 2
            assert residual == halves

    def test_integral_step_mod_one(self):
        # eps(l1,l2)/2 plus the quadratic coboundary is an integer, and is
        # genuinely nonzero for some pairs
        rng = random.Random(8)
        nonzero_seen = False
        for _ in range(10):
            g, w = sample_integral_instance(rng)
            ctx = TranslationContext.create(g, w, INT)
            l1, l2 = rand_vec(rng, 4, -2, 2), rand_vec(rng, 4, -2, 2)
            val = ctx.dec.integral_part.evaluate(l1, l2) / 2 + self._delta_const(
                lambda lam: integral_part_exponent(ctx, lam), l1, l2
            )
            assert val.denominator == 1
            nonzero_seen |= val != 0
        assert nonzero_seen

    def test_invariant_step_exact(self):
        # F(l1,l2)/2 plus the holomorphic-factor coboundary vanishes exactly
        rng = random.Random(9)
        for sampler, case in (
            (sample_integral_instance, INT),
            (sample_oneone_instance, ONEONE),
        ):
            for _ in range(6):
                g, w = sampler(rng)
                ctx = TranslationContext.create(g, w, case)
                dim = g.torus.dim
                l1, l2 = rand_vec(rng, dim, -2, 2), rand_vec(rng, dim, -2, 2)
                d_phi = (
                    invariant_part_exponent(ctx, l2).shift(l1)
                    - invariant_part_exponent(ctx, vec_add(l1, l2))
                    + invariant_part_exponent(ctx, l1)
                )
                assert d_phi.linear_part_is_zero
                total = d_phi.const + GaussianRational.real(
                    ctx.dec.invariant_part.evaluate(l1, l2) / 2
                )
                assert total.is_zero

    def test_recorded_identity(self):
        # l(w,v,i*lam) - l(w,iv,lam) == (E(iw,iv,lam) - E(iw,v,i*lam)) / 8
        rng = random.Random(10)
        t = torus4()
        for _ in range(10):
            f = rand_altform3_int(rng, 4)
            w, v, lam = (rand_rational_vec(rng, 4) for _ in range(3))
            iw, iv, ilam = t.mul_i(w), t.mul_i(v), t.mul_i(lam)
            lhs = exponent_im(t, f, w, v, ilam) - exponent_im(t, f, w, iv, lam)
            rhs = (f.evaluate(iw, iv, lam) - f.evaluate(iw, v, ilam)) / 8
            assert lhs == rhs


class TestVerifyTrivialization:
    def test_zero_translation(self):
        assert verify_trivialization(ctx4(1, vec(0, 0, 0, 0)))

    def test_core_fixture(self):
        assert verify_trivialization(ctx4(2, vec(F(1, 2), 0, 0, 0)))

    def test_non_symmetry_fails(self):
        bad = ctx4(1, vec(F(1, 3), 0, 0, 0), check=False)
        assert not verify_trivialization(bad)

    def test_failure_is_at_some_basis_pair(self):
        bad = ctx4(1, vec(F(1, 3), 0, 0, 0), check=False)
        failures = [
            (a, b)
            for a in range(1, 5)
            for b in range(1, 5)
            if not residual_is_trivial(trivialization_residual(bad, e(4, a), e(4, b)))
        ]
        assert failures

    def test_residual_is_integer_constant(self):
        rng = random.Random(11)
        g, w = sample_integral_instance(rng)
        ctx = TranslationContext.create(g, w, INT)
        r = trivialization_residual(ctx, vec(1, 2, 0, -1), vec(0, 1, 1, 1))
        assert r.linear_part_is_zero
        assert r.const.im == 0 and r.const.re.denominator == 1

    def test_oneone_fixture(self):
        g = gerbe6()
        ctx = TranslationContext.create(g, vec(F(1, 2), 0, 0, 0, 0, 0), ONEONE)
        assert verify_trivialization(ctx)

    def test_wrong_case_fails(self):
        # a vector in the (1,1) subgroup but outside the integral one
        g = gerbe6()
        w = vec(F(1, 2), 0, 0, 0, 0, 0)
        bad = TranslationContext.create(g, w, INT, check=False)
        assert not verify_trivialization(bad)


def _residual_context(label: str) -> TranslationContext:
    """Contexts in ("in") and out of ("out") the case subgroup; an "out"
    context applies the case formulas to a non-member (check=False)."""
    third = F(1, 3)
    if label.startswith("twisted"):
        case = INT if "integral" in label else ONEONE
        g, vectors = conjugated_instance(2, 1, case, twisted=True)
        w = vectors[0]
        if label.endswith("out"):
            w = tuple(third * x for x in w) if case is INT else vec(0, 0, third, 0)
    elif label.startswith("integral"):
        case, g = INT, gerbe4(2)
        w = vec(F(1, 2), 0, 0, 0) if label.endswith("in") else vec(third, 0, 0, 0)
    else:
        case, g = ONEONE, gerbe6()
        w = (
            vec(F(1, 2), 0, 0, F(1, 2), 0, 0)
            if label.endswith("in")
            else vec(0, 0, third, 0, 0, 0)
        )
    assert in_case_subgroup(g.torus, g.e, w, case) is label.endswith("in")
    return TranslationContext.create(g, w, case, check=False)


RESIDUAL_LABELS = [
    f"{kind}-{side}"
    for kind in ("integral", "oneone", "twisted-integral", "twisted-oneone")
    for side in ("in", "out")
]


class TestResidualBilinearity:
    """The residual is bilinear in (l1, l2), constant and linear part alike,
    so the basis pairs decide the trivialization identity on the lattice."""

    @pytest.mark.parametrize("label", RESIDUAL_LABELS)
    def test_out_of_subgroup_fails_at_a_basis_pair(self, label):
        ctx = _residual_context(label)
        d = ctx.gerbe.torus.dim
        trivial = [
            residual_is_trivial(
                trivialization_residual(ctx, basis_vec(d, a), basis_vec(d, b))
            )
            for a in range(d)
            for b in range(d)
        ]
        assert all(trivial) is label.endswith("in")

    @pytest.mark.parametrize("label", RESIDUAL_LABELS)
    @given(
        l1=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
        l2=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_residual_is_bilinear(self, label, l1, l2):
        ctx, basis = _basis_residuals(label)
        d = ctx.gerbe.torus.dim
        l1, l2 = vec(*l1[:d]), vec(*l2[:d])
        const = GaussianRational.real(0)
        lin_re = [F(0)] * d
        lin_im = [F(0)] * d
        for (a, b), r in basis.items():
            c = l1[a] * l2[b]
            const = const + r.const * c
            lin_re = [x + c * y for x, y in zip(lin_re, r.lin_re)]
            lin_im = [x + c * y for x, y in zip(lin_im, r.lin_im)]
        got = trivialization_residual(ctx, l1, l2)
        assert got.const == const
        assert got.lin_re == tuple(lin_re) and got.lin_im == tuple(lin_im)


@functools.cache
def _basis_residuals(label: str):
    ctx = _residual_context(label)
    d = ctx.gerbe.torus.dim
    return ctx, {
        (a, b): trivialization_residual(ctx, basis_vec(d, a), basis_vec(d, b))
        for a in range(d)
        for b in range(d)
    }


def pinned_gerbe() -> GerbeData:
    """A fresh gerbe4 with E = 2*e0^e1^e2 and B = e0^e1/2, no table built."""
    return gerbe4(2, AltForm2.from_pairs(4, {(0, 1): F(1, 2)}))


# w -> (member, default pairs, explicit pairs) in the integral case, then
# the same in the (1,1) case, and whether every table product runs the
# exact loop, past the 64-bit guard of `PackedRows`
PAST_THE_GUARD = {
    (F(2**70 + 1, 2**70), 0, 0, 0): ("FFT" "FFT", True),
    (2**70, 0, 0, 3): ("TTT" "FFT", True),
    (2**61, 2**61, 5, 7): ("TTT" "FFF", True),
    (F(1, 2**62), 0, 0, 1): ("FFT" "FFT", True),
    (F(3, 2**40), F(5, 7), 0, 1): ("FFT" "FFF", False),
}
PINNED_PAIRS = [((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (0, 1, 0, 1))]


class TestPackedProductsPastTheGuard:
    """Records, residuals and basis-pair factors of vectors with
    large numerators or denominators: the packed table products fall back
    to `int_vec_mat`, and every answer stays as it was."""

    @pytest.mark.parametrize("w", list(PAST_THE_GUARD), ids=range(len(PAST_THE_GUARD)))
    def test_answers_pinned_on_either_path(self, w, monkeypatch):
        expected, loops = PAST_THE_GUARD[w]
        looped, paths = [], []  # per `PackedRows.times` call: whether it looped
        times, exact_loop = PackedRows.times, torusgerbe.exact.int_vec_mat

        def counting_loop(x, m):
            looped.append(m)
            return exact_loop(x, m)

        def counting_times(table, x):
            before = len(looped)
            product = times(table, x)
            paths.append((table, len(looped) > before))
            return product

        monkeypatch.setattr(torusgerbe.exact, "int_vec_mat", counting_loop)
        monkeypatch.setattr(PackedRows, "times", counting_times)
        g, answers, tables = pinned_gerbe(), [], []
        for case in (INT, ONEONE):
            ctx = TranslationContext.create(g, w, case, check=False)
            explicit = verify_trivialization(ctx, PINNED_PAIRS)
            default = verify_trivialization(ctx)
            answers += [ctx.member, default, explicit]
            basis, factors = g.basis_records[case], g.factor_rows[2]
            residual = basis.residual_rows
            tables += [basis.rows, residual, factors, residual] + [factors] * default
        assert "".join("T" if a else "F" for a in answers) == expected
        # per case: the record; for the explicit pairs the residual table,
        # then the factors of the check at w; for the default pairs the
        # residual table, and the factors again when the basis passes
        assert [table for table, _ in paths] == tables
        assert [path for _, path in paths] == [loops] * len(tables)

    @pytest.mark.parametrize("which", list(ObstructionKind), ids=lambda k: k.value)
    def test_obstructions_match_the_exact_loop(self, which, monkeypatch):
        generators = [(2**70, 0, 0, 3)]
        spec = SubgroupSpec.create(generators, INT)
        packed = obstruction_vanishes(pinned_gerbe(), spec, which)
        assert packed.vanishes and packed.tuples_checked == 10
        with pytest.raises(NotInSubgroup):
            obstruction_vanishes(pinned_gerbe(), SubgroupSpec.create(generators, ONEONE), which)
        monkeypatch.setattr(PackedRows, "times", lambda table, x: int_vec_mat(x, table.rows))
        assert obstruction_vanishes(pinned_gerbe(), spec, which) == packed
        with pytest.raises(NotInSubgroup):
            obstruction_vanishes(pinned_gerbe(), SubgroupSpec.create(generators, ONEONE), which)
