"""Lifting defects, theta group, first and second obstructions."""

import inspect
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgerbe import (
    AltForm2,
    AltForm3,
    Character,
    FirstObstructionNonzero,
    GaussianRational,
    GerbeData,
    NotInSubgroup,
    ObstructionContext,
    ObstructionKind,
    SubgroupCase,
    SubgroupSpec,
    ThetaGroupElement,
    TorusData,
    case_decomposition,
    defect_character,
    defect_correction_value,
    exponent_im,
    first_obstruction_alternating,
    first_obstruction_character,
    gerbal_class,
    lift_defect_character,
    lift_defect_exponent,
    obstruction_vanishes,
    second_obstruction_alternating,
    second_obstruction_cocycle,
    theta_group_multiply,
    unit_reduce,
)
from torusgerbe.trivialization import TranslationContext
from torusgerbe.exact import basis_vec, to_vec, vec_add
from torusgerbe.obstruction import defect_correction_fn

from helpers import (
    basis_records,
    conjugated_instance,
    sample_case_vector,
    e,
    gerbe4,
    gerbe6,
    rand_vec,
    reference_lift_defect_exponent,
    sample_integral_instance,
    sample_oneone_instance,
    torus4,
    vec,
)

INT = SubgroupCase.INTEGRAL
ONEONE = SubgroupCase.TYPE_ONE_ONE


def combine(vectors, coeffs):
    """The integer combination sum(c * v) of the vectors."""
    dim = len(vectors[0])
    return tuple(sum([c * v[k] for c, v in zip(coeffs, vectors)], F(0)) for k in range(dim))


W1 = vec(F(1, 2), 0, 0, 0)
W2 = vec(0, F(1, 2), 0, 0)
W3 = vec(0, 0, F(1, 2), 0)
W4 = vec(0, 0, 0, F(1, 2))


@pytest.fixture(scope="module")
def ctx2():
    return ObstructionContext(gerbe4(2), INT)


@pytest.fixture(scope="module")
def ctx4():
    return ObstructionContext(gerbe4(4), INT)


@pytest.fixture(scope="module")
def ctx6():
    return ObstructionContext(gerbe6(), ONEONE)


class TestLiftDefectExponent:
    def test_zero_arguments(self, ctx2):
        z = vec(0, 0, 0, 0)
        assert lift_defect_exponent(ctx2, z, W2, e(4, 3)).is_zero
        assert lift_defect_exponent(ctx2, W1, z, e(4, 3)).is_zero
        assert lift_defect_exponent(ctx2, W1, W2, z).is_zero

    def test_fixture_value(self, ctx2):
        got = lift_defect_exponent(ctx2, W1, W2, e(4, 3))
        assert got == GaussianRational(F(-3, 16), F(0))

    def test_compact_equals_expanded(self, ctx2):
        # the definition in terms of the invariant piece and the trilinear
        # imaginary part must match the fully expanded six-term expression
        rng = random.Random(0)
        g = ctx2.gerbe
        t = g.torus
        for _ in range(6):
            w1 = vec(*[F(rng.randint(-2, 2), 2) for _ in range(4)])
            w2 = vec(*[F(rng.randint(-2, 2), 2) for _ in range(4)])
            lam = rand_vec(rng, 4, -2, 2)
            got = lift_defect_exponent(ctx2, w1, w2, lam)
            f2 = case_decomposition(t, g.e, w2, INT).invariant_part
            iw1, iw2, ilam = t.mul_i(w1), t.mul_i(w2), t.mul_i(lam)
            ev = g.e.evaluate
            re = -f2.evaluate(w1, lam) / 2 - (
                -ev(w2, w1, lam) / 2 + ev(w2, iw1, ilam) / 2 - ev(iw2, iw1, lam)
            ) / 8
            im = f2.evaluate(iw1, lam) / 2 - (
                ev(w2, iw1, lam) / 2 + ev(w2, w1, ilam) / 2 - ev(iw2, w1, lam)
            ) / 8
            assert got == GaussianRational(re, im)

    def test_membership_required(self, ctx2):
        with pytest.raises(NotInSubgroup):
            lift_defect_exponent(ctx2, vec(F(1, 3), 0, 0, 0), W2, e(4, 3))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("case", [INT, ONEONE])
    @pytest.mark.parametrize("twisted", [False, True])
    def test_equals_the_per_vector_formula(self, n, case, twisted):
        # the defect character's value at lam against the per-lam formula,
        # at random lattice vectors, the zero vector and the basis
        rng = random.Random(f"defect:{n}:{case.value}:{twisted}")
        g, vectors = conjugated_instance(n, 7, case, twisted, count=3)
        ctx, d = ObstructionContext(g, case), g.torus.dim
        for w1, w2 in itertools.product(vectors, repeat=2):
            lams = [rand_vec(rng, d) for _ in range(3)] + [(0,) * d, basis_vec(d, d - 1)]
            for lam in lams:
                want = reference_lift_defect_exponent(ctx, w1, w2, lam)
                assert lift_defect_exponent(ctx, w1, w2, lam) == want
                assert lift_defect_exponent(ctx, w1, w2, list(lam)) == want

    def test_bilinear_cocycle_identity(self):
        # defect(w2,w3) - defect(w1+w2,w3) + defect(w1,w2+w3) - defect(w1,w2)
        # vanishes exactly; equivalently theta multiplication is associative
        rng = random.Random(1)
        for sampler, case in (
            (sample_integral_instance, INT),
            (sample_oneone_instance, ONEONE),
        ):
            for _ in range(6):
                g, w1 = sampler(rng)
                ctx = ObstructionContext(g, case)
                w2 = sample_case_vector(rng, g, case)
                w3 = sample_case_vector(rng, g, case)
                for lam_k in range(g.torus.dim):
                    lam = basis_vec(g.torus.dim, lam_k)

                    def s(a, b):
                        return lift_defect_exponent(ctx, a, b, lam)

                    val = (
                        s(w2, w3)
                        - s(vec_add(w1, w2), w3)
                        + s(w1, vec_add(w2, w3))
                        - s(w1, w2)
                    )
                    assert val.is_zero


class TestLiftDefectCharacter:
    def test_zero_second_argument(self, ctx2):
        char = lift_defect_character(ctx2, W1, vec(0, 0, 0, 0))
        assert char.is_trivial

    def test_fixture_nontrivial(self, ctx2):
        char = lift_defect_character(ctx2, W1, W2)
        assert not char.is_trivial
        assert char.exponents[2] == GaussianRational(F(-3, 16), F(0))

    def test_composition_agrees_both_cases(self, ctx6):
        # the composition path inside lift_defect_character raises on any
        # disagreement; run it over the (1,1) fixture too
        w1 = vec(F(1, 2), 0, 0, F(1, 2), 0, 0)
        w2 = vec(0, F(1, 2), 0, 0, 0, 0)
        char = lift_defect_character(ctx6, w1, w2)
        assert char.dim == 6

    def test_vector_is_built_unchecked(self):
        g = gerbe4(2)
        ctx = ObstructionContext(g, INT)
        assert ctx.vector(W1).member
        bad = vec(F(1, 3), 0, 0, 0)
        assert not ctx.vector(bad).member
        assert ctx.vector(bad) == TranslationContext.create(g, bad, INT, check=False)
        with pytest.raises(NotInSubgroup, match="contraction with the 3-form is not integral"):
            TranslationContext.create(g, bad, INT)

    def test_one_record_per_distinct_vector(self, monkeypatch):
        # the contractions run once per basis vector per (gerbe, case), for
        # the basis rows; the records of w1, w2 and w1 + w2 are their lifts,
        # once per context, and serve both the membership checks and the
        # three trivializers composed
        import torusgerbe.gerbe as gerbe
        import torusgerbe.obstruction as obstruction
        import torusgerbe.trivialization as triv

        forms, creates = [], []
        forms_over, build = gerbe.forms_over, obstruction._lifted_record

        def counting_forms(torus, e3, w):
            forms.append(to_vec(w))
            return forms_over(torus, e3, w)

        def counting_build(g, w, case):
            creates.append(to_vec(w))
            return build(g, w, case)

        for module in (gerbe, triv):
            monkeypatch.setattr(module, "forms_over", counting_forms)
        monkeypatch.setattr(obstruction, "_lifted_record", counting_build)
        g, basis = gerbe4(2), [e(4, k) for k in range(1, 5)]
        distinct = [W1, W2, vec_add(W1, W2)]
        lift_defect_character(ObstructionContext(g, INT), W1, W2)
        assert forms == basis and sorted(creates) == sorted(distinct)
        lift_defect_character(ObstructionContext(g, INT), W1, W2)
        assert forms == basis and sorted(creates) == sorted(2 * distinct)
        ObstructionContext(g, ONEONE).vector(W1)
        assert forms == 2 * basis

    def test_a_miss_lifts_once_and_a_hit_never(self, monkeypatch):
        from torusgerbe.torus import TorusData

        g = gerbe4(2)
        basis_records(g, INT)  # the basis records lift their own vectors
        lifts = []
        lift = TorusData.lift

        def counting(torus, v):
            lifts.append(v)
            return lift(torus, v)

        monkeypatch.setattr(TorusData, "lift", counting)
        ctx = ObstructionContext(g, INT)
        data = ctx.vector(W1)
        assert lifts == [W1]
        assert (data.dw, data.x, data.ix) == lift(g.torus, W1)
        # the same vector in any form is a hit
        assert ctx.vector(W1) is data and ctx.vector(list(W1)) is data
        assert ctx.vector([F(1, 2), 0, 0, 0]) is data
        assert ctx.vector(W1).member is data.member
        assert lifts == [W1]
        total = vec_add(W1, W2)
        got, built = ctx.vector(total), TranslationContext.create(g, total, INT, check=False)
        assert lifts == [W1, total, total]  # the miss, then `create` itself
        for name in ("w", "dw", "x", "ix", "den", "member", "omega", "f", "m", "r"):
            assert getattr(got, name) == getattr(built, name)
        with pytest.raises(ValueError, match="^dimension mismatch: w has 3 entries, not 4$"):
            ctx.vector(W1[:3])
        assert lifts == [W1, total, total]  # the wrong length lifts nothing


class TestDefectCorrection:
    def test_no_constant_term(self, ctx4):
        assert defect_correction_value(ctx4, W1, W2, vec(0, 0, 0, 0)).is_zero

    def test_zero_first_argument(self, ctx4):
        rng = random.Random(2)
        v = rand_vec(rng, 4)
        assert defect_correction_value(ctx4, vec(0, 0, 0, 0), W2, v).is_zero

    def test_frozen_value(self, ctx4):
        got = defect_correction_value(ctx4, W1, W2, vec(0, 0, F(1, 2), 0))
        assert got == GaussianRational(F(-1, 16), F(0))

    def test_wrong_length_vector_names_the_argument(self, ctx4):
        # dot's bare "dimension mismatch" named neither v nor the lengths
        for v in ((1, 0, 0), (1, 0, 0, 0, 0)):
            message = rf"^dimension mismatch: v has {len(v)} entries, not 4$"
            with pytest.raises(ValueError, match=message):
                defect_correction_value(ctx4, W1, W2, v)

    def test_holomorphic(self, ctx4):
        fn = defect_correction_fn(ctx4, W1, W2)
        assert fn.is_holomorphic(ctx4.gerbe.torus)

    def test_unitarizes_defect(self, ctx2):
        # defect exponent plus lattice coboundary of the correction equals
        # the unitary representative exactly
        rng = random.Random(3)
        for _ in range(5):
            w1 = vec(*[F(rng.randint(-1, 1), 2) for _ in range(4)])
            w2 = vec(*[F(rng.randint(-1, 1), 2) for _ in range(4)])
            fn = defect_correction_fn(ctx2, w1, w2)
            unitary = first_obstruction_character(ctx2, w1, w2)
            for k in range(4):
                lam = basis_vec(4, k)
                combined = lift_defect_exponent(ctx2, w1, w2, lam) + fn.evaluate(lam)
                assert combined == unitary.exponents[k]


class TestFirstObstruction:
    def test_unitary_fixture_value(self, ctx2):
        char = first_obstruction_character(ctx2, W1, W2)
        assert char.exponents[2] == GaussianRational(F(-1, 4), F(0))

    def test_trivial_when_contractions_vanish(self):
        # both E(w2,.,.) and E(iw2,.,.) enter the unitary representative;
        # when both vanish the character is the identity
        from torusgerbe import AltForm2, AltForm3, GerbeData
        from helpers import torus4

        t = torus4()
        g0 = GerbeData(t, AltForm2.zero(4), AltForm3.zero(4))
        ctx0 = ObstructionContext(g0, INT)
        rng = random.Random(12)
        char = first_obstruction_character(ctx0, rand_vec(rng, 4), rand_vec(rng, 4))
        assert char.is_trivial
        # with a nonzero 3-form, a vanishing first contraction alone does
        # not suffice: the diagonal of the alternating class still dies
        g = gerbe4(1)
        ctx = ObstructionContext(g, INT)
        w = vec(0, 0, 0, F(1, 7))
        assert first_obstruction_alternating(ctx, w, w).is_trivial

    def test_alternating_fixture(self, ctx2):
        char = first_obstruction_alternating(ctx2, W1, W2)
        assert char.exponents[2] == GaussianRational(F(-1, 2), F(0))
        assert not char.is_trivial

    def test_alternating_matches_closed_form_integral(self):
        rng = random.Random(4)
        for _ in range(25):
            g, w1 = sample_integral_instance(rng)
            ctx = ObstructionContext(g, INT)
            w2 = sample_case_vector(rng, g, INT)
            char = first_obstruction_alternating(ctx, w1, w2)
            closed = Character(
                tuple(
                    GaussianRational.real(g.e.evaluate(w2, w1, basis_vec(4, k)))
                    for k in range(4)
                )
            )
            assert char.equivalent(closed)

    def test_alternating_matches_closed_form_oneone(self, ctx6):
        g = ctx6.gerbe
        rng = random.Random(5)
        for _ in range(25):
            w1 = tuple(
                F(rng.randint(-2, 2), 2) if k in (0, 1, 3, 4) else F(0)
                for k in range(6)
            )
            w2 = tuple(
                F(rng.randint(-2, 2), 2) if k in (0, 1, 3, 4) else F(0)
                for k in range(6)
            )
            char = first_obstruction_alternating(ctx6, w1, w2)
            closed = Character(
                tuple(
                    GaussianRational.real(g.e.evaluate(w1, w2, basis_vec(6, k)))
                    for k in range(6)
                )
            )
            assert char.equivalent(closed)

    def test_oneone_nontrivial_instance(self, ctx6):
        w1 = vec(F(1, 2), 0, 0, 0, 0, 0)
        w2 = vec(0, F(1, 2), 0, 0, 0, 0)
        char = first_obstruction_alternating(ctx6, w1, w2)
        assert char.exponents[2] == GaussianRational(F(1, 4), F(0))
        assert not char.is_trivial

    def test_diagonal_trivial(self, ctx2):
        assert first_obstruction_alternating(ctx2, W1, W1).is_trivial

    def test_lattice_pairs_alternating_trivial(self, ctx2):
        # on lattice pairs the alternating class is integral
        rng = random.Random(6)
        for _ in range(5):
            w1 = rand_vec(rng, 4, -2, 2)
            w2 = rand_vec(rng, 4, -2, 2)
            assert first_obstruction_alternating(ctx2, w1, w2).is_trivial


class TestSecondObstruction:
    def test_cocycle_zero_cases(self, ctx4):
        z = vec(0, 0, 0, 0)
        assert second_obstruction_cocycle(ctx4, z, W2, W3).is_zero
        assert second_obstruction_cocycle(ctx4, W1, z, W3).is_zero
        assert second_obstruction_cocycle(ctx4, W1, W2, z).is_zero

    def test_cocycle_frozen_value(self, ctx4):
        got = second_obstruction_cocycle(ctx4, W1, W2, W3)
        assert got == GaussianRational(F(-3, 16), F(0))

    def test_lattice_triples_trivial_class(self, ctx4):
        rng = random.Random(7)
        for _ in range(5):
            ws = [rand_vec(rng, 4, -2, 2) for _ in range(3)]
            values = second_obstruction_alternating(ctx4, *ws)
            assert values.skew.is_trivial
            assert values.closed_form.is_trivial  # integer exponent

    def test_fixture_values(self, ctx4):
        values = second_obstruction_alternating(ctx4, W1, W2, W3)
        assert values.skew_exponent == GaussianRational(F(-1, 2), F(0))
        assert values.skew.exponent.re == F(1, 2)
        assert values.general_factor.exponent.re == F(3, 4)
        assert values.closed_form.exponent.re == F(1, 2)
        assert values.all_nontrivial
        assert values.skew_is_real

    def test_repeated_argument_trivial_skew(self, ctx4):
        values = second_obstruction_alternating(ctx4, W1, W1, W3)
        assert values.skew_exponent.is_zero

    def test_scalar_relations_integral(self):
        # the three values are fixed multiples of E(w1,w2,w3):
        # skew = -E, bilinear closed expression = -9/2 E, closed form = -9E
        rng = random.Random(8)
        for _ in range(15):
            g, w1 = sample_integral_instance(rng)
            ctx = ObstructionContext(g, INT)
            w2 = sample_case_vector(rng, g, INT)
            w3 = sample_case_vector(rng, g, INT)
            ev = g.e.evaluate(w1, w2, w3)
            values = second_obstruction_alternating(ctx, w1, w2, w3)
            assert values.skew_exponent == GaussianRational.real(-ev)
            assert values.general_factor.exponent.re == (F(-9, 2) * ev) % 1
            assert values.closed_form.exponent.re == (F(-9) * ev) % 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_scalar_relations_integral_twisted(self, n):
        # on twisted J, where dj > 1 and the three values are different
        # rationals, they stay -E, -9/2 E and -9E, and each flag states
        # exactly whether two of them agree modulo the integers
        seen = {"skew_general": set(), "general_closed": set(), "general": set()}
        for seed in range(3):
            g, vectors = conjugated_instance(n, seed, INT, True)
            assert g.torus.j_columns[0] > 1
            ctx = ObstructionContext(g, INT)
            rng = random.Random(f"relations:{n}:{seed}")
            pool = list(vectors) + [
                combine(vectors, [rng.randint(-2, 2) for _ in vectors]) for _ in range(3)
            ]
            for w1, w2, w3 in itertools.combinations(pool, 3):
                ev = g.e.evaluate(w1, w2, w3)
                values = second_obstruction_alternating(ctx, w1, w2, w3)
                assert values.skew_exponent == GaussianRational.real(-ev)
                assert values.general_factor == unit_reduce(F(-9, 2) * ev)
                assert values.closed_form == unit_reduce(-9 * ev)
                assert values.agree_skew_general is ((F(7, 2) * ev).denominator == 1)
                assert values.agree_skew_closed is ((8 * ev).denominator == 1)
                assert values.agree_general_closed is ((F(9, 2) * ev).denominator == 1)
                seen["skew_general"].add(values.agree_skew_general)
                seen["general_closed"].add(values.agree_general_closed)
                seen["general"].add(values.general_factor.is_trivial)
        assert all(found == {True, False} for found in seen.values())

    @pytest.mark.parametrize(
        "k, den, flags", [(14, 7, (True, False, False)), (54, 27, (False, False, False))]
    )
    def test_flags_separate_the_differences(self, k, den, flags):
        # E = k*e012 and w = e0/den, e1/den, e2: E(w1,w2,w3) = 2/7 makes the
        # difference skew - general an integer but not the sum, and 2/27
        # makes general + closed one but not the difference
        g = GerbeData(torus4(), AltForm2.zero(4), AltForm3.from_coeffs(4, {(0, 1, 2): k}))
        ws = (vec(F(1, den), 0, 0, 0), vec(0, F(1, den), 0, 0), vec(0, 0, 1, 0))
        ev = g.e.evaluate(*ws)
        values = second_obstruction_alternating(ObstructionContext(g, INT), *ws)
        assert values.skew_exponent == GaussianRational.real(-ev)
        assert values.general_factor == unit_reduce(F(-9, 2) * ev)
        assert values.closed_form == unit_reduce(-9 * ev)
        assert flags == (
            values.agree_skew_general, values.agree_skew_closed, values.agree_general_closed
        )

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_closed_form_vanishes_on_oneone_triples(self, data):
        # on the type (1,1) subgroup E(w1,w2,w3) = 0, so SECOND's closed
        # form, and with it the other two values, is trivial on every triple
        n = data.draw(st.sampled_from((2, 3)))
        seed = data.draw(st.integers(0, 2))
        g, vectors = conjugated_instance(n, seed, ONEONE, data.draw(st.booleans()))
        ctx = ObstructionContext(g, ONEONE)
        coeffs = st.lists(st.integers(-3, 3), min_size=len(vectors), max_size=len(vectors))
        ws = [combine(vectors, data.draw(coeffs)) for _ in range(3)]
        assert g.e.evaluate(*ws) == 0
        values = second_obstruction_alternating(ctx, *ws)
        assert values.closed_form.is_trivial and values.general_factor.is_trivial
        assert values.skew_exponent.is_zero
        assert values.agree_skew_general and values.agree_general_closed

    def test_scalar_relations_oneone(self, ctx6):
        # on the (1,1) subgroup the 3-form restricts to zero, so all three
        # values are trivial; the skew and bilinear forms confirm it
        rng = random.Random(9)
        for _ in range(10):
            ws = [
                tuple(
                    F(rng.randint(-2, 2), 2) if k in (0, 1, 3, 4) else F(0)
                    for k in range(6)
                )
                for _ in range(3)
            ]
            assert ctx6.gerbe.e.evaluate(*ws) == 0
            values = second_obstruction_alternating(ctx6, *ws)
            assert values.skew_exponent.is_zero
            assert values.closed_form.is_trivial


class TestThetaGroup:
    def test_identity_element(self, ctx2):
        x = ThetaGroupElement(Character.identity(4), W1)
        ident = ThetaGroupElement(Character.identity(4), vec(0, 0, 0, 0))
        prod = theta_group_multiply(ident, x, ctx2)
        assert prod.w == x.w
        assert prod.character.equivalent(x.character)

    def test_noncommuting_fixture(self, ctx2):
        a = ThetaGroupElement(Character.identity(4), W1)
        b = ThetaGroupElement(Character.identity(4), W2)
        ab = theta_group_multiply(a, b, ctx2)
        ba = theta_group_multiply(b, a, ctx2)
        assert ab.w == ba.w
        diff = ab.character * ba.character.inverse()
        assert not diff.is_trivial
        assert diff.exponents[2] == GaussianRational(F(-3, 8), F(0))

    def test_associative(self):
        rng = random.Random(10)
        for _ in range(10):
            g, w1 = sample_integral_instance(rng)
            ctx = ObstructionContext(g, INT)
            w2 = sample_case_vector(rng, g, INT)
            w3 = sample_case_vector(rng, g, INT)
            a = ThetaGroupElement(Character.identity(4), w1)
            b = ThetaGroupElement(Character.identity(4), w2)
            c = ThetaGroupElement(Character.identity(4), w3)
            left = theta_group_multiply(theta_group_multiply(a, b, ctx), c, ctx)
            right = theta_group_multiply(a, theta_group_multiply(b, c, ctx), ctx)
            assert left.w == right.w
            assert left.character == right.character

    def test_a_non_member_with_a_member_sum_is_named(self, ctx2):
        # the rows of TestVectorArguments cover a non-member sum
        a = ThetaGroupElement(Character.identity(4), vec(F(1, 3), 0, 0, 0))
        b = ThetaGroupElement(Character.identity(4), vec(F(-1, 3), 0, 0, 0))
        with pytest.raises(NotInSubgroup, match="^a.w is not in the chosen subgroup$"):
            theta_group_multiply(a, b, ctx2)


class TestObstructionVanishes:
    def test_first_fails_with_certificate(self):
        g = gerbe4(2)
        spec = SubgroupSpec.create((W1, W2), INT)
        result = obstruction_vanishes(g, spec, ObstructionKind.FIRST)
        assert not result.vanishes
        assert result.certificate == (W1, W2, e(4, 3))

    def test_second_example(self):
        g = gerbe4(4)
        spec = SubgroupSpec.create((W1, W2, W3, W4), INT)
        first = obstruction_vanishes(g, spec, ObstructionKind.FIRST)
        assert first.vanishes
        second = obstruction_vanishes(g, spec, ObstructionKind.SECOND)
        assert not second.vanishes
        assert second.certificate == (W1, W2, W3)

    def test_zero_contraction_generators_pass(self):
        g = gerbe4(1)
        spec = SubgroupSpec.create((vec(0, 0, 0, F(1, 7)),), INT)
        assert obstruction_vanishes(g, spec, ObstructionKind.FIRST).vanishes
        assert obstruction_vanishes(g, spec, ObstructionKind.SECOND).vanishes

    def test_bad_generator_rejected(self):
        g = gerbe4(1)
        spec = SubgroupSpec.create((vec(F(1, 3), 0, 0, 0),), INT)
        with pytest.raises(NotInSubgroup):
            obstruction_vanishes(g, spec, ObstructionKind.FIRST)

    def test_oneone_candidates_skip_bad_basis_vectors(self):
        g = gerbe6()
        w1 = vec(F(1, 2), 0, 0, 0, 0, 0)
        w2 = vec(0, F(1, 2), 0, 0, 0, 0)
        spec = SubgroupSpec.create((w1, w2), ONEONE)
        result = obstruction_vanishes(g, spec, ObstructionKind.FIRST)
        assert not result.vanishes
        assert result.certificate == (w1, w2, e(6, 3))

    def test_oneone_candidates_are_member_basis_vectors_not_the_lattice_part(self):
        # J = P*J0*P^-1 for the standard n = 3 structure J0 and a unipotent
        # rational P.  No basis vector is a (1,1) member, while the lattice
        # vector lam is one: the decided subgroup is the one spanned by the
        # generators and the member basis vectors, not all of the lattice
        # part of the (1,1) subgroup.
        j = (
            (F(1, 3), F(-10, 9), F(2, 3), F(-1, 27), F(-16, 9), 0),
            (1, F(-1, 3), F(1, 6), F(-11, 18), F(-1, 2), 1),
            (0, 0, 0, -1, 0, -1),
            (0, 0, 1, 0, -1, 0),
            (0, 0, 0, 0, 0, -1),
            (0, 0, 0, 0, 1, 0),
        )
        coeffs = {
            (0, 1, 2): -18, (0, 1, 3): 18, (0, 1, 4): 18, (0, 2, 3): 15, (0, 3, 4): -3,
            (0, 3, 5): -18, (1, 2, 3): 6, (1, 2, 4): 6, (1, 2, 5): -18, (1, 3, 4): 24,
            (1, 3, 5): 6, (1, 4, 5): 18, (2, 3, 4): -5, (2, 3, 5): -3, (2, 4, 5): 18,
            (3, 4, 5): -9,
        }
        g = GerbeData(TorusData(3, j), AltForm2.zero(6), AltForm3.from_coeffs(6, coeffs))
        assert not any(record.member for record in basis_records(g, ONEONE))
        w1, w2 = vec(1, F(1, 6), 1, 1, 1, F(-1, 2)), vec(4, F(1, 3), -1, 2, -1, -1)
        lam = vec(-5, 0, 12, 3, 14, 0)
        assert TranslationContext.create(g, lam, ONEONE).member
        spec = SubgroupSpec.create((w1, w2), ONEONE)
        result = obstruction_vanishes(g, spec, ObstructionKind.FIRST)
        assert (result.vanishes, result.certificate, result.tuples_checked) == (True, None, 1)
        spec = SubgroupSpec.create((w1, w2, lam), ONEONE)
        result = obstruction_vanishes(g, spec, ObstructionKind.FIRST)
        assert (result.vanishes, result.certificate, result.tuples_checked) == (
            False, (w1, lam, e(6, 3)), 2
        )


class TestGerbalClass:
    def test_fixture_value(self, ctx4):
        value = gerbal_class(ctx4, W1, W2, W3)
        assert value.exponent.re == F(1, 4)
        assert value.exponent.im == 0

    def test_trivial_on_lattice_heavy_triples(self, ctx4):
        value = gerbal_class(ctx4, vec(1, 0, 0, 0), vec(0, 0, 0, 0), vec(0, 0, 1, 0))
        assert value.is_trivial

    def test_zero_evaluation_trivial(self, ctx4):
        value = gerbal_class(ctx4, W1, W2, W4)
        assert value.is_trivial

    def test_requires_first_obstruction_vanishing(self, ctx2):
        with pytest.raises(FirstObstructionNonzero):
            gerbal_class(ctx2, W1, W2, W3)

    def test_scalar_relation_to_closed_form(self, ctx4):
        # the degree-3 closed form is six times the per-triple class
        values = second_obstruction_alternating(ctx4, W1, W2, W3)
        ev = ctx4.gerbe.e.evaluate(W1, W2, W3)
        assert F(-9) * ev == 6 * (F(-3, 2) * ev)
        assert values.closed_form.exponent.re == (6 * F(-3, 2) * ev) % 1
        # and for the (1,1) case: 36 == 6 * 6 as implemented coefficients
        assert F(36) == 6 * F(6)


class TestBoundaryValues:
    """Public value objects and the obstruction kind normalise what they
    are given: a list and a tuple of the same entries give equal, hashable
    objects, a float raises the package's TypeError, and a value that is
    not an `ObstructionKind` raises ValueError."""

    HALF0, HALF1 = vec(F(1, 2), 0, 0, 0), vec(0, F(1, 2), 0, 0)

    def test_obstruction_kind_by_member_or_value(self):
        # the standard n = 2 torus, E = 2*e012 and two half-lattice
        # generators in the integral case: FIRST fails on the first pair,
        # SECOND reads all 20 triples of the six candidates
        g = GerbeData(torus4(), AltForm2.zero(4), AltForm3.from_coeffs(4, {(0, 1, 2): 2}))
        spec = SubgroupSpec.create((self.HALF0, self.HALF1), INT)
        first = obstruction_vanishes(g, spec, ObstructionKind.FIRST)
        second = obstruction_vanishes(g, spec, ObstructionKind.SECOND)
        assert (first.tuples_checked, second.tuples_checked) == (1, 20)
        assert obstruction_vanishes(g, spec, "first") == first
        assert obstruction_vanishes(g, spec, "second") == second
        for which in ("junk", "FIRST", None, 1):
            with pytest.raises(ValueError):
                obstruction_vanishes(g, spec, which)

    def test_subgroup_spec_from_lists(self):
        built = SubgroupSpec([[F(1, 2), 0, 0, 0], [0, F(1, 2), 0, 0]], "integral")
        spec = SubgroupSpec.create((self.HALF0, self.HALF1), INT)
        assert built.generators == (self.HALF0, self.HALF1)
        assert built == spec and hash(built) == hash(spec)
        assert SubgroupSpec(iter([[F(1, 2), 0, 0, 0], self.HALF1]), INT) == spec
        with pytest.raises(TypeError, match="floats are not allowed"):
            SubgroupSpec([[0.5, 0, 0, 0]], INT)

    def test_theta_group_element_from_a_list(self):
        c = Character.identity(4)
        built = ThetaGroupElement(c, [F(1, 2), 0, 0, 0])
        assert built.w == self.HALF0 and all(type(y) is F for y in built.w)
        assert built == ThetaGroupElement(c, self.HALF0)
        assert hash(built) == hash(ThetaGroupElement(c, self.HALF0))
        with pytest.raises(TypeError, match="floats are not allowed"):
            ThetaGroupElement(c, [0.5, 0, 0, 0])

    def test_theta_group_element_checks_the_length(self):
        # a w of another length than the character built, and failed only
        # when theta_group_multiply read the gerbe's dimension
        for w in ((1, 0, 0), (F(1, 2), 0, 0, 0, 0)):
            message = rf"^dimension mismatch: w has {len(w)} entries, not 4$"
            with pytest.raises(ValueError, match=message):
                ThetaGroupElement(Character.identity(4), w)
        assert ThetaGroupElement(Character.identity(3), (1, 0, 0)).w == vec(1, 0, 0)

    def test_subgroup_spec_generators_share_one_length(self):
        # the first generator whose length differs from the first's is named
        gens = [self.HALF0, (1, 0, 0, 0), (0, 1, 0), (1, 0)]
        with pytest.raises(ValueError, match=r"^dimension mismatch: generators\[2\] has 3 entries, not 4$"):
            SubgroupSpec(gens, INT)
        with pytest.raises(ValueError, match=r"^dimension mismatch: generators\[1\] has 4 entries, not 3$"):
            SubgroupSpec.create([(0, 1, 0), self.HALF0], "oneone")
        assert SubgroupSpec.create([(0, 1, 0)], INT).generators == (vec(0, 1, 0),)
        assert SubgroupSpec.create([], INT).generators == ()

    def test_character_exponent_at_checks_the_length(self):
        c = Character(tuple(GaussianRational(F(k), F(1, 2)) for k in range(4)))
        assert c.exponent_at([1, 1, 0, 0]) == GaussianRational(F(1), F(1))
        for v in ((1, 0, 0), (1, 0, 0, 0, 0)):
            with pytest.raises(ValueError, match="dimension mismatch: lam has"):
                c.exponent_at(v)
        with pytest.raises(ValueError, match=r"lam must be a lattice \(integer\) vector"):
            c.exponent_at((F(1, 2), 0, 0, 0))



# The obstruction functions that check their vectors through
# `ObstructionContext.require_member`: (function, how many vectors it takes
# first, its further arguments).
MEMBER_CHECKED = [
    (lift_defect_character, 2, ()),
    (defect_character, 2, ()),
    (lift_defect_exponent, 2, ((1, 0, 0, 0),)),
    (defect_correction_fn, 2, ()),
    (defect_correction_value, 2, (W2,)),
    (first_obstruction_character, 2, ()),
    (first_obstruction_alternating, 2, ()),
    (second_obstruction_cocycle, 3, ()),
    (second_obstruction_alternating, 3, ()),
    (gerbal_class, 3, ()),
]
# name -> (the argument's name, the call with v as that argument and W1 as
# every other vector)
VECTOR_ROWS = {
    "require_member": ("vector", lambda c, v: c.require_member(v)),
    **{
        f"obstruction_vanishes-{which}": (
            "generator",
            lambda c, v, which=which: obstruction_vanishes(
                c.gerbe, SubgroupSpec.create((v,), INT), which
            ),
        )
        for which in ("first", "second")
    },
    **{
        f"{fn.__name__}-w{k + 1}": (
            f"w{k + 1}",
            lambda c, v, fn=fn, k=k, count=count, extra=extra: fn(
                c, *[v if a == k else W1 for a in range(count)], *extra
            ),
        )
        for fn, count, extra in MEMBER_CHECKED
        for k in range(count)
    },
    **{
        f"theta_group_multiply-{what}": (
            what,
            lambda c, v, k=k: theta_group_multiply(
                *[
                    ThetaGroupElement(Character.identity(len(x)), x)
                    for x in [v if a == k else W1 for a in (0, 1)]
                ],
                c,
            ),
        )
        for k, what in enumerate(("a.w", "b.w"))
    },
}


class TestVectorArguments:
    """A vector of the wrong length, or outside the case subgroup, is named
    by its argument, on the standard n = 2 torus with E = 2*e123 in the
    integral case.  A wrong length reached `TorusData.lift`'s bare
    "vector/torus dimension mismatch", and `second_obstruction_cocycle`
    named a non-member w2 or w3 as w1 or w2."""

    @pytest.mark.parametrize("row", VECTOR_ROWS)
    @pytest.mark.parametrize("v", [(F(1, 2), 0, 0), (F(1, 2), 0, 0, 0, 0)], ids=["3", "5"])
    def test_wrong_length_names_the_argument(self, ctx2, row, v):
        what, call = VECTOR_ROWS[row]
        message = rf"^dimension mismatch: {what} has {len(v)} entries, not 4$"
        with pytest.raises(ValueError, match=message):
            call(ctx2, v)
        call(ctx2, vec(0, 0, 0, 0))  # a vector of the right length passes

    @pytest.mark.parametrize("row", VECTOR_ROWS)
    def test_non_member_names_the_argument(self, ctx2, row):
        what, call = VECTOR_ROWS[row]
        with pytest.raises(NotInSubgroup, match=f"^{what} is not in the chosen subgroup$"):
            call(ctx2, vec(F(1, 3), 0, 0, 0))

    def test_every_member_checked_function_has_rows(self):
        import torusgerbe.obstruction as obstruction

        callers = {
            name
            for name, fn in vars(obstruction).items()
            if inspect.isfunction(fn)
            and fn.__module__ == obstruction.__name__
            and "require_member(" in inspect.getsource(fn)
        }
        rows = {fn.__name__ for fn, _, _ in MEMBER_CHECKED} | {theta_group_multiply.__name__}
        assert callers - rows == {"obstruction_vanishes"}
