"""Complex structures, alternating forms, projectors, type condition."""

import random
from fractions import Fraction as F

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgerbe import (
    AltForm2,
    AltForm3,
    NotAComplexStructure,
    anti_invariant_part,
    check_complex_structure,
    contract3,
    hodge_projection,
    j_pullback2,
    skew_symmetrize,
    type_condition_check,
)

from helpers import (
    compatible_altform3,
    e,
    rand_altform2,
    rand_altform3_int,
    rand_rational_vec,
    reference_type_condition,
    standard_j_rows,
    torus4,
    torus6,
    twisted_torus,
    vec,
)


class TestComplexStructure:
    def test_fixture_valid(self):
        t = torus4()
        assert t.n == 2
        assert t.mul_i(e(4, 1)) == e(4, 2)
        assert t.mul_i(e(4, 2)) == vec(-1, 0, 0, 0)

    def test_identity_rejected(self):
        with pytest.raises(NotAComplexStructure):
            check_complex_structure([[1, 0], [0, 1]])

    def test_rotation_n1(self):
        t = check_complex_structure([[0, -1], [1, 0]])
        assert t.n == 1

    def test_odd_dimension_rejected(self):
        with pytest.raises(NotAComplexStructure):
            check_complex_structure([[0, -1, 0], [1, 0, 0], [0, 0, 1]])


class TestAltForms:
    def test_altform2_antisymmetry_enforced(self):
        with pytest.raises(ValueError):
            AltForm2(((F(0), F(1)), (F(1), F(0))))

    def test_altform3_strict_indices(self):
        with pytest.raises(ValueError):
            AltForm3.from_coeffs(4, {(1, 0, 2): 1})

    def test_evaluate_alternating(self):
        rng = random.Random(0)
        f = rand_altform3_int(rng, 4)
        x, y, z = (rand_rational_vec(rng, 4) for _ in range(3))
        assert f.evaluate(x, y, z) == -f.evaluate(y, x, z)
        assert f.evaluate(x, y, z) == -f.evaluate(x, z, y)
        assert f.evaluate(x, x, z) == 0

    def test_coeff_recovery(self):
        f = AltForm3.from_coeffs(4, {(0, 1, 2): F(5, 3)})
        assert f.evaluate(e(4, 1), e(4, 2), e(4, 3)) == F(5, 3)
        assert f.coeff(0, 1, 2) == F(5, 3)

    def test_coeff_reads_every_index_order(self):
        # coeff(a, b, c) is E(e_a, e_b, e_c), signed by the order of the
        # indices, and 0 when one repeats
        f = AltForm3.from_coeffs(3, {(0, 1, 2): 3})
        assert f.coeff(1, 0, 2) == -3 and f.coeff(1, 2, 0) == 3 and f.coeff(0, 2, 0) == 0
        rng = random.Random(5)
        values = {
            t: F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 3))
            for t in itertools.combinations(range(5), 3)
        }
        f = AltForm3.from_coeffs(5, values)
        for a, b, c in itertools.product(range(5), repeat=3):
            assert f.coeff(a, b, c) == f.evaluate(e(5, a + 1), e(5, b + 1), e(5, c + 1))

    def test_altform2_entry_rejects_an_index_outside_the_form(self):
        # entry(-1, 0) read the last row, entry(dim - 1, 0)
        f = AltForm2.from_pairs(4, {(0, 3): 2, (1, 2): 1})
        assert f.entry(3, 0) == -2
        for a, b in ((-1, 0), (0, -1), (4, 0), (0, 4)):
            with pytest.raises(ValueError, match=r"pair indices must lie in 0\.\.3"):
                f.entry(a, b)

    def test_altform3_coeff_rejects_an_index_outside_the_form(self):
        # coeff(0, 1, 99) and coeff(-1, 0, 1) read 0, as for a repeated index
        f = AltForm3.from_coeffs(4, {(0, 1, 2): 2, (1, 2, 3): 1})
        assert f.coeff(3, 2, 1) == -1 and f.coeff(3, 3, 1) == 0
        for a, b, c in ((0, 1, 99), (-1, 0, 1), (1, 4, 0), (0, 0, -1)):
            with pytest.raises(ValueError, match=r"triple indices must lie in 0\.\.3"):
                f.coeff(a, b, c)


class TestContract3:
    def test_absent_slot_gives_zero(self):
        f = AltForm3.from_coeffs(4, {(0, 1, 2): 1})
        assert contract3(f, vec(0, 0, 0, F(1, 7))).is_zero

    def test_half_vector(self):
        f = AltForm3.from_coeffs(4, {(0, 1, 2): 2})
        got = contract3(f, vec(F(1, 2), 0, 0, 0))
        assert got == AltForm2.from_pairs(4, {(1, 2): 1})

    def test_zero_vector(self):
        rng = random.Random(1)
        f = rand_altform3_int(rng, 4)
        assert contract3(f, vec(0, 0, 0, 0)).is_zero

    def test_matches_evaluation(self):
        rng = random.Random(2)
        f = rand_altform3_int(rng, 6)
        w = rand_rational_vec(rng, 6)
        x = rand_rational_vec(rng, 6)
        y = rand_rational_vec(rng, 6)
        assert contract3(f, w).evaluate(x, y) == f.evaluate(w, x, y)


class TestPullbackAndProjectors:
    def test_pullback_fixture(self):
        t = torus4()
        got = j_pullback2(t, AltForm2.from_pairs(4, {(1, 2): 1}))
        assert got == AltForm2.from_pairs(4, {(0, 3): -1})

    def test_invariant_form_fixed(self):
        t = torus4()
        f = AltForm2.from_pairs(4, {(0, 1): F(2, 3)})
        assert j_pullback2(t, f) == f
        assert anti_invariant_part(t, f).is_zero

    def test_anti_invariant_example(self):
        t = torus4()
        got = anti_invariant_part(t, AltForm2.from_pairs(4, {(1, 2): 1}))
        assert got == AltForm2.from_pairs(4, {(1, 2): F(1, 2), (0, 3): F(1, 2)})

    def test_projector_idempotent(self):
        t = torus4()
        rng = random.Random(3)
        for _ in range(10):
            f = rand_altform2(rng, 4)
            a = anti_invariant_part(t, f)
            assert anti_invariant_part(t, a) == a
            # the projected-away part is J-invariant
            assert j_pullback2(t, f - a) == f - a

    def test_hodge_fixture_values(self):
        t = torus4()
        h = hodge_projection(t, AltForm2.from_pairs(4, {(1, 2): 1}))
        assert h.re.entry(1, 2) == F(1, 4)
        assert h.re.entry(0, 3) == F(1, 4)

    def test_hodge_kernel_matches_anti_invariant(self):
        # both projections characterize type (1,1); 50 random rational forms
        t = torus4()
        rng = random.Random(4)
        for _ in range(50):
            f = rand_altform2(rng, 4)
            assert hodge_projection(t, f).is_zero == anti_invariant_part(t, f).is_zero

    def test_hodge_zero(self):
        t = torus4()
        assert hodge_projection(t, AltForm2.zero(4)).is_zero


class TestTypeCondition:
    def test_always_true_n2(self):
        t = torus4()
        rng = random.Random(5)
        for _ in range(20):
            assert type_condition_check(t, rand_altform3_int(rng, 4, -5, 5))

    def test_n3_counterexample(self):
        t = torus6()
        bad = AltForm3.from_coeffs(6, {(0, 1, 2): 1})
        assert not type_condition_check(t, bad)

    def test_n3_compatible_form(self):
        from helpers import oneone_e6

        assert type_condition_check(torus6(), oneone_e6())

    def test_zero_form(self):
        assert type_condition_check(torus6(), AltForm3.zero(6))

    def test_residual_skew_equivalence(self):
        # the defect of the condition is already alternating, so its
        # skew-symmetrization vanishes iff the check passes
        t = torus6()
        bad = AltForm3.from_coeffs(6, {(0, 1, 2): 1})

        def residual(x, y, z):
            i = t.mul_i
            return bad.evaluate(x, y, z) - (
                bad.evaluate(i(x), i(y), z)
                + bad.evaluate(x, i(y), i(z))
                + bad.evaluate(i(x), y, i(z))
            )

        val = skew_symmetrize(residual, (e(6, 1), e(6, 2), e(6, 3)))
        assert val == 6 * residual(e(6, 1), e(6, 2), e(6, 3)) != 0


class TestTypeConditionAgainstReference:
    """The sparse integer check against the dense trilinear definition."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("twisted", [False, True], ids=["standard", "twisted"])
    def test_agrees_on_seeded_forms(self, n, twisted):
        t = twisted_torus(n, 0) if twisted else check_complex_structure(standard_j_rows(n))
        rng = random.Random(f"type:{n}:{twisted}")
        compatible = 2 if n < 5 else 1  # the dense reference is slow at n = 5
        forms = [compatible_altform3(rng, t) for _ in range(compatible)]
        forms += [rand_altform3_int(rng, 2 * n, -3, 3) for _ in range(3)]
        got = [type_condition_check(t, f) for f in forms]
        assert got == [reference_type_condition(t, f) for f in forms]
        assert all(got[:compatible])
        if n >= 3:
            # dense random integral forms fail the condition
            assert not any(got[compatible:])

    def test_rational_form_accepted(self):
        t = twisted_torus(3, 1)
        f = compatible_altform3(random.Random(8), t)
        assert not f.is_integral
        assert type_condition_check(t, f)
        bumped = dict(f.entries)
        bumped[(0, 1, 2)] = bumped.get((0, 1, 2), 0) + F(1, 2)
        assert not type_condition_check(t, AltForm3.from_coeffs(6, bumped))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            type_condition_check(torus6(), AltForm3.zero(4))

    @given(
        twisted=st.booleans(),
        scale=st.integers(-2, 2),
        coeffs=st.dictionaries(
            st.sampled_from(list(itertools.combinations(range(6), 3))),
            st.fractions(min_value=-3, max_value=3, max_denominator=3),
            max_size=4,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_small_forms(self, twisted, scale, coeffs):
        t = twisted_torus(3, 2) if twisted else torus6()
        base = compatible_altform3(random.Random(3), t).scale(scale)
        f = AltForm3.from_coeffs(
            6,
            {
                k: base.coeff(*k) + coeffs.get(k, 0)
                for k in itertools.combinations(range(6), 3)
            },
        )
        assert type_condition_check(t, f) == reference_type_condition(t, f)


class TestSkewSymmetrize:
    def test_alternating_triples_scale(self):
        rng = random.Random(6)
        f = rand_altform3_int(rng, 4)
        args = tuple(rand_rational_vec(rng, 4) for _ in range(3))
        assert skew_symmetrize(f.evaluate, args) == 6 * f.evaluate(*args)

    def test_symmetric_pairs_cancel(self):
        def f(a, b):
            return a[0] * b[0] + a[1] * b[1]

        assert skew_symmetrize(f, (vec(1, 2), vec(3, 4))) == 0

    def test_rank_one_pair(self):
        def f(a, b):
            return a[0] * b[1]

        assert skew_symmetrize(f, (vec(1, 0), vec(0, 1))) == 1

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            skew_symmetrize(lambda a: a, (vec(1),))
