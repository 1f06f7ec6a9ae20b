"""Symmetry-group membership, the two case subgroups, decompositions."""

import random
from fractions import Fraction as F

import pytest

from torusgerbe import (
    AltForm2,
    AltForm3,
    GerbeData,
    NotInSubgroup,
    ObstructionContext,
    ObstructionKind,
    SubgroupCase,
    SubgroupSpec,
    TranslationContext,
    anti_invariant_part,
    case_decomposition,
    contract3,
    fixes_gerbe,
    in_case_subgroup,
    invariance_class,
    j_pullback2,
    obstruction_vanishes,
    translate_gerbe,
)
from torusgerbe.gerbe import translation_shift_form
from torusgerbe.exact import vec_add

from helpers import (
    basis_records,
    count_contractions,
    e,
    gerbe4,
    gerbe6,
    oneone_e6,
    oracle_membership_search,
    rand_altform3_int,
    rand_rational_vec,
    reference_contract,
    torus4,
    torus6,
    vec,
)

INT = SubgroupCase.INTEGRAL
ONEONE = SubgroupCase.TYPE_ONE_ONE


class TestInvarianceClass:
    def test_vanishing_contraction(self):
        t = torus4()
        f = AltForm3.from_coeffs(4, {(0, 1, 2): 1})
        cls = invariance_class(t, f, vec(0, 0, 0, F(1, 7)))
        assert cls.representative.is_zero
        assert cls.is_zero

    def test_one_third_not_zero(self):
        t = torus4()
        f = AltForm3.from_coeffs(4, {(0, 1, 2): 1})
        cls = invariance_class(t, f, vec(F(1, 3), 0, 0, 0))
        assert not cls.is_zero
        # brute-force confirmation over integer forms with |coeff| <= 3
        target = anti_invariant_part(t, cls.representative).upper_coeffs()
        gens = [
            anti_invariant_part(t, AltForm2.from_pairs(4, {(a, b): 1})).upper_coeffs()
            for a in range(4)
            for b in range(a + 1, 4)
        ]
        assert oracle_membership_search(gens, target, 3) is None

    def test_lattice_vector_is_symmetry(self):
        t = torus4()
        f = AltForm3.from_coeffs(4, {(0, 1, 2): 1})
        assert invariance_class(t, f, e(4, 1)).is_zero


class TestFixesGerbe:
    def test_lattice_always_fixes(self):
        rng = random.Random(0)
        t = torus4()
        for _ in range(10):
            f = rand_altform3_int(rng, 4)
            w = tuple(F(rng.randint(-4, 4)) for _ in range(4))
            assert fixes_gerbe(t, f, w)

    def test_membership_grid(self):
        # first three coordinates decide integral-case membership, and the
        # full symmetry group here needs the first two integral
        t = torus4()
        f = AltForm3.from_coeffs(4, {(0, 1, 2): 1})
        assert fixes_gerbe(t, f, vec(1, 2, 3, F(5, 7)))
        assert not fixes_gerbe(t, f, vec(F(1, 3), 0, 0, 0))

    def test_zero_form_all_fix(self):
        t = torus4()
        rng = random.Random(1)
        assert fixes_gerbe(t, AltForm3.zero(4), rand_rational_vec(rng, 4))

    def test_group_property(self):
        rng = random.Random(2)
        t = torus4()
        found = 0
        for _ in range(60):
            f = rand_altform3_int(rng, 4)
            w1 = tuple(F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(4))
            w2 = tuple(F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(4))
            if fixes_gerbe(t, f, w1) and fixes_gerbe(t, f, w2):
                found += 1
                assert fixes_gerbe(t, f, vec_add(w1, w2))
        assert found > 5


class TestCaseSubgroups:
    def test_integral_example(self):
        t = torus4()
        f = AltForm3.from_coeffs(4, {(0, 1, 2): 2})
        assert in_case_subgroup(t, f, vec(F(1, 2), 0, 0, 0), INT)

    def test_zero_contraction_in_both(self):
        t = torus4()
        f = AltForm3.from_coeffs(4, {(0, 1, 2): 1})
        w = vec(0, 0, 0, F(1, 7))
        assert in_case_subgroup(t, f, w, INT)
        assert in_case_subgroup(t, f, w, ONEONE)

    def test_doubled_scaling(self):
        t = torus4()
        f = AltForm3.from_coeffs(4, {(0, 1, 2): 4})
        assert in_case_subgroup(t, f, vec(F(1, 2), 0, 0, 0), INT)

    def test_oneone_fixture(self):
        t = torus6()
        f = oneone_e6()
        w = vec(F(1, 2), 0, 0, 0, 0, 0)
        assert in_case_subgroup(t, f, w, ONEONE)
        assert not in_case_subgroup(t, f, w, INT)
        assert not in_case_subgroup(t, f, e(6, 3), ONEONE)


class TestDecomposition:
    def test_integral_fixture(self):
        t = torus4()
        f = AltForm3.from_coeffs(4, {(0, 1, 2): 2})
        dec = case_decomposition(t, f, vec(F(1, 2), 0, 0, 0), INT)
        expected_inv = (
            AltForm2.from_pairs(4, {(1, 2): 1}) - AltForm2.from_pairs(4, {(0, 3): 1})
        ).scale(F(-3, 8))
        assert dec.invariant_part == expected_inv
        assert dec.integral_part == AltForm2.from_pairs(4, {(1, 2): 1})

    def test_zero_vector(self):
        t = torus4()
        f = AltForm3.from_coeffs(4, {(0, 1, 2): 2})
        for case in (INT, ONEONE):
            dec = case_decomposition(t, f, vec(0, 0, 0, 0), case)
            assert dec.invariant_part.is_zero and dec.integral_part.is_zero

    def test_oneone_zero_contraction(self):
        t = torus4()
        f = AltForm3.from_coeffs(4, {(0, 1, 2): 1})
        dec = case_decomposition(t, f, vec(0, 0, 0, F(1, 7)), ONEONE)
        assert dec.invariant_part.is_zero and dec.integral_part.is_zero

    def test_membership_enforced(self):
        t = torus4()
        f = AltForm3.from_coeffs(4, {(0, 1, 2): 1})
        with pytest.raises(NotInSubgroup):
            case_decomposition(t, f, vec(F(1, 3), 0, 0, 0), INT)
        with pytest.raises(NotInSubgroup):
            case_decomposition(t, f, vec(1, 0, 0, 0), ONEONE)

    def test_sum_is_translation_shift(self):
        # invariant + integral parts reassemble the B-shift of translation
        rng = random.Random(3)
        t = torus4()
        for _ in range(20):
            f = rand_altform3_int(rng, 4)
            w = rand_rational_vec(rng, 4)
            shift = translation_shift_form(t, f, w)
            for case in (INT, ONEONE):
                dec = case_decomposition(t, f, w, case, check=False)
                assert dec.invariant_part + dec.integral_part == shift

    def test_invariant_part_is_type_one_one(self):
        rng = random.Random(4)
        t = torus4()
        for _ in range(10):
            f = rand_altform3_int(rng, 4)
            w = rand_rational_vec(rng, 4)
            dec = case_decomposition(t, f, w, INT, check=False)
            assert anti_invariant_part(t, dec.invariant_part).is_zero
        g = gerbe6()
        w = vec(F(1, 2), F(1, 3), 0, F(-1, 2), 0, 0)
        dec = case_decomposition(g.torus, g.e, w, ONEONE)
        assert anti_invariant_part(g.torus, dec.invariant_part).is_zero

    def test_additive_in_w(self):
        rng = random.Random(5)
        t = torus4()
        f = rand_altform3_int(rng, 4)
        w1 = rand_rational_vec(rng, 4)
        w2 = rand_rational_vec(rng, 4)
        for case in (INT, ONEONE):
            d1 = case_decomposition(t, f, w1, case, check=False)
            d2 = case_decomposition(t, f, w2, case, check=False)
            d12 = case_decomposition(t, f, vec_add(w1, w2), case, check=False)
            assert d12.invariant_part == d1.invariant_part + d2.invariant_part
            assert d12.integral_part == d1.integral_part + d2.integral_part

    def test_oneone_equals_quarter_contraction_on_subgroup(self):
        g = gerbe6()
        w = vec(F(1, 2), F(-1, 2), 0, F(1, 3), 0, 0)
        dec = case_decomposition(g.torus, g.e, w, ONEONE)
        assert dec.invariant_part == contract3(g.e, w).scale(F(1, 4))

    def test_explicit_identity_with_pullback(self):
        # (5w - 3J*w)/8 - w + 3/8*(w + J*w) == 0 for any contraction w
        rng = random.Random(6)
        t = torus4()
        f = rand_altform3_int(rng, 4)
        omega = contract3(f, rand_rational_vec(rng, 4))
        lhs = (
            translation_shift_form(t, f, vec(0, 0, 0, 0))  # zero, dims only
            + omega.scale(F(5, 8))
            - j_pullback2(t, omega).scale(F(3, 8))
            - omega
            + (omega + j_pullback2(t, omega)).scale(F(3, 8))
        )
        assert lhs.is_zero


class TestVectorLength:
    """A vector whose length is not the torus dimension is rejected on the
    contraction path, as it is by `exponent_re` and the contexts; so is a
    vector holding a float."""

    ENTRY_POINTS = {
        "contract3": lambda t, e3, w: contract3(e3, w),
        "invariance_class": invariance_class,
        "fixes_gerbe": fixes_gerbe,
        "in_case_subgroup": lambda t, e3, w: in_case_subgroup(t, e3, w, INT),
        "case_decomposition": lambda t, e3, w: case_decomposition(t, e3, w, INT, check=False),
        "translate_gerbe": lambda t, e3, w: translate_gerbe(GerbeData(t, AltForm2.zero(4), e3), w),
        "AltForm3.evaluate": lambda t, e3, w: e3.evaluate(w, e(4, 1), e(4, 2)),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    @pytest.mark.parametrize(
        "w", (vec(F(1, 2), 0, 0, 0, 7), vec(F(1, 2), 0, 0)), ids=("long", "short")
    )
    def test_wrong_length_is_rejected(self, entry, w):
        t, e3 = torus4(), AltForm3.from_coeffs(4, {(0, 1, 2): 2})
        with pytest.raises(ValueError, match="dimension mismatch"):
            entry(t, e3, w)

    def test_evaluate_rejects_a_float_in_every_argument(self):
        e3 = AltForm3.from_coeffs(4, {(0, 1, 2): 2})
        x, y, floats = vec(0, 1, 0, 0), vec(0, 0, 1, 0), (0.5, 0, 0, 0)
        for args in ((floats, x, y), (x, floats, y), (x, y, floats)):
            with pytest.raises(TypeError, match="floats are not allowed"):
                e3.evaluate(*args)
        assert e3.evaluate(vec(F(1, 2), 0, 0, 0), x, y) == 1

    def test_evaluate_checks_every_argument(self):
        e3 = AltForm3.from_coeffs(4, {(0, 1, 2): 2})
        x = vec(1, 0, 0, 0)
        for args in ((x, x[:3], x), (x, x, x + (F(0),))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                e3.evaluate(*args)

    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    def test_wrong_length_is_rejected_after_a_stored_contraction(self, entry):
        t, e3 = torus4(), AltForm3.from_coeffs(4, {(0, 1, 2): 2})
        contract3(e3, vec(F(1, 2), 0, 0, 0))
        for w in (vec(F(1, 2), 0, 0, 0, 0), vec(F(1, 2), 0, 0)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                entry(t, e3, w)


class TestCaseValues:
    """Every entry point that takes a case reads a `SubgroupCase` member or
    its value alike, and rejects anything else; the standard n = 2 torus
    with E = 2*e012 and w = (1/2, 0, 0, 0) is in the integral subgroup but
    not in the type (1,1) one."""

    W = vec(F(1, 2), 0, 0, 0)

    def test_in_case_subgroup(self):
        t, e3 = torus4(), AltForm3.from_coeffs(4, {(0, 1, 2): 2})
        assert in_case_subgroup(t, e3, self.W, "integral") is True
        assert in_case_subgroup(t, e3, self.W, "oneone") is False
        g = gerbe6()
        w = vec(F(1, 2), 0, 0, 0, 0, 0)
        assert in_case_subgroup(g.torus, g.e, w, "oneone") is True
        assert in_case_subgroup(g.torus, g.e, w, "integral") is False

    def test_case_decomposition(self):
        t, e3 = torus4(), AltForm3.from_coeffs(4, {(0, 1, 2): 2})
        for case in INT, ONEONE:
            expected = case_decomposition(t, e3, self.W, case, check=False)
            assert case_decomposition(t, e3, self.W, case.value, check=False) == expected
        assert case_decomposition(t, e3, self.W, "integral") == case_decomposition(
            t, e3, self.W, INT
        )

    def test_translation_context(self):
        g = gerbe4(2)
        data = TranslationContext.create(g, self.W, "integral")
        assert data == TranslationContext.create(g, self.W, INT)
        assert data.case is INT and data.member
        assert basis_records(g, "oneone") == basis_records(g, ONEONE)
        assert set(g.tables.bases) <= {INT, ONEONE}

    def test_obstruction_contexts(self):
        g = gerbe4(2)
        assert ObstructionContext(g, "integral") == ObstructionContext(g, INT)
        assert ObstructionContext(g, "oneone").case is ONEONE
        spec = SubgroupSpec.create((self.W, vec(0, F(1, 2), 0, 0)), "integral")
        assert spec == SubgroupSpec.create(spec.generators, INT)
        for case in ("integral", INT):
            built = SubgroupSpec(spec.generators, case)
            assert built.case is INT
            assert built == spec and hash(built) == hash(spec)
        assert SubgroupSpec(spec.generators, "oneone") != spec
        result = obstruction_vanishes(g, spec, ObstructionKind.FIRST)
        assert not result.vanishes
        assert result.certificate == (self.W, vec(0, F(1, 2), 0, 0), e(4, 3))

    CALLS = {
        "in_case_subgroup": lambda g, w, c: in_case_subgroup(g.torus, g.e, w, c),
        "case_decomposition": lambda g, w, c: case_decomposition(g.torus, g.e, w, c, check=False),
        "TranslationContext.create": lambda g, w, c: TranslationContext.create(g, w, c),
        "SubgroupSpec.create": lambda g, w, c: SubgroupSpec.create((w,), c),
        "SubgroupSpec": lambda g, w, c: SubgroupSpec((w,), c),
        "ObstructionContext": lambda g, w, c: ObstructionContext(g, c),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    @pytest.mark.parametrize("case", ("junk", "INTEGRAL", None))
    def test_junk_is_rejected(self, call, case):
        g = gerbe4(2)
        with pytest.raises(ValueError):
            call(g, self.W, case)
        assert not g.tables.bases


class TestContractionMemo:
    """`contract3` keeps the last contraction per 3-form instance, so the
    calls of one query with the same w contract once, and a stored vector
    never lets an invalid one through."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_contractions(monkeypatch)

    def test_one_contraction_across_the_entry_points(self, calls):
        g = gerbe4(2)
        t, e3, w = g.torus, g.e, vec(F(1, 2), F(1, 3), 0, F(-1, 2))
        fixes_gerbe(t, e3, w)
        in_case_subgroup(t, e3, w, INT)
        in_case_subgroup(t, e3, w, ONEONE)
        invariance_class(t, e3, w)
        for case in (INT, ONEONE):
            case_decomposition(t, e3, w, case, check=False)
        translated = translate_gerbe(g, w)
        assert len(calls) == 1
        # the translated gerbe shares E, and with it the stored contraction
        fixes_gerbe(t, translated.e, list(w))
        assert len(calls) == 1

    def test_equal_vectors_hit(self, calls):
        e3 = AltForm3.from_coeffs(4, {(0, 1, 2): 2, (1, 2, 3): -3})
        first = contract3(e3, vec(F(1, 2), 0, F(2, 3), 0))
        assert contract3(e3, (F(1, 2), F(0), F(4, 6), F(0))) is first
        assert contract3(e3, [F(1, 2), 0, F(2, 3), 0]) is first
        assert len(calls) == 1

    def test_a_new_vector_or_another_instance_misses(self, calls):
        e3 = AltForm3.from_coeffs(4, {(0, 1, 2): 2, (1, 2, 3): -3})
        w1, w2 = vec(F(1, 2), 0, 0, 0), vec(0, 0, 0, F(1, 3))
        contract3(e3, w1)
        contract3(e3, w2)
        assert len(calls) == 2
        contract3(e3, w1)  # one slot: w2 replaced w1
        assert len(calls) == 3
        twin = AltForm3.from_coeffs(4, {(0, 1, 2): 2, (1, 2, 3): -3})
        assert twin == e3 and hash(twin) == hash(e3)
        assert contract3(twin, w1) == contract3(e3, w1)
        assert len(calls) == 4 and calls[3][0] is twin

    def test_results_equal_the_reference(self):
        rng = random.Random(19)
        for dim in (4, 6):
            for _ in range(10):
                e3 = rand_altform3_int(rng, dim)
                ws = [rand_rational_vec(rng, dim) for _ in range(3)]
                for w in (ws[0], ws[0], ws[1], ws[0], ws[2], ws[2], ws[1]):
                    assert contract3(e3, w) == reference_contract(e3, w)

    def test_memo_is_not_part_of_the_form(self):
        e3 = AltForm3.from_coeffs(4, {(0, 1, 2): 2})
        before = (repr(e3), hash(e3))
        contract3(e3, vec(F(1, 2), 0, 0, 0))
        assert (repr(e3), hash(e3)) == before
        assert e3 == AltForm3.from_coeffs(4, {(0, 1, 2): 2})

    ENTRY_POINTS = TestVectorLength.ENTRY_POINTS

    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    def test_float_of_the_stored_value_still_raises(self, entry):
        t, e3 = torus4(), AltForm3.from_coeffs(4, {(0, 1, 2): 2})
        w = vec(F(1, 2), 0, 0, 0)
        contract3(e3, w)
        floats = (0.5, 0, 0, 0)
        assert floats == w
        with pytest.raises(TypeError):
            entry(t, e3, floats)
