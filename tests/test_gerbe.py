"""Gerbe data, canonical exponents, translation action, isomorphism test."""

import functools
import gc
import random
import weakref
from fractions import Fraction as F

import pytest

from torusgerbe import (
    AltForm2,
    AltForm3,
    Character,
    ExponentFn,
    GaussianRational,
    GerbeData,
    ObstructionContext,
    ObstructionKind,
    SubgroupSpec,
    TypeConditionFailed,
    cocycle_exponent,
    exponent_im,
    exponent_re,
    fixes_gerbe,
    gerbes_isomorphic,
    in_case_subgroup,
    lift_defect_character,
    obstruction_vanishes,
    pair_exponent,
    second_obstruction_alternating,
    SubgroupCase,
    TorusData,
    translate_gerbe,
    translation_factor,
)
import torusgerbe.gerbe as gerbe_module
import torusgerbe.trivialization as triv
from torusgerbe.exact import vec_add
from torusgerbe.gerbe import gerbe_tables, translation_shift_form
from torusgerbe.trivialization import TranslationContext, first_failing_pair
from torusgerbe.trivialization import verify_trivialization

from helpers import (
    basis_records,
    cold_gerbe,
    conjugated_instance,
    e,
    gerbe4,
    gerbe6,
    oracle_pair_exponent,
    rand_altform2,
    rand_altform3_int,
    rand_rational_vec,
    rand_vec,
    replace_fields,
    torus4,
    torus6,
    vec,
)


class TestGerbeData:
    def test_type_condition_enforced(self):
        t = torus6()
        with pytest.raises(TypeConditionFailed):
            GerbeData(t, AltForm2.zero(6), AltForm3.from_coeffs(6, {(0, 1, 2): 1}))

    def test_integrality_enforced(self):
        t = torus4()
        with pytest.raises(ValueError):
            GerbeData(t, AltForm2.zero(4), AltForm3.from_coeffs(4, {(0, 1, 2): F(1, 2)}))


class TestExponentParts:
    def test_frozen_values(self):
        t = torus4()
        f = AltForm3.from_coeffs(4, {(0, 1, 2): 1})
        assert exponent_re(t, f, e(4, 1), e(4, 2), e(4, 3)) == F(3, 16)
        assert exponent_im(t, f, e(4, 4), e(4, 1), e(4, 2)) == F(1, 8)
        assert exponent_im(t, f, e(4, 1), e(4, 2), e(4, 3)) == 0

    def test_zero_form(self):
        t = torus4()
        z = AltForm3.zero(4)
        rng = random.Random(0)
        args = [rand_rational_vec(rng, 4) for _ in range(3)]
        assert exponent_im(t, z, *args) == 0
        assert exponent_re(t, z, *args) == 0

    def test_rational_arguments_trilinear(self):
        t = torus4()
        rng = random.Random(1)
        f = rand_altform3_int(rng, 4)
        a, b, c, d = (rand_rational_vec(rng, 4) for _ in range(4))
        assert exponent_re(t, f, vec_add(a, d), b, c) == exponent_re(
            t, f, a, b, c
        ) + exponent_re(t, f, d, b, c)
        assert exponent_im(t, f, a, b, vec_add(c, d)) == exponent_im(
            t, f, a, b, c
        ) + exponent_im(t, f, a, b, d)


class TestPairExponent:
    def test_matches_term_expansion_oracle(self):
        rng = random.Random(2)
        for _ in range(15):
            g = gerbe4(1)
            g = GerbeData(g.torus, g.b, rand_altform3_int(rng, 4))
            l1, l2 = rand_vec(rng, 4), rand_vec(rng, 4)
            h = pair_exponent(g, l1, l2)
            for _ in range(3):
                v = rand_rational_vec(rng, 4)
                assert h.evaluate(v) == oracle_pair_exponent(g.torus, g.e, v, l1, l2)

    def test_zero_form_gives_zero(self):
        t = torus4()
        g = GerbeData(t, AltForm2.zero(4), AltForm3.zero(4))
        assert pair_exponent(g, e(4, 1), e(4, 2)).is_zero

    def test_repeated_argument(self):
        g = gerbe4(1)
        h = pair_exponent(g, e(4, 1), e(4, 1))
        assert h.evaluate(e(4, 4)) == oracle_pair_exponent(
            g.torus, g.e, e(4, 4), e(4, 1), e(4, 1)
        )

    def test_always_holomorphic(self):
        rng = random.Random(3)
        for _ in range(10):
            g = gerbe4(1)
            g = GerbeData(g.torus, g.b, rand_altform3_int(rng, 4))
            h = pair_exponent(g, rand_vec(rng, 4), rand_vec(rng, 4))
            assert h.is_holomorphic(g.torus)

    def test_lattice_arguments_required(self):
        g = gerbe4(1)
        with pytest.raises(ValueError):
            pair_exponent(g, vec(F(1, 2), 0, 0, 0), e(4, 2))


class TestCocycleExponent:
    def test_constant_from_b(self):
        t = torus4()
        g = GerbeData(
            t, AltForm2.from_pairs(4, {(0, 1): 1}), AltForm3.zero(4)
        )
        fn = cocycle_exponent(g, e(4, 1), e(4, 2))
        assert fn.const.re == F(1, 2)
        assert fn.const.im == 0
        assert fn.linear_part_is_zero

    def test_b_contributes_only_constants(self):
        g_zero_b = gerbe4(2)
        g_with_b = gerbe4(2, b=AltForm2.from_pairs(4, {(1, 2): F(1, 3)}))
        f1 = cocycle_exponent(g_zero_b, e(4, 2), e(4, 3))
        f2 = cocycle_exponent(g_with_b, e(4, 2), e(4, 3))
        assert f1.lin_re == f2.lin_re and f1.lin_im == f2.lin_im
        assert f2.const.re - f1.const.re == F(1, 6)

    def test_coboundary_structure(self):
        # differential of the cocycle exponent: base-point part vanishes,
        # constant part equals the pair exponent at the first argument
        rng = random.Random(4)
        for _ in range(10):
            g = gerbe4(1, b=AltForm2.from_pairs(4, {(0, 2): F(1, 3), (1, 3): F(2, 5)}))
            g = GerbeData(g.torus, g.b, rand_altform3_int(rng, 4))
            l1, l2, l3 = (rand_vec(rng, 4, -2, 2) for _ in range(3))
            d = (
                cocycle_exponent(g, l2, l3).shift(l1)
                - cocycle_exponent(g, vec_add(l1, l2), l3)
                + cocycle_exponent(g, l1, vec_add(l2, l3))
                - cocycle_exponent(g, l1, l2)
            )
            assert d.linear_part_is_zero
            assert d.const == pair_exponent(g, l2, l3).evaluate(l1)


class TestTranslationFactor:
    def test_zero_vector(self):
        g = gerbe4(1)
        assert translation_factor(g, vec(0, 0, 0, 0), e(4, 2), e(4, 3)).is_zero

    def test_fixture_value(self):
        g = gerbe4(1)
        got = translation_factor(g, e(4, 1), e(4, 2), e(4, 3))
        assert got.re == F(3, 16)
        assert got.im == 0

    def test_equals_pair_exponent_at_w(self):
        rng = random.Random(5)
        g = gerbe4(3)
        w = rand_rational_vec(rng, 4)
        l1, l2 = rand_vec(rng, 4), rand_vec(rng, 4)
        assert translation_factor(g, w, l1, l2) == pair_exponent(g, l1, l2).evaluate(w)


class TestTranslateGerbe:
    def test_zero_translation(self):
        g = gerbe4(2)
        assert translate_gerbe(g, vec(0, 0, 0, 0)) == g

    def test_fixture_shift(self):
        g = gerbe4(1)
        got = translate_gerbe(g, e(4, 1))
        expected = AltForm2.from_pairs(4, {(1, 2): F(5, 8), (0, 3): F(3, 8)})
        assert got.b - g.b == expected

    def test_zero_form_inert(self):
        t = torus4()
        g = GerbeData(t, AltForm2.from_pairs(4, {(0, 1): 1}), AltForm3.zero(4))
        rng = random.Random(6)
        assert translate_gerbe(g, rand_rational_vec(rng, 4)) == g

    def test_additive_in_w(self):
        rng = random.Random(7)
        g = gerbe4(1)
        g = GerbeData(g.torus, g.b, rand_altform3_int(rng, 4))
        w1 = rand_rational_vec(rng, 4)
        w2 = rand_rational_vec(rng, 4)
        assert translate_gerbe(translate_gerbe(g, w1), w2) == translate_gerbe(
            g, vec_add(w1, w2)
        )


def handed_records(g, case, vectors) -> list:
    """The records of g's basis (`helpers.basis_records`, by `create` one
    basis vector at a time), then those of the case vectors."""
    combined = [TranslationContext.create(g, w, case) for w in vectors]
    return [*basis_records(g, case), *combined]


class TestTranslatedGerbeIsTrusted:
    """`translate_gerbe` keeps the torus and E of a gerbe that passed its
    checks, so it builds the result without running them again."""

    @pytest.mark.parametrize("twisted", [False, True])
    @pytest.mark.parametrize("n", [2, 3])
    def test_equals_the_checked_construction(self, n, twisted):
        rng = random.Random(f"trusted:{n}:{twisted}")
        g, vectors = conjugated_instance(n, 0, SubgroupCase.INTEGRAL, twisted)
        g = GerbeData(g.torus, rand_altform2(rng, g.torus.dim), g.e)
        for w in [*vectors, rand_rational_vec(rng, g.torus.dim)]:
            got = translate_gerbe(g, w)
            checked = GerbeData(g.torus, g.b + translation_shift_form(g.torus, g.e, w), g.e)
            assert type(got) is GerbeData
            assert got == checked and hash(got) == hash(checked)
            assert repr(got) == repr(checked)

    def test_runs_no_type_check(self, monkeypatch):
        calls = []
        real = gerbe_module.type_condition_check

        def counting(torus, e3):
            calls.append(e3)
            return real(torus, e3)

        monkeypatch.setattr(gerbe_module, "type_condition_check", counting)
        g = gerbe6()
        assert len(calls) == 1
        rng = random.Random(12)
        moved = g
        for _ in range(4):
            moved = translate_gerbe(moved, rand_rational_vec(rng, 6))
        assert len(calls) == 1
        GerbeData(moved.torus, moved.b, moved.e)
        assert len(calls) == 2

    @pytest.mark.parametrize("case", list(SubgroupCase))
    def test_basis_records_on_the_translated_gerbe(self, case, monkeypatch):
        # translation changes only B: a chain of translations of a warm
        # gerbe shares its tables and builds nothing, and every record it
        # hands out is a record of the asking gerbe, equal to the record of
        # a freshly checked twin
        g, vectors = conjugated_instance(3, 0, case, True)
        d, rng = g.torus.dim, random.Random(f"shared:{case.value}")
        for w in vectors:
            assert verify_trivialization(TranslationContext.create(g, w, case))
        own = g.tables.built[case].records
        assert all(a is b for a, b in zip(basis_records(g, case), own, strict=True))
        builds = []
        record, rows = triv._basis_row, gerbe_module.basis_factor_rows
        residual = vars(triv._Basis)["residual_rows"]

        def counting(name, build):
            return lambda *args: builds.append(name) or build(*args)

        monkeypatch.setattr(triv, "_basis_row", counting("record", record))
        monkeypatch.setattr(gerbe_module, "basis_factor_rows", counting("factor rows", rows))
        monkeypatch.setattr(residual, "func", counting("residual rows", residual.func))
        chain = [g]
        for _ in range(4):
            chain.append(translate_gerbe(chain[-1], rand_rational_vec(rng, d)))
        assert all(moved.tables is g.tables for moved in chain)
        handed = []
        for moved in chain[1:]:
            records = handed_records(moved, case, vectors)
            assert all(r.gerbe is moved for r in records)
            assert all(verify_trivialization(r) for r in records[d:])
            handed.append((moved, records))
        assert builds == [] and list(g.tables.built) == [case]
        monkeypatch.undo()
        for moved, records in handed:
            # a checked twin on the same torus object shares the tables; on
            # a new torus object with an equal J it builds its own
            assert GerbeData(moved.torus, moved.b, moved.e).tables is g.tables
            twin = cold_gerbe(moved)
            expected = handed_records(twin, case, vectors)
            for got, want in zip(records, expected, strict=True):
                assert got == want and got.gerbe is moved and want.gerbe is twin
                for name in ("dw", "x", "ix", "den", "member", "omega", "f", "m", "r"):
                    assert getattr(got, name) == getattr(want, name), name
                assert got.kernel == want.kernel

    def test_outside_construction_still_checks(self):
        bad = AltForm3.from_coeffs(6, {(0, 1, 2): 1})
        g = gerbe6()
        moved = translate_gerbe(g, vec(F(1, 2), 0, 0, F(1, 3), 0, 0))
        with pytest.raises(TypeConditionFailed):
            GerbeData(g.torus, moved.b, bad)
        for base in (g, moved):
            with pytest.raises(TypeConditionFailed):
                replace_fields(base, e=bad)
            with pytest.raises(ValueError):
                replace_fields(base, b=AltForm2.zero(4))
        assert replace_fields(moved, b=g.b) == g


class TestGerbeKeepsOneCache:
    """Every table a gerbe's queries read depends on the torus and E alone,
    so past its three fields a gerbe keeps one cache, `tables`, reached
    from the torus, and its hash.  The queries the workloads and the CLI
    run leave each instance dict with what it may hold and nothing else."""

    @pytest.mark.parametrize("case", list(SubgroupCase))
    def test_queries_leave_the_fields_and_the_tables(self, case):
        g, vectors = conjugated_instance(2, 1, case, True)
        t, e3, w = g.torus, g.e, vectors[0]
        moved = translate_gerbe(g, vectors[1])
        spec = SubgroupSpec.create(vectors[:3], case)
        for h in (g, moved):
            # the membership triple, `tau-verify`, `xi`, `obstruction1`/`2`
            fixes_gerbe(t, e3, w)
            in_case_subgroup(t, e3, w, case)
            gerbes_isomorphic(h, translate_gerbe(h, w))
            ctx = TranslationContext.create(h, w, case, check=False)
            assert first_failing_pair(ctx, None, 10, 0) is None and verify_trivialization(ctx)
            octx = ObstructionContext(h, case)
            lift_defect_character(octx, vectors[0], vectors[1])
            second_obstruction_alternating(octx, *vectors[:3])
            for kind in ObstructionKind:
                obstruction_vanishes(h, spec, kind)
            assert set(vars(h)) <= {"torus", "b", "e", "tables", "_hash"}
        cached = {n for n, v in vars(TorusData).items() if isinstance(v, functools.cached_property)}
        assert set(vars(t)) <= {"n", "j", "jt", "gerbe_tables", "_hash"} | cached
        stored = {"int_entries", "pair_entries", "contraction_table", "_hash"}
        assert set(vars(e3)) <= {"dim", "entries"} | stored
        assert moved.tables is g.tables and list(t.gerbe_tables) == [e3]


class TestTablesOfTheTorus:
    """`gerbe_tables`: one `GerbeTables` per torus object and E, reached
    from the torus and kept as long as it lives."""

    def test_gerbes_with_an_equal_e_on_one_torus_share_the_tables(self):
        t, b = torus4(), AltForm2.from_pairs(4, {(0, 1): F(1, 3)})
        g1 = GerbeData(t, AltForm2.zero(4), AltForm3.from_coeffs(4, {(0, 1, 2): 2}))
        g2 = GerbeData(t, b, AltForm3.from_coeffs(4, {(0, 1, 2): 2}))
        assert g1.e == g2.e and g1.e is not g2.e and g1.tables is g2.tables
        assert gerbe_tables(t, g2.e) is g1.tables and list(t.gerbe_tables) == [g1.e]
        other = GerbeData(t, g1.b, AltForm3.from_coeffs(4, {(0, 1, 2): 4}))
        assert other.tables is not g1.tables and len(t.gerbe_tables) == 2
        assert cold_gerbe(g1).tables is not g1.tables

    def test_the_tables_die_with_the_torus(self):
        g, vectors = conjugated_instance(2, 0, SubgroupCase.INTEGRAL, False)
        for w in vectors:
            assert verify_trivialization(TranslationContext.create(g, w, SubgroupCase.INTEGRAL))
        moved = translate_gerbe(g, vectors[0])
        tables = weakref.ref(g.tables)
        assert tables() is moved.tables and tables().built
        del g, moved
        gc.collect()
        assert tables() is None

    def test_a_wrong_dimension_stores_nothing(self):
        t, e6 = torus4(), AltForm3.from_coeffs(6, {(0, 1, 2): 2})
        for call in (
            lambda: gerbe_tables(t, e6),
            lambda: fixes_gerbe(t, e6, vec(F(1, 2), 0, 0, 0)),
            lambda: in_case_subgroup(t, e6, vec(F(1, 2), 0, 0, 0), SubgroupCase.INTEGRAL),
        ):
            with pytest.raises(ValueError, match="^dimension mismatch: e3 has dimension 6, not 4$"):
                call()
        assert t.gerbe_tables == {}


class TestGerbesIsomorphic:
    def test_reflexive(self):
        g = gerbe4(2)
        assert gerbes_isomorphic(g, g)

    def test_integer_shift(self):
        g = gerbe4(2)
        shifted = GerbeData(g.torus, g.b + AltForm2.from_pairs(4, {(0, 2): 3, (1, 3): -2}), g.e)
        assert gerbes_isomorphic(g, shifted)

    def test_third_shift_not_isomorphic(self):
        g = gerbe4(1)
        other = GerbeData(g.torus, g.b + AltForm2.from_pairs(4, {(1, 2): F(1, 3)}), g.e)
        assert not gerbes_isomorphic(g, other)
        # brute-force confirmation: no small integer form has the same
        # anti-invariant part as the 1/3 shift
        from torusgerbe import anti_invariant_part
        from helpers import oracle_membership_search

        t = g.torus
        target = anti_invariant_part(t, AltForm2.from_pairs(4, {(1, 2): F(1, 3)})).upper_coeffs()
        gens = []
        for a in range(4):
            for b in range(a + 1, 4):
                gens.append(
                    anti_invariant_part(t, AltForm2.from_pairs(4, {(a, b): 1})).upper_coeffs()
                )
        assert oracle_membership_search(gens, target, 3) is None

    def test_different_three_forms(self):
        assert not gerbes_isomorphic(gerbe4(1), gerbe4(2))

    def test_translation_iso_iff_symmetry(self):
        rng = random.Random(8)
        for _ in range(15):
            g = gerbe4(1)
            g = GerbeData(g.torus, g.b, rand_altform3_int(rng, 4))
            w = rand_rational_vec(rng, 4)
            assert gerbes_isomorphic(g, translate_gerbe(g, w)) == fixes_gerbe(
                g.torus, g.e, w
            )

    def test_torus_mismatch(self):
        g = gerbe4(1)
        from torusgerbe import check_complex_structure

        other_t = check_complex_structure(
            [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
        )
        other = GerbeData(other_t, AltForm2.zero(4), AltForm3.zero(4))
        with pytest.raises(ValueError):
            gerbes_isomorphic(g, other)


class TestValueObjects:
    """`Character` and `ExponentFn` keep tuples, so equal values compare
    and hash alike whatever sequence they were given."""

    def test_character_keeps_a_tuple(self):
        g = GaussianRational(F(1, 2), F(-1, 3))
        listed = Character([g, GaussianRational.real(1)])
        assert listed == Character((g, GaussianRational.real(1)))
        assert type(listed.exponents) is tuple
        assert hash(listed) == hash(Character((g, GaussianRational.real(1))))

    def test_character_exponents_from_rationals(self):
        half = Character((F(1, 2),))
        assert half.exponents == (GaussianRational.real(F(1, 2)),)
        assert not half.is_trivial
        assert Character([F(3), 2]).is_trivial
        assert Character((F(3), 2)) == Character.identity(2) * Character([3, 2])
        with pytest.raises(TypeError, match="floats"):
            Character((0.5,))
        with pytest.raises(TypeError, match="floats"):
            Character([GaussianRational.real(1), 1.0])

    def test_character_lengths_must_agree(self):
        one, two = Character.identity(1), Character.identity(2)
        for a, b in ((one, two), (two, one)):
            with pytest.raises(ValueError, match="^dimension mismatch: other has dimension"):
                a * b
            with pytest.raises(ValueError, match="^dimension mismatch: other has dimension"):
                a.equivalent(b)
        assert (two * two).is_trivial and two.equivalent(two)

    def test_exponent_fn_keeps_tuples(self):
        c = GaussianRational(F(1, 4), F(0))
        listed = ExponentFn(c, [F(1, 2), 0], [1, F(-1, 3)])
        assert listed == ExponentFn(c, (F(1, 2), F(0)), (F(1), F(-1, 3)))
        assert type(listed.lin_re) is tuple and type(listed.lin_im) is tuple
        assert hash(listed) == hash(ExponentFn(c, (F(1, 2), F(0)), (F(1), F(-1, 3))))
        with pytest.raises(TypeError, match="floats"):
            ExponentFn(c, [0.5, 0], [0, 0])

    def test_exponent_fn_constant_from_rationals(self):
        zero = (F(0),)
        assert ExponentFn(0, zero, zero).is_zero
        half = ExponentFn(F(1, 2), zero, zero)
        assert half.const == GaussianRational.real(F(1, 2))
        assert half == ExponentFn(GaussianRational.real(F(1, 2)), zero, zero)
        assert (half + ExponentFn(3, zero, zero)).const == GaussianRational.real(F(7, 2))

    def test_exponent_fn_float_constant_raises(self):
        with pytest.raises(TypeError, match="floats"):
            ExponentFn(0.5, (F(0),), (F(0),))

    def test_exponent_fn_covectors_must_agree(self):
        c = GaussianRational.real(0)
        for lin_re, lin_im in (((F(1),), (F(1), F(0))), ((0, 0), (0,))):
            with pytest.raises(ValueError, match="exponent covectors of different lengths"):
                ExponentFn(c, lin_re, lin_im)
        assert ExponentFn(c, (), ()).dim == 0

    def test_exponent_fn_names_a_wrong_length_vector(self):
        fn = ExponentFn(GaussianRational.real(1), (1, 0), (0, 1))
        for v in ((1,), (1, 0, 0)):
            message = rf"^dimension mismatch: {{}} has {len(v)} entries, not 2$"
            with pytest.raises(ValueError, match=message.format("v")):
                fn.evaluate(v)
            with pytest.raises(ValueError, match=message.format("w")):
                fn.shift(v)
        assert fn.evaluate([1, 2]) == GaussianRational(2, 2) and fn.shift([0, 0]) == fn

    def test_exponent_fn_lengths_must_agree(self):
        c = GaussianRational.real(0)
        one, two = ExponentFn(c, (1,), (0,)), ExponentFn(c, (1, 0), (0, 1))
        for a, b in ((one, two), (two, one)):
            with pytest.raises(ValueError, match="^dimension mismatch: other has dimension"):
                a + b
            with pytest.raises(ValueError, match="^dimension mismatch: other has dimension"):
                a - b
        assert (two - two).is_zero and (one + one).lin_re == (F(2),)
