"""The per-vector contraction core of the canonical exponent.

`gerbe.forms_over` gives, for one vector w, the contractions E(w,.,.) and
E(iw,.,.) and the bilinear form L_w of exponent_im(w,.,.) as integer
matrices; the per-vector records that the obstruction and trivialization
formulas read are built from them.  Every result is checked for exact
equality against the per-basis reference oracles in `helpers`, on standard
and twisted rational J at n = 2 and 3, in both decomposition cases.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from torusgerbe import (
    AltForm2,
    ClosedFormMismatch,
    FirstObstructionNonzero,
    GerbeData,
    NotInSubgroup,
    ObstructionContext,
    ObstructionKind,
    SubgroupCase,
    SubgroupSpec,
    ThetaGroupElement,
    TranslationContext,
    case_decomposition,
    contract3,
    defect_character,
    defect_correction_value,
    first_obstruction_alternating,
    first_obstruction_character,
    gerbal_class,
    in_case_subgroup,
    lift_defect_character,
    lift_defect_exponent,
    obstruction_vanishes,
    second_obstruction_alternating,
    second_obstruction_cocycle,
    theta_group_multiply,
    unit_reduce,
    unitarize_exponent,
)
from torusgerbe.exact import vec_add
from torusgerbe.gerbe import forms_over
from torusgerbe.obstruction import _first_alternating, _pair_rows, _table, _triple_rows
from torusgerbe.obstruction import defect_correction_fn
from torusgerbe.trivialization import verify_trivialization

from helpers import (
    cold_gerbe,
    conjugated_instance,
    corrupt_basis_record,
    corrupt_table_row,
    gerbe4,
    minor3,
    rand_rational_vec,
    rand_vec,
    reference_defect_correction_fn,
    reference_exponent_im,
    reference_first_obstruction_character,
    reference_im_covector,
    reference_im_covector_j,
    reference_lift_defect_exponent,
    reference_second_skew,
)

INSTANCES = [
    (n, twisted, case)
    for n in (2, 3)
    for twisted in (False, True)
    for case in (SubgroupCase.INTEGRAL, SubgroupCase.TYPE_ONE_ONE)
]
IDS = [f"n{n}-{'twisted' if tw else 'standard'}-{case.value}" for n, tw, case in INSTANCES]


@pytest.fixture(scope="module", params=INSTANCES, ids=IDS)
def instance(request):
    n, twisted, case = request.param
    g, vectors = conjugated_instance(n, 0, case, twisted)
    return g, case, vectors


class TestFormsOver:
    def test_bilinear_form_matches_trilinear_exponent_on_basis(self, instance):
        g, _, vectors = instance
        t = g.torus
        dj = t.j_columns[0]
        rng = random.Random(5)
        basis = t.basis()
        for w in vectors + [rand_rational_vec(rng, t.dim)]:
            dw, x, ix, do, omega, omega_i, l = forms_over(t, g.e, w)
            assert tuple(F(y, dw) for y in x) == w
            assert tuple(F(y, dj * dw) for y in ix) == t.mul_i(w)
            assert AltForm2.from_upper(omega, do) == contract3(g.e, w)
            assert AltForm2.from_upper(omega_i, dj * do) == contract3(g.e, t.mul_i(w))
            for a, b in itertools.product(range(t.dim), repeat=2):
                assert F(l[a][b], 16 * dj * do) == reference_exponent_im(
                    t, g.e, w, basis[a], basis[b]
                )

    def test_covectors_match_reference(self, instance):
        g, case, vectors = instance
        rng = random.Random(6)
        for w in vectors[:2]:
            ctx = TranslationContext.create(g, w, case)
            for _ in range(3):
                lam = rand_vec(rng, g.torus.dim)
                fn = unitarize_exponent(ctx, lam)
                assert fn.lin_im == tuple(-x for x in reference_im_covector(ctx, lam))
                assert fn.lin_re == tuple(-x for x in reference_im_covector_j(ctx, lam))


class TestObstructionCoreAgainstReference:
    def test_defect_correction_and_first_character(self, instance):
        g, case, vectors = instance
        ctx = ObstructionContext(g, case)
        for w1, w2 in itertools.permutations(vectors, 2):
            assert defect_correction_fn(ctx, w1, w2) == reference_defect_correction_fn(
                ctx, w1, w2
            )
            assert first_obstruction_character(
                ctx, w1, w2
            ) == reference_first_obstruction_character(ctx, w1, w2)

    def test_second_skew(self, instance):
        g, case, vectors = instance
        ctx = ObstructionContext(g, case)
        for triple in itertools.combinations(vectors, 3):
            values = second_obstruction_alternating(ctx, *triple)
            assert values.skew_exponent == reference_second_skew(ctx, *triple)

    def test_cached_data_is_the_case_data(self, instance):
        g, case, vectors = instance
        ctx = ObstructionContext(g, case)
        for w in vectors:
            data = ctx.vector(w)
            assert data.member is in_case_subgroup(g.torus, g.e, w, case)
            invariant = AltForm2.from_upper(data.f, data.den)
            assert invariant == case_decomposition(g.torus, g.e, w, case).invariant_part
            assert ctx.vector(w) is data


def _warm(ctx, vectors):
    for w1, w2 in itertools.combinations(vectors, 2):
        first_obstruction_character(ctx, w1, w2)
        defect_correction_fn(ctx, w1, w2)


class TestContextCache:
    def test_equality_and_hash_ignore_the_cache(self, instance):
        g, case, vectors = instance
        warm, cold = ObstructionContext(g, case), ObstructionContext(g, case)
        before = hash(warm)
        _warm(warm, vectors)
        assert warm._vectors
        assert warm == cold and hash(warm) == before == hash(cold)
        assert repr(warm) == repr(cold)
        other = next(c for c in SubgroupCase if c is not case)
        assert warm != ObstructionContext(g, other)

    def test_non_member_raises_everywhere_after_caching(self):
        g = gerbe4(2)
        ctx = ObstructionContext(g, SubgroupCase.INTEGRAL)
        half = F(1, 2)
        m1, m2, m3 = (half, 0, 0, 0), (0, half, 0, 0), (0, 0, half, 0)
        bad = (F(1, 3), 0, 0, 0)
        _warm(ctx, [m1, m2, m3])
        assert not ctx.vector(bad).member
        lam = (1, 0, 0, 0)
        calls = [
            lambda: ctx.require_member(bad),
            lambda: lift_defect_exponent(ctx, bad, m2, lam),
            lambda: lift_defect_exponent(ctx, m1, bad, lam),
            lambda: lift_defect_character(ctx, m1, bad),
            lambda: defect_character(ctx, bad, m2),
            lambda: defect_correction_fn(ctx, bad, m2),
            lambda: defect_correction_fn(ctx, m1, bad),
            lambda: defect_correction_value(ctx, m1, bad, lam),
            lambda: first_obstruction_character(ctx, bad, m2),
            lambda: first_obstruction_character(ctx, m1, bad),
            lambda: first_obstruction_alternating(ctx, m1, bad),
            lambda: second_obstruction_cocycle(ctx, bad, m2, m3),
            lambda: second_obstruction_cocycle(ctx, m1, m2, bad),
            lambda: second_obstruction_alternating(ctx, m1, m2, bad),
            lambda: second_obstruction_alternating(ctx, bad, m2, m3),
            lambda: gerbal_class(ctx, m1, m2, bad),
            lambda: theta_group_multiply(
                ThetaGroupElement(defect_character(ctx, m1, m1), m1),
                ThetaGroupElement(defect_character(ctx, m1, m1), bad),
                ctx,
            ),
            lambda: obstruction_vanishes(
                g, SubgroupSpec.create([m1, bad], SubgroupCase.INTEGRAL), ObstructionKind.FIRST
            ),
        ]
        for call in calls:
            with pytest.raises(NotInSubgroup):
                call()
        # members still answer after the failures
        assert second_obstruction_alternating(ctx, m1, m2, m3).agree_skew_closed


class TestIntegerRecords:
    """The integer records against the per-basis oracles, on members with
    denominators divisible by 2 and by 3.  In the integral case w/4 and w/3
    are members for the 3-form 12E; type (1,1) membership is linear in w."""

    @staticmethod
    def _mixed(instance):
        g, case, vectors = instance
        if case is SubgroupCase.INTEGRAL:
            g = GerbeData(g.torus, g.b, g.e.scale(12))
        v0, v1 = vectors[:2]
        mixed = [v0, v1, tuple(x / 4 for x in v0), tuple(x / 3 for x in v1)]
        dens = {x.denominator for w in mixed for x in w}
        assert any(d % 2 == 0 for d in dens) and any(d % 3 == 0 for d in dens)
        return ObstructionContext(g, case), mixed

    def test_first_character_and_correction(self, instance):
        ctx, mixed = self._mixed(instance)
        for w1, w2 in itertools.permutations(mixed, 2):
            assert first_obstruction_character(
                ctx, w1, w2
            ) == reference_first_obstruction_character(ctx, w1, w2)
            assert defect_correction_fn(ctx, w1, w2) == reference_defect_correction_fn(
                ctx, w1, w2
            )
            skew = first_obstruction_alternating(ctx, w1, w2)
            oracle = reference_first_obstruction_character(ctx, w1, w2)
            assert skew == oracle * reference_first_obstruction_character(
                ctx, w2, w1
            ).inverse()

    def test_second_skew(self, instance):
        ctx, mixed = self._mixed(instance)
        for triple in itertools.combinations(mixed, 3):
            values = second_obstruction_alternating(ctx, *triple)
            assert values.skew_exponent == reference_second_skew(ctx, *triple)
            assert values.agree_skew_closed and values.agree_general_closed

    def test_defect_character_on_the_basis(self, instance):
        # the F_w2 terms come off the records' integers, the oracle reads
        # the case decomposition's (1,1) piece
        ctx, mixed = self._mixed(instance)
        basis = ctx.gerbe.torus.basis()
        for w1, w2 in itertools.product(mixed, repeat=2):
            want = tuple(reference_lift_defect_exponent(ctx, w1, w2, ek) for ek in basis)
            assert defect_character(ctx, w1, w2).exponents == want

    def test_gerbal_class_is_blocked_exactly_by_the_first_obstruction(self, instance):
        ctx, mixed = self._mixed(instance)
        coef = F(-3, 2) if ctx.case is SubgroupCase.INTEGRAL else F(6)
        for triple in itertools.product(mixed, repeat=3):
            pairs = itertools.combinations(triple, 2)
            if any(not first_obstruction_alternating(ctx, a, b).is_trivial for a, b in pairs):
                with pytest.raises(FirstObstructionNonzero):
                    gerbal_class(ctx, *triple)
            else:
                want = unit_reduce(coef * ctx.gerbe.e.evaluate(*triple))
                assert gerbal_class(ctx, *triple) == want

    def test_a_sum_of_members_is_a_member(self, instance):
        # why `theta_group_multiply` needs no lookup of its product
        ctx, mixed = self._mixed(instance)
        for w1, w2 in itertools.product(mixed, repeat=2):
            assert ctx.require_member(vec_add(w1, w2)).member

    def test_members_and_non_members(self, instance):
        g, case, vectors = instance
        ctx = ObstructionContext(g, case)
        rng = random.Random(7)
        thirds = [tuple(x / 3 for x in w) for w in vectors]
        candidates = vectors + thirds + [rand_rational_vec(rng, g.torus.dim) for _ in range(3)]
        members = [ctx.vector(w).member for w in candidates]
        assert any(members) and not all(members)
        for w, member in zip(candidates, members):
            assert member is in_case_subgroup(g.torus, g.e, w, case)
            data = ctx.vector(w)
            assert AltForm2.from_upper(data.f, data.den) == case_decomposition(
                g.torus, g.e, w, case, check=False
            ).invariant_part
            if not member:
                with pytest.raises(NotInSubgroup):
                    ctx.require_member(w)


class TestCorruptedFormIsCaught:
    """A wrong skew half of SECOND's basis-triple table (the R_w at the
    basis) or of FIRST's basis-pair table (the M_w at the basis) must
    surface in a cross-check: the closed forms read E or E(w,.,.) and never
    L_w, R_w or M_w."""

    @staticmethod
    def _caught(ctx, w1, w2, w3):
        try:
            for a, b in itertools.combinations((w1, w2, w3), 2):
                first_obstruction_alternating(ctx, a, b)
        except ClosedFormMismatch:
            return True
        return not second_obstruction_alternating(ctx, w1, w2, w3).agree_skew_closed

    def test_half_lattice_example(self, monkeypatch):
        g = gerbe4(4)
        half = F(1, 2)
        w1, w2, w3 = (half, 0, 0, 0), (0, half, 0, 0), (0, 0, half, 0)
        ctx = ObstructionContext(g, SubgroupCase.INTEGRAL)
        assert not self._caught(ctx, w1, w2, w3)
        # the imaginary skew of row (0, 1, 2) enters (w1, w2, w3) times 1
        corrupt_table_row(monkeypatch, g, SubgroupCase.INTEGRAL, _triple_rows, 0, 1)
        assert self._caught(ctx, w1, w2, w3)

    def test_half_lattice_example_first(self, monkeypatch):
        g = gerbe4(4)
        half = F(1, 2)
        w1, w2 = (half, 0, 0, 0), (0, half, 0, 0)
        ctx = ObstructionContext(g, SubgroupCase.INTEGRAL)
        first_obstruction_alternating(ctx, w1, w2)
        # entry 1 of row (0, 1), the skew's row 0 of M_e1 - row 1 of M_e0,
        # moves coordinate 1 of the skew of (w1, w2) by x1_0*x2_1 / den
        corrupt_table_row(monkeypatch, g, SubgroupCase.INTEGRAL, _pair_rows, 0, 1)
        with pytest.raises(ClosedFormMismatch):
            first_obstruction_alternating(ctx, w1, w2)

    def test_every_instance(self, instance, monkeypatch):
        # the imaginary skew of row (a, b, c) enters a triple times its
        # minor on the columns (a, b, c).  In the n = 2 type (1,1)
        # instances the vectors span a plane, so no triple of them reads
        # any row, and no corruption of one can change their values.
        g, case, vectors = instance
        ctx = ObstructionContext(g, case)
        xs = [ctx.vector(w).x for w in vectors]
        rows = list(itertools.combinations(range(g.torus.dim), 3))
        found = next(
            (
                (triple, place)
                for triple in itertools.combinations(range(len(xs)), 3)
                for place, cols in enumerate(rows)
                if minor3([xs[i] for i in triple], cols)
            ),
            None,
        )
        if found is None:
            assert g.torus.n == 2 and case is SubgroupCase.TYPE_ONE_ONE
        triple, place = found or ((0, 1, 2), 0)
        ws = [vectors[i] for i in triple]
        assert not self._caught(ctx, *ws)
        corrupt_table_row(monkeypatch, g, case, _triple_rows, place, 1)
        assert self._caught(ctx, *ws) is (found is not None)

    @staticmethod
    def _corrupt_first_row(instance, monkeypatch, half: int):
        """(ctx, w1, w2) after adding 1/den to column 0 of the skew half
        (half 0) or of the closed half (half 1) of a FIRST table row that
        the pair of the first two vectors reads."""
        g, case, vectors = instance
        w1, w2 = vectors[:2]
        ctx = ObstructionContext(g, case)
        first_obstruction_alternating(ctx, w1, w2)
        d1, d2 = ctx.vector(w1), ctx.vector(w2)
        # row (a, b) enters the pair times x1_a*x2_b - x1_b*x2_a over den
        pairs = itertools.combinations(range(g.torus.dim), 2)
        wedge = [d1.x[a] * d2.x[b] - d1.x[b] * d2.x[a] for a, b in pairs]
        place = next(p for p, y in enumerate(wedge) if y % (d1.dw * d2.den))
        corrupt_table_row(monkeypatch, g, case, _pair_rows, place, half * g.torus.dim)
        return ctx, w1, w2

    def test_every_instance_first(self, instance, monkeypatch):
        ctx, w1, w2 = self._corrupt_first_row(instance, monkeypatch, 0)
        with pytest.raises(ClosedFormMismatch):
            first_obstruction_alternating(ctx, w1, w2)

    def test_every_instance_first_closed_half(self, instance, monkeypatch):
        ctx, w1, w2 = self._corrupt_first_row(instance, monkeypatch, 1)
        with pytest.raises(ClosedFormMismatch):
            first_obstruction_alternating(ctx, w1, w2)

    def test_every_basis_pair_first(self, instance, monkeypatch):
        # a pair of basis vectors reads its row off the table, in either
        # order: a wrong row is caught on both, and the other rows pass
        g, case, _ = instance
        d = g.torus.dim
        corrupt_table_row(monkeypatch, g, case, _pair_rows, d - 2, 0)  # row (0, d - 1)
        table = _table(ObstructionContext(g, case), _pair_rows)
        e = [(1, [int(a == k) for a in range(d)], k) for k in range(d)]
        for c1, c2 in ((e[0], e[-1]), (e[-1], e[0])):
            with pytest.raises(ClosedFormMismatch):
                _first_alternating(table, c1, c2)
        _first_alternating(table, e[0], e[1])
        _first_alternating(table, e[1], e[0])


class TestCorruptedBasisRecordIsCaught:
    """A wrong cached basis record reaches every record combined from it,
    and must surface there: FIRST's closed form reads E(w,.,.), SECOND's
    reads E alone, and the trivialization identity takes its translation
    factor from E and J.  Each test corrupts a fresh gerbe's cache."""

    @staticmethod
    def _fresh(instance):
        g, case, vectors = instance
        return cold_gerbe(g), case, vectors

    def test_m_caught_by_first_and_the_trivialization(self, instance, monkeypatch):
        g, case, vectors = self._fresh(instance)
        w1, w2 = vectors[:2]
        x1, x2 = (TranslationContext.create(g, w, case).x for w in (w1, w2))
        assert verify_trivialization(TranslationContext.create(g, w2, case))
        # entry (p, 0) of M_{e_k} moves coordinate 0 of w1^T*M_w2 - w2^T*M_w1
        # by x1_p*x2_k - x2_p*x1_k, over den
        k, p = next(
            (k, p)
            for k, p in itertools.product(range(g.torus.dim), repeat=2)
            if x1[p] * x2[k] != x2[p] * x1[k]
        )
        corrupt_basis_record(monkeypatch, g, case, k, "m", p, 0)
        with pytest.raises(ClosedFormMismatch):
            first_obstruction_alternating(ObstructionContext(g, case), w1, w2)
        w = w2 if x2[k] else w1
        assert not verify_trivialization(TranslationContext.create(g, w, case))

    def test_r_caught_by_second_and_the_trivialization(self, instance, monkeypatch):
        g, case, vectors = self._fresh(instance)
        xs = [TranslationContext.create(g, w, case).x for w in vectors]
        # entry (p, q) of R_{e_k} moves the imaginary part of the skew of a
        # triple by the minor of its numerators on the columns (q, p, k).
        # In the n = 2 type (1,1) instances the vectors span a plane, so
        # every such minor vanishes (as does E on every triple) and only the
        # trivialization identity can see the change.
        found = next(
            (
                (triple, cols)
                for triple in itertools.combinations(range(len(xs)), 3)
                for cols in itertools.permutations(range(g.torus.dim), 3)
                if minor3([xs[i] for i in triple], cols)
            ),
            None,
        )
        if found is None:
            assert g.torus.n == 2 and case is SubgroupCase.TYPE_ONE_ONE
            k = next(k for k, y in enumerate(xs[0]) if y)
            q = p = 0
            w = vectors[0]
        else:
            triple, (q, p, k) = found
            w = next(vectors[i] for i in triple if xs[i][k])
        assert verify_trivialization(TranslationContext.create(g, w, case))
        corrupt_basis_record(monkeypatch, g, case, k, "r", p, q)
        if found is not None:
            ctx = ObstructionContext(g, case)
            values = second_obstruction_alternating(ctx, *[vectors[i] for i in triple])
            assert not values.agree_skew_closed
        assert not verify_trivialization(TranslationContext.create(g, w, case))

    def test_half_lattice_example(self, monkeypatch):
        g = gerbe4(4)
        half = F(1, 2)
        w1, w2, w3 = (half, 0, 0, 0), (0, half, 0, 0), (0, 0, half, 0)
        ctx = ObstructionContext(g, SubgroupCase.INTEGRAL)
        assert second_obstruction_alternating(ctx, w1, w2, w3).agree_skew_closed
        # entry (1, 0) of R_{e_2}: the minor of (e_0, e_1, e_2) on (0, 1, 2)
        corrupt_basis_record(monkeypatch, g, SubgroupCase.INTEGRAL, 2, "r", 1, 0)
        ctx = ObstructionContext(g, SubgroupCase.INTEGRAL)
        assert not second_obstruction_alternating(ctx, w1, w2, w3).agree_skew_closed
        assert not verify_trivialization(
            TranslationContext.create(g, w3, SubgroupCase.INTEGRAL)
        )
