"""The per-torus integer pullback map and the integer contraction.

Every form that reads J^T*omega*J (`j_pullback2`, `anti_invariant_part`,
`hodge_projection`, `translation_shift_form`, `case_decomposition`,
`in_case_subgroup` and the per-vector records of the obstruction and
trivialization contexts) and every contraction E(w,.,.) is checked for
exact equality against dense Fraction oracles: `reference_j_pullback2`
(two matrix products) and `reference_contract` (an entry-by-entry loop).
"""

import functools
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgerbe import (
    AltForm2,
    AltForm3,
    NotInSubgroup,
    ObstructionContext,
    SubgroupCase,
    TorusData,
    TranslationContext,
    anti_invariant_part,
    case_decomposition,
    check_complex_structure,
    contract3,
    fixes_gerbe,
    gerbes_isomorphic,
    hodge_projection,
    in_case_subgroup,
    j_pullback2,
    translate_gerbe,
)
from torusgerbe.exact import mat_mul
from torusgerbe.gerbe import forms_over, translation_shift_form

from helpers import (
    conjugated_instance,
    gerbe4,
    rand_altform2,
    rand_altform3_int,
    reference_contract,
    reference_j_pullback2,
    standard_j_rows,
    twisted_torus,
)

TORI = [(n, twisted) for n in (2, 3, 4, 5) for twisted in (False, True)]
TORUS_IDS = [f"n{n}-{'twisted' if tw else 'standard'}" for n, tw in TORI]
CASES = (SubgroupCase.INTEGRAL, SubgroupCase.TYPE_ONE_ONE)


def make_torus(n: int, twisted: bool) -> TorusData:
    return twisted_torus(n, 0) if twisted else check_complex_structure(standard_j_rows(n))


def mixed_vec(rng: random.Random, dim: int) -> tuple:
    """A rational vector whose entries have different denominators."""
    return tuple(F(rng.randint(-5, 5), rng.choice((1, 2, 3, 5, 7))) for _ in range(dim))


def rational_altform3(rng: random.Random, dim: int) -> AltForm3:
    return AltForm3.from_coeffs(
        dim,
        {
            t: F(rng.randint(-3, 3), rng.choice((1, 2, 4, 6)))
            for t in itertools.combinations(range(dim), 3)
            if rng.random() < 0.6
        },
    )


def combination(omega: AltForm2, pulled: AltForm2, c0, c1) -> AltForm2:
    """c0*omega + c1*pulled, entry by entry."""
    return AltForm2(
        tuple(
            tuple(c0 * a + c1 * b for a, b in zip(ra, rb))
            for ra, rb in zip(omega.entries, pulled.entries)
        )
    )


def dense_decomposition(t: TorusData, e3: AltForm3, w, case: SubgroupCase):
    omega = reference_contract(e3, w)
    pulled = reference_j_pullback2(t, omega)
    if case is SubgroupCase.INTEGRAL:
        return combination(omega, pulled, F(-3, 8), F(-3, 8)), omega
    return combination(omega, pulled, F(5, 8), F(-3, 8)), AltForm2.zero(t.dim)


def dense_member(t: TorusData, e3: AltForm3, w, case: SubgroupCase) -> bool:
    omega = reference_contract(e3, w)
    if case is SubgroupCase.INTEGRAL:
        return all(x.denominator == 1 for row in omega.entries for x in row)
    return reference_j_pullback2(t, omega) == omega


@pytest.fixture(scope="module", params=TORI, ids=TORUS_IDS)
def torus_data(request):
    n, twisted = request.param
    t = make_torus(n, twisted)
    rng = random.Random(f"kernel:{n}:{twisted}")
    forms = [AltForm2.zero(t.dim), AltForm2.from_pairs(t.dim, {(0, t.dim - 1): F(3, 7)})]
    forms += [rand_altform2(rng, t.dim) for _ in range(3)]
    e3s = [rand_altform3_int(rng, t.dim), rational_altform3(rng, t.dim), AltForm3.zero(t.dim)]
    vectors = [tuple(F(0) for _ in range(t.dim)), tuple(F(rng.randint(-2, 2)) for _ in range(t.dim))]
    vectors += [mixed_vec(rng, t.dim) for _ in range(2)]
    return t, forms, e3s, vectors


class TestPullbackForms:
    def test_j_pullback2(self, torus_data):
        t, forms, _, _ = torus_data
        for omega in forms:
            assert j_pullback2(t, omega) == reference_j_pullback2(t, omega)

    def test_anti_invariant_part(self, torus_data):
        t, forms, _, _ = torus_data
        for omega in forms:
            pulled = reference_j_pullback2(t, omega)
            assert anti_invariant_part(t, omega) == combination(omega, pulled, F(1, 2), F(-1, 2))

    def test_hodge_projection(self, torus_data):
        t, forms, _, _ = torus_data
        for omega in forms:
            h = hodge_projection(t, omega)
            pulled = reference_j_pullback2(t, omega)
            assert h.re == combination(omega, pulled, F(1, 4), F(-1, 4))
            jt_m = mat_mul(t.jt, omega.entries)
            m_j = mat_mul(omega.entries, t.j)
            assert h.im.entries == tuple(
                tuple((a + b) / 4 for a, b in zip(ra, rb)) for ra, rb in zip(jt_m, m_j)
            )

    def test_pullback_is_an_involution(self, torus_data):
        t, forms, _, _ = torus_data
        for omega in forms:
            assert j_pullback2(t, j_pullback2(t, omega)) == omega

    def test_dimension_mismatch(self):
        t = make_torus(3, True)
        for fn in (j_pullback2, anti_invariant_part, hodge_projection):
            with pytest.raises(ValueError):
                fn(t, AltForm2.zero(4))


class TestContraction:
    def test_contract3(self, torus_data):
        _, _, e3s, vectors = torus_data
        for e3, w in itertools.product(e3s, vectors):
            assert contract3(e3, w) == reference_contract(e3, w)

    def test_zero_vector_and_zero_form(self, torus_data):
        t, _, e3s, vectors = torus_data
        zero = AltForm2.zero(t.dim)
        for e3 in e3s:
            assert contract3(e3, vectors[0]) == zero
        for w in vectors:
            assert contract3(AltForm3.zero(t.dim), w) == zero


class TestSubgroupLayer:
    def test_translation_shift_form(self, torus_data):
        t, _, e3s, vectors = torus_data
        for e3, w in itertools.product(e3s, vectors):
            omega = reference_contract(e3, w)
            expected = combination(omega, reference_j_pullback2(t, omega), F(5, 8), F(-3, 8))
            assert translation_shift_form(t, e3, w) == expected

    def test_case_decomposition_unchecked(self, torus_data):
        t, _, e3s, vectors = torus_data
        for e3, w, case in itertools.product(e3s, vectors, CASES):
            dec = case_decomposition(t, e3, w, case, check=False)
            invariant, integral = dense_decomposition(t, e3, w, case)
            assert dec.invariant_part == invariant
            assert dec.integral_part == integral

    def test_in_case_subgroup(self, torus_data):
        t, _, e3s, vectors = torus_data
        for e3, w, case in itertools.product(e3s, vectors, CASES):
            assert in_case_subgroup(t, e3, w, case) is dense_member(t, e3, w, case)

    @pytest.mark.parametrize("twisted", [False, True], ids=["standard", "twisted"])
    @pytest.mark.parametrize("case", CASES, ids=[c.value for c in CASES])
    def test_members_and_non_members(self, case, twisted):
        g, vectors = conjugated_instance(3, 1, case, twisted)
        t, e3 = g.torus, g.e
        # e_2 over more than the largest coefficient: E(w,.,.) is not integral
        k = 1 + max(abs(v) for _, v in e3.entries)
        outside = tuple(1 / k if a == 2 else F(0) for a in range(t.dim))
        for w in vectors + [outside]:
            member = dense_member(t, e3, w, case)
            assert in_case_subgroup(t, e3, w, case) is member
            invariant, integral = dense_decomposition(t, e3, w, case)
            if member:
                dec = case_decomposition(t, e3, w, case)
                assert (dec.invariant_part, dec.integral_part) == (invariant, integral)
            else:
                with pytest.raises(NotInSubgroup):
                    case_decomposition(t, e3, w, case)
        assert all(dense_member(t, e3, w, case) for w in vectors)
        assert not dense_member(t, e3, outside, case)


class TestContextRecords:
    @pytest.mark.parametrize("twisted", [False, True], ids=["standard", "twisted"])
    @pytest.mark.parametrize("case", CASES, ids=[c.value for c in CASES])
    def test_records_match_the_dense_formulas(self, case, twisted):
        g, vectors = conjugated_instance(2, 2, case, twisted)
        t, e3 = g.torus, g.e
        ctx = ObstructionContext(g, case)
        rng = random.Random(9)
        for w in vectors + [mixed_vec(rng, t.dim)]:
            omega = reference_contract(e3, w)
            omega_i = reference_contract(e3, t.mul_i(w))
            jt_m = mat_mul(t.jt, omega.entries)
            m_j = mat_mul(omega.entries, t.j)
            l = tuple(
                tuple((a + b - 2 * c) / 16 for a, b, c in zip(ra, rb, rc))
                for ra, rb, rc in zip(jt_m, m_j, omega_i.entries)
            )
            invariant, integral = dense_decomposition(t, e3, w, case)
            member = dense_member(t, e3, w, case)
            _, _, _, do, *ints = forms_over(t, e3, w)
            dj = t.j_columns[0]
            dense = ((omega.entries, do), (omega_i.entries, dj * do), (l, 16 * dj * do))
            for m, (expected, den) in zip(ints, dense):
                assert tuple(tuple(F(y, den) for y in row) for row in m) == expected
            data = ctx.vector(w)
            assert (data.member, AltForm2.from_upper(data.f, data.den)) == (member, invariant)
            tctx = TranslationContext.create(g, w, case, check=False)
            assert (tctx.dec.invariant_part, tctx.dec.integral_part) == (invariant, integral)
            twin = TranslationContext.create(g, w, case, check=False)
            assert twin == tctx and hash(twin) == hash(tctx)
            # the kernel's linear columns: im = -R and re = -J^T*R for
            # R = L - J^T*F/2
            r = tuple(
                tuple(x - y / 2 for x, y in zip(rl, rf))
                for rl, rf in zip(l, mat_mul(t.jt, invariant.entries))
            )
            jt_r, (den, (_, _, re, im)) = mat_mul(t.jt, r), tctx.kernel
            for lin, expected in ((re, jt_r), (im, r)):
                assert [[F(y, den) for y in row] for row in lin] == [
                    [-x for x in row] for row in expected
                ]
            if not member:
                with pytest.raises(NotInSubgroup):
                    TranslationContext.create(g, w, case)


class TestAltForm2:
    def test_rejects_non_antisymmetric(self):
        for rows in (
            [[0, F(1, 2)], [F(-1, 3), 0]],
            [[0, F(1, 2)], [F(1, 2), 0]],
            [[1, 0], [0, -1]],
            [[0, 1, 0], [-1, 0, 2], [0, -2, F(1, 5)]],
        ):
            with pytest.raises(ValueError):
                AltForm2(rows)
        assert AltForm2([[0, F(2, 4)], [F(-1, 2), 0]]).entry(0, 1) == F(1, 2)

    def test_sub_and_neg(self):
        rng = random.Random(4)
        a, b = rand_altform2(rng, 6), rand_altform2(rng, 6)
        assert (a - b).entries == tuple(
            tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)
        )
        assert (-a).entries == tuple(tuple(-x for x in row) for row in a.entries)
        assert a - a == AltForm2.zero(6) == a + (-a)
        with pytest.raises(ValueError):
            a - AltForm2.zero(4)


def _counting(monkeypatch, name):
    """Replace the cached property `name` of TorusData by one that counts
    how often it is computed."""
    calls = []
    original = getattr(TorusData, name).func

    def counted(self):
        calls.append(self)
        return original(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(TorusData, name)
    monkeypatch.setattr(TorusData, name, prop)
    return calls


def test_map_is_built_once_per_torus(monkeypatch):
    built = _counting(monkeypatch, "pullback_map")
    g = gerbe4(2)
    for k in range(6):
        w = (F(k, 4), F(1, 2), F(k, 3), F(0))
        fixes_gerbe(g.torus, g.e, w)
        gerbes_isomorphic(g, translate_gerbe(g, w))
    assert built == [g.torus]
    g6, vectors = conjugated_instance(3, 0, SubgroupCase.TYPE_ONE_ONE, True)
    for w in vectors:
        fixes_gerbe(g6.torus, g6.e, w)
        gerbes_isomorphic(g6, translate_gerbe(g6, w))
        in_case_subgroup(g6.torus, g6.e, w, SubgroupCase.TYPE_ONE_ONE)
    assert built == [g.torus, g6.torus]


@given(
    twisted=st.booleans(),
    coeffs=st.dictionaries(
        st.sampled_from(list(itertools.combinations(range(6), 2))),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        max_size=6,
    ),
    w=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5), min_size=6, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_property_kernel_matches_dense(twisted, coeffs, w):
    t = make_torus(3, twisted)
    omega = AltForm2.from_pairs(6, coeffs)
    pulled = reference_j_pullback2(t, omega)
    assert j_pullback2(t, omega) == pulled
    assert anti_invariant_part(t, omega) == combination(omega, pulled, F(1, 2), F(-1, 2))
    e3 = rational_altform3(random.Random(len(coeffs)), 6)
    assert contract3(e3, w) == reference_contract(e3, w)
    for case in CASES:
        assert in_case_subgroup(t, e3, w, case) is dense_member(t, e3, w, case)
