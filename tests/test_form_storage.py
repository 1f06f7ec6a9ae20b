"""`AltForm2`'s integer storage against the `Fraction`-matrix oracle.

The form stores its pair coordinates (the entries on the pairs a < b in
lexicographic order) as integers over one positive denominator, reduced by
their gcd; every constructor, operation and view is
compared with `helpers.FractionAltForm2`, which keeps the full matrix of
`Fraction`s.  The membership decisions read only the integers, which the
last test checks by forbidding the `Fraction` view while they run.
"""

import itertools
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgerbe import (
    AltForm2,
    GerbeData,
    SubgroupCase,
    fixes_gerbe,
    gerbes_isomorphic,
    in_case_subgroup,
    translate_gerbe,
)

from helpers import FractionAltForm2, conjugated_instance, rand_altform2, rand_rational_vec

RAT = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
NONZERO = st.integers(-40, 40).filter(bool)


@st.composite
def coeff_dicts(draw, dim):
    """{(a, b): c} on a random subset of the pairs a < b."""
    pairs = list(itertools.combinations(range(dim), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return {p: draw(RAT) for p in chosen}


def full_matrix(dim, coeffs):
    m = [[F(0)] * dim for _ in range(dim)]
    for (a, b), c in coeffs.items():
        m[a][b], m[b][a] = c, -c
    return m


def assert_matches(form: AltForm2, oracle: FractionAltForm2, rng: random.Random):
    """Every view of form agrees with the oracle, and the storage is
    canonical: den > 0 and no common factor with the numerators."""
    d = oracle.dim
    assert form.dim == d
    assert form.den > 0 and gcd(form.den, *form.upper) == 1
    assert len(form.upper) == d * (d - 1) // 2
    assert form.upper_coeffs() == oracle.upper_coeffs()
    assert form.is_integral == oracle.is_integral
    assert form.is_zero == oracle.is_zero
    assert all(form.entry(a, b) == oracle.entry(a, b) for a in range(d) for b in range(d))
    assert form.entries == oracle.entries
    x, y = rand_rational_vec(rng, d), rand_rational_vec(rng, d)
    assert form.apply(y) == oracle.apply(y)
    assert form.evaluate(x, y) == oracle.evaluate(x, y)


class TestAgainstFractionOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_constructors(self, data):
        dim = data.draw(st.integers(0, 5))
        rng = random.Random(data.draw(st.integers(0, 99)))
        coeffs = data.draw(coeff_dicts(dim))
        m = full_matrix(dim, coeffs)
        assert_matches(AltForm2(m), FractionAltForm2(m), rng)
        assert_matches(AltForm2.from_pairs(dim, coeffs), FractionAltForm2.from_pairs(dim, coeffs), rng)
        # from_pairs writes pair coordinates; they are those of the full matrix
        assert AltForm2.from_pairs(dim, coeffs) == AltForm2(m)
        assert hash(AltForm2.from_pairs(dim, coeffs)) == hash(AltForm2(m))
        assert_matches(AltForm2.zero(dim), FractionAltForm2.zero(dim), rng)
        # from_upper reads only the upper triangle of an integer matrix, over
        # a denominator that may share factors with it or be negative
        ints = [[data.draw(st.integers(-50, 50)) for _ in range(dim)] for _ in range(dim)]
        den = data.draw(NONZERO)
        for k in (1, data.draw(NONZERO)):
            scaled = [[k * x for x in row] for row in ints]
            assert_matches(
                AltForm2.from_upper(scaled, k * den), FractionAltForm2.from_upper(ints, den), rng
            )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_operations(self, data):
        dim = data.draw(st.integers(0, 5))
        rng = random.Random(data.draw(st.integers(0, 99)))
        ca, cb = data.draw(coeff_dicts(dim)), data.draw(coeff_dicts(dim))
        a, b = AltForm2.from_pairs(dim, ca), AltForm2.from_pairs(dim, cb)
        oa, ob = FractionAltForm2.from_pairs(dim, ca), FractionAltForm2.from_pairs(dim, cb)
        assert_matches(a + b, oa + ob, rng)
        assert_matches(a - b, oa - ob, rng)
        assert_matches(-a, -oa, rng)
        assert_matches(a - a, FractionAltForm2.zero(dim), rng)
        for c in (0, 1, -1, data.draw(RAT), data.draw(st.integers(-9, 9))):
            assert_matches(a.scale(c), oa.scale(c), rng)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equal_forms_compare_and_hash_equal(self, data):
        dim = data.draw(st.integers(0, 5))
        ca, cb = data.draw(coeff_dicts(dim)), data.draw(coeff_dicts(dim))
        a, b = AltForm2.from_pairs(dim, ca), AltForm2.from_pairs(dim, cb)
        c = data.draw(RAT.filter(bool))
        k = data.draw(NONZERO)
        upper = [[0] * dim for _ in range(dim)]
        for (p, q), x in zip(itertools.combinations(range(dim), 2), a.upper):
            upper[p][q] = k * x
        routes = [
            AltForm2(full_matrix(dim, ca)),
            AltForm2.from_upper(upper, k * a.den),
            (a + b) - b,
            -(-a),
            a.scale(c).scale(1 / c),
            a + AltForm2.zero(dim),
        ]
        for r in routes:
            assert r == a and hash(r) == hash(a)
            assert (r.upper, r.den) == (a.upper, a.den)
        oa, ob = FractionAltForm2.from_pairs(dim, ca), FractionAltForm2.from_pairs(dim, cb)
        assert (a == b) == (oa == ob)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5).flatmap(
        lambda d: st.lists(st.lists(st.integers(-9, 9), min_size=d, max_size=d), min_size=d, max_size=d)
    ))
    def test_from_upper_rejects_a_zero_denominator(self, m):
        with pytest.raises(ZeroDivisionError):
            AltForm2.from_upper(m, 0)

    def test_antisymmetry_is_still_checked(self):
        for rows in ([[0, 1], [1, 0]], [[1, 0], [0, -1]], [[0, F(1, 2)], [F(-1, 3), 0]]):
            with pytest.raises(ValueError):
                AltForm2(rows)
        with pytest.raises(ValueError):
            AltForm2.from_pairs(3, {(1, 0): 1})


CASES = list(SubgroupCase)


@pytest.mark.parametrize("twisted", (False, True), ids=("standard", "twisted"))
@pytest.mark.parametrize("n", (2, 3))
def test_membership_decisions_never_build_the_fraction_view(n, twisted, monkeypatch):
    rng = random.Random(f"view:{n}:{twisted}")
    instances = []
    for case in CASES:
        g, vectors = conjugated_instance(n, 0, case, twisted)
        g = GerbeData(g.torus, rand_altform2(rng, g.torus.dim), g.e)
        instances.append((g, vectors + [rand_rational_vec(rng, g.torus.dim)]))

    def forbidden(self):
        raise AssertionError("a membership decision built the Fraction matrix of a 2-form")

    monkeypatch.setattr(AltForm2, "entries", property(forbidden))
    for g, vectors in instances:
        t = g.torus
        for w in vectors:
            fixes_gerbe(t, g.e, w)
            for case in CASES:
                in_case_subgroup(t, g.e, w, case)
            assert gerbes_isomorphic(g, translate_gerbe(g, w)) == fixes_gerbe(t, g.e, w)


def test_evaluate_and_apply_reject_floats_and_read_lists():
    # the form with coefficient 1 on the pair (0, 1)
    form = AltForm2.from_pairs(4, {(0, 1): 1})
    half, e1 = (0.5, 0, 0, 0), (0, 1, 0, 0)
    for call in (
        lambda: form.evaluate(half, e1),
        lambda: form.evaluate(e1, half),
        lambda: form.apply(half),
    ):
        with pytest.raises(TypeError, match="floats are not allowed in exact computations"):
            call()
    x, y = (F(1, 2), 0, 0, 0), (0, 1, 0, 0)
    assert form.evaluate(x, y) == F(1, 2) == form.evaluate(list(x), list(y))
    assert form.apply(list(x)) == form.apply(x) == (0, F(-1, 2), 0, 0)
    assert all(type(v) is F for v in form.apply([1, 2, 3, 4]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        form.apply((1, 0, 0))
