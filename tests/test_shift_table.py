"""Translation off one packed shift table per (torus, E), and the packed
contraction table of a 3-form.

`GerbeTables.shift_rows` holds `translation_shift_form` at each basis
vector over one denominator, so `translate_gerbe` is one product x^T*S
added to B in one reduction; `AltForm3.contraction_table` holds
de*E(e_k,.,.) in pair coordinates, which `contract3` and `evaluate_over`
multiply by.  Each is compared here against the route it replaced:
`helpers.reference_translate` (B plus the pullback combination of the
entry-by-entry contraction), `AltForm3.contract_pairs` and
`helpers.reference_contract`.  `AltForm2.__sub__` is compared against
`a + (-b)`.
"""

import functools
import itertools
import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusgerbe.gerbe as gerbe_module
import torusgerbe.symmetry as symmetry_module
import torusgerbe.torus as torus_module
from torusgerbe import (
    AltForm2,
    AltForm3,
    GerbeData,
    contract3,
    fixes_gerbe,
    gerbes_isomorphic,
    translate_gerbe,
)
from torusgerbe.exact import dot, int_vec, mat_vec
from torusgerbe.forms import alternating_matrix
from torusgerbe.gerbe import translation_shift_form
from torusgerbe.torus import check_complex_structure

from helpers import (
    compatible_altform3,
    rand_altform2,
    reference_contract,
    reference_contract_matrix,
    reference_translate,
    standard_j_rows,
    twisted_torus,
)

GERBES = [(n, twisted, seed) for n in (1, 2, 3, 4) for twisted in (False, True) for seed in (0, 1)]
IDS = [f"n{n}-{'twisted' if tw else 'standard'}-{seed}" for n, tw, seed in GERBES]


def make_gerbe(n: int, twisted: bool, seed: int) -> GerbeData:
    """A gerbe with an integral type-compatible E and a rational B, on the
    standard or a twisted J (E = 0 at n = 1, which has no triples)."""
    t = twisted_torus(n, 0) if twisted else check_complex_structure(standard_j_rows(n))
    rng = random.Random(f"shift:{n}:{twisted}:{seed}")
    e3 = compatible_altform3(rng, t)
    b = rand_altform2(rng, t.dim)
    return GerbeData(t, b, e3.scale(lcm(*[v.denominator for _, v in e3.entries])))


gerbe = functools.cache(make_gerbe)
RATIONALS = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 5, 6, 8, 9, 12)))


def vectors(dim: int):
    """Rational vectors with mixed denominators, the zero vector among them."""
    return st.lists(RATIONALS, min_size=dim, max_size=dim).map(tuple)


def unit(dim: int, k: int) -> list[int]:
    return [int(a == k) for a in range(dim)]


def storage(f: AltForm2):
    return f.dim, f.upper, f.den, hash(f)


class TestTranslate:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(GERBES), st.data())
    def test_translate_gerbe_matches_the_reference(self, key, data):
        g = gerbe(*key)
        w = data.draw(vectors(g.torus.dim))
        h = translate_gerbe(g, w)
        assert storage(h.b) == storage(reference_translate(g, w))
        assert (h.torus, h.e) == (g.torus, g.e) and h.tables is g.tables

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(GERBES), st.data())
    def test_a_four_step_chain_matches_the_reference_at_every_step(self, key, data):
        g = gerbe(*key)
        h = g
        for w in data.draw(st.lists(vectors(g.torus.dim), min_size=4, max_size=4)):
            expected = reference_translate(h, w)
            h = translate_gerbe(h, w)
            assert storage(h.b) == storage(expected)
            assert h.tables is g.tables

    @pytest.mark.parametrize("key", GERBES, ids=IDS)
    def test_the_zero_vector_keeps_b(self, key):
        g = gerbe(*key)
        for w in ((0,) * g.torus.dim, [F(0)] * g.torus.dim):
            assert storage(translate_gerbe(g, w).b) == storage(g.b)

    @pytest.mark.parametrize("key", GERBES, ids=IDS)
    def test_a_vector_past_the_packing_bound_matches(self, key):
        # sum|x| * top >= 2**63: the product falls back to int_vec_mat
        g = gerbe(*key)
        d = g.torus.dim
        w = tuple(F((-1) ** k * 2**70 + k, 3 + k) for k in range(d))
        assert storage(translate_gerbe(g, w).b) == storage(reference_translate(g, w))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(GERBES), st.data())
    def test_isomorphic_to_the_translate_iff_w_fixes_the_gerbe(self, key, data):
        g = gerbe(*key)
        w = data.draw(vectors(g.torus.dim))
        assert gerbes_isomorphic(g, translate_gerbe(g, w)) == fixes_gerbe(g.torus, g.e, w)


class TestShiftTable:
    @pytest.mark.parametrize("key", GERBES, ids=IDS)
    def test_rows_are_the_shift_forms_of_the_basis(self, key):
        g = gerbe(*key)
        t = g.torus
        ds, rows = g.tables.shift_rows
        forms = [translation_shift_form(t, g.e, ek) for ek in t.basis()]
        assert ds == lcm(*[f.den for f in forms])
        for f, row in zip(forms, rows.rows, strict=True):
            assert AltForm2.from_coords(t.dim, row, ds) == f

    def test_a_warm_translation_neither_contracts_nor_pulls_back(self, monkeypatch):
        g = make_gerbe(3, True, 0)
        ws = [(F(1, 2), 0, F(-1, 3), 0, 1, F(5, 4)), (0, F(2, 3), 0, 0, F(-1, 2), 0)]
        expected = [(reference_translate(g, w), fixes_gerbe(g.torus, g.e, w)) for w in ws]
        translate_gerbe(g, (1, 0, 0, 0, 0, 0))  # warm: builds the shift table

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")

            return call

        for module in (torus_module, gerbe_module, symmetry_module):
            for name in ("contract3", "pullback_over"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden(name))
        monkeypatch.setattr(AltForm3, "contract_pairs", forbidden("contract_pairs"))
        for w, (b, fixes) in zip(ws, expected):
            h = translate_gerbe(g, w)
            assert h.b == b
            assert gerbes_isomorphic(g, h) is fixes

    def test_a_chain_builds_the_table_once_and_shares_it(self, monkeypatch):
        g = make_gerbe(2, True, 1)
        built = []
        original = gerbe_module.translation_shift_form
        monkeypatch.setattr(
            gerbe_module,
            "translation_shift_form",
            lambda *args: built.append(args) or original(*args),
        )
        chain = [g]
        for w in [(F(1, 2), 0, 0, 0), (0, F(1, 3), 0, 1), (1, 1, 0, 0), (0, 0, F(-1, 4), 0)]:
            chain.append(translate_gerbe(chain[-1], w))
        assert len(built) == g.torus.dim
        assert all(h.tables is g.tables for h in chain)

    def test_building_the_table_keeps_the_stored_contraction(self):
        g = make_gerbe(2, False, 0)
        w = (F(1, 2), F(1, 3), 0, 0)
        omega = contract3(g.e, w)
        translate_gerbe(g, w)  # the first translation builds the table
        assert contract3(g.e, w) is omega


@st.composite
def rational_altform3s(draw):
    dim = draw(st.integers(3, 7))
    triples = list(itertools.combinations(range(dim), 3))
    chosen = draw(st.lists(st.sampled_from(triples), max_size=len(triples), unique=True))
    return AltForm3.from_coeffs(dim, {t: draw(RATIONALS) for t in chosen})


INTEGERS = st.one_of(st.integers(-5, 5), st.integers(-(2**66), 2**66))


class TestContractionTable:
    @settings(max_examples=100, deadline=None)
    @given(rational_altform3s())
    def test_rows_are_the_contractions_of_the_basis(self, e3):
        de, rows = e3.contraction_table
        d = e3.dim
        assert de == e3.int_entries[0]
        assert rows.rows == [e3.contract_pairs(unit(d, k))[0] for k in range(d)]

    def test_the_table_is_built_once_per_form(self, monkeypatch):
        e3 = AltForm3.from_coeffs(4, {(0, 1, 2): 2, (1, 2, 3): F(-3, 2)})
        built = []
        original = AltForm3.contract_pairs
        monkeypatch.setattr(
            AltForm3,
            "contract_pairs",
            lambda form, nums, den=1: built.append(tuple(nums)) or original(form, nums, den),
        )
        for w in [(F(1, 2), 0, 0, 1), (0, F(2, 3), 1, 0), (1, 1, 1, 1)]:
            contract3(e3, w)
            e3.evaluate_over([1, 2, 0, 0], [0, 1, 0, 3], [0, 0, 1, 0])
        assert built == [tuple(unit(4, k)) for k in range(4)]

    @settings(max_examples=150, deadline=None)
    @given(rational_altform3s(), st.data())
    def test_contract3_matches_contract_pairs_and_the_reference(self, e3, data):
        w = data.draw(vectors(e3.dim))
        dw, x = int_vec(w)
        omega = contract3(e3, w)
        assert omega == AltForm2.from_coords(e3.dim, *e3.contract_pairs(x, dw))
        assert omega == reference_contract(e3, w)

    @settings(max_examples=150, deadline=None)
    @given(rational_altform3s(), st.data())
    def test_evaluate_over_matches_contract_pairs(self, e3, data):
        d = e3.dim
        x, y, z = (data.draw(st.lists(INTEGERS, min_size=d, max_size=d)) for _ in range(3))
        coords, de = e3.contract_pairs(x)
        m = alternating_matrix(coords, d)
        expected = sum(y[a] * m[a][b] * z[b] for a in range(d) for b in range(d))
        assert e3.evaluate_over(x, y, z) == (expected, de)

    @settings(max_examples=100, deadline=None)
    @given(rational_altform3s(), st.data())
    def test_evaluate_matches_the_reference(self, e3, data):
        x, y, z = (data.draw(vectors(e3.dim)) for _ in range(3))
        assert e3.evaluate(x, y, z) == dot(y, mat_vec(reference_contract_matrix(e3, x), z))


FORM_PAIRS = st.integers(2, 8).flatmap(
    lambda dim: st.tuples(
        *[
            st.lists(RATIONALS, min_size=dim * (dim - 1) // 2, max_size=dim * (dim - 1) // 2)
            for _ in range(2)
        ]
    ).map(
        lambda cs: tuple(
            AltForm2.from_pairs(dim, dict(zip(itertools.combinations(range(dim), 2), c)))
            for c in cs
        )
    )
)


class TestSub:
    @settings(max_examples=200, deadline=None)
    @given(FORM_PAIRS)
    def test_sub_is_the_sum_with_the_negation(self, pair):
        a, b = pair
        assert storage(a - b) == storage(a + (-b))
        assert storage(a - a) == storage(AltForm2.zero(a.dim))

    def test_a_dimension_mismatch_raises(self):
        a, b = AltForm2.zero(4), AltForm2.from_pairs(6, {(0, 1): F(1, 2)})
        for op in (lambda: a - b, lambda: b - a, lambda: a + b):
            with pytest.raises(ValueError, match="^dimension mismatch$"):
                op()
