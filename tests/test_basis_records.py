"""Shared basis rows: every translation record is its lift.

The first record of a (torus, E, case) builds the matrices of the lattice
basis vectors from the contractions, as d packed rows kept in the gerbe's
tables (`GerbeData.tables`); the record of any w = x/dw, a basis vector's
included, is sum_k x_k*(row of e_k) over dw times their denominator.  The
combination is checked field by field against the direct build at w
(`helpers.direct_record`), on standard and twisted J at n = 2 and 3, in
both cases, for w with denominators 1, 2 and 4, inside and outside the
subgroup, and for the zero vector.  The gerbe that built the rows gets
the basis's own record of a basis vector; any other gets a plain lift.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusgerbe.gerbe as gerbe_module
import torusgerbe.trivialization as triv
from torusgerbe import (
    AltForm3,
    GerbeData,
    ObstructionKind,
    SubgroupCase,
    SubgroupSpec,
    TranslationContext,
    obstruction_vanishes,
)
from torusgerbe.gerbe import translate_gerbe

from helpers import basis_records, conjugated_instance, direct_record

FIELDS = ("dw", "x", "ix", "den", "member", "omega", "f", "m", "r")
INSTANCES = [
    (n, twisted, case)
    for n in (2, 3)
    for twisted in (False, True)
    for case in (SubgroupCase.INTEGRAL, SubgroupCase.TYPE_ONE_ONE)
]
IDS = [f"n{n}-{'twisted' if tw else 'standard'}-{case.value}" for n, tw, case in INSTANCES]


@pytest.fixture(params=INSTANCES, ids=IDS)
def instance(request):
    """A fresh gerbe, so its basis records start empty."""
    n, twisted, case = request.param
    g, vectors = conjugated_instance(n, 0, case, twisted)
    return g, case, vectors


def assert_same_record(combined, direct):
    for name in FIELDS:
        assert getattr(combined, name) == getattr(direct, name), name
    assert combined.kernel == direct.kernel
    assert combined == direct


def vector_over(rng, dim, den):
    return tuple(F(rng.randint(-6, 6), den) for _ in range(dim))


class TestCombinedRecords:
    def test_match_the_direct_build(self, instance):
        g, case, vectors = instance
        d = g.torus.dim
        rng = random.Random(41)
        drawn = [vector_over(rng, d, den) for den in (1, 2, 4) for _ in range(3)]
        shifted = [tuple(x + F(1, 4) for x in w) for w in vectors]
        for w in [(0,) * d, *vectors, *shifted, *drawn]:
            combined = TranslationContext.create(g, w, case, check=False)
            assert_same_record(combined, direct_record(g, w, case))
        assert all(TranslationContext.create(g, w, case).member for w in vectors)
        assert not any(TranslationContext.create(g, w, case, check=False).member for w in shifted)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_match_the_direct_build(self, data):
        n = data.draw(st.sampled_from((2, 3)))
        case = data.draw(st.sampled_from(list(SubgroupCase)))
        twisted = data.draw(st.booleans())
        g, vectors = conjugated_instance(n, data.draw(st.integers(0, 2)), case, twisted)
        d = g.torus.dim
        den = data.draw(st.sampled_from((1, 2, 4)))
        nums = st.lists(st.integers(-8, 8), min_size=d, max_size=d)
        w = data.draw(
            st.one_of(
                st.just((0,) * d),
                st.sampled_from(vectors),
                nums.map(lambda xs: tuple(F(x, den) for x in xs)),
            )
        )
        combined = TranslationContext.create(g, w, case, check=False)
        assert_same_record(combined, direct_record(g, w, case))

    def test_basis_vector_returns_the_cached_record(self, instance):
        g, case, _ = instance
        d = g.torus.dim
        basis = basis_records(g, case)
        assert len(basis) == d and list(g.tables.built) == [case]
        for k, ek in enumerate(g.torus.basis()):
            assert basis[k] is triv._basis_records(g, case).records[k]
            assert triv._lifted_record(g, ek, case) is basis[k]
            as_ints = [int(a == k) for a in range(d)]
            assert TranslationContext.create(g, as_ints, case, check=False) is basis[k]
            assert_same_record(basis[k], direct_record(g, ek, case))
        # 2*e_k and e_k/2 are combined, not read off the cache
        for w in ((2,) + (0,) * (d - 1), (F(1, 2),) + (0,) * (d - 1)):
            assert TranslationContext.create(g, w, case, check=False) is not basis[0]

    def test_cache_is_not_part_of_the_gerbe(self, instance):
        # the tables are kept by the torus object and E: a twin built on
        # the same torus reads them, and neither hash nor repr sees them
        g, case, vectors = instance
        twin = GerbeData(g.torus, g.b, g.e)
        before = hash(g), repr(g)
        for other in SubgroupCase:
            TranslationContext.create(g, vectors[0], other, check=False)
        assert set(g.tables.built) == set(SubgroupCase) and twin.tables is g.tables
        assert g == twin and (hash(g), repr(g)) == before == (hash(twin), repr(twin))


class TestWarmGerbe:
    def test_second_query_builds_no_record(self, instance, monkeypatch):
        # a second obstruction_vanishes on the same gerbe and case combines
        # every record from the cached basis: no contraction and no
        # pullback, the case membership included, which reads the kept
        # `anti_rows` or contraction table
        g, case, vectors = instance
        spec = SubgroupSpec.create(vectors[:3], case)
        first = [obstruction_vanishes(g, spec, which) for which in ObstructionKind]

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm gerbe rebuilt a record")

        for module, name in (
            (gerbe_module, "forms_over"),
            (triv, "forms_over"),
            (triv, "pullback_over"),
            (gerbe_module, "pullback_over"),
            (AltForm3, "contract_pairs"),
            (triv, "_basis_row"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        assert [obstruction_vanishes(g, spec, which) for which in ObstructionKind] == first


class TestTranslatedGerbe:
    def test_basis_vectors_are_plain_lifts(self, instance, monkeypatch):
        # a translated gerbe shares the rows but not the records: its record
        # of e_k is a new lift of its own, field for field a lift built by
        # hand, made without a copy of the basis's record or a new row
        g, case, _ = instance
        basis = triv._basis_records(g, case)
        moved = translate_gerbe(g, g.torus.basis()[0])
        row = triv._basis_row
        monkeypatch.setattr(triv, "_basis_row", lambda *args: pytest.fail("a row was rebuilt"))
        records = [triv._lifted_record(moved, ek, case) for ek in g.torus.basis()]
        for k, (record, ek) in enumerate(zip(records, g.torus.basis())):
            lift = TranslationContext(moved, ek, case, *g.torus.lift(ek), basis.den)
            assert record.gerbe is moved and record is not basis.records[k]
            assert vars(record) == vars(lift)
        assert moved.tables.built[case] is basis
        monkeypatch.setattr(triv, "_basis_row", row)
        for record, ek in zip(records, g.torus.basis()):
            assert_same_record(record, direct_record(moved, ek, case))
