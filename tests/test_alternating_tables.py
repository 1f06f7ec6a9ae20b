"""The alternating tables of the obstructions, and the records they spare.

FIRST and SECOND are alternating and multilinear, so the obstructions
read them off two tables built once per (torus, E, case) from the basis
rows, `obstruction._pair_rows` and `_triple_rows`: a tuple of basis
vectors reads one row times the sign of its order, any other tuple its
wedge vector times the rows.  Both are compared with oracles in `helpers`
that compute from the records of the vectors themselves:
`reference_first_alternating` by three products per pair,
`reference_second_triples` by tables built over the records of one query,
and `reference_second_alternating`, for the public SECOND values, by one
product per permutation.  The vectors are basis vectors in every order,
repeated vectors, rationals of mixed denominators and numerators past the
64-bit guard of `PackedRows`, on standard and twisted tori at n = 2 and 3
in both cases, and on translated gerbes.

Every record is its lift: its matrices and its membership, built on first
read, equal `helpers.reference_record`, the eager build.  The decisions
and the trivialization identity read no record matrix, and a translated
gerbe decides as the gerbe does, off the same tables, without building
them again.
"""

import functools
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import torusgerbe.trivialization as triv
from torusgerbe import (
    AltForm2,
    AltForm3,
    ClosedFormMismatch,
    FirstObstructionNonzero,
    GaussianRational,
    GerbeData,
    ObstructionContext,
    ObstructionKind,
    SecondObstructionValues,
    SubgroupCase,
    SubgroupSpec,
    TranslationContext,
    check_complex_structure,
    first_obstruction_alternating,
    gerbal_class,
    obstruction_vanishes,
    second_obstruction_alternating,
    translate_gerbe,
    unit_reduce,
    verify_trivialization,
)
from torusgerbe.exact import PackedRows
from torusgerbe.obstruction import _candidate, _first_alternating, _pair_rows, _triple_rows

from helpers import (
    RECORD_LAZY,
    basis_records,
    conjugated_instance,
    decided,
    obstruction_candidates,
    reference_first_alternating,
    reference_record,
    reference_second_alternating,
    reference_second_triples,
)

FIRST, SECOND = ObstructionKind.FIRST, ObstructionKind.SECOND
INSTANCES = [
    (n, twisted, case)
    for n in (2, 3)
    for twisted in (False, True)
    for case in (SubgroupCase.INTEGRAL, SubgroupCase.TYPE_ONE_ONE)
]
IDS = [f"n{n}-{'twisted' if tw else 'standard'}-{case.value}" for n, tw, case in INSTANCES]
BIG = (2**70, F(2**70 + 1, 2**10))  # numerators past the guard of `PackedRows`


@functools.lru_cache(maxsize=None)
def gerbe_of(n: int, twisted: bool, case: SubgroupCase):
    """`conjugated_instance` of seed 0 with six case members, kept so its
    tables are built once."""
    return conjugated_instance(n, 0, case, twisted, count=6)


@pytest.fixture(params=INSTANCES, ids=IDS)
def instance(request):
    n, twisted, case = request.param
    g, vectors = gerbe_of(n, twisted, case)
    return g, case, vectors


def drawn_vectors(data, size: tuple[int, int]):
    """(g, case, vectors): a gerbe of `INSTANCES` and a list of vectors,
    each a basis vector, a case member, a rational of mixed denominators, or
    one of these plus a numerator past the guard, repeats allowed."""
    n, twisted, case = data.draw(st.sampled_from(INSTANCES), label="instance")
    g, members = gerbe_of(n, twisted, case)
    d = g.torus.dim
    rat = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 5, 8)))
    one = st.one_of(
        st.sampled_from(g.torus.basis()),
        st.sampled_from(members),
        st.tuples(*[rat] * d),
    )
    vectors = []
    for _ in range(data.draw(st.integers(*size), label="count")):
        w = list(data.draw(one, label="w"))
        if data.draw(st.integers(0, 4), label="past the guard") == 0:
            w[data.draw(st.integers(0, d - 1), label="at")] += data.draw(st.sampled_from(BIG))
        vectors.append(tuple(w))
    if vectors and data.draw(st.booleans(), label="repeat"):
        vectors.insert(data.draw(st.integers(0, len(vectors))), data.draw(st.sampled_from(vectors)))
    return g, case, vectors


def first_outcome(compute):
    """compute()'s (den, skew), or the ClosedFormMismatch it raises."""
    try:
        return compute()
    except ClosedFormMismatch:
        return ClosedFormMismatch


def assert_first_matches(ctx, records):
    """FIRST off the table equals the oracle on every ordered pair of the
    records, repeats included."""
    table = triv._basis_records(ctx.gerbe, ctx.case).table(_pair_rows)
    for d1, d2 in itertools.product(records, repeat=2):
        read = first_outcome(lambda: _first_alternating(table, _candidate(d1), _candidate(d2)))
        assert read == first_outcome(lambda: reference_first_alternating(ctx, d1, d2))


def assert_second_matches(ctx, records):
    """SECOND off the table equals the oracle on every triple of the
    records, in lexicographic order of their positions."""
    table = triv._basis_records(ctx.gerbe, ctx.case).table(_triple_rows)
    read = list(table.on_triples([_candidate(d) for d in records]))
    assert read == reference_second_triples(ctx, records)


def assert_public_second_matches(ctx, ws):
    """`second_obstruction_alternating` on the vectors ws equals the
    oracle's three values and three flags."""
    (den, re, im, general, closed), flags = reference_second_alternating(
        ctx, *[ctx.vector(w) for w in ws]
    )
    skew = GaussianRational(F(re, den), F(im, den))
    expected = SecondObstructionValues(
        unit_reduce(skew), unit_reduce(F(general, den)), unit_reduce(F(closed, den)), skew,
        im == 0, *flags,
    )
    assert second_obstruction_alternating(ctx, *ws) == expected


def one_dimensional_gerbe() -> GerbeData:
    return GerbeData(check_complex_structure([[0, -1], [1, 0]]), AltForm2.zero(2), AltForm3.zero(2))


class TestAgainstTheOracles:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_first(self, data):
        g, case, vectors = drawn_vectors(data, (1, 4))
        ctx = ObstructionContext(g, case)
        assert_first_matches(ctx, [ctx.vector(w) for w in vectors])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_second(self, data):
        g, case, vectors = drawn_vectors(data, (3, 6))
        ctx = ObstructionContext(g, case)
        assert_second_matches(ctx, [ctx.vector(w) for w in vectors])

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_property_triple_rows(self, data):
        # SECOND's rows on the basis triples are the oracle's tables over
        # the basis records; n = 1 has no triple
        n = data.draw(st.integers(1, 3), label="n")
        case = data.draw(st.sampled_from(list(SubgroupCase)), label="case")
        if n == 1:
            g = one_dimensional_gerbe()
        else:
            twisted = data.draw(st.booleans(), label="twisted")
            g = conjugated_instance(n, data.draw(st.integers(0, 2), label="seed"), case, twisted)[0]
        ctx, records = ObstructionContext(g, case), basis_records(g, case)
        table = _triple_rows(triv._basis_records(g, case))
        expected = reference_second_triples(ctx, records)
        assert table.packed.rows == [list(values[1:]) for values in expected]
        assert all(den == table.den for den, *_ in expected)
        assert len(expected) == n * (2 * n - 1) * (2 * n - 2) // 3

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_second_public(self, data):
        # members, repeats and numerators past the guard, on the gerbe or
        # a translated one, whose records are its own lifts
        g, case, vectors = drawn_vectors(data, (3, 6))
        if data.draw(st.booleans(), label="translated"):
            g = translate_gerbe(g, data.draw(st.sampled_from(vectors), label="by"))
        ctx = ObstructionContext(g, case)
        members = [w for w in vectors if ctx.vector(w).member]
        assume(members)
        ws = [data.draw(st.sampled_from(members), label="w") for _ in range(3)]
        assert_public_second_matches(ctx, ws)

    def test_public_second_on_basis_triples_in_every_order(self, instance):
        g, case, vectors = instance
        for h in (g, translate_gerbe(g, vectors[0])):
            ctx = ObstructionContext(h, case)
            members = [e for e in h.torus.basis() if ctx.vector(e).member][:4]
            for ws in itertools.permutations(members + vectors[:1], 3):
                assert_public_second_matches(ctx, ws)
            if members:
                assert_public_second_matches(ctx, [members[0]] * 2 + vectors[1:2])

    def test_basis_tuples_in_every_order(self, instance):
        # a tuple of distinct basis vectors reads its row times the sign of
        # its order; a repeated one is a product at a zero wedge
        g, case, _ = instance
        ctx = ObstructionContext(g, case)
        records = [ctx.vector(e) for e in g.torus.basis()]
        assert all(_candidate(d)[2] == k for k, d in enumerate(records))
        assert_first_matches(ctx, records)
        for order in itertools.permutations(records[:4]):
            assert_second_matches(ctx, list(order))
        assert_second_matches(ctx, [records[0], records[1], records[0], records[2]])

    def test_past_the_guard(self, instance, monkeypatch):
        # candidates whose wedge vectors pass the guard: the products fall
        # back to `int_vec_mat` and still match the oracles
        g, case, vectors = instance
        ctx = ObstructionContext(g, case)
        past = [list(w) for w in vectors[:2]]
        past[0][0] += BIG[0]
        past[1][-1] += BIG[1]
        records = [ctx.vector(w) for w in past + vectors[2:4] + [g.torus.basis()[0]]]
        looped, times = [], PackedRows.times

        def counting(table, x):
            looped.append(sum(map(abs, x)) * table.top >= 2**63)
            return times(table, x)

        monkeypatch.setattr(PackedRows, "times", counting)
        assert_first_matches(ctx, records)
        assert_second_matches(ctx, records)
        assert any(looped) and not all(looped)

    def test_one_dimensional_torus(self):
        # at n = 1 there is no basis triple: SECOND's table has no rows, and
        # every triple of Z^2 reads three zeros over its denominator
        g = one_dimensional_gerbe()
        vectors = [(F(1, 2), F(1, 3)), (F(2, 5), 1), *g.torus.basis()]
        for case in SubgroupCase:
            ctx = ObstructionContext(g, case)
            records = [ctx.vector(w) for w in vectors]
            assert_first_matches(ctx, records)
            assert_second_matches(ctx, records)
            result = obstruction_vanishes(g, SubgroupSpec.create(vectors[:2], case), SECOND)
            assert decided(result) == (True, None, 4, ())

    def test_decisions_match_a_loop_over_the_oracles(self, instance):
        g, case, vectors = instance
        for generators in (vectors, vectors[:2], vectors[3:], ()):
            spec = SubgroupSpec.create(generators, case)
            ctx, found = obstruction_candidates(g, spec)
            expected_first = (True, None, 0)
            for n, ((w1, d1), (w2, d2)) in enumerate(itertools.combinations(found, 2), 1):
                den, skew = reference_first_alternating(ctx, d1, d2)
                k = next((k for k, s in enumerate(skew) if s % den), None)
                if k is not None:
                    expected_first = (False, (w1, w2, g.torus.basis()[k]), n)
                    break
                expected_first = (True, None, n)
            assert decided(obstruction_vanishes(g, spec, FIRST))[:3] == expected_first
            values = reference_second_triples(ctx, [d for _, d in found])
            triples = list(itertools.combinations([w for w, _ in found], 3))
            failing = [t for t, (den, *_, closed) in zip(triples, values) if closed % den]
            disagree = [
                t
                for t, (den, re, im, closed) in zip(triples, values)
                if im or (re - closed) % den
            ]
            expected = (not failing, failing[0] if failing else None, len(triples), tuple(disagree))
            assert decided(obstruction_vanishes(g, spec, SECOND)) == expected


class TestLazyRecords:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_fields_match_the_eager_build(self, data):
        g, case, vectors = drawn_vectors(data, (1, 1))
        w = vectors[0]
        if data.draw(st.booleans(), label="shifted"):  # most often a non-member
            w = tuple(x + F(1, 3) for x in w)
        record = TranslationContext.create(g, w, case, check=False)
        # every record builds each field on first read; a basis vector gets
        # the basis's own record, which the tables have read already
        k = triv._basis_index(*g.torus.lift(w)[:2])
        if k >= 0:
            assert record is triv._basis_records(g, case).records[k]
        else:
            assert not any(name in vars(record) for name in RECORD_LAZY)
        expected = reference_record(g, w, case)
        assert {name: getattr(record, name) for name in RECORD_LAZY} == expected

    def test_members_and_non_members(self, instance):
        g, case, vectors = instance
        shifted = [tuple(x + F(1, 3) for x in w) for w in vectors]
        found = {True: 0, False: 0}
        for w in vectors + shifted + [tuple(2 * x for x in w) for w in shifted]:
            record = TranslationContext.create(g, w, case, check=False)
            expected = reference_record(g, w, case)
            assert {name: getattr(record, name) for name in RECORD_LAZY} == expected
            found[record.member] += 1
        assert found[True] >= len(vectors) and found[False] > 0

    def test_membership_is_one_narrow_product(self, instance, monkeypatch):
        g, case, vectors = instance
        basis = triv._basis_records(g, case)
        products, times = [], PackedRows.times
        monkeypatch.setattr(
            PackedRows, "times", lambda table, x: products.append(table) or times(table, x)
        )
        record = TranslationContext.create(g, vectors[0], case)
        assert record.member and products == [basis.member_rows]
        assert len(basis.member_rows.rows[0]) == len(basis.records) * (len(basis.records) - 1) // 2


MATRICES = ("omega", "f", "m", "r")


def forbid_record_matrices(monkeypatch):
    """Make every read of a record's omega, f, m or r fail, the eager
    fields of the basis records included: a property on the class comes
    before the instance dict."""

    def forbidden(name):
        def read(record):
            raise AssertionError(f"read {name} of the record of {record.w}")

        return property(read)

    for name in MATRICES:
        monkeypatch.setattr(TranslationContext, name, forbidden(name))


class TestNoRecordMatrixIsRead:
    def test_decisions_and_the_identity(self, instance, monkeypatch):
        g, case, vectors = instance
        spec = SubgroupSpec.create(vectors, case)
        inside, outside = vectors[0], tuple(x + F(1, 3) for x in vectors[0])

        def queries():
            ctx = ObstructionContext(g, case)
            answers = [decided(obstruction_vanishes(g, spec, which)) for which in (FIRST, SECOND)]
            answers.append(first_obstruction_alternating(ctx, *vectors[:2]))
            try:
                answers.append(gerbal_class(ctx, *vectors[:3]))
            except FirstObstructionNonzero:
                answers.append(FirstObstructionNonzero)
            for w in (inside, outside):
                ctx = TranslationContext.create(g, w, case, check=False)
                answers.append(verify_trivialization(ctx))
            return answers

        expected = queries()  # builds every table
        forbid_record_matrices(monkeypatch)
        assert queries() == expected


class TestTranslatedGerbe:
    @pytest.mark.parametrize("which", list(ObstructionKind), ids=lambda k: k.value)
    def test_decides_as_the_gerbe_without_rebinding(self, instance, which, monkeypatch):
        g, case, vectors = instance
        # a generator that is a basis vector gets a lift of the translated
        # gerbe, as any record; the basis candidates are read off the
        # shared basis records themselves, and nothing is built again
        members = [e for e in g.torus.basis() if triv._lifted_record(g, e, case).member]
        spec = SubgroupSpec.create([*vectors, *members[:1]], case)
        expected = obstruction_vanishes(g, spec, which)
        moved = translate_gerbe(g, vectors[1])
        assert moved.b != g.b and moved.tables is g.tables
        basis = triv._basis_records(g, case)
        made = dict(vars(basis)["_made"])
        monkeypatch.setattr(triv, "_basis_row", lambda *args: pytest.fail("a row was built"))
        assert obstruction_vanishes(moved, spec, which) == expected
        assert obstruction_vanishes(translate_gerbe(moved, vectors[2]), spec, which) == expected
        assert vars(basis)["_made"] == made and moved.tables.bases[case] is basis
