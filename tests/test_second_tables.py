"""SECOND's table of the basis triples.

`obstruction._triple_rows` builds SECOND's skew and closed form on the
basis triples once per (torus, E, case), from the basis rows;
`obstruction_vanishes` and `second_obstruction_alternating` read every
triple of their candidates off it.  Each test compares the table's
values, triple by triple, with `helpers.reference_second_alternating`,
which computes one triple at a time from its records: the same four
integers and the same skew-against-closed flag, on standard and twisted
tori at n = 2 and 3 in both cases, on the half-lattice example, and on
corrupted rows and records.  `second_obstruction_alternating` must return
the oracle's three values and three flags on every triple, and
`obstruction_vanishes` what a loop over the oracle returns.  Neither the
table nor a decision reads a record's F_w, and E is contracted only to
build the basis rows."""

import itertools
import random
from fractions import Fraction as F
from math import comb

import pytest

import torusgerbe.obstruction as obstruction
from torusgerbe.trivialization import _basis_records
from torusgerbe import (
    GaussianRational,
    GerbeData,
    NotInSubgroup,
    ObstructionContext,
    ObstructionKind,
    SecondObstructionValues,
    SubgroupCase,
    SubgroupSpec,
    obstruction_vanishes,
    second_obstruction_alternating,
    unit_reduce,
)

from helpers import (
    decided,
    obstruction_candidates,
    conjugated_instance,
    corrupt_basis_record,
    corrupt_record,
    corrupt_table_row,
    count_contractions,
    gerbe4,
    minor3,
    reference_second_alternating,
    replace_fields,
    sample_case_vector,
    sample_integral_instance,
    vec,
)

INT = SubgroupCase.INTEGRAL
SECOND = ObstructionKind.SECOND
HALVES = [vec(*[F(1, 2) if a == k else 0 for a in range(4)]) for k in range(4)]

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
    g, vectors = conjugated_instance(n, 0, case, twisted, count=5)
    return g, case, vectors


def oracle_vanishes(g, spec):
    """(vanishes, certificate, tuples_checked, cross_check_disagreements)
    of the SECOND decision by a loop over the per-triple oracle."""
    ctx, found = obstruction_candidates(g, spec)
    disagreements, failure, checked = [], None, 0
    for (w1, d1), (w2, d2), (w3, d3) in itertools.combinations(found, 3):
        checked += 1
        (den, *_, closed), flags = reference_second_alternating(ctx, d1, d2, d3)
        if not flags[1]:
            disagreements.append((w1, w2, w3))
        if failure is None and closed % den:
            failure = (w1, w2, w3)
    return failure is None, failure, checked, tuple(disagreements)


def skew_agrees_closed(den, skew_re, skew_im, closed):
    """The cross-check `obstruction_vanishes` makes on a triple's values."""
    return skew_im == 0 and (skew_re - closed) % den == 0


def table_values(ctx, records) -> list:
    """(den, skew_re, skew_im, closed) of every triple of the records, in
    lexicographic order, read off SECOND's basis table."""
    table = _basis_records(ctx.gerbe, ctx.case).table(obstruction._triple_rows)
    return list(table.on_triples([obstruction._candidate(d) for d in records]))


def wedge3(x1, x2, x3) -> list:
    """The coordinates of x1 ^ x2 ^ x3 on the basis triples a < b < c, in
    lexicographic order: the 3 x 3 minors."""
    return [minor3((x1, x2, x3), abc) for abc in itertools.combinations(range(len(x1)), 3)]


def assert_tables_match(ctx, records):
    """The table's values equal the oracle's skew and closed form, and its
    skew-against-closed flag, on every triple; returns its values."""
    tables = table_values(ctx, records)
    expected = [
        reference_second_alternating(ctx, *triple)
        for triple in itertools.combinations(records, 3)
    ]
    assert tables == [(den, re, im, closed) for (den, re, im, _, closed), _ in expected]
    assert [skew_agrees_closed(*values) for values in tables] == [
        flags[1] for _, flags in expected
    ]
    return tables


def assert_public_values_match(ctx, ws):
    """`second_obstruction_alternating` on the vectors ws equals the
    oracle's three values and three flags; returns its values."""
    values = second_obstruction_alternating(ctx, *ws)
    (den, skew_re, skew_im, general, closed), flags = reference_second_alternating(
        ctx, *[ctx.vector(w) for w in ws]
    )
    skew = GaussianRational(F(skew_re, den), F(skew_im, den))
    general, closed = unit_reduce(F(general, den)), unit_reduce(F(closed, den))
    assert values == SecondObstructionValues(
        unit_reduce(skew), general, closed, skew, skew_im == 0, *flags
    )
    return values


def assert_decision_reads_no_f(monkeypatch, g, spec):
    """The SECOND decision is unchanged when every candidate record, of a
    generator or of a basis vector, is replaced by one without F_w, the
    basis records before SECOND's table is built from them."""
    expected = decided(obstruction_vanishes(g, spec, SECOND))
    g = GerbeData(g.torus, g.b, g.e)  # no table built
    basis = _basis_records(g, spec.case)
    basis.member_rows  # membership reads F_w by its definition: built beforehand
    records = tuple(replace_fields(d, f=None) for d in basis.records)
    monkeypatch.setitem(vars(basis), "records", records)
    build = obstruction._lifted_record
    monkeypatch.setattr(
        obstruction, "_lifted_record", lambda *args: replace_fields(build(*args), f=None)
    )
    found = obstruction_candidates(g, spec)[1]
    assert len(found) >= 3 and all(d.f is None for _, d in found)
    assert decided(obstruction_vanishes(g, spec, SECOND)) == expected


class TestAgainstTheOracle:
    def test_every_triple_of_a_query(self, instance):
        g, case, vectors = instance
        ctx, found = obstruction_candidates(g, SubgroupSpec.create(vectors, case))
        assert len(found) >= 6
        assert_tables_match(ctx, [d for _, d in found])

    def test_every_order_and_repeats(self, instance):
        g, case, vectors = instance
        ctx = ObstructionContext(g, case)
        records = [ctx.vector(w) for w in vectors]
        for order in (records[::-1], records[1:] + records[:2], records[:2] * 2):
            assert_tables_match(ctx, order)

    def test_public_values_match_the_oracle(self, instance):
        # every ordered triple of the query's candidates, repeats included,
        # not only the increasing triples the tables read
        g, case, vectors = instance
        ctx, found = obstruction_candidates(g, SubgroupSpec.create(vectors, case))
        for triple in itertools.product([w for w, _ in found], repeat=3):
            assert_public_values_match(ctx, triple)

    def test_drawn_integral_instances(self):
        rng = random.Random(20)
        for _ in range(8):
            g, w = sample_integral_instance(rng)
            ctx = ObstructionContext(g, INT)
            vectors = [w] + [sample_case_vector(rng, g, INT) for _ in range(4)]
            tables = assert_tables_match(ctx, [ctx.vector(v) for v in vectors])
            assert [closed != 0 for *_, closed in tables] == [
                g.e.evaluate(*t) != 0 for t in itertools.combinations(vectors, 3)
            ]

    def test_half_lattice_example(self):
        g = gerbe4(4)
        spec = SubgroupSpec.create(HALVES, INT)
        ctx, found = obstruction_candidates(g, spec)
        tables = assert_tables_match(ctx, [d for _, d in found])
        assert len(tables) == 56
        assert any(closed % den for den, *_, closed in tables)
        for triple in itertools.product([w for w, _ in found], repeat=3):
            assert_public_values_match(ctx, triple)

    def test_a_non_member_is_named_by_its_position(self):
        ctx = ObstructionContext(gerbe4(4), INT)
        for k in range(3):
            ws = list(HALVES[:3])
            ws[k] = vec(F(1, 8), 0, 0, 0)  # E(w,.,.) = e23/2 is not integral
            with pytest.raises(NotInSubgroup, match=f"^w{k + 1} is not"):
                second_obstruction_alternating(ctx, *ws)

    def test_vanishing_decisions(self, instance):
        g, case, vectors = instance
        for generators in (vectors, vectors[:1], vectors[2:], ()):
            spec = SubgroupSpec.create(generators, case)
            assert decided(obstruction_vanishes(g, spec, SECOND)) == oracle_vanishes(g, spec)

    def test_vanishing_decision_on_the_half_lattice_example(self):
        g = gerbe4(4)
        for generators in (HALVES[1:], HALVES[:3], HALVES):
            spec = SubgroupSpec.create(generators, INT)
            result = obstruction_vanishes(g, spec, SECOND)
            assert decided(result) == oracle_vanishes(g, spec)
        assert not result.vanishes


class TestCorruptedRecords:
    """SECOND's skew is read off its table and the bilinear expression off
    the records' F_c: a corrupted skew entry of a table row moves the
    values of every triple by its wedge coordinate, so the skew no longer
    agrees with the closed form, and a corrupted entry of a record's F
    moves only the bilinear expression of `second_obstruction_alternating`,
    exactly as it moves the oracle's."""

    @pytest.mark.parametrize("name", ("r", "f"))
    def test_every_instance(self, instance, name, monkeypatch):
        g, case, vectors = instance
        ctx = ObstructionContext(g, case)
        w1, w2, w3 = vectors[:3]
        before = assert_tables_match(ctx, [ctx.vector(w) for w in vectors])
        general = second_obstruction_alternating(ctx, w1, w2, w3).general_factor
        if name == "r":
            # the skew_re column of row (a, b, c) enters each triple times
            # its wedge coordinate; the members of the n = 2 type (1,1)
            # instances span rank 2, where every wedge, and so every
            # skew, is zero
            triples = list(itertools.combinations(range(len(vectors)), 3))
            qs = [wedge3(*[ctx.vector(vectors[i]).x for i in t]) for t in triples]
            place = next((k for q in qs for k, y in enumerate(q) if y), 0)
            corrupt_table_row(monkeypatch, g, case, obstruction._triple_rows, place, 0)
            after = table_values(ctx, [ctx.vector(w) for w in vectors])
            for t, q, (den, skew_re, *rest), old in zip(triples, qs, after, before):
                assert (den, skew_re - q[place], *rest) == old
                assert skew_agrees_closed(den, skew_re, *rest) is (q[place] % den == 0)
                public = second_obstruction_alternating(ctx, *[vectors[i] for i in t])
                assert public.agree_skew_closed is (q[place] % den == 0)
            assert any(q[place] for q in qs) is (g.torus.dim > 4 or case is INT)
            return
        # entry (p, q) of F_w3 moves `general` by 3*dj*x1_p*x2_q
        x1, x2 = ctx.vector(w1).x, ctx.vector(w2).x
        p, q = next(
            (p, q) for p, q in itertools.product(range(g.torus.dim), repeat=2) if x1[p] * x2[q]
        )
        corrupt_record(ctx, w3, name, p, q)
        after = assert_tables_match(ctx, [ctx.vector(w) for w in vectors])
        values = assert_public_values_match(ctx, (w1, w2, w3))
        assert after == before
        den, dj = after[0][0], g.torus.j_columns[0]
        shift = F(3 * dj * x1[p] * x2[q], den) % 1
        assert shift and values.general_factor == general * unit_reduce(shift)

    def test_f_takes_no_part_in_the_decision(self, instance, monkeypatch):
        g, case, vectors = instance
        assert_decision_reads_no_f(monkeypatch, g, SubgroupSpec.create(vectors, case))

    def test_f_takes_no_part_in_the_half_lattice_decision(self, monkeypatch):
        assert_decision_reads_no_f(monkeypatch, gerbe4(4), SubgroupSpec.create(HALVES, INT))

    def test_half_lattice_example(self, monkeypatch):
        g = GerbeData(gerbe4(4).torus, gerbe4(4).b, gerbe4(4).e)
        ctx = ObstructionContext(g, INT)
        w1, w2, w3, _ = HALVES
        assert second_obstruction_alternating(ctx, w1, w2, w3).agree_skew_closed
        # the skew_im column of row (0, 1, 2), the triple of w1, w2, w3
        corrupt_table_row(monkeypatch, g, INT, obstruction._triple_rows, 0, 1)
        assert not second_obstruction_alternating(ctx, w1, w2, w3).agree_skew_closed
        assert second_obstruction_alternating(ctx, w1, w2, HALVES[3]).agree_skew_closed

    def test_disagreements_surface_in_the_decision(self, monkeypatch):
        g = gerbe4(4)
        g = GerbeData(g.torus, g.b, g.e)
        corrupt_basis_record(monkeypatch, g, INT, 2, "r", 1, 0)
        spec = SubgroupSpec.create(HALVES, INT)
        result = obstruction_vanishes(g, spec, SECOND)
        assert result.cross_check_disagreements
        assert decided(result) == oracle_vanishes(g, spec)


class TestStructure:
    """SECOND's table is built once per (torus, E, case) from the basis
    rows, whose build contracts E by each e_k and i*e_k: no query, the
    first included, and no public triple contracts E, and nothing is built
    below three candidates."""

    def test_contractions_per_query(self, instance, monkeypatch):
        g, case, vectors = instance
        g = GerbeData(g.torus, g.b, g.e)  # no table built
        spec = SubgroupSpec.create(vectors, case)
        calls = count_contractions(monkeypatch)
        n = len(obstruction_candidates(g, spec)[1])  # builds the basis rows
        assert len(calls) == 2 * g.torus.dim and all(e3 is g.e for e3, _ in calls)
        calls.clear()
        result = obstruction_vanishes(g, spec, SECOND)
        assert result.tuples_checked == comb(n, 3) > n
        assert calls == []
        assert obstruction_vanishes(g, spec, SECOND) == result
        assert calls == []

    def test_a_public_triple_contracts_nothing(self, instance, monkeypatch):
        g, case, vectors = instance
        ctx = ObstructionContext(g, case)
        for w in vectors:
            ctx.vector(w)
        calls = count_contractions(monkeypatch)
        second_obstruction_alternating(ctx, *vectors[:3])
        assert calls == []

    def test_no_table_below_three_candidates(self, monkeypatch):
        g, vectors = conjugated_instance(2, 0, SubgroupCase.TYPE_ONE_ONE, True)
        spec = SubgroupSpec.create((), SubgroupCase.TYPE_ONE_ONE)
        assert len(obstruction_candidates(g, spec)[1]) == 2
        products = []
        original = obstruction.int_vec_mat
        monkeypatch.setattr(
            obstruction, "int_vec_mat", lambda x, m: products.append(1) or original(x, m)
        )
        calls = count_contractions(monkeypatch)
        result = obstruction_vanishes(g, spec, SECOND)
        assert (result.vanishes, result.tuples_checked) == (True, 0)
        assert calls == [] and products == []
