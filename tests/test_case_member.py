"""Case membership in one place: `symmetry.case_member`.

Whether w = x/dw lies in the integral or the type (1,1) case subgroup is a
property of E(w,.,.) alone.  `case_member` decides it by one packed
product with a per-(torus, E) table of `gerbe.GerbeTables`: E's
`contraction_table`, divisible by de*dw, in the integral case, and
`GerbeTables.anti_rows`, zero, in the (1,1) case.  Every caller reads it:
`in_case_subgroup`, `case_decomposition(check=True)`,
`TranslationContext.member` (so `create(check=True)`),
`ObstructionContext.require_member` and the basis candidates of
`obstruction_vanishes`.  Each is compared here with the definition
(`helpers.reference_case_member`, which reads no package table) on
standard and twisted tori at n = 2, 3 and 4, for members, non-members,
basis vectors, mixed denominators and numerators past the guard of
`PackedRows`; `anti_rows` is checked row by row against E and J, and the
(1,1) test is shown to build no Hermite normal form.
"""

import functools
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusgerbe.exact as exact
from torusgerbe import (
    AltForm3,
    NotInSubgroup,
    ObstructionContext,
    SubgroupCase,
    SubgroupSpec,
    TranslationContext,
    case_decomposition,
    fixes_gerbe,
    in_case_subgroup,
)
from torusgerbe.exact import int_vec
from torusgerbe.gerbe import gerbe_tables
from torusgerbe.symmetry import case_member
from torusgerbe.trivialization import _basis_records

from helpers import (
    cold_gerbe,
    conjugated_instance,
    obstruction_candidates,
    reference_case_member,
    reference_contract_matrix,
)

INT, ONEONE = SubgroupCase.INTEGRAL, SubgroupCase.TYPE_ONE_ONE
INSTANCES = [
    (n, twisted, case) for n in (2, 3, 4) for twisted in (False, True) for case in SubgroupCase
]
IDS = [f"n{n}-{'twisted' if tw else 'standard'}-{case.value}" for n, tw, case in INSTANCES]
BIG = 2**64 + 1  # times a nonzero entry, past the guard of `PackedRows`


@functools.cache
def gerbe_of(n: int, twisted: bool, case: SubgroupCase):
    """`conjugated_instance` of seed 0, kept so its tables are built once."""
    return conjugated_instance(n, 0, case, twisted)


@pytest.fixture(params=INSTANCES, ids=IDS)
def instance(request):
    n, twisted, case = request.param
    g, vectors = gerbe_of(n, twisted, case)
    return g, case, vectors


def raises_not_in_subgroup(call) -> bool:
    try:
        call()
    except NotInSubgroup:
        return True
    return False


def assert_every_caller(g, case, w) -> bool:
    """Each caller of `case_member` answers the definition's membership of
    w, which it returns."""
    t, e3 = g.torus, g.e
    expected = reference_case_member(t, e3, w, case)
    assert case_member(g.tables, case, *int_vec(w)) is expected
    assert in_case_subgroup(t, e3, w, case) is expected
    assert raises_not_in_subgroup(lambda: case_decomposition(t, e3, w, case)) is not expected
    assert raises_not_in_subgroup(lambda: TranslationContext.create(g, w, case)) is not expected
    assert TranslationContext.create(g, w, case, check=False).member is expected
    ctx = ObstructionContext(g, case)
    assert raises_not_in_subgroup(lambda: ctx.require_member(w)) is not expected
    return expected


@st.composite
def vectors(draw, g, members):
    """A vector of the torus of g: an integer combination of the case
    members, one shifted by a rational, a basis vector, a rational
    combination of the members with mixed denominators, or a random
    rational vector, any of them maybe scaled or moved past the guard."""
    d = g.torus.dim
    kind = draw(st.sampled_from(("member", "shifted", "basis", "mixed", "rational")), label="kind")
    if kind == "basis":
        w = list(g.torus.basis()[draw(st.integers(0, d - 1), label="k")])
    elif kind == "rational":
        rat = st.builds(F, st.integers(-5, 5), st.sampled_from((1, 2, 3, 5, 7)))
        w = draw(st.lists(rat, min_size=d, max_size=d), label="w")
    else:
        coeff = st.integers(-3, 3)
        if kind == "mixed":
            coeff = st.builds(F, st.integers(-5, 5), st.sampled_from((1, 2, 3, 5, 7)))
        cs = draw(st.lists(coeff, min_size=len(members), max_size=len(members)), label="cs")
        w = [sum([c * v[k] for c, v in zip(cs, members)], F(0)) for k in range(d)]
        if kind == "shifted":
            k = draw(st.integers(0, d - 1), label="at")
            w[k] += F(1, draw(st.sampled_from((1, 2, 3, 4)), label="by"))
    big = draw(st.sampled_from(("no", "scaled", "lattice")), label="past the guard")
    if big == "scaled":
        w = [BIG * x for x in w]
    elif big == "lattice":
        w[draw(st.integers(0, d - 1), label="at")] += BIG
    return tuple(w)


class TestAgainstTheDefinition:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_caller(self, data):
        n, twisted, case = data.draw(st.sampled_from(INSTANCES), label="instance")
        g, members = gerbe_of(n, twisted, case)
        if data.draw(st.booleans(), label="cold"):
            g = cold_gerbe(g)  # a fresh torus object: every table built here
        assert_every_caller(g, case, data.draw(vectors(g, members)))

    def test_members_and_non_members(self, instance):
        g, case, members = instance
        d = g.torus.dim
        found = {True: 0, False: 0}
        shifted = [tuple(x + F(1, 3) for x in w) for w in members]
        mixed = [tuple(x * F(1, k) for k, x in enumerate(w, 2)) for w in members]
        for w in members + shifted + mixed + [tuple(BIG * x for x in w) for w in members + shifted]:
            found[assert_every_caller(g, case, w)] += 1
        assert found[True] >= 2 * len(members) and found[False] >= len(members)
        assert assert_every_caller(g, case, (F(0),) * d)

    def test_basis_candidates(self, instance):
        # the basis records read the same test, and `obstruction_vanishes`
        # takes exactly the member basis vectors after the generators
        g, case, members = instance
        basis = g.torus.basis()
        expected = [reference_case_member(g.torus, g.e, ek, case) for ek in basis]
        assert [r.member for r in _basis_records(g, case).records] == expected
        found = obstruction_candidates(g, SubgroupSpec.create(members[:1], case))[1]
        taken = [w for w, _ in found[1:]]
        assert taken == [ek for ek, m in zip(basis, expected) if m and ek != members[0]]
        if case is INT:
            assert all(expected)  # E is integral: every lattice vector is a member


class TestAntiRows:
    def test_rows_are_the_anti_invariant_parts_at_the_basis(self, instance):
        # row k: the pair coordinates of dj**2*de*(omega - J^T*omega*J) for
        # omega = E(e_k,.,.), from E's coefficients and J's entries alone
        g, _, _ = instance
        t, e3 = g.torus, g.e
        j, r = t.j, range(t.dim)
        dj = lcm(*[x.denominator for row in j for x in row])
        de = lcm(*[v.denominator for _, v in e3.entries])
        rows = []
        for ek in t.basis():
            omega = reference_contract_matrix(e3, ek)
            anti = [
                [omega[a][b] - sum(j[p][a] * omega[p][q] * j[q][b] for p in r for q in r) for b in r]
                for a in r
            ]
            rows.append([dj * dj * de * anti[a][b] for a in r for b in r if a < b])
        assert g.tables.anti_rows.rows == rows
        assert all(y.denominator == 1 for row in rows for y in row) and any(map(any, rows))

    def test_built_once_per_torus_and_e(self):
        g, _ = gerbe_of(3, True, ONEONE)
        twin = gerbe_tables(g.torus, AltForm3.from_coeffs(g.torus.dim, dict(g.e.entries)))
        assert twin is g.tables and twin.anti_rows is g.tables.anti_rows


class TestNoHermiteNormalForm:
    """The (1,1) membership reads `GerbeTables.anti_rows`, d pullbacks of
    E's contraction rows: no caller builds `TorusData.anti_invariant_table`,
    whose lattice needs a Hermite normal form."""

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_oneone_membership_builds_no_table(self, n, monkeypatch):
        g = cold_gerbe(gerbe_of(n, True, ONEONE)[0])  # a fresh twisted torus
        t, e3, members = g.torus, g.e, gerbe_of(n, True, ONEONE)[1]

        def forbidden(m):
            raise AssertionError("a Hermite normal form was built")

        monkeypatch.setattr(exact, "hermite_normal_form", forbidden)
        outside = [tuple(x + F(1, 3) for x in w) for w in members]
        for w, inside in [(w, True) for w in members] + [(w, False) for w in outside]:
            assert in_case_subgroup(t, e3, w, ONEONE) is inside
            assert raises_not_in_subgroup(lambda: case_decomposition(t, e3, w, ONEONE)) is not inside
            assert raises_not_in_subgroup(lambda: TranslationContext.create(g, w, ONEONE)) is not inside
        assert "anti_invariant_table" not in vars(t) and "anti_invariant_lattice" not in vars(t)
        with pytest.raises(AssertionError, match="Hermite"):
            fixes_gerbe(t, e3, members[0])  # the class test still reads the table
