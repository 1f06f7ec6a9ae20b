"""The anti-invariant lattice as one integer map per torus, and `contract3`
in pair coordinates.

`TorusData.anti_invariant_table` holds (V, U, G): G = V*H_r for the
lattice's scaled generators G and the nonzero rows H_r of its Hermite
normal form, and U*G = H_r.  `integral_anti_invariant_member` decides on
y = upper^T*V and checks every positive answer's witness, against the
route it replaced (`helpers.reference_anti_invariant_member`), and each
table is corrupted to show the witness check or the build catches it.
The case membership, `symmetry.case_member`, reads no V: it is compared
with its definition (`helpers.reference_case_member`).
"""

import functools
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusgerbe.gerbe as gerbe_module
import torusgerbe.torus as torus_module
from torusgerbe import (
    AltForm2,
    AltForm3,
    SubgroupCase,
    contract3,
    in_case_subgroup,
    j_pullback2,
)
from torusgerbe.exact import PackedRows, ReducedLattice, int_vec, int_vec_mat
from torusgerbe.gerbe import gerbe_tables
from torusgerbe.symmetry import case_member
from torusgerbe.torus import check_complex_structure, integral_anti_invariant_member

from helpers import (
    reference_anti_invariant_member,
    reference_case_member,
    reference_contract,
    standard_j_rows,
    twisted_torus,
    vec,
)

TORI = [(n, twisted) for n in (2, 3, 4) for twisted in (False, True)]


@functools.cache
def torus(n, twisted):
    return twisted_torus(n, 0) if twisted else check_complex_structure(standard_j_rows(n))


def dense(rows, width):
    """The sparse rows of a `ReducedLattice` as full rows."""
    out = [[0] * width for _ in rows]
    for full, row in zip(out, rows):
        for k, x in row:
            full[k] = x
    return out


def pair_forms(dim):
    return [AltForm2.from_pairs(dim, {ab: 1}) for ab in itertools.combinations(range(dim), 2)]


def with_table(monkeypatch, t, k, rows):
    """Replace table k of t's (V, U, G) by the packed rows given."""
    table = list(t.anti_invariant_table)
    table[k] = PackedRows(rows, len(table[k].rows[0]))
    monkeypatch.setitem(vars(t), "anti_invariant_table", tuple(table))


class TestTable:
    @pytest.mark.parametrize("n, twisted", TORI)
    def test_generators_factor_through_the_hnf_rows(self, n, twisted):
        t = torus(n, twisted)
        lat = t.anti_invariant_lattice
        v, u, g = t.anti_invariant_table
        m, r = lat.dim, len(lat.h_rows)
        h = dense(lat.h_rows, m)
        assert 0 < r < m and len(v.rows) == m and all(len(row) == r for row in v.rows)
        assert [list(row) for row in g.rows] == dense(lat.g_rows, m)
        assert [list(row) for row in u.rows] == dense(lat.u_rows[:r], m)
        assert [int_vec_mat(row, h) for row in v.rows] == [list(row) for row in g.rows]
        assert [int_vec_mat(row, g.rows) for row in u.rows] == h

    def test_built_once_per_torus(self):
        t = twisted_torus(2, 5)
        integral_anti_invariant_member(t, pair_forms(4)[0])
        table = t.anti_invariant_table
        integral_anti_invariant_member(t, pair_forms(4)[1])
        assert t.anti_invariant_table is table

    def test_complex_curve_has_no_anti_invariant_part(self):
        # n = 1: every 2-form is of type (1,1), so r = 0 and every form is
        # a member, in both routes; E is zero, so every w is in either case
        t = check_complex_structure([[0, -1], [1, 0]])
        v, u, g = t.anti_invariant_table
        assert v.rows == [[]] and u.rows == [] and g.rows == [[0]]
        for omega in (AltForm2.from_pairs(2, {(0, 1): F(1, 3)}), AltForm2.zero(2)):
            assert integral_anti_invariant_member(t, omega) is True
            assert reference_anti_invariant_member(t, omega) is True
        tables = gerbe_tables(t, AltForm3.zero(2))
        assert tables.anti_rows.rows == [[0], [0]]
        for case in SubgroupCase:
            assert case_member(tables, case, 3, [1, -2])

    def test_wrong_dimension_is_rejected(self):
        with pytest.raises(ValueError, match="^dimension mismatch: omega has dimension 6, not 4$"):
            integral_anti_invariant_member(torus(2, False), pair_forms(6)[0])

    def test_a_generator_off_the_hnf_raises_at_build(self, monkeypatch):
        t = twisted_torus(2, 1)
        lat = t.anti_invariant_lattice
        (pivot, p), *rest = lat.h_rows[0]
        rows = ((pivot, 2 * p), *rest), *lat.h_rows[1:]
        monkeypatch.setattr(lat, "h_rows", tuple(rows))
        with pytest.raises(AssertionError, match="not in the span"):
            integral_anti_invariant_member(t, pair_forms(4)[0])


class TestWitnessCheck:
    """Each table, corrupted in one entry, fails a member's witness check."""

    T = (2, True)

    def member(self):
        """A torus and an integral pair form whose y and witness residual
        (y*U - upper) both have a nonzero entry."""
        t = torus(*self.T)
        v, u, g = t.anti_invariant_table
        for omega in pair_forms(t.dim):
            y = v.times(omega.upper)
            x = [a - b for a, b in zip(u.times(y), omega.upper)]
            if any(y) and any(x):
                assert integral_anti_invariant_member(t, omega)
                return t, omega, y, x
        raise AssertionError("no pair form has a nonzero witness residual")

    def test_corrupt_v(self, monkeypatch):
        t, omega, y, _ = self.member()
        k = omega.upper.index(1)
        rows = [list(row) for row in t.anti_invariant_table[0].rows]
        rows[k][0] += 1
        with_table(monkeypatch, t, 0, rows)
        with pytest.raises(AssertionError, match="bad witness"):
            integral_anti_invariant_member(t, omega)

    def test_corrupt_u(self, monkeypatch):
        t, omega, y, _ = self.member()
        v, u, g = t.anti_invariant_table
        i = next(i for i, q in enumerate(y) if q)
        j = next(j for j, row in enumerate(g.rows) if any(row))
        rows = [list(row) for row in u.rows]
        rows[i][j] += 1
        with_table(monkeypatch, t, 1, rows)
        with pytest.raises(AssertionError, match="bad witness"):
            integral_anti_invariant_member(t, omega)

    def test_corrupt_g(self, monkeypatch):
        t, omega, _, x = self.member()
        k = next(k for k, a in enumerate(x) if a)
        rows = [list(row) for row in t.anti_invariant_table[2].rows]
        rows[k][0] += 1
        with_table(monkeypatch, t, 2, rows)
        with pytest.raises(AssertionError, match="bad witness"):
            integral_anti_invariant_member(t, omega)

    def test_a_non_member_is_not_checked(self, monkeypatch):
        # the check runs on positive answers only; a non-member reads V alone
        t = torus(*self.T)
        omega = next(
            f.scale(F(1, 2)) for f in pair_forms(t.dim)
            if not integral_anti_invariant_member(t, f.scale(F(1, 2)))
        )
        with_table(monkeypatch, t, 2, [[0] * len(row) for row in t.anti_invariant_table[2].rows])
        assert integral_anti_invariant_member(t, omega) is False


class TestNoOldRoute:
    def test_neither_test_pulls_back_or_back_substitutes(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the old route ran")

        t = torus(3, True)
        e3 = AltForm3.from_coeffs(t.dim, {(0, 1, 2): 1, (1, 3, 5): F(1, 2)})
        tables = gerbe_tables(t, e3)
        t.anti_invariant_table, tables.anti_rows  # built before the routes are forbidden
        for module in (torus_module, gerbe_module):
            monkeypatch.setattr(module, "pullback_over", forbidden)
        monkeypatch.setattr(ReducedLattice, "quotients", forbidden)
        monkeypatch.setattr(ReducedLattice, "member_over", forbidden)
        for omega in pair_forms(t.dim):
            for f in (omega, omega.scale(F(1, 2))):
                integral_anti_invariant_member(t, f)
        for k in range(t.dim):
            for dw in (1, 2):
                case_member(tables, SubgroupCase.TYPE_ONE_ONE, dw, [int(a == k) for a in range(t.dim)])


@st.composite
def forms(draw, t):
    """A 2-form on t: an integral form plus a rational (1,1) form, or a
    rational form over a drawn denominator, so members and non-members
    both come up."""
    d = t.dim
    pairs = list(itertools.combinations(range(d), 2))
    coords = draw(st.lists(st.integers(-3, 3), min_size=len(pairs), max_size=len(pairs)))
    base = AltForm2.from_pairs(d, dict(zip(pairs, coords)))
    kind = draw(st.sampled_from(("integral+oneone", "oneone", "rational")))
    if kind == "rational":
        return base.scale(F(1, draw(st.integers(1, 6))))
    other = AltForm2.from_pairs(
        d, {ab: F(draw(st.integers(-3, 3)), draw(st.integers(1, 4))) for ab in pairs[:4]}
    )
    oneone = other + j_pullback2(t, other)
    return oneone if kind == "oneone" else base + oneone


class TestAgainstTheOldRoute:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_integral_anti_invariant_member(self, data):
        t = torus(*data.draw(st.sampled_from(TORI)))
        omega = data.draw(forms(t))
        expected = reference_anti_invariant_member(t, omega)
        assert integral_anti_invariant_member(t, omega) is expected

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_in_case_subgroup_and_contract3(self, data):
        t = torus(*data.draw(st.sampled_from(TORI)))
        d = t.dim
        triples = list(itertools.combinations(range(d), 3))
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(triples), max_size=len(triples)))
        e3 = AltForm3.from_coeffs(d, {abc: F(c, 2) for abc, c in zip(triples, coeffs)})
        w = tuple(
            data.draw(st.lists(st.fractions(-2, 2, max_denominator=4), min_size=d, max_size=d))
        )
        omega = contract3(e3, w)
        dw, x = int_vec(w)
        assert omega == AltForm2.from_coords(d, *e3.contract_pairs(x, dw)) == reference_contract(e3, w)
        for case in SubgroupCase:
            assert in_case_subgroup(t, e3, w, case) is reference_case_member(t, e3, w, case)
        assert integral_anti_invariant_member(t, omega) is reference_anti_invariant_member(t, omega)


class TestContractionMemoByIdentity:
    """The very tuple the last contraction of a (torus, E) stored returns
    before validation; an equal tuple or any list is validated first."""

    @pytest.fixture
    def checks(self, monkeypatch):
        seen = []
        original = gerbe_module.sized_vector

        def counting(v, dim, what):
            seen.append(v)
            return original(v, dim, what)

        monkeypatch.setattr(gerbe_module, "sized_vector", counting)
        return seen

    @staticmethod
    def memo(e3):
        """The contraction of E kept by the tables of a new n = 2 torus."""
        tables = gerbe_tables(check_complex_structure(standard_j_rows(2)), e3)
        return tables.contraction

    def test_the_same_tuple_skips_the_check(self, checks):
        e3 = AltForm3.from_coeffs(4, {(0, 1, 2): 2, (1, 2, 3): -3})
        w, stored = vec(F(1, 2), 0, F(2, 3), 0), self.memo(e3)
        first = stored(w)
        assert stored(w) is first and len(checks) == 1
        assert stored(tuple(w)) is first  # a tuple of a tuple is itself
        assert len(checks) == 1
        assert stored(vec(F(1, 2), 0, F(2, 3), 0)) is first and len(checks) == 2

    def test_a_list_is_checked_on_every_call(self, checks):
        e3 = AltForm3.from_coeffs(4, {(0, 1, 2): 2, (1, 2, 3): -3})
        w, stored = [F(1, 2), 0, F(2, 3), 0], self.memo(e3)
        first = stored(w)
        assert stored(w) is first and len(checks) == 2
        w[0] = F(1, 3)  # a list may change between calls
        assert stored(w) == reference_contract(e3, w) != first
        w.append(0)
        with pytest.raises(ValueError, match="w has 5 entries"):
            stored(w)

    def test_an_integer_tuple_is_stored_as_given(self, checks):
        e3 = AltForm3.from_coeffs(4, {(0, 1, 2): 2})
        w, stored = (1, 0, 0, 0), self.memo(e3)
        first = stored(w)
        assert stored(w) is first and len(checks) == 1
        assert first == reference_contract(e3, vec(*w))
