"""Exact substrate: Gaussian rationals, unit values, HNF, lattice membership,
and the packed products of `PackedRows`."""

import functools
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgerbe import (
    AltForm2,
    GaussianRational,
    hermite_normal_form,
    lattice_membership,
    unit_reduce,
)
import torusgerbe.exact
from torusgerbe.exact import PackedRows, ReducedLattice, int_vec, int_vec_mat, to_mat, to_vec
from torusgerbe.symmetry import fixes_gerbe
from torusgerbe.gerbe import gerbes_isomorphic, translate_gerbe
from torusgerbe.torus import (
    anti_invariant_part,
    check_complex_structure,
    integral_anti_invariant_member,
    pullback_over,
)

from helpers import (
    dense_member_over,
    gerbe4,
    oracle_membership_search,
    reference_membership,
    standard_j_rows,
    twisted_torus,
)

def combination(coeffs, gens, dim):
    """sum(c * g) over the coefficients and rational generators."""
    return tuple(sum([c * to_vec(g)[k] for c, g in zip(coeffs, gens)], F(0)) for k in range(dim))


def lifted(gens, dim):
    """The `ReducedLattice` of rational generators, each lifted by `int_vec`."""
    return ReducedLattice([int_vec(to_vec(g)) for g in gens], dim)


def over(target):
    """(nums, den) of a rational target, the arguments of `member_over`."""
    den, nums = int_vec(to_vec(target))
    return nums, den


def sympy_det(m):
    from sympy import Matrix

    return Matrix([list(r) for r in m]).det()


fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=24)


class TestGaussianRational:
    def test_arithmetic(self):
        a = GaussianRational(F(1, 2), F(-1, 3))
        b = GaussianRational(F(2), F(1, 3))
        assert a + b == GaussianRational(F(5, 2), F(0))
        assert a - b == GaussianRational(F(-3, 2), F(-2, 3))
        assert a * b == GaussianRational(F(1) + F(1, 9), F(1, 6) - F(2, 3))
        assert a.times_i() == GaussianRational(F(1, 3), F(1, 2))
        assert (a * GaussianRational(0, 1)) == a.times_i()

    def test_scalar_coercion(self):
        a = GaussianRational(F(1, 2), F(1))
        assert a + 1 == GaussianRational(F(3, 2), F(1))
        assert 2 * a == GaussianRational(F(1), F(2))
        assert F(1, 2) - a == GaussianRational(F(0), F(-1))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            GaussianRational(0.5, F(0))


class TestUnitValue:
    def test_periodicity(self):
        assert unit_reduce(F(-1, 2)).exponent.re == F(1, 2)

    def test_second_obstruction_value(self):
        # the nontrivial half-integer class value: exp(-9/2) = -1
        u = unit_reduce(F(-9, 2))
        assert u.exponent.re == F(1, 2)
        assert not u.is_trivial

    def test_identity(self):
        u = unit_reduce(F(0))
        assert u.is_trivial
        assert unit_reduce(F(7)).is_trivial

    def test_imaginary_part_blocks_triviality(self):
        assert not unit_reduce(GaussianRational(F(0), F(1, 3))).is_trivial

    @given(fractions_st, fractions_st, fractions_st, fractions_st)
    @settings(max_examples=60, deadline=None)
    def test_product_law(self, ar, ai, br, bi):
        a = GaussianRational(ar, ai)
        b = GaussianRational(br, bi)
        assert unit_reduce(a) * unit_reduce(b) == unit_reduce(a + b)


class TestHermiteNormalForm:
    def check_canonical(self, m):
        h, u = hermite_normal_form(m)
        # H = U * M with U unimodular
        hm = to_mat(h)
        um = to_mat(u)
        mm = to_mat(m)
        prod = tuple(
            tuple(sum(um[i][k] * mm[k][j] for k in range(len(mm))) for j in range(len(mm[0])))
            for i in range(len(um))
        )
        assert prod == hm
        assert abs(sympy_det(u)) == 1
        # echelon with positive pivots and reduced entries above
        last_pivot = -1
        for row in h:
            nz = [c for c, x in enumerate(row) if x != 0]
            if not nz:
                last_pivot = len(row)  # zero rows must stay at the bottom
                continue
            assert last_pivot < len(row), "nonzero row after a zero row"
            assert nz[0] > last_pivot
            assert row[nz[0]] > 0
            last_pivot = nz[0]
        # entries above each pivot reduced into [0, pivot)
        for r, row in enumerate(h):
            pivot = next((c for c, x in enumerate(row) if x), None)
            if pivot is not None:
                assert all(0 <= above[pivot] < row[pivot] for above in h[:r])
        return h, u

    def test_already_hnf(self):
        h, u = hermite_normal_form([[2, 0], [0, 2]])
        assert h == ((2, 0), (0, 2))
        assert u == ((1, 0), (0, 1))

    def test_textbook_example(self):
        h, u = self.check_canonical([[1, 2], [3, 4]])
        assert h[0][0] == 1
        assert abs(sympy_det(h)) == 2

    def test_zero_matrix(self):
        h, _ = hermite_normal_form([[0, 0], [0, 0]])
        assert h == ((0, 0), (0, 0))

    def test_invariant_factors_preserved(self):
        # independent cross-check through sympy's Smith normal form
        from sympy import ZZ
        from sympy.polys.matrices import DomainMatrix
        from sympy.polys.matrices.normalforms import invariant_factors

        rng = random.Random(5)
        for _ in range(10):
            m = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(4)]
            h, _ = self.check_canonical(m)
            fm = invariant_factors(DomainMatrix.from_list([[int(x) for x in r] for r in m], ZZ))
            fh = invariant_factors(DomainMatrix.from_list([[int(x) for x in r] for r in h], ZZ))
            assert fm == fh

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(15):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            h, _ = hermite_normal_form(m)
            h2, _ = hermite_normal_form(h)
            assert h2 == h

    def test_single_row(self):
        h, u = self.check_canonical([[0, -4, 6]])
        assert h == ((0, 4, -6),) and u == ((-1,),)
        assert lattice_membership([(0, -4, 6)], (0, 8, -12)) == (-2,)
        assert lattice_membership([(0, -4, 6)], (0, 2, -3)) is None

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            hermite_normal_form([[F(1, 2), 0], [0, 1]])

    @pytest.mark.parametrize("entry", [1.0, 1.5, -0.0], ids=["integral", "fractional", "zero"])
    def test_rejects_a_float_as_every_entry_point_does(self, entry):
        # an integral-valued float used to pass as its int; 1.5 was a ValueError
        with pytest.raises(TypeError, match="^floats are not allowed in exact computations$"):
            hermite_normal_form([[entry, 2], [3, 4]])


def reconstruct_cases():
    """Seeded (generators, target) pairs whose target is in the lattice."""
    rng = random.Random(3)
    for _ in range(25):
        dim = rng.randint(2, 4)
        gens = [
            tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(dim))
            for _ in range(rng.randint(1, 4))
        ]
        coeffs = [rng.randint(-4, 4) for _ in gens]
        yield gens, combination(coeffs, gens, dim)


def brute_force_cases():
    """Seeded 2-dimensional (generators, target) pairs, members or not."""
    rng = random.Random(7)
    for _ in range(40):
        dim = 2
        gens = [
            tuple(F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(dim))
            for _ in range(2)
        ]
        target = tuple(F(rng.randint(-2, 2), rng.choice([1, 2, 3])) for _ in range(dim))
        yield gens, target


FIXED_CASES = [
    ([(1, 0), (0, 1)], (3, -5)),
    ([(F(1, 2), F(1, 2)), (0, 1)], (F(1, 2), F(3, 2))),
    ([(2, 0)], (1, 0)),
    ([], (0, 0)),
    ([], (1, 0)),
]


class TestLatticeMembership:
    def test_standard_basis(self):
        assert lattice_membership([(1, 0), (0, 1)], (3, -5)) == (3, -5)

    def test_rational_generators(self):
        got = lattice_membership([(F(1, 2), F(1, 2)), (0, 1)], (F(1, 2), F(3, 2)))
        assert got == (1, 1)

    def test_index_two_sublattice(self):
        assert lattice_membership([(2, 0)], (1, 0)) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lattice_membership([(1, 0, 0)], (1, 0))

    def test_errors_in_order(self):
        # the target is lifted first, then every generator, then the
        # dimensions are compared
        with pytest.raises(TypeError):
            lattice_membership([(1, 0, 0)], (0.5, 0))
        with pytest.raises(TypeError):
            lattice_membership([(1, 0, 0), (0.5, 0)], (1, 0))
        with pytest.raises(ValueError):
            lattice_membership([(1, 0), (1, 0, 0)], (1, 0))

    def test_empty_generators(self):
        assert lattice_membership([], (0, 0)) == ()
        assert lattice_membership([], (1, 0)) is None

    def test_witnesses_reconstruct(self):
        for gens, target in reconstruct_cases():
            dim = len(target)
            got = lattice_membership(gens, target)
            assert got is not None
            assert combination(got, gens, dim) == target

    def test_negatives_match_brute_force(self):
        hits = 0
        for gens, target in brute_force_cases():
            got = lattice_membership(gens, target)
            brute = oracle_membership_search([to_vec(g) for g in gens], to_vec(target), 12)
            if got is None:
                hits += 1
                assert brute is None
            else:
                # positive answers are certified by reconstruction already
                assert brute is not None or any(abs(c) > 12 for c in got)
        assert hits > 0


class TestReducedLattice:
    def test_same_coefficients_as_per_target_reduction(self):
        # the denominators of the target no longer enter the scale; H scales
        # with it but U, and so every coefficient, stays the same
        cases = FIXED_CASES + list(reconstruct_cases()) + list(brute_force_cases())
        members = 0
        for gens, target in cases:
            gens = [to_vec(g) for g in gens]
            target = to_vec(target)
            got = lattice_membership(gens, target)
            assert got == reference_membership(gens, target)
            members += got is not None
        assert 0 < members < len(cases)

    def test_one_reduction_answers_many_targets(self):
        rng = random.Random(13)
        gens = [tuple(F(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(3)) for _ in range(4)]
        lat = lifted(gens, 3)
        for _ in range(30):
            target = tuple(F(rng.randint(-6, 6), rng.choice([1, 2, 3, 6])) for _ in range(3))
            assert lat.member_over(*over(target)) == lattice_membership(gens, target)

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            ReducedLattice([(1, [1, 0]), (2, [1, 0, 0])], 2)
        with pytest.raises(ValueError):
            ReducedLattice([(1, [1, 0])], 2).member_over([1, 0, 0], 1)

    def test_integer_targets_match_rational_targets(self):
        # member_over(nums, den) is the membership of nums / den, whatever
        # the scale of nums and den; non-integral scaled targets are rejected
        # exactly
        rng = random.Random(19)
        gens = [tuple(F(rng.randint(-3, 3), rng.choice([1, 2, 4])) for _ in range(3)) for _ in range(4)]
        lat = lifted(gens, 3)
        seen = {True: 0, False: 0}
        for _ in range(40):
            den = rng.choice([1, 2, 3, 4, 6, 8])
            nums = [rng.randint(-12, 12) for _ in range(3)]
            expected = lattice_membership(gens, tuple(F(x, den) for x in nums))
            k = rng.randint(1, 5)
            assert lat.member_over(nums, den) == expected
            assert lat.member_over([k * x for x in nums], k * den) == expected
            seen[expected is not None] += 1
        assert seen[True] and seen[False]
        with pytest.raises(ValueError):
            lat.member_over([1, 0], 1)

    def test_lattice_target_in_integers_matches_projected_target(self):
        # integral_anti_invariant_member hands the lattice (omega - J^T*omega*J)
        # as integers over 2*den; the answer equals that for the projected
        # anti_invariant_part of omega
        rng = random.Random(23)
        seen = {True: 0, False: 0}
        for n in (2, 3):
            t = twisted_torus(n, 1)
            d = t.dim
            for k in range(12):
                dens = [1] if k % 2 else [1, 2, 3, 4]  # integral forms are members
                omega = AltForm2.from_pairs(
                    d,
                    {
                        (a, b): F(rng.randint(-4, 4), rng.choice(dens))
                        for a in range(d)
                        for b in range(a + 1, d)
                        if rng.random() < 0.4
                    },
                )
                target = anti_invariant_part(t, omega).upper_coeffs()
                expected = t.anti_invariant_lattice.member_over(*over(target)) is not None
                assert integral_anti_invariant_member(t, omega) is expected
                seen[expected] += 1
        assert seen[True] and seen[False]

    def test_sympy_hnf_oracle(self):
        # sympy reduces the generators as columns; its column lattice must
        # decide membership exactly as the reduced lattice does
        from sympy import Matrix
        from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf
        from math import lcm

        rng = random.Random(17)
        decided = {True: 0, False: 0}
        for _ in range(30):
            dim = rng.randint(2, 4)
            gens = [
                tuple(F(rng.randint(-5, 5), rng.choice([1, 2, 3])) for _ in range(dim))
                for _ in range(rng.randint(1, 5))
            ]
            lat = lifted(gens, dim)
            for _ in range(6):
                if rng.random() < 0.5:
                    target = combination([rng.randint(-3, 3) for _ in gens], gens, dim)
                else:
                    target = tuple(F(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(dim))
                d = lcm(*(x.denominator for g in gens for x in g), *(x.denominator for x in target))
                cols = sympy_hnf(Matrix([[int(x * d) for x in g] for g in gens]).T)
                if cols.shape[1] == 0:
                    expected = not any(target)
                else:
                    try:
                        sol, params = cols.gauss_jordan_solve(Matrix([int(x * d) for x in target]))
                        assert params.shape[0] == 0  # the columns are independent
                        expected = all(x.is_integer for x in sol)
                    except ValueError:  # not even in the rational span
                        expected = False
                assert (lat.member_over(*over(target)) is not None) is expected
                decided[expected] += 1
        assert decided[True] and decided[False]

    def test_hnf_runs_once_per_torus(self, monkeypatch):
        calls = []
        real = torusgerbe.exact.hermite_normal_form

        def counting(m):
            calls.append(len(m))
            return real(m)

        monkeypatch.setattr(torusgerbe.exact, "hermite_normal_form", counting)
        g = gerbe4(2)
        for k in range(6):
            w = (F(k, 4), F(1, 2), F(k, 3), F(0))
            fixes_gerbe(g.torus, g.e, w)
            gerbes_isomorphic(g, translate_gerbe(g, w))
        assert calls == [6]
        t = twisted_torus(3, 0)
        integral_anti_invariant_member(t, AltForm2.from_pairs(6, {(0, 1): 1}))
        integral_anti_invariant_member(t, AltForm2.from_pairs(6, {(1, 4): F(1, 2)}))
        assert calls == [6, 15]

    def test_corrupt_transform_trips_the_witness_check(self, monkeypatch):
        # member_over reads U as sparse rows; doubling them doubles every
        # coefficient, which no longer reconstructs the target
        t = twisted_torus(2, 0)
        omega = AltForm2.from_pairs(4, {(1, 2): 1})  # integral, so a member
        lat, target = t.anti_invariant_lattice, _lattice_target(t, omega)
        assert lat.member_over(*target) is not None
        doubled = tuple(tuple((i, 2 * x) for i, x in row) for row in lat.u_rows)
        monkeypatch.setattr(lat, "u_rows", doubled)
        with pytest.raises(AssertionError, match="bad witness"):
            lat.member_over(*target)

    def test_corrupt_generator_row_trips_the_witness_check(self, monkeypatch):
        # one entry of one sparse row of G, on a generator the witness uses
        t = twisted_torus(2, 0)
        omega = AltForm2.from_pairs(4, {(1, 2): 1})
        lat, target = t.anti_invariant_lattice, _lattice_target(t, omega)
        coeffs = lat.member_over(*target)
        i = next(i for i, c in enumerate(coeffs) if c)
        (k, x), *rest = lat.g_rows[i]
        rows = list(lat.g_rows)
        rows[i] = ((k, x + 1), *rest)
        monkeypatch.setattr(lat, "g_rows", tuple(rows))
        with pytest.raises(AssertionError, match="bad witness"):
            lat.member_over(*target)

    def test_integer_entry_matches_rational_generators(self):
        # the torus hands each projected generator in as its stored integers
        # over its denominator; lifting the rational coordinates gives the
        # same lattice
        for n, twisted in LATTICE_TORI:
            t, gens = _lattice_torus(n, twisted)
            lat, rational = t.anti_invariant_lattice, lifted(gens, len(gens))
            assert (lat.dim, lat.scale) == (rational.dim, rational.scale)
            assert lat.h_rows == rational.h_rows
            assert (lat.u_rows, lat.g_rows) == (rational.u_rows, rational.g_rows)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sparse_rows_match_the_dense_loops(self, data):
        # member and non-member targets on standard and twisted tori: the
        # same answer and the same coefficients as the old dense loops
        n, twisted = data.draw(st.sampled_from(LATTICE_TORI))
        t, gens = _lattice_torus(n, twisted)
        lat, m = t.anti_invariant_lattice, len(gens)
        c = data.draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
        den, nums = int_vec(combination(c, gens, m))
        k = data.draw(st.integers(1, 3))
        got = lat.member_over([k * x for x in nums], k * den)
        assert got is not None and got == dense_member_over(gens, nums, den)
        assert combination(got, gens, m) == combination(c, gens, m)
        # off the span of the anti-invariant parts: no rational solution
        off = [2 * x for x in nums]
        off[0] += 1
        assert lat.member_over(off, 2 * den) is None
        assert dense_member_over(gens, off, 2 * den) is None
        # the projected target of a drawn rational form
        dens = data.draw(st.sampled_from(((1,), (1, 2, 3))))
        pairs = list(itertools.combinations(range(t.dim), 2))
        coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
        omega = AltForm2.from_pairs(
            t.dim, {ab: F(x, data.draw(st.sampled_from(dens))) for ab, x in zip(pairs, coeffs)}
        )
        target = _lattice_target(t, omega)
        assert lat.member_over(*target) == dense_member_over(gens, *target)
        if dens == (1,):  # integral forms are members
            assert lat.member_over(*target) is not None


LATTICE_TORI = [(n, twisted) for n in (2, 3, 4) for twisted in (False, True)]


@functools.cache
def _lattice_torus(n, twisted):
    """The torus and the rational generators of its anti-invariant lattice."""
    t = twisted_torus(n, 0) if twisted else check_complex_structure(standard_j_rows(n))
    gens = [
        anti_invariant_part(t, AltForm2.from_pairs(t.dim, {ab: 1})).upper_coeffs()
        for ab in itertools.combinations(range(t.dim), 2)
    ]
    return t, gens


def _lattice_target(t, omega):
    """(nums, den) of omega - J^T*omega*J over twice its denominator, the
    target `integral_anti_invariant_member` hands the lattice."""
    nums, den = pullback_over(t, omega.upper, omega.den, 1, -1)
    return nums, 2 * den


def packed_product(rows, x):
    """(PackedRows(rows).times(x), whether it ran the exact loop
    `int_vec_mat`)."""
    loops = []
    exact_loop = torusgerbe.exact.int_vec_mat

    def counting(x, m):
        loops.append(m)
        return exact_loop(x, m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(torusgerbe.exact, "int_vec_mat", counting)
        product = PackedRows(rows).times(x)
    assert loops in ([], [rows])
    return product, bool(loops)


class TestPackedRows:
    """x^T*rows as one big-int dot of signed 64-bit slots while sum|x|
    times the largest |entry| is below 2**63, by `int_vec_mat` from
    there on."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_property_times_is_int_vec_mat(self, data):
        nrows = data.draw(st.integers(0, 8), label="rows")
        ncols = data.draw(st.integers(0, 300), label="columns")
        scale = data.draw(st.sampled_from((1, 1000, 2**31, 2**62)), label="entry scale")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="entry seed"))
        edges, cols = (2**62, -(2**62), scale, -scale, 0), range(ncols)
        rows = [
            [rng.choice(edges) if rng.random() < 0.1 else rng.randint(-scale, scale) for _ in cols]
            for _ in range(nrows)
        ]
        coeff = st.one_of(*[st.integers(-(2**k), 2**k) for k in (2, 40, 70)])
        x = data.draw(st.lists(coeff, min_size=nrows, max_size=nrows), label="x")
        product, looped = packed_product(rows, x)
        assert product == int_vec_mat(x, rows)
        assert len(product) == (ncols if nrows else 0)
        top = max([abs(v) for row in rows for v in row], default=0)
        assert looped is (sum(map(abs, x)) * top >= 2**63)

    def test_slots_reach_the_guard_exactly(self):
        # sum|x|*top = 2**63 - 1 = (7*73*127) * 142123242012031 packs, and
        # the extreme columns read +-(2**63 - 1), the ends of a slot
        top, s = 7 * 73 * 127, 142123242012031
        assert top * s == 2**63 - 1
        rows = [[top, -top, 5, 0], [top, -top, -1, top], [-top, top, 0, 2]]
        x = [s - 5, 3, -2]
        product, looped = packed_product(rows, x)
        assert not looped
        expected = [2**63 - 1, -(2**63 - 1), 5 * (s - 5) - 3, 3 * top - 4]
        assert product == int_vec_mat(x, rows) == expected

    def test_the_exact_loop_runs_from_the_guard_on(self):
        # sum|x|*top = 2**63: the column 2**63 fits no signed 64-bit slot
        for top, x in ((2**62, [1, -1]), (2**31, [2**31, -(2**31)]), (2**62, [2, 0])):
            rows = [[top, -top, 1], [-top, top, 0]]
            product, looped = packed_product(rows, x)
            assert looped and product == int_vec_mat(x, rows)
        assert packed_product(rows, [1, -1])[0] == [2**63, -(2**63), 1]

    def test_empty_tables_and_entries_past_a_slot(self):
        assert packed_product([], []) == ([], False)
        assert packed_product([[], []], [4, -5]) == ([], False)
        assert packed_product([[0, 0, 0]], [2**80]) == ([0, 0, 0], False)
        # an entry of 2**63 or more packs into no slot: every x but 0 loops
        rows = [[2**63, -(2**64), 1], [3, 0, -1]]
        assert packed_product(rows, [0, 0]) == ([0, 0, 0], False)
        for x in ([1, 0], [0, 1], [-2, 7]):
            assert packed_product(rows, x) == (int_vec_mat(x, rows), True)
        for top in (2**63, -(2**63)):  # the first |entry| past a slot
            assert packed_product([[top, 1]], [0]) == ([0, 0], False)
            assert packed_product([[top, 1]], [-1]) == ([-top, -1], True)

    def test_rows_are_kept_as_given(self):
        rows = [[1, -2], [3, 4]]
        table = PackedRows(rows)
        assert table.rows is rows and table.top == 4
        assert table.times([1, 1]) == [4, 2] and table.times((0, -1)) == [-3, -4]
