"""The integer kernels of the trivialization identity.

Both sides of the identity run in integers over one denominator: the
canonical exponent (`exponent_re`, `exponent_im`, `translation_factor`,
`pair_exponent`) in one pass over E, and the trivializer
(`trivializing_exponent`, `trivialization_residual`) through per-context
integer matrices.  Each is checked for exact equality against oracles that
keep the old Fraction routes: the trilinear `reference_exponent_re` and
`reference_exponent_im`, and the four public factor functions composed in
`reference_trivializing_exponent` and `reference_trivialization_residual`.
Instances: standard and twisted J at n = 2 and 3, both cases, vectors
inside and outside the case subgroup.

The kernel is four named d x d blocks (qre, qim, re, im).  Since the
trivializer's linear part is linear in the lattice vector and its constant
quadratic, its lattice coboundary is the constant l1^T*(ar + i*ai)*l2 of
one bilinear form per record.  Kernel and form are linear in the record
and the translation factor in w, so the residual of every basis pair is
x^T times one table per (torus, E, case), `_Basis.residual_rows`: row k is
the coboundary form of basis record k's own kernel plus row k of the
factor rows of `GerbeTables.factors`, over one denominator; a record builds its kernel only for
`trivializing_exponent`.  `first_failing_pair` decides each pair on
integers, without a `Fraction`, on the two flattened halves of that
product; one packed `exponent_over` call at w then checks the factor rows,
and each seeded random pair is its Kronecker list dotted with the same
halves.  Explicit pairs and `trivialization_residual` are read off the
same halves, after the same check at w.
`TestResidualCore` checks the residual against the record's own kernel and
factors and against the three-point evaluation of `trivializing_exponent`
(on basis kernels overwritten with arbitrary integers too), the Kronecker
reading against x1^T*R*x2 and against the kernel's coboundary plus
`exponent_over` at the pair, the reading of the unpacked product against
the oracle, that a corrupted linear block of a basis kernel is caught on
the expected basis pair, and that a passing query costs two packed row
products (`PackedRows.times`) and no `int_vec_mat`, two packed lifts and
two dot products per random pair; `TestResidualRows` checks that a failing
basis costs one product after the record, and the table against the
oracle on both sides of the 64-bit guard; `TestFactorRows` checks the
factor rows against `exponent_over`; `TestPackedCheckAtW` checks that the
packed check catches every row corruption the basis passes, at h = 0 too;
`TestIntegerDecision` checks the verdicts against the oracle, that they
never reach the `Fraction` wrappers, and that a fault at w raises
`InternalMismatch` for default pairs, explicit pairs and
`trivialization_residual` alike, as does a fault in the Kronecker reading
of a flattened half after a passing basis for default pairs.
"""

import itertools
import random
import types
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import torusgerbe.gerbe as gerbe_module
import torusgerbe.trivialization as triv
from torusgerbe import (
    AltForm3,
    ExponentFn,
    GerbeData,
    InternalMismatch,
    SubgroupCase,
    TranslationContext,
    exponent_im,
    exponent_re,
    pair_exponent,
    translation_factor,
    trivialization_residual,
    trivializing_exponent,
    verify_trivialization,
)
from torusgerbe.exact import GaussianRational, PackedRows, basis_vec, int_dot, int_vec_mat
from torusgerbe.exact import to_mat, to_vec
from torusgerbe.gerbe import exponent_over
from torusgerbe.torus import TorusData
from torusgerbe.trivialization import first_failing_pair, random_verification_pairs

from helpers import (
    basis_records,
    conjugated_instance,
    corrupt_basis_record,
    direct_record,
    oracle_pair_exponent,
    rand_vec,
    reference_exponent_im,
    reference_exponent_re,
    reference_trivialization_residual,
    reference_trivializing_exponent,
    replace_fields,
    twisted_torus,
)

INSTANCES = [
    (n, twisted, case)
    for n in (2, 3)
    for twisted in (False, True)
    for case in (SubgroupCase.INTEGRAL, SubgroupCase.TYPE_ONE_ONE)
]
IDS = [f"n{n}-{'twisted' if tw else 'standard'}-{case.value}" for n, tw, case in INSTANCES]


@pytest.fixture(params=INSTANCES, ids=IDS)
def instance(request):
    n, twisted, case = request.param
    g, vectors = conjugated_instance(n, 1, case, twisted)
    return g, case, vectors


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


def outside_vector(rng, g, case):
    """A rational vector outside the case subgroup."""
    while True:
        w = mixed_vec(rng, g.torus.dim)
        ctx = TranslationContext.create(g, w, case, check=False)
        if not verify_trivialization(ctx, extra_random=0):
            return w


class TestCanonicalExponent:
    def test_rational_triples_match_trilinear_oracle(self, instance):
        g, _, vectors = instance
        t = g.torus
        rng = random.Random(11)
        for e3 in (g.e, rational_altform3(rng, t.dim)):
            for _ in range(10):
                a, b, c = (mixed_vec(rng, t.dim) for _ in range(3))
                assert exponent_re(t, e3, a, b, c) == reference_exponent_re(t, e3, a, b, c)
                assert exponent_im(t, e3, a, b, c) == reference_exponent_im(t, e3, a, b, c)

    def test_translation_factor_and_pair_exponent(self, instance):
        g, _, vectors = instance
        t = g.torus
        rng = random.Random(12)
        for w in vectors[:2] + [mixed_vec(rng, t.dim), (F(0),) * t.dim]:
            l1, l2 = rand_vec(rng, t.dim), rand_vec(rng, t.dim)
            expected = oracle_pair_exponent(t, g.e, w, l1, l2)
            assert translation_factor(g, w, l1, l2) == expected
            h = pair_exponent(g, l1, l2)
            assert h.lin_re == tuple(
                reference_exponent_re(t, g.e, ek, l1, l2) for ek in t.basis()
            )
            assert h.lin_im == tuple(
                reference_exponent_im(t, g.e, ek, l1, l2) for ek in t.basis()
            )
            assert h.evaluate(w) == expected

    def test_zero_form_and_zero_vector(self):
        t = twisted_torus(3, 0)
        rng = random.Random(13)
        zero = (F(0),) * t.dim
        a, b = mixed_vec(rng, t.dim), mixed_vec(rng, t.dim)
        e3 = rational_altform3(rng, t.dim)
        for args in ((a, b, zero), (zero, a, b), (a, zero, b)):
            assert exponent_re(t, e3, *args) == 0
            assert exponent_im(t, e3, *args) == 0
        assert exponent_re(t, AltForm3.zero(t.dim), a, b, a) == 0
        assert exponent_im(t, AltForm3.zero(t.dim), a, b, a) == 0

    def test_lattice_arguments_required(self, instance):
        g, _, vectors = instance
        half = (F(1, 2),) + (F(0),) * (g.torus.dim - 1)
        with pytest.raises(ValueError):
            translation_factor(g, vectors[0], half, basis_vec(g.torus.dim, 0))
        with pytest.raises(ValueError):
            exponent_re(g.torus, g.e, vectors[0][:-1], half, half)

    def test_translation_factor_reads_no_vector_forms(self, instance, monkeypatch):
        # the independent side of the residual check must not go through L_w
        import torusgerbe.gerbe as gerbe

        def forbidden(*args, **kwargs):
            raise AssertionError("translation_factor read the vector forms")

        monkeypatch.setattr(gerbe, "forms_over", forbidden)
        g, _, vectors = instance
        d = g.torus.dim
        translation_factor(g, vectors[0], basis_vec(d, 0), basis_vec(d, 1))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_matches_oracle(self, data):
        n = data.draw(st.sampled_from((2, 3)))
        t = twisted_torus(n, data.draw(st.integers(0, 3)))
        rat = st.builds(F, st.integers(-6, 6), st.integers(1, 12))
        vec = st.tuples(*[rat] * t.dim)
        e3 = AltForm3.from_coeffs(
            t.dim,
            {
                k: data.draw(rat)
                for k in itertools.combinations(range(t.dim), 3)
                if data.draw(st.booleans())
            },
        )
        a, b, c = data.draw(vec), data.draw(vec), data.draw(vec)
        assert exponent_re(t, e3, a, b, c) == reference_exponent_re(t, e3, a, b, c)
        assert exponent_im(t, e3, a, b, c) == reference_exponent_im(t, e3, a, b, c)


class TestTrivializerKernel:
    def test_inside_subgroup_matches_factor_oracle(self, instance):
        g, case, vectors = instance
        rng = random.Random(21)
        d = g.torus.dim
        for w in vectors[:2]:
            ctx = TranslationContext.create(g, w, case)
            for _ in range(6):
                l1, l2 = rand_vec(rng, d), rand_vec(rng, d)
                assert trivializing_exponent(ctx, l1) == reference_trivializing_exponent(
                    ctx, l1
                )
                r = trivialization_residual(ctx, l1, l2)
                assert r == reference_trivialization_residual(ctx, l1, l2)
                assert r.linear_part_is_zero and r.const.im == 0
                assert r.const.re.denominator == 1

    def test_outside_subgroup_matches_factor_oracle(self, instance):
        g, case, _ = instance
        rng = random.Random(22)
        d = g.torus.dim
        w = outside_vector(rng, g, case)
        ctx = TranslationContext.create(g, w, case, check=False)
        nontrivial = False
        for l1, l2 in itertools.product([basis_vec(d, k) for k in range(d)], repeat=2):
            r = trivialization_residual(ctx, l1, l2)
            assert r == reference_trivialization_residual(ctx, l1, l2)
            nontrivial |= not triv.residual_is_trivial(r)
        assert nontrivial
        for _ in range(4):
            lam = rand_vec(rng, d)
            assert trivializing_exponent(ctx, lam) == reference_trivializing_exponent(
                ctx, lam
            )

    def test_factor_oracle_does_not_share_the_records_forms(self, instance, monkeypatch):
        # a fault in L_w, which every record is built from, must show against
        # the oracle: the four factor functions never read forms_over
        g, case, _ = instance
        rng = random.Random(24)
        w, lam = outside_vector(rng, g, case), rand_vec(rng, g.torus.dim)
        forms_over = gerbe_module.forms_over

        def faulty(torus, e3, w):
            *head, omega_i, l = forms_over(torus, e3, w)
            return (*head, omega_i, [[a - b for a, b in zip(*rows)] for rows in zip(l, omega_i)])

        for module in (gerbe_module, triv):
            monkeypatch.setattr(module, "forms_over", faulty)
        ctx = TranslationContext.create(GerbeData(g.torus, g.b, g.e), w, case, check=False)
        assert trivializing_exponent(ctx, lam) != reference_trivializing_exponent(ctx, lam)

    def test_zero_vector_and_zero_form(self, instance):
        g, case, _ = instance
        t = g.torus
        d = t.dim
        rng = random.Random(23)
        zero_w = TranslationContext.create(g, (0,) * d, case)
        flat = GerbeData(t, g.b, AltForm3.zero(d))
        zero_e = TranslationContext.create(flat, mixed_vec(rng, d), case)
        for ctx in (zero_w, zero_e):
            for _ in range(3):
                l1, l2 = rand_vec(rng, d), rand_vec(rng, d)
                assert trivializing_exponent(ctx, l1).is_zero
                r = trivialization_residual(ctx, l1, l2)
                assert r.is_zero
                assert r == reference_trivialization_residual(ctx, l1, l2)

    def test_non_lattice_vector_raises(self, instance):
        g, case, vectors = instance
        ctx = TranslationContext.create(g, vectors[0], case)
        d = g.torus.dim
        half = (F(1, 2),) + (F(0),) * (d - 1)
        with pytest.raises(ValueError):
            trivializing_exponent(ctx, half)
        with pytest.raises(ValueError):
            trivialization_residual(ctx, half, basis_vec(d, 0))
        with pytest.raises(ValueError):
            trivializing_exponent(ctx, basis_vec(d + 1, 0))

    def test_kernel_built_once_per_context(self, instance, monkeypatch):
        g, case, vectors = instance
        g = GerbeData(g.torus, g.b, g.e)  # fresh: no basis records yet
        builds = {"kernel": [], "residual_rows": []}
        for name, calls in builds.items():
            owner = triv._Basis if name == "residual_rows" else TranslationContext
            prop = vars(owner)[name]

            def counting(obj, build=prop.func, calls=calls):
                calls.append(obj)
                return build(obj)

            monkeypatch.setattr(prop, "func", counting)
        ctx = TranslationContext.create(g, vectors[0], case)
        basis = g.tables.bases[case]
        assert verify_trivialization(ctx)
        # the identity reads x^T times the residual rows of the (gerbe,
        # case), and builds no kernel, on the record or the basis
        assert builds == {"kernel": [], "residual_rows": [basis]}
        assert not any("kernel" in vars(b) for b in basis.records)
        for k in range(g.torus.dim):
            trivializing_exponent(ctx, basis_vec(g.torus.dim, k))
            trivialization_residual(ctx, basis_vec(g.torus.dim, k), basis_vec(g.torus.dim, 0))
        # the kernel once, and the same rows
        assert builds == {"kernel": [ctx], "residual_rows": [basis]}
        assert "kernel" in vars(ctx) and "kernel" not in vars(g)
        assert "residual_rows" in vars(basis)
        verify_trivialization(TranslationContext.create(g, vectors[0], case))
        # a new context reads the same rows, still with no kernel
        assert [len(calls) for calls in builds.values()] == [1, 1]

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_property_residual_matches_oracle(self, data):
        n = data.draw(st.sampled_from((2, 3)))
        case = data.draw(st.sampled_from(list(SubgroupCase)))
        twisted = data.draw(st.booleans())
        g, vectors = conjugated_instance(n, data.draw(st.integers(0, 2)), case, twisted)
        d = g.torus.dim
        w = data.draw(st.sampled_from(vectors))
        inside = data.draw(st.booleans())
        if not inside:
            w = tuple(x + F(1, 3) for x in w)
        ctx = TranslationContext.create(g, w, case, check=False)
        lat = st.tuples(*[st.integers(-3, 3)] * d)
        l1, l2 = data.draw(lat), data.draw(lat)
        assert trivialization_residual(ctx, l1, l2) == reference_trivialization_residual(
            ctx, l1, l2
        )


def default_pairs(dim, extra_random, seed):
    """The pairs a default query decides on, in order: every basis pair
    (e_a, e_b) in row-major order, then the seeded random pairs."""
    basis = [(0,) * k + (1,) + (0,) * (dim - k - 1) for k in range(dim)]
    yield from itertools.product(basis, repeat=2)
    yield from random_verification_pairs(dim, extra_random, seed)


class TestVerificationPairs:
    def test_pairs_are_lazy_and_counted(self):
        for dim, extra in itertools.product((4, 6), (0, 3, 7)):
            pairs = random_verification_pairs(dim, extra, seed=5)
            assert iter(pairs) is pairs
            assert len(list(pairs)) == extra

    def test_random_pairs_are_pinned(self):
        # the seeded pairs that followed the d**2 basis pairs when both came
        # from one generator: same draws, same digits
        pinned = {
            (4, 3, 2): [
                ((1, -1, -3, 1), (-2, -3, 1, -3)),
                ((1, 3, 2, 3), (1, 0, 3, -3)),
                ((-2, 2, 1, 0), (-1, -3, 3, -3)),
            ],
            (6, 2, 7): [
                ((0, -2, -1, -3, -1, 1), (3, -1, 0, 0, 0, -1)),
                ((0, -3, -2, 0, 3, -1), (2, 3, -2, 3, -1, -2)),
            ],
            (8, 2, 11): [
                ((3, -3, 2, -2, -2, 0, -2, 0), (-3, -3, 1, 2, -1, 3, -1, 3)),
                ((-1, 2, 0, 1, -1, 2, -1, -3), (3, 1, -2, -2, -2, 0, -1, 3)),
            ],
        }
        for (dim, count, seed), pairs in pinned.items():
            assert list(random_verification_pairs(dim, count, seed)) == pairs

    def test_random_entries_cover_minus_three_to_three(self):
        drawn = list(random_verification_pairs(4, 200, seed=9))
        assert len(drawn) == 200
        entries = [y for pair in drawn for v in pair for y in v]
        assert all(type(y) is int for y in entries)
        assert set(entries) == set(range(-3, 4))
        assert all(len(v) == 4 for pair in drawn for v in pair)

    def test_defaults_are_ten_random_pairs_of_seed_zero(self):
        for dim in (4, 6):
            assert list(random_verification_pairs(dim)) == list(
                random_verification_pairs(dim, 10, 0)
            )

    def test_same_seed_same_sequence(self):
        def pairs(seed):
            return list(random_verification_pairs(6, 20, seed))

        assert pairs(4) == pairs(4)
        assert pairs(4) != pairs(5)

    def test_one_draw_per_random_pair(self, monkeypatch):
        draws = []
        randrange = random.Random.randrange

        def counting(rng, *args):
            draws.append(args)
            return randrange(rng, *args)

        monkeypatch.setattr(random.Random, "randrange", counting)
        for dim, extra in ((4, 5), (6, 3)):
            draws.clear()
            pairs = random_verification_pairs(dim, extra, seed=1)
            assert draws == []  # nothing is drawn before the first pair is read
            assert sum(1 for _ in pairs) == extra
            assert draws == [(7 ** (2 * dim),)] * extra

    def test_negative_count_raises_at_the_call(self, instance):
        # it read as no random pairs, so a query with a negative count passed
        # on the basis pairs alone
        with pytest.raises(ValueError, match="non-negative"):
            random_verification_pairs(4, -1)
        assert list(random_verification_pairs(4, 0)) == []
        g, case, vectors = instance
        d = g.torus.dim
        inside = TranslationContext.create(g, vectors[0], case)
        w = outside_vector(random.Random(32), g, case)
        outside = TranslationContext.create(g, w, case, check=False)
        e0 = basis_vec(d, 0)
        for ctx in (inside, outside):
            for pairs in (None, [(e0, e0)]):
                with pytest.raises(ValueError, match="non-negative"):
                    verify_trivialization(ctx, pairs, extra_random=-1)
                with pytest.raises(ValueError, match="non-negative"):
                    first_failing_pair(ctx, pairs, extra_random=-3, seed=2)
        assert verify_trivialization(inside, extra_random=0)
        assert not verify_trivialization(outside, extra_random=0)

    def test_first_random_pairs_pinned(self):
        # one draw below 7**4 per pair, its base-7 digits minus 3, lowest first
        drawn = list(random_verification_pairs(2, 3, seed=0))
        assert drawn == [((-1, -2), (1, 1)), ((-3, -2), (-3, 2)), ((1, -1), (0, -3))]
        rng = random.Random(0)
        for l1, l2 in drawn:
            n = rng.randrange(7**4)
            assert [n // 7**k % 7 - 3 for k in range(4)] == [*l1, *l2]

    def test_first_failure_is_first_failing_pair_in_order(self, instance):
        g, case, vectors = instance
        rng = random.Random(31)
        d = g.torus.dim
        assert first_failing_pair(TranslationContext.create(g, vectors[0], case)) is None
        ctx = TranslationContext.create(g, outside_vector(rng, g, case), case, check=False)
        expected = next(
            (l1, l2)
            for l1, l2 in default_pairs(d, 10, 3)
            if not triv.residual_is_trivial(reference_trivialization_residual(ctx, l1, l2))
        )
        assert first_failing_pair(ctx, seed=3) == expected
        assert not verify_trivialization(ctx, seed=3)
        explicit = [(basis_vec(d, 0), basis_vec(d, 0)), expected]
        assert first_failing_pair(ctx, explicit) == expected


def residual_reading(ctx, x1, x2):
    """The residual at two lattice vectors read off the unpacked product
    x^T*residual_rows of the record's (gerbe, case): the Kronecker list of
    (x1, x2) dotted with each flattened half, over `_kernel_den`, as an
    ExponentFn with zero linear part."""
    g = ctx.gerbe
    flat = int_vec_mat(ctx.x, triv._basis_records(g, ctx.case).residual_rows.rows)
    n, k = g.torus.dim**2, triv._kernel_den(ctx)
    pair = [u * v for u in x1 for v in x2]
    zero = (F(0),) * g.torus.dim
    const = GaussianRational(F(int_dot(pair, flat[:n]), k), F(int_dot(pair, flat[n:]), k))
    return ExponentFn(const, zero, zero)


def inside_and_shifted(g, case, w):
    """The records of w and of w shifted by 1/3 in every coordinate, which
    leaves the case subgroup on every instance."""
    inside = TranslationContext.create(g, w, case)
    shifted = TranslationContext.create(g, [x + F(1, 3) for x in w], case, check=False)
    assert inside.member and not shifted.member
    return inside, shifted


BLOCKS = ("qre", "qim", "re", "im")


def with_kernel(ctx, den, blocks):
    """A fresh copy of the record whose kernel is (den, blocks), set before
    anything reads it."""
    fresh = replace_fields(ctx)
    vars(fresh)["kernel"] = den, tuple(blocks)
    return fresh


def patch_basis_kernels(patch, g, case, blocks_of):
    """Make the residual rows of (g, case) read the kernel blocks
    blocks_of(j, blocks) of each basis record e_j in place of its own
    blocks; g's rows must not be built yet."""
    basis = basis_records(g, case)
    assert "residual_rows" not in vars(g.tables.bases[case])
    kernel_blocks = triv._kernel_blocks

    def patched(ctx):
        blocks = kernel_blocks(ctx)
        j = next((j for j, b in enumerate(basis) if b is ctx), None)
        return blocks if j is None else blocks_of(j, blocks)

    patch.setattr(triv, "_kernel_blocks", patched)


def corrupt_basis_kernel(patch, g, case, k, block, a, b):
    """Raise entry (a, b) of one kernel block of the basis record of e_k by
    1, as the residual rows of the fresh gerbe g read it."""

    def raised(j, blocks):
        blocks = [[list(row) for row in m] for m in blocks]
        blocks[BLOCKS.index(block)][a][b] += int(j == k)
        return tuple(blocks)

    patch_basis_kernels(patch, g, case, raised)


def kernel_coboundary(blocks):
    """(ar, ai) = (re - qre - qre^T, im - qim - qim^T) of the kernel blocks
    (qre, qim, re, im), entry by entry."""
    qre, qim, re, im = blocks
    d = len(re)
    return tuple(
        [[lin[a][b] - q[a][b] - q[b][a] for b in range(d)] for a in range(d)]
        for lin, q in ((re, qre), (im, qim))
    )


def kernel_residual(ctx):
    """(re, im): the residual of every basis pair over `_kernel_den`,
    flattened, composed from its two sources apart: the coboundary form
    of the record's own kernel plus the translation factors x^T*rows of the
    gerbe's `GerbeTables.factors`, rescaled from (dw*dre, dw*dim)."""
    k, (ar, ai) = triv._kernel_den(ctx), kernel_coboundary(ctx.kernel[1])
    dre, dim, rows, _ = ctx.gerbe.tables.factors
    h, n = int_vec_mat(ctx.x, rows.rows), len(ar) ** 2
    assert k % (ctx.dw * dre) == 0 and k % (ctx.dw * dim) == 0
    re = [c + y * (k // (ctx.dw * dre)) for c, y in zip(itertools.chain(*ar), h[:n])]
    im = [c + y * (k // (ctx.dw * dim)) for c, y in zip(itertools.chain(*ai), h[n:])]
    return re, im


class TestResidualCore:
    def test_basis_vectors_read_rows_and_columns(self, instance):
        g, case, vectors = instance
        t, d = g.torus, g.torus.dim
        for ctx in inside_and_shifted(g, case, vectors[0]):
            den, blocks = ctx.kernel
            assert len(blocks) == 4
            assert all(len(m) == d and all(len(row) == d for row in m) for m in blocks)
            assert all(type(y) is int for m in blocks for row in m for y in row)
            k_res, *halves = triv._residual(ctx)
            assert k_res == den and all(type(y) is int for half in halves for y in half)
            for a in range(d):
                x = [int(k == a) for k in range(d)]
                for half in halves:
                    form = [half[s : s + d] for s in range(0, d * d, d)]
                    assert int_vec_mat(x, form) == list(form[a])
                ix = t.mul_i_over(x)
                assert ix == [F(y) * t.j_columns[0] for y in t.mul_i(basis_vec(d, a))]

    def test_basis_pair_residuals_match_oracle(self, instance):
        g, case, vectors = instance
        d = g.torus.dim
        basis = [basis_vec(d, k) for k in range(d)]
        for ctx in inside_and_shifted(g, case, vectors[0]):
            den, blocks = ctx.kernel
            ar, ai = kernel_coboundary(blocks)
            verdicts = []
            for a, b in itertools.product(range(d), repeat=2):
                ea, eb = ([int(k == c) for k in range(d)] for c in (a, b))
                r = residual_reading(ctx, ea, eb)
                assert r == reference_trivialization_residual(ctx, basis[a], basis[b])
                assert r == trivialization_residual(ctx, basis[a], basis[b])
                # the constant of the coboundary at (e_a, e_b) is entry (a, b)
                # of the kernel's coboundary form
                h = translation_factor(g, ctx.w, basis[a], basis[b])
                assert r.const == h + GaussianRational(F(ar[a][b], den), F(ai[a][b], den))
                verdicts.append(triv.residual_is_trivial(r))
            assert all(verdicts) is ctx.member

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_property_residual_reading_matches_oracle(self, data):
        n = data.draw(st.sampled_from((2, 3)), label="n")
        case = data.draw(st.sampled_from(list(SubgroupCase)), label="case")
        twisted = data.draw(st.booleans(), label="twisted")
        g, vectors = conjugated_instance(n, data.draw(st.integers(0, 2)), case, twisted)
        d = g.torus.dim
        w = data.draw(st.sampled_from(vectors), label="w")
        ctx = inside_and_shifted(g, case, w)[data.draw(st.integers(0, 1), label="shifted")]
        lat = st.tuples(*[st.integers(-3, 3)] * d)
        l1, l2 = data.draw(lat, label="l1"), data.draw(lat, label="l2")
        expected = reference_trivialization_residual(ctx, l1, l2)
        assert residual_reading(ctx, l1, l2) == expected == trivialization_residual(ctx, l1, l2)
        # a basis vector mixes with any other on either side
        a = data.draw(st.integers(0, d - 1), label="a")
        ea = basis_vec(d, a)
        va = [int(k == a) for k in range(d)]
        assert residual_reading(ctx, va, l2) == reference_trivialization_residual(ctx, ea, l2)
        assert residual_reading(ctx, l1, va) == reference_trivialization_residual(ctx, l1, ea)
        pairs = [(l1, l2), (ea, l2), (l1, ea)]
        assert first_failing_pair(ctx, pairs) == oracle_first_failure(ctx, pairs)

    def test_residual_is_read_off_the_record_kernel(self, instance):
        # the product with the residual rows gives the integers of the
        # record's own kernel plus the factors, and those of the directly
        # built record
        g, case, vectors = instance
        d = g.torus.dim
        rng = random.Random(24)
        shifted = [tuple(x + F(1, 3) for x in w) for w in vectors]
        drawn = [mixed_vec(rng, d) for _ in range(4)]
        members = []
        for w in [(0,) * d, *vectors, *shifted, *drawn, *g.torus.basis()]:
            ctx = TranslationContext.create(g, w, case, check=False)
            direct = direct_record(g, w, case)
            k, re, im = triv._residual(ctx)
            assert (re, im) == kernel_residual(ctx) == kernel_residual(direct)
            assert ctx.kernel[0] == k == direct.kernel[0]
            members.append(ctx.member)
        assert any(members) and not all(members)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_residual_is_read_off_the_record_kernel(self, data):
        g, case, vectors = drawn_gerbe(data)
        d = g.torus.dim
        rat = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 5, 8)))
        w = data.draw(st.one_of(st.sampled_from(vectors), st.tuples(*[rat] * d)), label="w")
        ctx = TranslationContext.create(g, w, case, check=False)
        k, re, im = triv._residual(ctx)
        assert (re, im) == kernel_residual(ctx)
        assert ctx.kernel[0] == k

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_kronecker_list_reads_the_residual(self, data):
        # x1^T*R*x2 of each flattened half R is the Kronecker list of (x1,
        # x2) dotted with it, and is the coboundary form of the record's
        # kernel at the pair plus the translation factor from E and J at
        # (w, x1, x2)
        g, case, vectors = drawn_gerbe(data)
        d = g.torus.dim
        w = data.draw(st.sampled_from(vectors), label="w")
        ctx = inside_and_shifted(g, case, w)[data.draw(st.integers(0, 1), label="shifted")]
        k, re, im = triv._residual(ctx)
        assert k == triv._kernel_den(ctx) and len(re) == len(im) == d * d
        lat = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
        x1, x2 = data.draw(lat, label="l1"), data.draw(lat, label="l2")
        pair = [u * v for u in x1 for v in x2]
        for half in (re, im):
            folded = [half[s : s + d] for s in range(0, d * d, d)]
            assert int_dot(pair, half) == int_dot(int_vec_mat(x1, folded), x2)
        t, (ar, ai) = g.torus, kernel_coboundary(ctx.kernel[1])
        lifts = [(1, y, t.mul_i_over(y)) for y in (x1, x2)]
        h_re, dre_w, h_im, dim_w = exponent_over(t, g.e, (ctx.dw, ctx.x, ctx.ix), *lifts)
        c_re, c_im = (int_dot(int_vec_mat(x1, form), x2) for form in (ar, ai))
        assert F(int_dot(pair, re), k) == F(c_re, k) + F(h_re, dre_w)
        assert F(int_dot(pair, im), k) == F(c_im, k) + F(h_im, dim_w)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_coboundary_is_the_three_point_evaluation(self, data):
        # T(l2)(v + l1) - T(l1 + l2)(v) + T(l1)(v) is the constant
        # l1^T*(ar + i*ai)*l2 over the kernel's denominator, whatever the
        # integers of the four blocks of each basis record: the residual
        # rows read them, and the record's kernel is x^T times them
        n = data.draw(st.sampled_from((2, 3)), label="n")
        case = data.draw(st.sampled_from(list(SubgroupCase)), label="case")
        twisted = data.draw(st.booleans(), label="twisted")
        g, vectors = conjugated_instance(n, data.draw(st.integers(0, 2)), case, twisted)
        d = g.torus.dim
        w = data.draw(st.sampled_from(vectors), label="w")
        ctx = inside_and_shifted(g, case, w)[data.draw(st.integers(0, 1), label="shifted")]
        if data.draw(st.booleans(), label="arbitrary basis kernels"):
            entries = st.lists(st.integers(-50, 50), min_size=d, max_size=d)
            block = st.lists(entries, min_size=d, max_size=d)
            drawn = [
                [data.draw(block, label=f"{name} of e_{j}") for name in BLOCKS] for j in range(d)
            ]
            with pytest.MonkeyPatch.context() as patch:
                patch_basis_kernels(patch, g, case, lambda j, blocks: tuple(drawn[j]))
                assert triv._basis_records(g, case).residual_rows  # read the drawn blocks
            combined = [
                [int_vec_mat(ctx.x, [kernels[i][a] for kernels in drawn]) for a in range(d)]
                for i in range(len(BLOCKS))
            ]
            ctx = with_kernel(ctx, triv._kernel_den(ctx), combined)
        basis = [basis_vec(d, k) for k in range(d)]
        drawn = st.tuples(*[st.builds(F, st.integers(-3, 3))] * d)
        l1, l2 = (data.draw(st.one_of(st.sampled_from(basis), drawn)) for _ in range(2))
        l12 = tuple(a + b for a, b in zip(l1, l2))
        three = (
            trivializing_exponent(ctx, l2).shift(l1)
            - trivializing_exponent(ctx, l12)
            + trivializing_exponent(ctx, l1)
        )
        den, blocks = ctx.kernel
        x1, x2 = [int(y) for y in l1], [int(y) for y in l2]
        form = [F(int_dot(int_vec_mat(x1, m), x2), den) for m in kernel_coboundary(blocks)]
        assert three.linear_part_is_zero
        assert three.const == GaussianRational(*form)
        h = translation_factor(g, ctx.w, l1, l2)
        assert trivialization_residual(ctx, l1, l2) == three.add_const(h)

    @pytest.mark.parametrize("block", ["re", "im"])
    def test_corrupted_linear_column_fails_on_its_basis_pair(self, instance, block, monkeypatch):
        # entry (b, a) of re or im of e_k's kernel is entry (b, a) of a half
        # of e_k's residual row, so it moves the constant of the residual of w =
        # x/dw at (e_b, e_a) only, by x_k over the kernel's denominator k:
        # the real part fails unless k divides x_k, the imaginary part
        # unless x_k = 0
        g, case, vectors = instance
        d = g.torus.dim
        for w in vectors:
            assert first_failing_pair(TranslationContext.create(g, w, case)) is None
        failed = 0
        for (a, b), k in itertools.product(((0, 0), (1, d - 1), (d - 1, 2)), range(d)):
            fresh = GerbeData(g.torus, g.b, g.e)
            with monkeypatch.context() as patch:
                corrupt_basis_kernel(patch, fresh, case, k, block, b, a)
                for w in vectors:
                    ctx = TranslationContext.create(fresh, w, case)
                    fails = bool(ctx.x[k] % triv._kernel_den(ctx) if block == "re" else ctx.x[k])
                    expected = (basis_vec(d, b), basis_vec(d, a)) if fails else None
                    assert first_failing_pair(ctx) == expected
                    assert verify_trivialization(ctx, extra_random=0) is not fails
                    failed += fails
        assert failed

    def test_basis_is_two_row_products_two_packed_lifts_and_two_dots_per_random_pair(
        self, instance, monkeypatch
    ):
        g, case, vectors = instance
        d = g.torus.dim
        inside, shifted = inside_and_shifted(g, case, vectors[0])
        rows = g.tables.factors[2]  # warm: built once per gerbe
        residual = triv._basis_records(g, case).residual_rows  # warm: once per (torus, E, case)
        products, lifts, dots = [], [], []
        times = PackedRows.times

        def counting_product(table, x):
            products.append((x, table))
            return times(table, x)

        def unpacked_product(x, m):
            products.append((x, "int_vec_mat"))
            return int_vec_mat(x, m)

        mul_i_over = TorusData.mul_i_over

        def counting_mul_i(torus, x):
            lifts.append(x)
            return mul_i_over(torus, x)

        def counting_dot(u, v):
            dots.append((u, v))
            return int_dot(u, v)

        monkeypatch.setattr(PackedRows, "times", counting_product)
        monkeypatch.setattr(triv, "int_vec_mat", unpacked_product)
        monkeypatch.setattr(TorusData, "mul_i_over", counting_mul_i)
        monkeypatch.setattr(triv, "int_dot", counting_dot)

        def fresh_query(ctx, **kwargs):
            """first_failing_pair on ctx, with the counts cleared."""
            for calls in (products, lifts, dots):
                calls.clear()
            return ctx, first_failing_pair(ctx, **kwargs)

        # the packed basis vectors of the check at w, in base 2*h0*|x|_1 + 1
        base = 2 * g.tables.factors[3] * sum(map(abs, inside.x)) + 1
        packed = [[base ** (d * a) for a in range(d)], [base**b for b in range(d)]]
        for k in (0, 1, 4, 10):
            ctx, failing = fresh_query(inside, extra_random=k, seed=k)
            assert failing is None
            # one packed product of w's numerators with the residual rows
            # decides every basis pair, and one with the factor rows feeds
            # the check at w, which lifts its two packed vectors, with no
            # `int_vec_mat`; each random pair is its Kronecker list dotted
            # with the two flattened halves of the residual, imaginary
            # first, with no product and no lift
            assert len(products) == 2 and all(x is ctx.x for x, _ in products)
            assert products[0][1] is residual and products[1][1] is rows
            assert lifts == packed
            drawn = list(random_verification_pairs(d, k, k))
            kron = [[u * v for u in l1 for v in l2] for l1, l2 in drawn]
            assert [u for u, _ in dots] == [y for pair in kron for y in (pair, pair)]
            if k:
                fim, fre = dots[0][1], dots[1][1]
                assert len(fim) == len(fre) == d * d and fim is not fre
                assert all(v is (fim, fre)[n % 2] for n, (_, v) in enumerate(dots))
        # ten random pairs of seed 0 by default
        ctx, failing = fresh_query(inside)
        assert failing is None
        assert (len(products), len(lifts), len(dots)) == (2, 2, 20)
        drawn = random_verification_pairs(d, 10, 0)
        assert [u for u, _ in dots[::2]] == [[u * v for u in l1 for v in l2] for l1, l2 in drawn]
        # a second query on the same record makes both products again
        assert verify_trivialization(ctx)
        assert (len(products), len(lifts), len(dots)) == (4, 4, 40)
        # a failing basis makes the residual product alone, no dot product
        # and no lift
        ctx, failing = fresh_query(shifted, extra_random=10)
        assert failing is not None
        assert products == [(ctx.x, residual)]
        assert lifts == [] and dots == []


class TestResidualRows:
    """`_Basis.residual_rows`: the residual of every basis pair as one
    table per (gerbe, case), which a query multiplies once."""

    def test_one_product_after_the_record_when_the_basis_fails(self, instance, monkeypatch):
        g, case, vectors = instance
        d = g.torus.dim
        basis, factors = triv._basis_records(g, case), g.tables.factors[2]
        residual = basis.residual_rows  # warm: once per (torus, E, case)
        products = []
        times = PackedRows.times

        def counting(table, x):
            products.append(table)
            return times(table, x)

        monkeypatch.setattr(PackedRows, "times", counting)
        e0 = basis_vec(d, 0)
        inside, shifted = vectors[0], tuple(x + F(1, 3) for x in vectors[0])
        # (w, query, whether the check at w runs): a failing basis stops
        # after the residual; a passing basis, explicit pairs and single
        # residuals multiply the factor rows next, for the check at w
        queries = [
            (shifted, first_failing_pair, False),
            (inside, first_failing_pair, True),
            (shifted, lambda ctx: first_failing_pair(ctx, [(e0, e0)]), True),
            (shifted, lambda ctx: trivialization_residual(ctx, e0, e0), True),
        ]
        # the record, created unchecked, makes no product: it is its lift
        for w, query, checked in queries:
            products.clear()
            ctx = TranslationContext.create(g, w, case, check=False)
            query(ctx)
            assert products == [residual] + [factors] * checked

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_property_rows_hold_the_oracle_residual(self, data):
        # x^T*residual_rows is k = `_kernel_den` times the oracle residual
        # at every basis pair, on either side of the 64-bit guard of
        # `PackedRows`
        g, case, vectors = drawn_gerbe(data)
        d = g.torus.dim
        rat = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 5, 8)))
        w = list(data.draw(st.one_of(st.sampled_from(vectors), st.tuples(*[rat] * d)), label="w"))
        past = data.draw(st.booleans(), label="past the guard")
        if past:
            big = data.draw(st.sampled_from((2**70, F(2**70 + 1, 2**10))), label="big")
            w[data.draw(st.integers(0, d - 1), label="at")] += big
        ctx = TranslationContext.create(g, w, case, check=False)
        table = triv._basis_records(g, case).residual_rows
        assert (sum(map(abs, ctx.x)) * table.top >= 2**63) is past
        flat, k, n = table.times(ctx.x), triv._kernel_den(ctx), d * d
        for a, b in itertools.product(range(d), repeat=2):
            r = reference_trivialization_residual(ctx, basis_vec(d, a), basis_vec(d, b))
            assert r.linear_part_is_zero
            assert (flat[a * d + b], flat[n + a * d + b]) == (k * r.const.re, k * r.const.im)


def drawn_gerbe(data):
    """A gerbe of `conjugated_instance` on standard or twisted J at n = 2
    or 3, either case, with its case and vectors."""
    n = data.draw(st.sampled_from((2, 3)), label="n")
    case = data.draw(st.sampled_from(list(SubgroupCase)), label="case")
    twisted = data.draw(st.booleans(), label="twisted")
    g, vectors = conjugated_instance(n, data.draw(st.integers(0, 2)), case, twisted)
    return g, case, vectors


class TestFactorRows:
    """`GerbeTables.factors`: the translation factors of the basis pairs,
    one integer row per basis vector, read off E and J alone."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_property_rows_are_exponent_over_at_basis_triples(self, data):
        g, _, _ = drawn_gerbe(data)
        t, d = g.torus, g.torus.dim
        dre, dim, packed, _ = g.tables.factors
        rows, e3 = packed.rows, g.e
        if data.draw(st.booleans(), label="arbitrary E"):
            # any rational 3-form, the type condition aside: large
            # coefficients over small denominators test the digit bound
            rat = st.builds(F, st.integers(-999, 999), st.sampled_from((1, 2, 3, 8)))
            triples = st.sampled_from(list(itertools.combinations(range(d), 3)))
            e3 = AltForm3.from_coeffs(d, data.draw(st.dictionaries(triples, rat), label="E"))
            dre, dim, packed, _ = gerbe_module.basis_factor_rows(t, e3)
            rows = packed.rows
        assert len(rows) == d and all(len(row) == 2 * d * d for row in rows)
        lifts = [t.lift(ek) for ek in t.basis()]
        for k, a, b in itertools.product(range(d), repeat=3):
            # the diagonal and the (b, a) entries too, which the build fills
            # from antisymmetry without computing them
            expected = exponent_over(t, e3, lifts[k], lifts[a], lifts[b])
            assert (rows[k][a * d + b], dre, rows[k][d * d + a * d + b], dim) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_property_row_product_is_exponent_over_at_w(self, data):
        g, _, vectors = drawn_gerbe(data)
        t, d = g.torus, g.torus.dim
        rat = st.builds(F, st.integers(-7, 7), st.sampled_from((1, 2, 3, 4, 6, 9)))
        w = data.draw(st.one_of(st.sampled_from(vectors), st.tuples(*[rat] * d)), label="w")
        dw, x, ix = t.lift(w)
        dre, dim, rows, _ = g.tables.factors
        h = rows.times(x)
        assert h == int_vec_mat(x, rows.rows)
        lifts = [t.lift(ek) for ek in t.basis()]
        for a, b in itertools.product(range(d), repeat=2):
            n = a * d + b
            expected = exponent_over(t, g.e, (dw, x, ix), lifts[a], lifts[b])
            assert (h[n], dw * dre, h[d * d + n], dw * dim) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_property_corrupted_entry_fails_its_own_basis_pair(self, data):
        # the residual rows keep the factor rows they were built from, so
        # the entry is corrupted on a fresh gerbe before its table is built
        g, case, vectors = drawn_gerbe(data)
        d = g.torus.dim
        w = data.draw(st.sampled_from(vectors), label="w")
        assert first_failing_pair(TranslationContext.create(g, w, case)) is None
        fresh = GerbeData(g.torus, g.b, g.e)
        dre, dim, rows, h0 = fresh.tables.factors
        ctx = TranslationContext.create(fresh, w, case)
        k = data.draw(st.sampled_from([k for k, y in enumerate(ctx.x) if y]), label="k")
        n = data.draw(st.integers(0, 2 * d * d - 1), label="entry")
        bad = [list(row) for row in rows.rows]
        bad[k][n] += 1
        vars(fresh.tables)["factors"] = dre, dim, PackedRows(bad), h0
        assert "residual_rows" not in vars(fresh.tables.bases[case])
        # the factor at the pair moves by x_k/(dw*dre) or i*x_k/(dw*dim): it
        # fails its own basis pair, or, moved by an integer, the basis
        # passes and the check at w catches it
        if n >= d * d or ctx.x[k] % (ctx.dw * dre):
            a, b = divmod(n % (d * d), d)
            assert first_failing_pair(ctx) == (basis_vec(d, a), basis_vec(d, b))
            assert not verify_trivialization(ctx, extra_random=0)
        else:
            with pytest.raises(InternalMismatch):
                first_failing_pair(ctx)

    def test_digit_bound_is_reached(self):
        # The build reads each value as a balanced base-(2h + 1) digit, with
        # h = 6*K*m**2.  The bound holds for any integer matrix in place of
        # dj*J, so take one with J*J != -I on which it is reached: with
        # E = 2*e0^e1^e2, K = 2 and dj = m = 2, the real numerator at
        # (e0, e1, e2) is 2*(2*dj**2 + 8 + 8) = 48 = h.  A smaller bound or
        # base misreads it.
        j = to_mat(((1, -1, -1, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, F(1, 2))))
        t = object.__new__(TorusData)
        vars(t).update(n=2, j=j, jt=tuple(zip(*j)))
        e3 = AltForm3.from_coeffs(4, {(0, 1, 2): 2})
        dre, dim, packed, _ = gerbe_module.basis_factor_rows(t, e3)
        rows = packed.rows
        lifts = [t.lift(ek) for ek in t.basis()]
        assert rows[0][1 * 4 + 2] == 48 == exponent_over(t, e3, *lifts[:3])[0]
        for k, a, b in itertools.product(range(4), repeat=3):
            expected = exponent_over(t, e3, lifts[k], lifts[a], lifts[b])
            assert (rows[k][a * 4 + b], dre, rows[k][16 + a * 4 + b], dim) == expected

    def test_rows_read_only_e_and_j(self, instance, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the factor rows read the vector forms")

        monkeypatch.setattr(gerbe_module, "forms_over", forbidden)
        g, _, _ = instance
        fresh = GerbeData(g.torus, g.b, g.e)
        factors, expected = fresh.tables.factors, g.tables.factors
        assert factors[:2] == expected[:2] and factors[3] == expected[3]
        assert factors[2].rows == expected[2].rows
        assert fresh.tables.bases == {}

    def test_rows_built_once_per_gerbe(self, instance, monkeypatch):
        g, case, vectors = instance
        builds = []
        build = gerbe_module.basis_factor_rows

        def counting(torus, e3):
            builds.append(e3)
            return build(torus, e3)

        monkeypatch.setattr(gerbe_module, "basis_factor_rows", counting)
        fresh = GerbeData(g.torus, g.b, g.e)
        for w in vectors:
            assert verify_trivialization(TranslationContext.create(fresh, w, case))
        assert builds == [g.e]
        assert "factors" in vars(fresh.tables)
        # explicit pairs and single residuals read the same rows, built once
        other = GerbeData(g.torus, g.b, g.e)
        e0 = basis_vec(g.torus.dim, 0)
        ctx = TranslationContext.create(other, vectors[0], case)
        assert verify_trivialization(ctx, [(e0, e0)])
        assert builds == [g.e, g.e]
        rows = other.tables.factors
        for w in vectors:
            ctx = TranslationContext.create(other, w, case)
            assert verify_trivialization(ctx, [(e0, e0)]) and verify_trivialization(ctx)
            assert triv.residual_is_trivial(trivialization_residual(ctx, e0, e0))
        assert builds == [g.e, g.e] and other.tables.factors is rows


class TestPackedCheckAtW:
    """With default pairs and a passing basis, `first_failing_pair` checks
    the factors x^T*rows it decided on against one `exponent_over` call at
    w and two packed basis vectors, whose balanced digits in base 2*h + 1,
    h = h0*|x|_1 with h0 the digit bound of `GerbeTables.factors`, are the
    factors of all d**2 basis pairs."""

    def test_every_corruption_the_basis_passes_is_caught_at_w(self, instance):
        # a real entry of row k moved by dw*dre moves the factor at its
        # basis pair by the integer x_k: the basis passes, the check at w
        # raises, also without random pairs.  The residual rows keep the
        # factor rows they were built from, so each corruption is made on a
        # fresh gerbe before its table is built.
        g, case, vectors = instance
        d = g.torus.dim
        ctx = TranslationContext.create(g, vectors[0], case)
        assert first_failing_pair(ctx) is None
        dre, dim, rows, h0 = g.tables.factors
        caught = 0
        for k in (k for k, y in enumerate(ctx.x) if y):
            for n in range(d * d):
                fresh = GerbeData(g.torus, g.b, g.e)
                bad = [list(row) for row in rows.rows]
                bad[k][n] += ctx.dw * dre
                vars(fresh.tables)["factors"] = dre, dim, PackedRows(bad), h0
                bad_ctx = TranslationContext.create(fresh, vectors[0], case)
                den, re, im = triv._residual(bad_ctx)
                assert not any(im) and not any(y % den for y in re)
                for extra in (10, 0):
                    with pytest.raises(InternalMismatch):
                        first_failing_pair(bad_ctx, extra_random=extra)
                caught += 1
        assert caught >= d * d

    @pytest.mark.parametrize("case", list(SubgroupCase), ids=lambda c: c.value)
    @pytest.mark.parametrize("twisted", [False, True], ids=["standard", "twisted"])
    def test_zero_vector_and_zero_form_pack_in_base_one(self, case, twisted, monkeypatch):
        # w = 0 or E = 0 gives h = 0: B = 1 packs every basis vector as 1,
        # every digit is 0 and the numerator itself is the rest
        g, vectors = conjugated_instance(2, 1, case, twisted)
        d = g.torus.dim
        flat = GerbeData(g.torus, g.b, AltForm3.from_coeffs(d, {}))
        assert flat.tables.factors[3] == 0 and g.tables.factors[3] > 0
        contexts = [
            TranslationContext.create(g, (F(0),) * d, case),
            TranslationContext.create(flat, vectors[0], case),
            TranslationContext.create(flat, mixed_vec(random.Random(5), d), case),
        ]
        assert g.tables.factors and flat.tables.factors  # warm: built once per gerbe
        lifts = []
        mul_i_over = TorusData.mul_i_over

        def counting_mul_i(torus, x):
            lifts.append(x)
            return mul_i_over(torus, x)

        with monkeypatch.context() as patch:
            patch.setattr(TorusData, "mul_i_over", counting_mul_i)
            for ctx in contexts:
                lifts.clear()
                assert first_failing_pair(ctx) is None
                assert lifts == [[1] * d, [1] * d]
        factor = triv.exponent_over
        for shift in (1, contexts[0].dw * contexts[0].gerbe.tables.factors[0]):

            def moved(torus, e3, a, b, c, shift=shift):
                re, dre, im, dim = factor(torus, e3, a, b, c)
                return re + shift, dre, im, dim

            with monkeypatch.context() as patch:
                patch.setattr(triv, "exponent_over", moved)
                e0 = basis_vec(d, 0)
                for ctx in contexts:
                    for extra in (10, 0):
                        with pytest.raises(InternalMismatch):
                            first_failing_pair(ctx, extra_random=extra)
                    with pytest.raises(InternalMismatch):
                        first_failing_pair(ctx, [(e0, e0)])
                    with pytest.raises(InternalMismatch):
                        trivialization_residual(ctx, e0, e0)

    @pytest.mark.parametrize("scale", [1, 3])
    def test_check_at_w_reaches_the_bound(self, scale):
        # the torus of `TestFactorRows.test_digit_bound_is_reached`, where
        # the factor at (e_0, e_1, e_2) is h0 = 48: at w = scale*e_0 the
        # factor at (e_1, e_2) is the largest digit h = 48*scale, which a
        # smaller base misreads
        j = to_mat(((1, -1, -1, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, F(1, 2))))
        t = object.__new__(TorusData)
        vars(t).update(n=2, j=j, jt=tuple(zip(*j)))
        e3 = AltForm3.from_coeffs(4, {(0, 1, 2): 2})
        tables = types.SimpleNamespace(factors=gerbe_module.basis_factor_rows(t, e3))
        g = types.SimpleNamespace(torus=t, e=e3, tables=tables)
        assert tables.factors[3] == 48 == gerbe_module.factor_digit_bound(t, e3)
        x = [scale, 0, 0, 0]
        ctx = types.SimpleNamespace(gerbe=g, dw=1, x=x, ix=t.mul_i_over(x))
        dre, dim, rows, h0 = tables.factors
        h = rows.times(x)
        assert h == int_vec_mat(x, rows.rows)
        assert h[1 * 4 + 2] == 48 * scale
        triv._check_at_w(ctx)
        # the check reads the gerbe's rows: an entry of row 0 moved by 1
        # moves the factor read off them by scale
        for n in (1 * 4 + 2, 16 + 3):
            bad = [list(row) for row in rows.rows]
            bad[0][n] -= 1
            tables.factors = dre, dim, PackedRows(bad), h0
            with pytest.raises(InternalMismatch):
                triv._check_at_w(ctx)

    def test_bound_reads_e_and_j_once_per_gerbe(self, instance, monkeypatch):
        g, case, vectors = instance
        rows = g.tables.factors  # warm: built once per gerbe
        calls = []
        bound = gerbe_module.factor_digit_bound

        def counting(torus, e3):
            calls.append(e3)
            return bound(torus, e3)

        def forbidden(*args, **kwargs):
            raise AssertionError("the bound read the factor rows")

        monkeypatch.setattr(gerbe_module, "factor_digit_bound", counting)
        # the rows build takes its base from the bound and keeps it beside
        # the rows
        built = gerbe_module.basis_factor_rows(g.torus, g.e)
        assert built[:2] == rows[:2] and built[2].rows == rows[2].rows
        assert built[3] == rows[3] and calls == [g.e]
        fresh = GerbeData(g.torus, g.b, g.e)
        assert fresh.tables.factors[3] == bound(g.torus, g.e)
        assert calls == [g.e, g.e]
        # queries read the cached entry: neither the rows nor the bound again
        monkeypatch.setattr(gerbe_module, "basis_factor_rows", forbidden)
        for w in vectors:
            assert verify_trivialization(TranslationContext.create(fresh, w, case))
        assert calls == [g.e, g.e]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 40).flatmap(
            lambda h: st.tuples(
                st.just(h),
                st.lists(st.integers(-h, h), max_size=8),
                st.integers(-10**6, 10**6),
            )
        )
    )
    def test_property_balanced_digits_read_back_the_packed_values(self, drawn):
        h, values, rest = drawn
        base = 2 * h + 1
        n = sum(v * base**k for k, v in enumerate(values)) + rest * base ** len(values)
        assert gerbe_module.balanced_digits(n, h, len(values)) == [*values, rest]


def oracle_first_failure(ctx, pairs):
    """The first of pairs whose oracle residual is not an integer constant."""
    return next(
        (
            (to_vec(l1), to_vec(l2))
            for l1, l2 in pairs
            if not triv.residual_is_trivial(reference_trivialization_residual(ctx, l1, l2))
        ),
        None,
    )


def is_basis_pair(pair, d) -> bool:
    basis = [basis_vec(d, k) for k in range(d)]
    return pair[0] in basis and pair[1] in basis


class TestIntegerDecision:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_decision_matches_oracle(self, data):
        n = data.draw(st.sampled_from((2, 3)), label="n")
        case = data.draw(st.sampled_from(list(SubgroupCase)), label="case")
        twisted = data.draw(st.booleans(), label="twisted")
        g, vectors = conjugated_instance(n, data.draw(st.integers(0, 2)), case, twisted)
        d = g.torus.dim
        w = list(data.draw(st.sampled_from(vectors), label="w"))
        # a shift by 1/2, 1/4 or 3/4 in one coordinate usually leaves the subgroup
        shift = data.draw(st.sampled_from((F(0), F(1, 2), F(1, 4), F(3, 4))), label="shift")
        w[data.draw(st.integers(0, d - 1))] += shift
        ctx = TranslationContext.create(g, w, case, check=False)
        if data.draw(st.booleans(), label="default pairs"):
            extra, seed = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 99))
            expected = oracle_first_failure(ctx, default_pairs(d, extra, seed))
            # bilinearity: a failure, if any, shows on a basis pair first
            assert expected is None or is_basis_pair(expected, d)
            assert first_failing_pair(ctx, extra_random=extra, seed=seed) == expected
            assert verify_trivialization(ctx, extra_random=extra, seed=seed) is (expected is None)
        else:
            lat = st.tuples(*[st.integers(-3, 3)] * d)
            pairs = data.draw(st.lists(st.tuples(lat, lat), min_size=1, max_size=4))
            assert first_failing_pair(ctx, pairs) == oracle_first_failure(ctx, pairs)

    def test_twisted_instances_have_rational_j(self):
        # the property above covers dj > 1 through the twisted instances
        for n in (2, 3):
            for case in SubgroupCase:
                g, _ = conjugated_instance(n, 1, case, True)
                assert g.torus.j_columns[0] > 1

    def test_decision_never_builds_a_fraction_residual(self, instance, monkeypatch):
        g, case, vectors = instance
        rng = random.Random(41)
        outside = outside_vector(rng, g, case)

        def forbidden(*args, **kwargs):
            raise AssertionError("the decision went through a Fraction wrapper")

        monkeypatch.setattr(triv, "trivialization_residual", forbidden)
        monkeypatch.setattr(triv, "Fraction", forbidden)
        monkeypatch.setattr(gerbe_module, "translation_factor", forbidden)
        d = g.torus.dim
        explicit = [(basis_vec(d, a), basis_vec(d, b)) for a in range(d) for b in range(d)]
        for w in vectors[:2]:
            ctx = TranslationContext.create(g, w, case)
            assert verify_trivialization(ctx) and verify_trivialization(ctx, explicit)
        ctx = TranslationContext.create(g, outside, case, check=False)
        assert not verify_trivialization(ctx)
        assert not verify_trivialization(ctx, explicit)

    def test_corrupted_kernel_fails_on_a_basis_pair(self, instance, monkeypatch):
        # one entry (a, b) of qim, the imaginary quadratic part, of e_k's
        # kernel moves ai of w at (a, b) and (b, a) by -x_k
        g, case, vectors = instance
        d = g.torus.dim
        failed = 0
        for (a, b), k in itertools.product(((0, 0), (1, d - 1)), range(d)):
            fresh = GerbeData(g.torus, g.b, g.e)
            with monkeypatch.context() as patch:
                corrupt_basis_kernel(patch, fresh, case, k, "qim", a, b)
                for w in vectors:
                    ctx = TranslationContext.create(fresh, w, case)
                    expected = (basis_vec(d, min(a, b)), basis_vec(d, max(a, b)))
                    assert first_failing_pair(ctx) == (expected if ctx.x[k] else None)
                    assert verify_trivialization(ctx) is not bool(ctx.x[k])
                    failed += bool(ctx.x[k])
        assert failed

    @pytest.mark.parametrize("name", ["m", "r"])
    def test_corrupted_record_fails_the_identity(self, instance, name, monkeypatch):
        # the residual rows read M and R of the basis records, the
        # translation factor only E and J.  Entry (0, 1) of M_{e_k} moves ar
        # of w at (0, 1) and (1, 0) by -dj*x_k over 4*dj*den; entry (0, 1)
        # of R_{e_k} moves ai at (0, 1) by -4*dj*x_k
        g, case, vectors = instance
        g, d = GerbeData(g.torus, g.b, g.e), g.torus.dim
        ctx = TranslationContext.create(g, vectors[0], case)
        assert verify_trivialization(ctx)
        k = next(k for k, y in enumerate(ctx.x) if y % (4 * ctx.den))
        corrupt_basis_record(monkeypatch, g, case, k, name, 0, 1)
        bad = TranslationContext.create(g, vectors[0], case)
        assert first_failing_pair(bad) == (basis_vec(d, 0), basis_vec(d, 1))
        assert not verify_trivialization(bad)

    def test_random_pair_failing_after_basis_raises(self, instance, monkeypatch):
        g, case, vectors = instance
        d = g.torus.dim
        ctx = TranslationContext.create(g, vectors[0], case)
        e0, off = basis_vec(d, 0), (F(1),) * d

        def is_basis(x) -> bool:
            return sorted(x) == [0] * (d - 1) + [1]

        # a fault in the translation factor at w, away from the basis
        # vectors: the packed check at w raises, with or without random
        # pairs, and before the first explicit pair or single residual
        factor = triv.exponent_over

        def broken_off_basis(torus, e3, a, b, c):
            re, dre, im, dim = factor(torus, e3, a, b, c)
            if not (is_basis(b[1]) and is_basis(c[1])):
                im += 1
            return re, dre, im, dim

        with monkeypatch.context() as patch:
            patch.setattr(triv, "exponent_over", broken_off_basis)
            for extra in (10, 0):
                with pytest.raises(InternalMismatch):
                    verify_trivialization(ctx, extra_random=extra)
            with pytest.raises(InternalMismatch):
                first_failing_pair(ctx, seed=7)
            for pairs in ([(e0, e0), (off, e0)], [(off, e0)], [(e0, e0)]):
                with pytest.raises(InternalMismatch):
                    first_failing_pair(ctx, pairs)
            for l1, l2 in ((off, e0), (e0, e0)):
                with pytest.raises(InternalMismatch):
                    trivialization_residual(ctx, l1, l2)

        # a fault in the flattened imaginary half of the residual as a
        # random pair reads it, off the basis: the pair's imaginary part
        # moves by 1 when its Kronecker list has more than one nonzero
        # entry.  The seeded pairs are integer combinations of the basis
        # entries just cleared, so only a fault in this reading fails one.
        residual, dot, halves = triv._residual, triv.int_dot, []

        def recording(ctx):
            k, re, im = residual(ctx)
            halves.append(im)
            return k, re, im

        def broken_half(u, v):
            y = dot(u, v)
            if any(v is fim for fim in halves) and sum(map(bool, u)) > 1:
                y += 1
            return y

        for seed in (0, 7):
            drawn = random_verification_pairs(d, 10, seed)
            assert any(sum(map(bool, l1)) * sum(map(bool, l2)) > 1 for l1, l2 in drawn)
        with monkeypatch.context() as patch:
            patch.setattr(triv, "_residual", recording)
            patch.setattr(triv, "int_dot", broken_half)
            with pytest.raises(InternalMismatch):
                verify_trivialization(ctx)
            with pytest.raises(InternalMismatch):
                first_failing_pair(ctx, seed=7)
            # without random pairs the basis and the check at w decide
            assert verify_trivialization(ctx, extra_random=0)
            # explicit pairs read the same halves: the fault shows on the
            # first pair whose Kronecker list has two nonzero entries
            assert first_failing_pair(ctx, [(e0, e0), (off, e0)]) == (off, e0)
        assert first_failing_pair(ctx, [(e0, e0), (off, e0)]) is None

    def test_internal_mismatch_lives_below_trivialization(self):
        import torusgerbe
        import torusgerbe.exact as exact
        import torusgerbe.obstruction as obstruction

        assert exact.InternalMismatch is obstruction.InternalMismatch
        assert torusgerbe.InternalMismatch is exact.InternalMismatch
        assert triv.InternalMismatch is exact.InternalMismatch

    def test_explicit_pairs_raise_as_before(self, instance):
        g, case, vectors = instance
        ctx = TranslationContext.create(g, vectors[0], case)
        d = g.torus.dim
        e0, half = basis_vec(d, 0), (F(1, 2),) + (F(0),) * (d - 1)
        with pytest.raises(ValueError, match="l1 must be a lattice"):
            first_failing_pair(ctx, [(e0, e0), (half, e0)])
        with pytest.raises(ValueError, match="l2 must be a lattice"):
            verify_trivialization(ctx, [(e0, half)])
        with pytest.raises(ValueError, match="dimension mismatch"):
            first_failing_pair(ctx, [(e0, basis_vec(d + 1, 0))])
        # the same messages as translation_factor, which checked them before
        for l1, l2 in ((half, e0), (e0, half), (e0, basis_vec(d + 1, 0))):
            with pytest.raises(ValueError) as new:
                first_failing_pair(ctx, [(l1, l2)])
            with pytest.raises(ValueError) as old:
                translation_factor(g, vectors[0], l1, l2)
            assert str(new.value) == str(old.value)
