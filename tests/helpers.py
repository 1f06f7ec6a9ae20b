"""Shared fixtures and independent oracles for the test suite.

Oracles here recompute expected values straight from the defining formulas
(full multilinear expansion, brute-force searches) without going through
the package's covector-based code paths.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from torusgerbe import (
    AltForm2,
    AltForm3,
    Character,
    ClosedFormMismatch,
    ExponentFn,
    GaussianRational,
    GerbeData,
    NotInSubgroup,
    ObstructionContext,
    SubgroupCase,
    TorusData,
    TranslationContext,
    case_decomposition,
    check_complex_structure,
    contract3,
    in_case_subgroup,
    integral_part_exponent,
    invariant_part_exponent,
    j_pullback2,
    symmetric_part_exponent,
    unitarize_exponent,
)
from torusgerbe.torus import pullback_combination, pullback_over
from torusgerbe.forms import AlternatingTable
from torusgerbe.trivialization import _Basis, _basis_records, _basis_row
from torusgerbe.exact import (
    Mat,
    PackedRows,
    Vec,
    basis_vec,
    dot,
    hermite_normal_form,
    identity_mat,
    int_dot,
    int_vec_mat,
    mat_mul,
    mat_vec,
    to_fraction,
    to_mat,
    to_vec,
    vec_add,
    vec_is_zero,
)

F = Fraction

J4_ROWS = [
    [0, -1, 0, 0],
    [1, 0, 0, 0],
    [0, 0, 0, -1],
    [0, 0, 1, 0],
]

J6_ROWS = [
    [0, 0, 0, -1, 0, 0],
    [0, 0, 0, 0, -1, 0],
    [0, 0, 0, 0, 0, -1],
    [1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0],
]


def standard_j_rows(n: int) -> list[list[int]]:
    """J e_k = e_{n+k}, J e_{n+k} = -e_k."""
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        rows[n + k][k] = 1
        rows[k][n + k] = -1
    return rows


def twisted_torus(n: int, seed: int) -> TorusData:
    """J = P*J0*P^-1 for the standard J0 and a seeded rational P that is a
    product of 2n elementary matrices I + t*e_ab (a < b)."""
    rng = random.Random(f"twisted:{n}:{seed}")
    dim = 2 * n
    j = [[F(x) for x in row] for row in standard_j_rows(n)]
    for _ in range(dim):
        a, b = sorted(rng.sample(range(dim), 2))
        t = F(rng.choice((-1, 1)), rng.choice((1, 2, 3)))
        # conjugate by I + t*e_ab: add t*(row b) to row a, then subtract
        # t*(column a) from column b
        j[a] = [x + t * y for x, y in zip(j[a], j[b])]
        for row in j:
            row[b] -= t * row[a]
    return check_complex_structure(j)


def compatible_altform3(rng: random.Random, torus: TorusData, terms: int = 2) -> AltForm3:
    """A random rational 3-form passing the type condition: a sum of
    alpha ^ omega with alpha a 1-form and omega a J-invariant 2-form.  Such
    a form has types (2,1) + (1,2) only, which is what the condition asks."""
    dim = torus.dim
    coeffs = {}
    for _ in range(terms):
        alpha = rand_rational_vec(rng, dim)
        f = rand_altform2(rng, dim)
        omega = (f + j_pullback2(torus, f)).entries
        for a, b, c in itertools.combinations(range(dim), 3):
            coeffs[(a, b, c)] = coeffs.get((a, b, c), F(0)) + (
                alpha[a] * omega[b][c] - alpha[b] * omega[a][c] + alpha[c] * omega[a][b]
            )
    return AltForm3.from_coeffs(dim, coeffs)


def conjugated_instance(
    n: int, seed: int, case: SubgroupCase, twisted: bool, count: int = 4
) -> tuple[GerbeData, list[Vec]]:
    """A gerbe on J = P*J0*P^-1 with `count` nonzero vectors of the case
    subgroup.

    J0 is J4_ROWS (n = 2) or J6_ROWS (n = 3).  P is the identity, or, when
    twisted, a seeded product of 2n elementary matrices I + t*e_ab.  The
    3-form is E = c * E0(P^-1 ., P^-1 ., P^-1 .) for a base form E0 on J0
    and an even integer c that makes it integral; the contraction of E by
    P*w0 is the pullback of the contraction of c*E0 by w0, so it keeps its
    type.  Type (1,1) case: E0 is the n = 2 family {(0,2,3), (1,2,3)} with
    w0 in span(e1, e2), or `oneone_e6` with w0 in span(e1, e2, e4, e5).
    Integral case: E0 is a random compatible form and the vectors lie in
    (1/2)*Z^2n, whose contractions are integral because c/2 clears E0.
    """
    rng = random.Random(f"conjugated:{n}:{seed}:{case.value}:{twisted}")
    dim = 2 * n
    j0 = check_complex_structure(J4_ROWS if n == 2 else J6_ROWS)
    p = [list(r) for r in identity_mat(dim)]
    q = [list(r) for r in identity_mat(dim)]  # P^-1
    for _ in range(dim if twisted else 0):
        a, b = rng.sample(range(dim), 2)
        t = F(rng.choice((-1, 1)), rng.choice((1, 2, 3)))
        # P <- P*(I + t*e_ab), P^-1 <- (I - t*e_ab)*P^-1
        for row in p:
            row[b] += t * row[a]
        q[a] = [x - t * y for x, y in zip(q[a], q[b])]
    j = mat_mul(p, mat_mul(j0.j, q))
    if case is SubgroupCase.TYPE_ONE_ONE:
        if n == 2:
            e0 = AltForm3.from_coeffs(
                4, {(0, 2, 3): rng.choice((-2, -1, 1, 2)), (1, 2, 3): rng.randint(-2, 2)}
            )
            support = (0, 1)
        else:
            e0 = oneone_e6()
            support = (0, 1, 3, 4)
    else:
        e0 = compatible_altform3(rng, j0)
        support = tuple(range(dim))
    cols = [tuple(row[a] for row in q) for a in range(dim)]
    pulled = {
        (a, b, c): e0.evaluate(cols[a], cols[b], cols[c])
        for a, b, c in itertools.combinations(range(dim), 3)
    }
    c = 2 * lcm(*(v.denominator for v in pulled.values()))
    g = GerbeData(
        check_complex_structure(j),
        AltForm2.zero(dim),
        AltForm3.from_coeffs(dim, {k: c * v for k, v in pulled.items()}),
    )
    vectors = []
    while len(vectors) < count:
        w0 = tuple(
            F(rng.randint(-2, 2), rng.choice((1, 2))) if k in support else F(0)
            for k in range(dim)
        )
        w = mat_vec(p, w0) if case is SubgroupCase.TYPE_ONE_ONE else w0
        if any(w) and w not in vectors:
            assert in_case_subgroup(g.torus, g.e, w, case)
            vectors.append(w)
    return g, vectors


def torus4() -> TorusData:
    return check_complex_structure(J4_ROWS)


def torus6() -> TorusData:
    return check_complex_structure(J6_ROWS)


def e123(scale: int = 1) -> AltForm3:
    return AltForm3.from_coeffs(4, {(0, 1, 2): scale})


def oneone_e6() -> AltForm3:
    """n=3 integral 3-form passing the type condition whose contractions
    with the rational span of e1, e2, e4, e5 are all of type (1,1)."""
    return AltForm3.from_coeffs(
        6, {(0, 1, 2): 1, (2, 3, 4): -1, (0, 4, 5): 1, (1, 3, 5): -1}
    )


def gerbe4(e_scale: int = 1, b: AltForm2 | None = None) -> GerbeData:
    t = torus4()
    return GerbeData(t, b if b is not None else AltForm2.zero(4), e123(e_scale))


def gerbe6() -> GerbeData:
    t = torus6()
    return GerbeData(t, AltForm2.zero(6), oneone_e6())


def vec(*entries) -> Vec:
    return to_vec(entries)


def e(dim: int, k: int) -> Vec:
    """Standard basis vector, 1-based index."""
    return basis_vec(dim, k - 1)


def rand_vec(rng: random.Random, dim: int, lo: int = -3, hi: int = 3) -> Vec:
    return tuple(F(rng.randint(lo, hi)) for _ in range(dim))


def rand_rational_vec(rng: random.Random, dim: int) -> Vec:
    return tuple(
        F(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(dim)
    )


def rand_altform2(rng: random.Random, dim: int) -> AltForm2:
    coeffs = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            coeffs[(a, b)] = F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
    return AltForm2.from_pairs(dim, coeffs)


def rand_altform3_int(rng: random.Random, dim: int, lo: int = -2, hi: int = 2, even: bool = False) -> AltForm3:
    coeffs = {}
    for t in itertools.combinations(range(dim), 3):
        c = rng.randint(lo, hi)
        if even:
            c = 2 * rng.randint(lo // 2, hi // 2)
        coeffs[t] = c
    return AltForm3.from_coeffs(dim, coeffs)


def sample_integral_instance(rng: random.Random) -> tuple[GerbeData, Vec]:
    """Random n=2 gerbe with integer 3-form coefficients in [-2, 2] and a
    random vector in the integral-contraction subgroup."""
    t = torus4()
    while True:
        halved = rng.randint(0, 1)
        e3 = rand_altform3_int(rng, 4, even=bool(halved))
        d = 2 if halved else 1
        w = tuple(F(rng.randint(-2, 2), d) for _ in range(4))
        if all(x == 0 for x in w):
            continue
        if in_case_subgroup(t, e3, w, SubgroupCase.INTEGRAL):
            return GerbeData(t, AltForm2.zero(4), e3), w


def sample_case_vector(
    rng: random.Random, g: GerbeData, case: SubgroupCase
) -> Vec:
    """A random nonzero vector of the case subgroup for this gerbe."""
    dim = g.torus.dim
    while True:
        if case is SubgroupCase.INTEGRAL:
            d = rng.choice([1, 2])
            w = tuple(F(rng.randint(-2, 2), d) for _ in range(dim))
        elif dim == 6:
            w = tuple(
                F(rng.randint(-2, 2), rng.choice([1, 2]))
                if k in (0, 1, 3, 4)
                else F(0)
                for k in range(dim)
            )
        else:
            w = (
                F(rng.randint(-2, 2), rng.choice([1, 2, 3])),
                F(rng.randint(-2, 2), rng.choice([1, 2, 3])),
                F(0),
                F(0),
            )
        if any(w) and in_case_subgroup(g.torus, g.e, w, case):
            return w


def sample_oneone_instance(rng: random.Random) -> tuple[GerbeData, Vec]:
    """Random instance in the type (1,1) subgroup: either the n=2 family
    with contractions in the invariant span, or the n=3 fixture."""
    if rng.randint(0, 1):
        t = torus4()
        e3 = AltForm3.from_coeffs(
            4,
            {(0, 2, 3): rng.randint(-2, 2), (1, 2, 3): rng.randint(-2, 2)},
        )
        w = (
            F(rng.randint(-2, 2), rng.choice([1, 2, 3])),
            F(rng.randint(-2, 2), rng.choice([1, 2, 3])),
            F(0),
            F(0),
        )
        g = GerbeData(t, AltForm2.zero(4), e3)
    else:
        g = gerbe6()
        w = tuple(
            F(rng.randint(-2, 2), rng.choice([1, 2])) if k in (0, 1, 3, 4) else F(0)
            for k in range(6)
        )
    assert in_case_subgroup(g.torus, g.e, w, SubgroupCase.TYPE_ONE_ONE)
    return g, w


# ---------------------------------------------------------------- oracles

def reference_exponent_re(torus: TorusData, e3: AltForm3, a, b, c) -> Fraction:
    """(E(a,b,c) + E(ia,ib,c)/2 + E(ia,b,ic)/2) / 8, each term a trilinear
    AltForm3.evaluate on dense Fraction J-images."""
    a, b, c = to_vec(a), to_vec(b), to_vec(c)
    ia = torus.mul_i(a)
    return (
        e3.evaluate(a, b, c)
        + e3.evaluate(ia, torus.mul_i(b), c) / 2
        + e3.evaluate(ia, b, torus.mul_i(c)) / 2
    ) / 8


def reference_exponent_im(torus: TorusData, e3: AltForm3, a, b, c) -> Fraction:
    """(E(a,ib,c)/2 + E(a,b,ic)/2 - E(ia,b,c)) / 8, trilinear as above."""
    a, b, c = to_vec(a), to_vec(b), to_vec(c)
    return (
        e3.evaluate(a, torus.mul_i(b), c) / 2
        + e3.evaluate(a, b, torus.mul_i(c)) / 2
        - e3.evaluate(torus.mul_i(a), b, c)
    ) / 8


def oracle_pair_exponent(
    torus: TorusData, e3: AltForm3, v: Vec, l1: Vec, l2: Vec
) -> GaussianRational:
    """Term-by-term expansion of the canonical exponent at v: the defining
    six-term formula evaluated wholesale, independent of covector caching."""
    return GaussianRational(
        reference_exponent_re(torus, e3, v, l1, l2),
        reference_exponent_im(torus, e3, v, l1, l2),
    )


def reference_trivializing_exponent(ctx, lam: Vec) -> ExponentFn:
    """The trivializer at a lattice vector as the sum of its four public
    factor functions."""
    fn = unitarize_exponent(ctx, lam) + invariant_part_exponent(ctx, lam)
    return fn.add_const(
        GaussianRational.real(
            symmetric_part_exponent(ctx, lam) + integral_part_exponent(ctx, lam)
        )
    )


def reference_trivialization_residual(ctx, l1: Vec, l2: Vec) -> ExponentFn:
    """The trilinear translation factor plus the coboundary of the
    factor-sum trivializer, composed as ExponentFn operations."""
    l1, l2 = to_vec(l1), to_vec(l2)
    r = (
        reference_trivializing_exponent(ctx, l2).shift(l1)
        - reference_trivializing_exponent(ctx, vec_add(l1, l2))
        + reference_trivializing_exponent(ctx, l1)
    )
    g, w = ctx.gerbe, ctx.w
    return r.add_const(oracle_pair_exponent(g.torus, g.e, w, l1, l2))


def oracle_membership_search(
    generators: list[Vec], target: Vec, bound: int
) -> tuple[int, ...] | None:
    """Brute-force integer combination search with |coefficient| <= bound.

    Denominators are cleared once up front so the enumeration runs over
    plain integers.
    """
    from math import lcm

    dims = len(target)
    denoms = [x.denominator for g in generators for x in g]
    denoms += [x.denominator for x in target]
    d = lcm(*denoms) if denoms else 1
    gens_i = [tuple(int(x * d) for x in g) for g in generators]
    target_i = tuple(int(x * d) for x in target)
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(generators)):
        acc = [0] * dims
        for c, g in zip(coeffs, gens_i):
            if c:
                for k in range(dims):
                    acc[k] += c * g[k]
        if tuple(acc) == target_i:
            return coeffs
    return None


def reference_type_condition(torus: TorusData, e3: AltForm3) -> bool:
    """The type condition by its definition: for every increasing basis
    triple, the trilinear E(x,y,z) against E(ix,iy,z) + E(x,iy,iz) +
    E(ix,y,iz), each side evaluated in dense rational arithmetic."""
    basis = torus.basis()
    jbasis = tuple(torus.mul_i(b) for b in basis)
    for a, b, c in itertools.combinations(range(torus.dim), 3):
        lhs = e3.evaluate(basis[a], basis[b], basis[c])
        rhs = (
            e3.evaluate(jbasis[a], jbasis[b], basis[c])
            + e3.evaluate(basis[a], jbasis[b], jbasis[c])
            + e3.evaluate(jbasis[a], basis[b], jbasis[c])
        )
        if lhs != rhs:
            return False
    return True


def reference_membership(generators: list[Vec], target: Vec) -> tuple[int, ...] | None:
    """Lattice membership reduced afresh for one target: clear the
    denominators of generators and target together, take the Hermite normal
    form, back-substitute, and map the solution back through U."""
    from math import lcm

    d = lcm(*(x.denominator for g in generators for x in g), *(x.denominator for x in target))
    g_int = [[int(x * d) for x in g] for g in generators]
    residual = [int(x * d) for x in target]
    if not g_int:
        return None if any(residual) else ()
    h, u = hermite_normal_form(g_int)
    y = [0] * len(g_int)
    for r, row in enumerate(h):
        pivot = next((c for c, x in enumerate(row) if x), None)
        if pivot is None:
            break
        if residual[pivot] % row[pivot]:
            return None
        y[r] = residual[pivot] // row[pivot]
        residual = [x - y[r] * z for x, z in zip(residual, row)]
    if any(residual):
        return None
    return tuple(sum(y[r] * u[r][i] for r in range(len(y))) for i in range(len(y)))


def dense_member_over(generators: list[Vec], nums, den: int) -> tuple[int, ...] | None:
    """`ReducedLattice.member_over` as it ran before it kept sparse rows:
    the generators scaled by the lcm of their denominators, their Hermite
    normal form, back-substitution over whole rows of H, the coefficients
    y*U summed over every row of U and the witness c*G checked on every
    coordinate, all dense."""
    scale = lcm(*(x.denominator for g in generators for x in g))
    g_int = tuple(tuple(int(x * scale) for x in g) for g in generators)
    h, u = hermite_normal_form(g_int)
    dim = len(nums)
    t_int = []
    for x in nums:
        q, rem = divmod(x * scale, den)
        if rem:
            return None
        t_int.append(q)
    residual = list(t_int)
    y = []
    for row in h:
        if not any(row):
            break
        pivot = next(c for c, x in enumerate(row) if x)
        q, rem = divmod(residual[pivot], row[pivot])
        if rem:
            return None
        y.append(q)
        for k in range(pivot, dim):
            residual[k] -= q * row[k]
    if any(residual):
        return None
    coeffs = tuple(sum(yr * ur[i] for yr, ur in zip(y, u)) for i in range(len(g_int)))
    for k in range(dim):
        if sum(c * g[k] for c, g in zip(coeffs, g_int)) != t_int[k]:
            raise AssertionError("lattice_membership produced a bad witness")
    return coeffs


# The per-basis forms of the canonical exponent that the package evaluated
# before it built one bilinear form per vector; each reads E, the case
# decomposition and the trilinear reference_exponent_im directly.

def _reference_member_invariant(g: GerbeData, case: SubgroupCase, w: Vec) -> AltForm2:
    if not in_case_subgroup(g.torus, g.e, w, case):
        raise NotInSubgroup("vector is not in the chosen subgroup")
    return case_decomposition(g.torus, g.e, w, case, check=False).invariant_part


def reference_im_covector(ctx, lam: Vec) -> Vec:
    """Entries l(w, e_k, lam) of a TranslationContext's imaginary exponent
    part, via the contractions omega = E(w,.,.) and omega_j = E(iw,.,.)."""
    t, w = ctx.gerbe.torus, ctx.w
    omega, omega_j = contract3(ctx.gerbe.e, w), contract3(ctx.gerbe.e, t.mul_i(w))
    a = mat_vec(t.jt, omega.apply(lam))  # omega(J e_k, lam)
    b = omega.apply(t.mul_i(lam))  # omega(e_k, J lam)
    c = omega_j.apply(lam)  # omega_j(e_k, lam)
    return tuple((x / 2 + y / 2 - z) / 8 for x, y, z in zip(a, b, c))


def reference_im_covector_j(ctx, lam: Vec) -> Vec:
    """Entries l(w, J e_k, lam)."""
    t, w = ctx.gerbe.torus, ctx.w
    omega, omega_j = contract3(ctx.gerbe.e, w), contract3(ctx.gerbe.e, t.mul_i(w))
    a = omega.apply(lam)  # omega(e_k, lam); omega(JJ e_k, lam) = -a_k
    b = mat_vec(t.jt, omega.apply(t.mul_i(lam)))  # omega(J e_k, J lam)
    c = mat_vec(t.jt, omega_j.apply(lam))  # omega_j(J e_k, lam)
    return tuple((-x / 2 + y / 2 - z) / 8 for x, y, z in zip(a, b, c))


def reference_defect_correction_fn(ctx, w1: Vec, w2: Vec) -> ExponentFn:
    """i*l(w2,w1,v) + l(w2,w1,iv) - i/2*F2(iw1,v) - 1/2*F2(iw1,iv), one
    trilinear reference_exponent_im per basis vector and slot."""
    g, t = ctx.gerbe, ctx.gerbe.torus
    w1, w2 = to_vec(w1), to_vec(w2)
    _reference_member_invariant(g, ctx.case, w1)
    f2 = _reference_member_invariant(g, ctx.case, w2)
    iw1 = t.mul_i(w1)
    basis = t.basis()
    lin_im = tuple(
        reference_exponent_im(t, g.e, w2, w1, ek) - f2.evaluate(iw1, ek) / 2
        for ek in basis
    )
    lin_re = tuple(
        reference_exponent_im(t, g.e, w2, w1, t.mul_i(ek))
        - f2.evaluate(iw1, t.mul_i(ek)) / 2
        for ek in basis
    )
    return ExponentFn(GaussianRational.real(0), lin_re, lin_im)


def reference_lift_defect_exponent(ctx, w1: Vec, w2: Vec, lam: Vec) -> GaussianRational:
    """The defect exponent at one vector lam, by its per-vector formula

        i/2*F2(iw1,lam) - 1/2*F2(w1,lam) - i*l(w2,w1,lam) - l(w2,iw1,lam)

    with F2 the (1,1) piece of the decomposition of w2 and l the trilinear
    reference_exponent_im; lam is not checked."""
    g, t = ctx.gerbe, ctx.gerbe.torus
    w1, w2, lam = to_vec(w1), to_vec(w2), to_vec(lam)
    _reference_member_invariant(g, ctx.case, w1)
    f2 = _reference_member_invariant(g, ctx.case, w2)
    iw1 = t.mul_i(w1)
    re = -f2.evaluate(w1, lam) / 2 - reference_exponent_im(t, g.e, w2, iw1, lam)
    im = f2.evaluate(iw1, lam) / 2 - reference_exponent_im(t, g.e, w2, w1, lam)
    return GaussianRational(re, im)


def reference_first_obstruction_character(ctx, w1: Vec, w2: Vec) -> Character:
    """lam -> exp((E(iw2,iw1,lam) - E(iw2,w1,i*lam))/8 - F2(w1,lam)) with E
    evaluated on each basis vector."""
    g, t = ctx.gerbe, ctx.gerbe.torus
    w1, w2 = to_vec(w1), to_vec(w2)
    _reference_member_invariant(g, ctx.case, w1)
    f2 = _reference_member_invariant(g, ctx.case, w2)
    iw1, iw2 = t.mul_i(w1), t.mul_i(w2)
    return Character(
        tuple(
            GaussianRational.real(
                (g.e.evaluate(iw2, iw1, ek) - g.e.evaluate(iw2, w1, t.mul_i(ek))) / 8
                - f2.evaluate(w1, ek)
            )
            for ek in t.basis()
        )
    )


def reference_second_skew(ctx, w1: Vec, w2: Vec, w3: Vec) -> GaussianRational:
    """The degree-3 cocycle alternated over the six permutations, each term
    a full correction exponent built per basis vector and evaluated at a."""
    w1, w2, w3 = to_vec(w1), to_vec(w2), to_vec(w3)
    total = GaussianRational.real(0)
    for (a, b, c), sign in (
        ((w1, w2, w3), 1),
        ((w1, w3, w2), -1),
        ((w2, w3, w1), 1),
        ((w2, w1, w3), -1),
        ((w3, w1, w2), 1),
        ((w3, w2, w1), -1),
    ):
        term = reference_defect_correction_fn(ctx, b, c).evaluate(a)
        total = total + (term if sign > 0 else -term)
    return total


def reference_second_alternating(ctx, d1, d2, d3):
    """((den, skew_re, skew_im, general, closed), flags): the three values
    on a triple as numerators over one denominator, and whether skew and
    general, skew and closed, and general and closed agree.  Each skew term
    is the correction covector r = b^T*R_c at a: r.(ia) + i*r.a."""
    skew_re = skew_im = 0
    signs = (1, -1, -1, 1, 1, -1)  # of the permutations, in lexicographic order
    for (a, b, c), sign in zip(itertools.permutations((d1, d2, d3)), signs):
        r = int_vec_mat(b.x, c.r)
        skew_re += sign * int_dot(r, a.ix)
        skew_im += sign * int_dot(r, a.x)
    x1, x2, x3 = d1.x, d2.x, d3.x
    general = int_dot(int_vec_mat(x1, d3.f), x2) + int_dot(int_vec_mat(x2, d1.f), x3)
    general -= int_dot(int_vec_mat(x1, d2.f), x3)
    dj = ctx.gerbe.torus.j_columns[0]
    dws = d1.dw * d2.dw * d3.dw
    den = dj * d1.den * d2.dw * d3.dw  # dj*dws times the records' shared scale
    e_num, de = ctx.gerbe.e.evaluate_over(x1, x2, x3)
    coef = -9 if ctx.case is SubgroupCase.INTEGRAL else 36
    closed = coef * e_num * (den // (de * dws))
    skew_im, general = dj * skew_im, 3 * dj * general
    real = skew_im == 0
    flags = (
        real and (skew_re - general) % den == 0,
        real and (skew_re - closed) % den == 0,
        (general - closed) % den == 0,
    )
    return (den, skew_re, skew_im, general, closed), flags


def obstruction_candidates(g, spec):
    """(ctx, [(w, record)]): the candidates of a query, in the order
    `obstruction_vanishes` takes them (generators, then the admissible
    lattice basis vectors, each distinct vector once)."""
    ctx = ObstructionContext(g, spec.case)
    found = {}
    for w in spec.generators:
        data = ctx.require_member(w)
        found.setdefault((data.dw, *data.x), (w, data))
    for data in basis_records(g, spec.case):
        if data.member:
            found.setdefault((data.dw, *data.x), (data.w, data))
    return ctx, list(found.values())


def decided(result) -> tuple:
    """The fields of a `VanishingResult` as a tuple."""
    return (
        result.vanishes,
        result.certificate,
        result.tuples_checked,
        result.cross_check_disagreements,
    )


# the fields of a `TranslationContext` built on first read, on every
# record, the basis records included
RECORD_LAZY = ("member", "omega", "f", "m", "r")


def basis_records(g: GerbeData, case) -> tuple:
    """The records of the lattice basis vectors e_1..e_d as g's, unchecked:
    the basis's own records when g built the basis, else g's lifts."""
    return tuple([TranslationContext.create(g, ek, case, check=False) for ek in g.torus.basis()])


def replace_fields(obj, **changes):
    """A new value object of obj's class with the named fields changed,
    built by the class's constructor from its fields in order.  A record's
    fields of `RECORD_LAZY` are changed, or kept where obj holds them, in
    the new record's instance dict."""
    names = type(obj)._fields
    lazy = RECORD_LAZY if isinstance(obj, TranslationContext) else ()
    unknown = set(changes) - set(names) - set(lazy)
    if unknown:
        raise TypeError(f"{type(obj).__name__} has no fields {sorted(unknown)}")
    new = type(obj)(*[changes.get(name, getattr(obj, name)) for name in names])
    held = {name: vars(obj)[name] for name in lazy if name in vars(obj)}
    vars(new).update(held, **{name: changes[name] for name in lazy if name in changes})
    return new


def corrupt_record(ctx, w, name: str, p: int, q: int, delta: int = 1):
    """Add delta / den to entry (p, q) of the matrix `name` of w's record
    cached on the obstruction context."""
    data = ctx.vector(w)
    m = [list(row) for row in getattr(data, name)]
    m[p][q] += delta
    key = next(k for k, v in ctx._vectors.items() if v is data)
    ctx._vectors[key] = replace_fields(data, **{name: m})


def corrupt_basis_record(monkeypatch, g, case, k: int, name: str, p: int, q: int):
    """Add 1/den to entry (p, q) of the matrix `name` (omega, f, m or r) of
    e_k in the basis rows kept in the gerbe's tables, so every record,
    e_k's included, reads it."""
    basis, d = _basis_records(g, case), g.torus.dim
    rows = [list(row) for row in basis.rows.rows]
    rows[k][("omega", "f", "m", "r").index(name) * d * d + p * d + q] += 1
    corrupted = _Basis(basis.gerbe, basis.case, basis.den, PackedRows(rows))
    monkeypatch.setitem(g.tables.bases, case, corrupted)


def minor3(xs, cols) -> int:
    """The determinant of the rows xs (three integer vectors) on cols."""
    (a, b, c), (d, e, f), (g, h, i) = ([x[j] for j in cols] for x in xs)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def corrupt_table_row(monkeypatch, g, case, build, place: int, column: int, delta: int = 1):
    """Add delta / den to entry column of row place of the obstruction table
    `build` (`obstruction._pair_rows` or `_triple_rows`) kept with the
    gerbe's basis records, in its packed rows and in its signed unit rows
    alike."""
    basis = _basis_records(g, case)
    table = basis.table(build)
    rows = [list(row) for row in table.packed.rows]
    rows[place][column] += delta
    d, rank = g.torus.dim, len(next(iter(table.units)))
    made = vars(basis)["_made"]
    monkeypatch.setitem(made, build, AlternatingTable(table.den, rows, rank, d, len(rows[0])))


# The per-vector record and the obstruction values as the package computed
# them before the alternating tables: every matrix of a record built at
# once from the basis records, FIRST by three products per pair of
# records, and SECOND by tables built per query over its records.

def _cut_record(flat, d: int, den: int, case: SubgroupCase) -> dict:
    """The fields member, omega, f, m and r of a record whose four matrices
    over den are flattened in flat: the matrices cut out, and the
    membership read off omega and f over den."""
    omega, f, m, r = (
        [flat[k : k + d] for k in range(s, s + d * d, d)] for s in range(0, 4 * d * d, d * d)
    )
    if case is SubgroupCase.INTEGRAL:
        member = not any(y % den for row in omega for y in row)
    else:
        member = all(4 * y == z for fr, row in zip(f, omega) for y, z in zip(fr, row))
    return dict(member=member, omega=omega, f=f, m=m, r=r)


def reference_record(g: GerbeData, w: Vec, case: SubgroupCase) -> dict:
    """The fields member, omega, f, m and r of w's record, built eagerly:
    x^T times the basis's packed rows, cut into the four matrices."""
    dw, x, _ = g.torus.lift(to_vec(w))
    basis = _basis_records(g, case)
    return _cut_record(basis.rows.times(x), len(x), dw * basis.den, case)


def direct_record(g: GerbeData, w: Vec, case: SubgroupCase) -> TranslationContext:
    """w's record with its fields member, omega, f, m and r built from the
    contractions of E by w and iw themselves (`trivialization._basis_row`,
    which the package runs at the basis vectors only), not read off the
    basis rows: a new object, whatever w is."""
    record = TranslationContext.create(g, w, case, check=False)
    flat = _basis_row(g, record.w, case, record.den)
    return replace_fields(record, **_cut_record(flat, len(record.x), record.den, case))


def reference_first_alternating(ctx, d1, d2):
    """(den, skew) of the first obstruction on the records d1, d2 by three
    products: x1^T*M_w2 - x2^T*M_w1, checked against x1^T*E(w2,.,.) in the
    integral case and x2^T*E(w1,.,.) in the type (1,1) case; raises
    ClosedFormMismatch as the package does."""
    den = d1.dw * d2.den
    skew = [a - b for a, b in zip(int_vec_mat(d1.x, d2.m), int_vec_mat(d2.x, d1.m))]
    x, w = (d1, d2) if ctx.case is SubgroupCase.INTEGRAL else (d2, d1)
    if any((s - c) % den for s, c in zip(skew, int_vec_mat(x.x, w.omega))):
        raise ClosedFormMismatch(
            "first obstruction: skew-symmetrization disagrees with the closed form"
        )
    return den, skew


def reference_second_triples(ctx, records) -> list[tuple[int, int, int, int]]:
    """(den, skew_re, skew_im, closed) for each triple of the records, in
    lexicographic order, from tables built over the records: b^T*R_c at
    the columns (ia, a) of every record a for each ordered pair (b, c), and
    E(i, j, k) off E(i,.,.) entry by entry (`reference_contract_matrix`),
    each alternated over the six permutations."""
    n = len(records)
    if n < 3:
        return []
    xs = [d.x for d in records]
    cols = [list(c) for c in zip(*xs)]
    block = [[*i, *c] for i, c in zip(zip(*[d.ix for d in records]), cols)]
    re, im = [[None] * n for _ in range(n)], [[None] * n for _ in range(n)]
    for b, c in itertools.permutations(range(n), 2):
        row = int_vec_mat(int_vec_mat(xs[b], records[c].r), block)
        re[b][c], im[b][c] = row[:n], row[n:]

    def alternate(t, i, j, k):
        return (
            t[j][k][i] - t[k][j][i] - t[i][k][j] + t[k][i][j] + t[i][j][k] - t[j][i][k]
        )

    dj = ctx.gerbe.torus.j_columns[0]
    coef = -9 if ctx.case is SubgroupCase.INTEGRAL else 36
    out = []
    for i, di in enumerate(records[:-2]):
        m = reference_contract_matrix(ctx.gerbe.e, di.x)  # E(x_i,.,.)
        unit = F(coef * dj * di.den, di.dw)  # coef*dj*den_i/dw_i, den_i = dw_i*den0
        for j in range(i + 1, n - 1):
            e_row = [dot(xs[j], col) for col in zip(*m)]  # E(x_i, x_j, .)
            dij = dj * di.den * records[j].dw
            for k in range(j + 1, n):
                den = dij * records[k].dw
                re_k, im_k = alternate(re, i, j, k), dj * alternate(im, i, j, k)
                closed = unit * dot(e_row, xs[k])
                assert closed.denominator == 1
                out.append((den, re_k, im_k, closed.numerator))
    return out


def reference_j_pullback2(torus: TorusData, omega: AltForm2) -> AltForm2:
    """J^T*omega*J by two dense Fraction matrix products."""
    return AltForm2(mat_mul(torus.jt, mat_mul(omega.entries, torus.j)))


class _CountedRows:
    """A form's packed contraction table that records (form, nums) of each
    product before it multiplies."""

    def __init__(self, e3: AltForm3, rows, calls: list):
        self.e3, self.rows, self.calls = e3, rows, calls

    def times(self, nums):
        self.calls.append((self.e3, tuple(nums)))
        return self.rows.times(nums)


def count_contractions(monkeypatch) -> list:
    """Patch the contraction core of `AltForm3` to record (form, nums) of
    each contraction in the returned list: a product with
    `contraction_table`, which `contract3`, `evaluate_over` and
    `gerbe.forms_over` run (the basis rows contract E by e_k and i*e_k).
    Building the table runs `contract_pairs` once per basis vector; that
    is not a contraction of a queried vector and is not recorded."""
    calls = []
    table = AltForm3.contraction_table

    def counted_table(e3):
        de, rows = table.__get__(e3, AltForm3)  # built and kept on first use
        return de, _CountedRows(e3, rows, calls)

    monkeypatch.setattr(AltForm3, "contraction_table", property(counted_table))
    return calls


def reference_anti_invariant_member(torus: TorusData, omega: AltForm2) -> bool:
    """`integral_anti_invariant_member` by the route it replaced: the target
    omega - J^T*omega*J over twice its denominator, back-substituted
    against the torus's reduced lattice (`ReducedLattice.member_over`)."""
    nums, den = pullback_over(torus, omega.upper, omega.den, 1, -1)
    return torus.anti_invariant_lattice.member_over(nums, 2 * den) is not None


def reference_case_member(torus: TorusData, omega: AltForm2, case: SubgroupCase) -> bool:
    """`symmetry.member_over` for the contraction omega by the route it
    replaced: integral coordinates, or omega - J^T*omega*J zero."""
    if case is SubgroupCase.INTEGRAL:
        return omega.is_integral
    return not any(pullback_over(torus, omega.upper, omega.den, 1, -1)[0])


def reference_contract(e3: AltForm3, w: Vec) -> AltForm2:
    """E(w,.,.) accumulated entry by entry in Fractions."""
    return AltForm2(reference_contract_matrix(e3, w))


def reference_translate(g: GerbeData, w: Vec) -> AltForm2:
    """B of `translate_gerbe` by the route the shift table replaced: B plus
    5/8*E(w,.,.) - 3/8*J^T*E(w,.,.)*J, from the entry-by-entry
    contraction."""
    shift = pullback_combination(g.torus, reference_contract(g.e, w), F(5, 8), F(-3, 8))
    return g.b + shift


def reference_contract_matrix(e3: AltForm3, w: Vec) -> Mat:
    """The full Fraction matrix of E(w,.,.), accumulated entry by entry."""
    d = e3.dim
    m = [[F(0)] * d for _ in range(d)]

    def bump(a, b, v):
        m[a][b] += v
        m[b][a] -= v

    for (p, q, r), coef in e3.entries:
        bump(q, r, coef * w[p])
        bump(p, r, -coef * w[q])
        bump(p, q, coef * w[r])
    return tuple(tuple(row) for row in m)


@dataclass(frozen=True)
class FractionAltForm2:
    """The alternating 2-form as the package stored it before its integer
    storage: the full d x d matrix of `Fraction`s, validated entry by entry
    and combined entry by entry.  The oracle for `AltForm2`."""

    entries: Mat

    def __post_init__(self):
        m = to_mat(self.entries)
        dim = len(m)
        if any(len(r) != dim for r in m):
            raise ValueError("AltForm2 matrix must be square")
        for a, row in enumerate(m):
            for b in range(a, dim):
                if row[b] != -m[b][a]:
                    raise ValueError("AltForm2 matrix must be antisymmetric")
        object.__setattr__(self, "entries", m)

    @staticmethod
    def zero(dim: int) -> "FractionAltForm2":
        return FractionAltForm2(((F(0),) * dim,) * dim)

    @staticmethod
    def from_upper(upper, den: int) -> "FractionAltForm2":
        d = len(upper)
        m = [[F(0)] * d for _ in range(d)]
        for a, row in enumerate(upper):
            for b in range(a + 1, d):
                m[a][b] = F(row[b], den)
                m[b][a] = -m[a][b]
        return FractionAltForm2(tuple(tuple(r) for r in m))

    @staticmethod
    def from_pairs(dim: int, coeffs: dict) -> "FractionAltForm2":
        m = [[F(0)] * dim for _ in range(dim)]
        for (a, b), c in coeffs.items():
            if not (0 <= a < b < dim):
                raise ValueError(f"pair indices must satisfy 0 <= a < b < dim, got {(a, b)}")
            m[a][b] += to_fraction(c)
            m[b][a] -= to_fraction(c)
        return FractionAltForm2(tuple(tuple(r) for r in m))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def entry(self, a: int, b: int) -> Fraction:
        return self.entries[a][b]

    def apply(self, v: Vec) -> Vec:
        return mat_vec(self.entries, v)

    def evaluate(self, x: Vec, y: Vec) -> Fraction:
        return dot(x, self.apply(y))

    def scale(self, c) -> "FractionAltForm2":
        c = to_fraction(c)
        return FractionAltForm2(tuple(tuple(c * x for x in row) for row in self.entries))

    def __add__(self, other: "FractionAltForm2") -> "FractionAltForm2":
        return FractionAltForm2(
            tuple(
                tuple(a + b for a, b in zip(ra, rb, strict=True))
                for ra, rb in zip(self.entries, other.entries, strict=True)
            )
        )

    def __sub__(self, other: "FractionAltForm2") -> "FractionAltForm2":
        return self + other.scale(-1)

    def __neg__(self) -> "FractionAltForm2":
        return self.scale(-1)

    @property
    def is_zero(self) -> bool:
        return all(vec_is_zero(row) for row in self.entries)

    @property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    def upper_coeffs(self) -> Vec:
        d = self.dim
        return tuple(self.entries[a][b] for a in range(d) for b in range(a + 1, d))
