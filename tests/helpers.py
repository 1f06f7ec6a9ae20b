"""Shared fixtures and independent oracles for the test suite.

Oracles here recompute expected values straight from the defining formulas
(full multilinear expansion, brute-force searches) without going through
the package's covector-based code paths.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from torusgerbe import (
    AltForm2,
    AltForm3,
    GaussianRational,
    GerbeData,
    SubgroupCase,
    TorusData,
    check_complex_structure,
    in_case_subgroup,
    j_pullback2,
)
from torusgerbe.exact import Vec, basis_vec, hermite_normal_form, to_vec

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

def oracle_pair_exponent(
    torus: TorusData, e3: AltForm3, v: Vec, l1: Vec, l2: Vec
) -> GaussianRational:
    """Term-by-term expansion of the canonical exponent at v: the defining
    six-term formula evaluated wholesale, independent of covector caching."""
    i = torus.mul_i
    ev = e3.evaluate
    re = (
        ev(v, l1, l2) + ev(i(v), i(l1), l2) / 2 + ev(i(v), l1, i(l2)) / 2
    ) / 8
    im = (
        ev(v, i(l1), l2) / 2 + ev(v, l1, i(l2)) / 2 - ev(i(v), l1, l2)
    ) / 8
    return GaussianRational(re, im)


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
