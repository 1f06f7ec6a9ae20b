"""Seeded benchmark inputs, built and checked without the package under test.

Vectors are tuples of Fractions in the real basis x1, y1, x2, y2, ... of
R^{2n}.  The standard complex structure J0 sends x_k to y_k and y_k to -x_k.
A twisted structure is J = P*J0*P^-1 for a rational unipotent P.

A 3-form is a dict {(a, b, c): coeff} on 0-based strictly increasing
triples.  Random 3-forms fail the type condition once n >= 3, so compatible
ones are built from two families that satisfy it for J0: any 3-form on the
four real coordinates of two complex coordinates (block sums of n = 2
forms), and the n = 3 pattern ``_N3_PATTERN`` on any three complex
coordinates.  Pulling such a form back by P^-1 and clearing denominators
keeps the type condition for J.

The oracles here (contraction, integrality, J-invariance, trilinear value)
recompute from the definitions, so they check the package, not reuse it.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm

F = Fraction

# The n = 3 type-compatible pattern, written on (complex coordinate, part)
# with part 0 = x and 1 = y.  Its contractions with the span of the first
# two complex coordinates are of type (1,1).
_N3_PATTERN = (
    (((0, 0), (1, 0), (2, 0)), 1),
    (((2, 0), (0, 1), (1, 1)), -1),
    (((0, 0), (1, 1), (2, 1)), 1),
    (((1, 0), (0, 1), (2, 1)), -1),
)


def identity(dim):
    return tuple(tuple(F(int(i == j)) for j in range(dim)) for i in range(dim))


def standard_j(n):
    dim = 2 * n
    m = [[F(0)] * dim for _ in range(dim)]
    for k in range(n):
        m[2 * k + 1][2 * k] = F(1)
        m[2 * k][2 * k + 1] = F(-1)
    return tuple(tuple(r) for r in m)


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def transpose(m):
    return tuple(zip(*m))


def mat_inv(m):
    """Inverse by exact Gauss-Jordan elimination."""
    dim = len(m)
    rows = [list(r) + list(e) for r, e in zip(m, identity(dim))]
    for c in range(dim):
        p = next(i for i in range(c, dim) if rows[i][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(dim):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return tuple(tuple(r[dim:]) for r in rows)


def twist_matrix(n, k=0):
    """A fixed unipotent upper-triangular P with 2n small rational entries.

    P does not depend on the workload seed: the cost of lattice work grows
    with the entries of J, so seeds vary the forms and vectors on a fixed
    set of tori rather than the cost class of the tori themselves.
    """
    rng = random.Random(f"twist:{n}:{k}")
    dim = 2 * n
    p = [list(r) for r in identity(dim)]
    for a, b in rng.sample(list(itertools.combinations(range(dim), 2)), dim):
        p[a][b] = F(rng.choice((-1, 1)), rng.choice((1, 2, 3)))
    return tuple(tuple(r) for r in p)


def sort_triple(idx):
    """Sorted indices and the sign of the sorting permutation (0 if repeated)."""
    idx = list(idx)
    if len(set(idx)) < 3:
        return None, 0
    sign = 1
    for i in range(3):
        for j in range(2 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    return tuple(idx), sign


def add_term(e3, idx, coeff):
    key, sign = sort_triple(idx)
    if sign:
        e3[key] = e3.get(key, F(0)) + sign * F(coeff)


def evaluate3(e3, x, y, z):
    total = F(0)
    for (a, b, c), v in e3.items():
        total += v * (
            x[a] * (y[b] * z[c] - y[c] * z[b])
            - y[a] * (x[b] * z[c] - x[c] * z[b])
            + z[a] * (x[b] * y[c] - x[c] * y[b])
        )
    return total


_COEFFS = (-2, -1, 1, 2)


def compatible_form(rng, pairs, triples):
    """Type-compatible 3-form for J0: n = 2 blocks on the given pairs of
    complex coordinates plus multiples of the n = 3 pattern on the given
    triples.  Coefficients are nonzero, so the sparsity pattern, and with
    it the cost of evaluating the form, does not depend on the seed."""
    e3 = {}
    for p, q in pairs:
        real = (2 * p, 2 * p + 1, 2 * q, 2 * q + 1)
        for t in itertools.combinations(real, 3):
            add_term(e3, t, rng.choice(_COEFFS))
    for coords in triples:
        c = rng.choice(_COEFFS)
        for slots, sign in _N3_PATTERN:
            add_term(e3, [2 * coords[k] + part for k, part in slots], sign * c)
    return {k: v for k, v in e3.items() if v != 0}


def pull_back(e3, q, dim):
    """Coefficients of (x, y, z) -> e3(Qx, Qy, Qz) on increasing triples."""
    cols = transpose(q)
    out = {}
    for a, b, c in itertools.combinations(range(dim), 3):
        v = evaluate3(e3, cols[a], cols[b], cols[c])
        if v != 0:
            out[(a, b, c)] = v
    return out


def integral_scaled(e3, factor=1):
    d = lcm(*(v.denominator for v in e3.values())) if e3 else 1
    return {k: v * d * factor for k, v in e3.items()}


def contraction(e3, w, dim):
    """Matrix of (x, y) -> E(w, x, y)."""
    m = [[F(0)] * dim for _ in range(dim)]
    for (p, q, r), c in e3.items():
        for a, b, v in ((q, r, c * w[p]), (p, r, -c * w[q]), (p, q, c * w[r])):
            m[a][b] += v
            m[b][a] -= v
    return m


def contraction_integral(e3, w, dim):
    return all(x.denominator == 1 for row in contraction(e3, w, dim) for x in row)


def contraction_invariant(e3, j, w, dim):
    """Whether E(w, J., J.) == E(w, ., .), i.e. the contraction is (1,1)."""
    m = contraction(e3, w, dim)
    return mat_mul(transpose(j), mat_mul(m, j)) == tuple(tuple(r) for r in m)


def nullspace(rows, ncols):
    """Basis of {x : rows * x = 0} by exact row reduction."""
    rows = [list(r) for r in rows if any(r)]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[free] = F(1)
        for i, c in enumerate(pivots):
            v[c] = -rows[i][free]
        basis.append(tuple(v))
    return basis


def oneone_kernel(e3, j, dim):
    """Basis of the w whose contraction with E is of type (1,1)."""
    jt = transpose(j)
    cols = []
    for a in range(dim):
        w = tuple(F(int(k == a)) for k in range(dim))
        m = contraction(e3, w, dim)
        pulled = mat_mul(jt, mat_mul(m, j))
        cols.append([m[x][y] - pulled[x][y] for x in range(dim) for y in range(dim)])
    return nullspace(transpose(cols), dim)


class Instance:
    """A gerbe presentation in plain data: n, J rows, E and B coefficients."""

    def __init__(self, n, j, e3, b=None, label=""):
        self.n, self.j, self.e3, self.b, self.label = n, j, e3, b or {}, label
        self.dim = 2 * n
        self.basis = tuple(
            tuple(F(int(k == a)) for k in range(self.dim)) for a in range(self.dim)
        )

    def integral_member(self, w):
        return contraction_integral(self.e3, w, self.dim)

    def oneone_member(self, w):
        return contraction_invariant(self.e3, self.j, w, self.dim)

    def member(self, w, case):
        return self.integral_member(w) if case == "integral" else self.oneone_member(w)


def make_instance(rng, n, twist, pairs, triples, factor=1, label=""):
    """Type-compatible gerbe data with integral E, on the standard J
    (twist None) or on the twisted J of ``twist_matrix(n, twist)``."""
    j0 = standard_j(n)
    e0 = compatible_form(rng, pairs, triples)
    if twist is None:
        return Instance(n, j0, integral_scaled(e0, factor), label=label)
    p = twist_matrix(n, twist)
    q = mat_inv(p)
    j = mat_mul(p, mat_mul(j0, q))
    e3 = integral_scaled(pull_back(e0, q, 2 * n), factor)
    return Instance(n, j, e3, label=label)


def rand_vec(rng, dim, denoms, lo=-2, hi=2):
    while True:
        d = rng.choice(denoms)
        w = tuple(F(rng.randint(lo, hi), d) for _ in range(dim))
        if any(w):
            return w


def integral_vector(rng, inst, denoms=(1, 2)):
    """A nonzero vector of the integral-case subgroup."""
    while True:
        w = rand_vec(rng, inst.dim, denoms)
        if inst.integral_member(w):
            return w


def oneone_vector(rng, inst, kernel, denoms=(1, 2)):
    """A nonzero rational combination of the type (1,1) kernel basis."""
    while True:
        w = [F(0)] * inst.dim
        for v in kernel:
            c = F(rng.randint(-2, 2), rng.choice(denoms))
            w = [a + c * b for a, b in zip(w, v)]
        if any(w):
            return tuple(w)


def outside_vector(rng, inst, case, denoms=(3, 5)):
    """A vector outside the chosen case subgroup."""
    while True:
        w = rand_vec(rng, inst.dim, denoms)
        if not inst.member(w, case):
            return w


def new_generators(make, count, inst):
    """``count`` distinct vectors from ``make()`` that are not basis
    vectors, so the candidate count of an obstruction query is fixed."""
    gens = []
    while len(gens) < count:
        w = make()
        if w not in gens and w not in inst.basis:
            gens.append(w)
    return gens


def candidates(inst, generators, case):
    """The candidate list obstruction decisions run over: distinct
    generators first, then the admissible standard basis vectors."""
    seen = []
    for g in generators:
        if g not in seen:
            seen.append(g)
    for e in inst.basis:
        if e not in seen and inst.member(e, case):
            seen.append(e)
    return seen


def expected_obstruction(inst, generators, case, which):
    """(vanishes, certificate, tuples_checked) from the closed forms.

    FIRST on a pair is exp(E(w2, w1, e_k)) (integral case) or
    exp(E(w1, w2, e_k)) (type (1,1) case) on the lattice basis; the first
    failing pair stops the search.  SECOND on a triple is
    exp(-9 E(w1, w2, w3)) or exp(36 E(w1, w2, w3)); every triple is checked.
    """
    cands = candidates(inst, generators, case)
    if which == "first":
        checked = 0
        for w1, w2 in itertools.combinations(cands, 2):
            checked += 1
            args = (w2, w1) if case == "integral" else (w1, w2)
            for e in inst.basis:
                if evaluate3(inst.e3, args[0], args[1], e).denominator != 1:
                    return False, (w1, w2, e), checked
        return True, None, checked
    coef = -9 if case == "integral" else 36
    failure = None
    checked = 0
    for w1, w2, w3 in itertools.combinations(cands, 3):
        checked += 1
        if failure is None and (coef * evaluate3(inst.e3, w1, w2, w3)).denominator != 1:
            failure = (w1, w2, w3)
    return failure is None, failure, checked


def stream_rng(seed, workload, round_index):
    """Independent generator per (seed, workload, round)."""
    return random.Random(f"{seed}:{workload}:{round_index}")
