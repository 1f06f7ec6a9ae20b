"""Alternating 2- and 3-forms on Q^{dim} with exact rational coefficients.

An `AltForm2` stores its pair coordinates, the entries on the pairs a < b
in lexicographic order, as integers over one positive denominator, reduced
by their gcd, so that equal forms have equal storage (the common-denominator
representation of Bareiss, Math. Comp. 22 (1968)).  Pair coordinates are
the one integer layout of a 2-form in the package; `alternating_matrix`
turns them into the full alternating matrix where a matrix is multiplied.
Sums, scalings and membership tests run on the coordinates, and the
`Fraction` matrix `entries` is a view built on first read.  An `AltForm3`
is stored on strictly increasing triples; its contraction, in pair
coordinates, and evaluation are integer cores that the other modules
share.  An `AlternatingTable` holds an integer-valued alternating map of
rank 2 or 3 by its rows on the basis pairs or triples, read off at the
wedge vector of a tuple.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm

from .exact import Frozen, Mat, PackedRows, Vec, dimension_mismatch, dot, int_vec, mat_vec
from .exact import sized_vector, to_fraction, to_mat, to_vec

_ZERO = Fraction(0)


def alternating_matrix(upper, dim: int) -> list[list[int]]:
    """The full alternating dim x dim matrix whose pair coordinates, on the
    pairs a < b in lexicographic order, are upper."""
    m = [[0] * dim for _ in range(dim)]
    for (a, b), x in zip(itertools.combinations(range(dim), 2), upper):
        m[a][b], m[b][a] = x, -x
    return m


def _place(a: int, b: int, dim: int) -> int:
    """The place of the pair a < b in the lexicographic order of pairs."""
    return a * (2 * dim - a - 3) // 2 + b - 1


class AltForm2(Frozen):
    """Alternating bilinear form on Q^{dim}.  Its pair coordinates, the
    entries on the pairs a < b in lexicographic order, are upper / den
    for integers upper and den > 0 with no common factor.  `AltForm2(m)`
    builds it from a full antisymmetric matrix m."""

    _fields = ("dim", "upper", "den")

    def __init__(self, entries: Mat):
        m = to_mat(entries)
        dim = len(m)
        if any(len(r) != dim for r in m):
            raise ValueError("AltForm2 matrix must be square")
        if any(x != -y for row, col in zip(m, zip(*m)) for x, y in zip(row, col)):
            raise ValueError("AltForm2 matrix must be antisymmetric")
        den, nums = int_vec([x for a, row in enumerate(m) for x in row[a + 1 :]])
        self._set(dim, nums, den)

    def _set(self, dim: int, nums: list[int], den: int):
        if not den:
            raise ZeroDivisionError("AltForm2 denominator is zero")
        if den < 0:
            den, nums = -den, [-x for x in nums]
        g = gcd(den, *nums)
        if g != 1:
            den, nums = den // g, [x // g for x in nums]
        # frozen: the fields are set once, here, past `Frozen.__setattr__`
        vars(self).update(dim=dim, upper=tuple(nums), den=den)

    @staticmethod
    def from_coords(dim: int, nums: list[int], den: int) -> "AltForm2":
        """The form with pair coordinates nums / den, for integers nums and a
        nonzero integer den, reduced."""
        f = object.__new__(AltForm2)
        f._set(dim, nums, den)
        return f

    @staticmethod
    def zero(dim: int) -> "AltForm2":
        return AltForm2.from_coords(dim, [0] * (dim * (dim - 1) // 2), 1)

    @staticmethod
    def from_upper(upper, den: int) -> "AltForm2":
        """The form with the full alternating integer matrix upper over the
        nonzero integer den; only its upper triangle is read."""
        nums = [x for a, row in enumerate(upper) for x in row[a + 1 :]]
        return AltForm2.from_coords(len(upper), nums, den)

    @staticmethod
    def from_pairs(dim: int, coeffs: dict) -> "AltForm2":
        """Build from {(a, b): c} with 0 <= a < b < dim (zero elsewhere)."""
        coords = [0] * (dim * (dim - 1) // 2)
        for (a, b), c in coeffs.items():
            if not (0 <= a < b < dim):
                raise ValueError(f"pair indices must satisfy 0 <= a < b < dim, got {(a, b)}")
            coords[_place(a, b, dim)] = to_fraction(c)
        den, nums = int_vec(coords)
        return AltForm2.from_coords(dim, nums, den)

    @functools.cached_property
    def entries(self) -> Mat:
        """The full matrix of `Fraction`s, built on first read."""
        den, m = self.den, alternating_matrix(self.upper, self.dim)
        return tuple([tuple([Fraction(x, den) if x else _ZERO for x in row]) for row in m])

    def entry(self, a: int, b: int) -> Fraction:
        if not (0 <= a < self.dim and 0 <= b < self.dim):
            raise ValueError(f"pair indices must lie in 0..{self.dim - 1}, got {(a, b)}")
        return self.entries[a][b]

    def apply(self, v: Vec) -> Vec:
        """The vector (omega(e_k, v))_k."""
        return mat_vec(self.entries, sized_vector(v, self.dim, "v"))

    def evaluate(self, x: Vec, y: Vec) -> Fraction:
        x, y = sized_vector(x, self.dim, "x"), sized_vector(y, self.dim, "y")
        return dot(x, mat_vec(self.entries, y))

    def scale(self, c) -> "AltForm2":
        c = to_fraction(c)
        return AltForm2.from_coords(
            self.dim, [c.numerator * x for x in self.upper], c.denominator * self.den
        )

    def add_over(self, nums, den: int) -> "AltForm2":
        """This form plus the form with pair coordinates nums / den, for
        integers nums and a nonzero integer den: one lcm, one list and one
        reduction."""
        g = lcm(self.den, den)
        p, q = g // self.den, g // den
        return AltForm2.from_coords(self.dim, [p * x + q * y for x, y in zip(self.upper, nums)], g)

    def __add__(self, other: "AltForm2") -> "AltForm2":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return self.add_over(other.upper, other.den)

    def __sub__(self, other: "AltForm2") -> "AltForm2":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return self.add_over(other.upper, -other.den)

    def __neg__(self) -> "AltForm2":
        return AltForm2.from_coords(self.dim, [-x for x in self.upper], self.den)

    @property
    def is_zero(self) -> bool:
        return not any(self.upper)

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def upper_coeffs(self) -> Vec:
        """Coefficients on pairs a < b in lexicographic order."""
        return tuple([Fraction(x, self.den) for x in self.upper])


class AltForm3(Frozen):
    """Alternating trilinear form, stored on strictly increasing triples.
    Its cached `int_entries`, `pair_entries` and `contraction_table` and
    the last contraction `torus.contract3` built sit in the instance dict,
    outside equality, hashing and repr, as a lookup keyed by the form costs
    a hash of its entries each time (`contract3` gives the measured cost).
    entries is a tuple of ((a, b, c), value) with a < b < c, sorted."""

    _fields = ("dim", "entries")

    @staticmethod
    def zero(dim: int) -> "AltForm3":
        return AltForm3(dim, ())

    @staticmethod
    def from_coeffs(dim: int, coeffs: dict) -> "AltForm3":
        """Build from {(a, b, c): value} with 0 <= a < b < c < dim."""
        items = []
        for (a, b, c), v in coeffs.items():
            if not (0 <= a < b < c < dim):
                raise ValueError(
                    f"triple indices must satisfy 0 <= a < b < c < dim, got {(a, b, c)}"
                )
            v = to_fraction(v)
            if v != 0:
                items.append(((a, b, c), v))
        items.sort(key=lambda t: t[0])
        return AltForm3(dim, tuple(items))

    @functools.cached_property
    def int_entries(self) -> tuple[int, tuple[tuple[int, int, int, int], ...]]:
        """(de, ((p, q, r, k), ...)): the coefficient on each stored triple
        (p, q, r) is k / de, for the lcm de of the denominators."""
        de = lcm(*[v.denominator for _, v in self.entries])
        return de, tuple([(*t, v.numerator * (de // v.denominator)) for t, v in self.entries])

    def coeff(self, a: int, b: int, c: int) -> Fraction:
        """E(e_a, e_b, e_c): the value stored on the sorted triple, negated
        for an odd permutation of it; 0 when an index repeats."""
        p, q, r = t = tuple(sorted((a, b, c)))
        if p < 0 or r >= self.dim:
            raise ValueError(f"triple indices must lie in 0..{self.dim - 1}, got {(a, b, c)}")
        v = dict(self.entries).get(t, _ZERO)
        return v if (a, b, c) in (t, (q, r, p), (r, p, q)) else -v

    def evaluate(self, x: Vec, y: Vec, z: Vec) -> Fraction:
        (dx, x), (dy, y), (dz, z) = (int_vec(to_vec(v)) for v in (x, y, z))
        num, de = self.evaluate_over(x, y, z)
        return Fraction(num, de * dx * dy * dz)

    def evaluate_over(self, x, y, z) -> tuple[int, int]:
        """(de*E(x, y, z), de) for integer vectors, de the lcm of E's
        denominators: y^T*E(x,.,.)*z over the pair coordinates."""
        d = self.dim
        if len(x) != d or len(y) != d or len(z) != d:
            what, v = next((k, v) for k, v in zip("xyz", (x, y, z)) if len(v) != d)
            raise dimension_mismatch(what, v, d)
        de, rows = self.contraction_table
        pairs = itertools.combinations(range(d), 2)
        coords = rows.times(x)
        return sum([c * (y[a] * z[b] - y[b] * z[a]) for (a, b), c in zip(pairs, coords) if c]), de

    @functools.cached_property
    def pair_entries(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(de, ((p, q, r, k, qr, pr, pq), ...)): `int_entries` with the
        places of the pairs (q, r), (p, r) and (p, q) in the lexicographic
        order of pair coordinates."""
        d, (de, ks) = self.dim, self.int_entries
        return de, tuple(
            [(p, q, r, k, _place(q, r, d), _place(p, r, d), _place(p, q, d)) for p, q, r, k in ks]
        )

    def contract_pairs(self, nums, den: int = 1) -> tuple[list[int], int]:
        """The contraction (x, y) -> E(w, x, y) for w = nums / den, integers
        over one positive denominator, in pair coordinates: (coords,
        de*den), coords those of de*den*E(w,.,.) for the lcm de of E's
        denominators.  Each coefficient adds its three terms straight into
        them; it builds `contraction_table`, which `torus.contract3`,
        `evaluate_over` and `gerbe.forms_over` read."""
        d = self.dim
        if len(nums) != d:
            raise dimension_mismatch("nums", nums, d)
        de, ks = self.pair_entries
        coords = [0] * (d * (d - 1) // 2)
        for p, q, r, k, qr, pr, pq in ks:
            coords[qr] += k * nums[p]
            coords[pr] -= k * nums[q]
            coords[pq] += k * nums[r]
        return coords, de * den

    @functools.cached_property
    def contraction_table(self) -> tuple[int, PackedRows]:
        """(de, rows): row k holds the pair coordinates of de*E(e_k,.,.),
        from `contract_pairs`, packed (`PackedRows`).  The contraction is
        linear in w, so for w = nums/den it has the coordinates
        rows.times(nums) over de*den: one product per vector."""
        d = self.dim
        rows = [self.contract_pairs([int(a == k) for a in range(d)])[0] for k in range(d)]
        return self.pair_entries[0], PackedRows(rows)

    def scale(self, c) -> "AltForm3":
        c = to_fraction(c)
        return AltForm3.from_coeffs(self.dim, {t: c * v for t, v in self.entries})

    @property
    def is_zero(self) -> bool:
        return not self.entries

    @property
    def is_integral(self) -> bool:
        return all(v.denominator == 1 for _, v in self.entries)


class AlternatingTable:
    """An alternating map on Z^d of rank 2 or 3 with values in Z^columns
    (columns is read only for a table with no rows, rank 3 at d = 2), from
    its values on the basis tuples: `packed` holds one row per
    increasing pair a < b (rank 2) or triple a < b < c (rank 3), in
    lexicographic order, over den.  Vectors are given as (dw, x, k) for
    x/dw with k the index of the basis vector it is, else -1.  The value on
    a tuple of them is its wedge vector times the rows, over den times
    their dw.  The wedge of basis vectors is a signed unit vector, so
    `units`, keyed by their indices, holds the row times the sign of their
    permutation, and is read in place of the product.  `pairs` lists the
    pairs a < b, and `triples` each a < b < c with the places of (a, b),
    (a, c) and (b, c) among them."""

    __slots__ = ("den", "packed", "units", "pairs", "triples")

    def __init__(self, den: int, rows: list[list[int]], rank: int, d: int, columns: int = 0):
        self.den, self.packed = den, PackedRows(rows, columns)
        self.pairs = list(itertools.combinations(range(d), 2))
        self.triples = [
            (a, b, c, _place(a, b, d), _place(a, c, d), _place(b, c, d))
            for a, b, c in itertools.combinations(range(d), 3)
        ]
        by_tuple = dict(zip(itertools.combinations(range(d), rank), rows))
        self.units = {}
        for t in itertools.permutations(range(d), rank):
            row = by_tuple[tuple(sorted(t))]
            odd = sum([a > b for a, b in itertools.combinations(t, 2)]) % 2
            self.units[t] = [-y for y in row] if odd else row

    def wedge(self, x1, x2) -> list[int]:
        """The pair coordinates x1_a*x2_b - x1_b*x2_a of x1 ^ x2."""
        return [x1[a] * x2[b] - x1[b] * x2[a] for a, b in self.pairs]

    def on_pair(self, v1, v2) -> list[int]:
        """The row of the vectors v1, v2, over den*dw1*dw2 (rank 2)."""
        row = self.units.get((v1[2], v2[2]))
        return self.packed.times(self.wedge(v1[1], v2[1])) if row is None else row

    def on_triples(self, vectors):
        """(den*dw1*dw2*dw3, *row) for each triple of the vectors, in
        lexicographic order of their indices (rank 3).  A triple of basis
        vectors reads its row; any other multiplies q = x1 ^ x2 ^ z, from
        the wedge p of its first two, made once per pair: q_abc = p_bc*z_a
        - p_ac*z_b + p_ab*z_c."""
        n, units, times, places = len(vectors), self.units, self.packed.times, self.triples
        for i, (dw1, x1, k1) in enumerate(vectors):
            for j in range(i + 1, n):
                dw2, x2, k2 = vectors[j]
                p = None
                for dw3, z, k3 in vectors[j + 1 :]:
                    row = units.get((k1, k2, k3))
                    if row is None:
                        p = self.wedge(x1, x2) if p is None else p
                        q = [p[bc] * z[a] - p[ac] * z[b] + p[ab] * z[c] for a, b, c, ab, ac, bc in places]
                        row = times(q)
                    yield self.den * dw1 * dw2 * dw3, *row
