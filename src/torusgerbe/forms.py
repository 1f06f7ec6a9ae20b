"""Alternating 2- and 3-forms on Q^{dim} with exact rational coefficients.

An `AltForm2` stores its pair coordinates, the entries on the pairs a < b
in lexicographic order, as integers over one positive denominator, reduced
by their gcd, so that equal forms have equal storage (the common-denominator
representation of Bareiss, Math. Comp. 22 (1968)).  Pair coordinates are
the one integer layout of a 2-form in the package; `alternating_matrix`
turns them into the full alternating matrix where a matrix is multiplied.
Sums, scalings and membership tests run on the coordinates, and the
`Fraction` matrix `entries` is a view built on first read.  An `AltForm3`
is stored on strictly increasing triples; its contraction (a full
alternating integer matrix) and evaluation are integer cores that the
other modules share.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm

from .exact import Frozen, Mat, Vec, dot, int_vec, mat_vec, to_fraction, to_mat, to_vec

_ZERO = Fraction(0)


def alternating_matrix(upper, dim: int) -> list[list[int]]:
    """The full alternating dim x dim matrix whose pair coordinates, on the
    pairs a < b in lexicographic order, are upper."""
    m = [[0] * dim for _ in range(dim)]
    for (a, b), x in zip(itertools.combinations(range(dim), 2), upper):
        m[a][b], m[b][a] = x, -x
    return m


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
            # the pair's place in lexicographic order
            coords[a * (2 * dim - a - 3) // 2 + b - 1] = to_fraction(c)
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
        return mat_vec(self.entries, to_vec(v))

    def evaluate(self, x: Vec, y: Vec) -> Fraction:
        return dot(to_vec(x), self.apply(y))

    def scale(self, c) -> "AltForm2":
        c = to_fraction(c)
        return AltForm2.from_coords(
            self.dim, [c.numerator * x for x in self.upper], c.denominator * self.den
        )

    def __add__(self, other: "AltForm2") -> "AltForm2":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        g = lcm(self.den, other.den)
        p, q = g // self.den, g // other.den
        nums = [p * x + q * y for x, y in zip(self.upper, other.upper)]
        return AltForm2.from_coords(self.dim, nums, g)

    def __sub__(self, other: "AltForm2") -> "AltForm2":
        return self + -other

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
    Its cached `int_entries` and the last contraction `torus.contract3`
    built sit in the instance dict, outside equality, hashing and repr.
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
        denominators: y^T*E(x,.,.)*z over the upper triangle."""
        if len(y) != self.dim or len(z) != self.dim:
            raise ValueError("vector/form dimension mismatch")
        m, de = self.contract_over(x)
        pairs = itertools.combinations(range(self.dim), 2)
        return sum([m[a][b] * (y[a] * z[b] - y[b] * z[a]) for a, b in pairs if m[a][b]]), de

    def contract_over(self, nums, den: int = 1) -> tuple[list[list[int]], int]:
        """The contraction (x, y) -> E(w, x, y) for w = nums / den, integers
        over one positive denominator: (m, de*den), m the full alternating
        matrix of de*den*E(w,.,.) for the lcm de of E's denominators.
        `torus.contract3` wraps it for a rational w."""
        d = self.dim
        if len(nums) != d:
            raise ValueError("vector/form dimension mismatch")
        de, ks = self.int_entries
        m = [[0] * d for _ in range(d)]
        for p, q, r, k in ks:
            x, y, z = k * nums[p], k * nums[q], k * nums[r]
            m[q][r] += x
            m[r][q] -= x
            m[p][r] -= y
            m[r][p] += y
            m[p][q] += z
            m[q][p] -= z
        return m, de * den

    def scale(self, c) -> "AltForm3":
        c = to_fraction(c)
        return AltForm3.from_coeffs(self.dim, {t: c * v for t, v in self.entries})

    @property
    def is_zero(self) -> bool:
        return not self.entries

    @property
    def is_integral(self) -> bool:
        return all(v.denominator == 1 for _, v in self.entries)
