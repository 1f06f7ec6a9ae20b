"""Exact arithmetic substrate.

Rational vectors and matrices, Gaussian rationals, canonical unit-circle
values, and integer lattice routines (Hermite normal form, and membership
on its sparse rows).  Public scalars are `fractions.Fraction`s, never
floats; the integer cores (`int_vec`, `int_dot`, `int_vec_mat`,
`PackedRows`, `ReducedLattice`, `ReducedLattice.member_over`) take `int`
numerators over one positive denominator; the other integer kernels build
on them.  `PackedRows` multiplies by a fixed integer table in one big-int
dot of signed 64-bit slots while sum|x| times the largest |entry| is below
2**63, and by `int_vec_mat` otherwise, so its products are exact for
every x.

Throughout the package ``exp(z)`` denotes ``e^{2*pi*i*z}``, so two exponents
describe the same unit value exactly when they differ by a real integer.

`Frozen` is the base of the package's value objects: frozen, with
equality, hashing and repr over named fields, from one shared set of
methods that generate no code.

Per-call code passes lists, not generators, to ``lcm(*...)`` and to
``tuple`` for short tuples whose length varies: CPython builds a tuple from
a generator by resizing one, and each such tuple of fewer than 20 items,
once freed, stays on the interpreter's free list for its size (up to 2000)
without one having been taken from it, so process memory creeps up.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul
from struct import Struct
from typing import Iterable, Sequence

Rational = Fraction
Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

_ZERO = Fraction(0)
_set = object.__setattr__


class Frozen:
    """A frozen value object with its fields in its instance dict.

    `_fields` names the fields in order: the shared `__init__` takes them as
    its parameters, then runs `__post_init__`; a hot constructor, or one
    with defaults, is written out.  Equality, hashing and repr read
    `_compare` (default `_fields`).  Setting or deleting any attribute
    raises AttributeError: constructors write past it with
    `object.__setattr__` or `vars(self)`, as `functools.cached_property` does.
    """

    _fields = _compare = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            rest = names[len(args) :]
            if len(args) > len(names) or kwargs.keys() != set(rest):
                raise TypeError(f"{type(self).__name__}() takes the arguments {', '.join(names)}")
            args = [*args, *[kwargs[name] for name in rest]]
        for name, value in zip(names, args):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compare or self._fields])

    def __eq__(self, other):
        if other is self:  # as comparing the field tuples would find
            return True
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = [f"{name}={getattr(self, name)!r}" for name in self._compare or self._fields]
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class InternalMismatch(RuntimeError):
    """Two computations that must agree exactly did not; an implementation bug."""


def to_fraction(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact computations")
    return Fraction(x)


def to_vec(entries: Iterable) -> Vec:
    return tuple(to_fraction(x) for x in entries)


def to_mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(to_vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def basis_vec(dim: int, k: int) -> Vec:
    return tuple(Fraction(1 if a == k else 0) for a in range(dim))


def int_vec(v: Vec) -> tuple[int, list[int]]:
    """(dv, dv*v) for the lcm dv of the denominators of v."""
    dv = lcm(*[x.denominator for x in v])
    return dv, [x.numerator * (dv // x.denominator) for x in v]


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_is_zero(v: Vec) -> bool:
    return all(a == 0 for a in v)


def vec_is_integral(v: Vec) -> bool:
    return all(a.denominator == 1 for a in v)


def lattice_vector(v, dim: int, what: str) -> Vec:
    """to_vec(v), a ValueError naming it as what unless it is integral and
    has dim entries: the one check of every function evaluated at a lattice
    vector.  Integrality is checked first."""
    v = to_vec(v)
    if not vec_is_integral(v):
        raise ValueError(f"{what} must be a lattice (integer) vector")
    return sized_vector(v, dim, what)


def sized_vector(v, dim: int, what: str) -> Vec:
    """to_vec(v), a ValueError naming it as what unless it has dim entries."""
    v = to_vec(v)
    if len(v) != dim:
        raise ValueError(f"dimension mismatch: {what} has {len(v)} entries, not {dim}")
    return v


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    total = _ZERO
    for a, b in zip(u, v):
        if a and b:  # skip zero terms; these vectors are typically sparse
            total = total + a * b
    return total


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def int_vec_mat(x, m) -> list[int]:
    """The row vector x^T * m of integers, skipping the zero entries of x."""
    acc = [0] * len(m[0]) if m else []
    for a, row in zip(x, m):
        if a:
            acc = [u + a * v for u, v in zip(acc, row)]
    return acc


def int_dot(u, v) -> int:
    return sum(map(mul, u, v))


class PackedRows:
    """A fixed integer table whose products x^T*rows are one big-int dot.

    Row k is packed once as sum_c rows[k][c]*2**(64*c), read off its
    two's-complement bytes: `struct` writes entry c as its residue mod
    2**64 in slot c, and subtracting the slots' sign bits shifted up by one
    leaves the signed value.  sum_k x_k times the packed rows then holds
    the entries of x^T*rows in signed 64-bit slots without carries when
    every |entry| is below 2**63, which sum|x| times the table's largest
    |entry| (`top`) < 2**63 guarantees; adding 2**63 to every slot and
    flipping that bit turns each into its two's-complement bytes, which
    one `Struct.unpack` reads.  Otherwise `times` runs `int_vec_mat`.
    """

    __slots__ = ("rows", "top", "packed", "bias", "width", "unpack")

    def __init__(self, rows: Sequence[Sequence[int]]):
        n = len(rows[0]) if rows else 0
        fmt = Struct(f"<{n}q")
        self.rows, self.width, self.unpack = rows, 8 * n, fmt.unpack
        self.top = max(map(abs, chain.from_iterable(rows)), default=0)
        self.bias = int.from_bytes((bytes(7) + b"\x80") * n, "little")  # 2**63 in every slot
        self.packed = [0] * len(rows)  # from 2**63 on only x = 0 packs, and x^T*rows = 0
        if self.top < 2**63:
            unsigned = [int.from_bytes(fmt.pack(*row), "little") for row in rows]
            self.packed = [u - ((u & self.bias) << 1) for u in unsigned]

    def times(self, x) -> list[int]:
        """x^T*rows, the same integers as `int_vec_mat(x, rows)`."""
        if sum(map(abs, x)) * self.top >= 2**63:
            return int_vec_mat(x, self.rows)
        n = (sum(map(mul, x, self.packed)) + self.bias) ^ self.bias
        return list(self.unpack(n.to_bytes(self.width, "little")))


def mat_transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = mat_transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity_mat(k: int) -> Mat:
    return tuple(basis_vec(k, i) for i in range(k))


class GaussianRational(Frozen):
    """Element of Q(i): an exact complex number re + im*i."""

    _fields = ("re", "im")

    def __init__(self, re, im):
        vars(self).update(re=to_fraction(re), im=to_fraction(im))

    @staticmethod
    def real(x) -> "GaussianRational":
        return GaussianRational(to_fraction(x), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def times_i(self) -> "GaussianRational":
        return GaussianRational(-self.im, self.re)

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational.real(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


ZERO_G = GaussianRational(Fraction(0), Fraction(0))


class UnitValue(Frozen):
    """exp(exponent) with the real part of the exponent reduced into [0, 1).

    A nonzero imaginary part means the value has modulus != 1; such values
    occur for intermediate data and are kept exact.
    """

    _fields = ("exponent",)

    def __init__(self, exponent):
        e = exponent if isinstance(exponent, GaussianRational) else GaussianRational.real(exponent)
        vars(self).update(exponent=GaussianRational(e.re % 1, e.im))

    @property
    def is_trivial(self) -> bool:
        return self.exponent.re == 0 and self.exponent.im == 0

    def __mul__(self, other: "UnitValue") -> "UnitValue":
        return UnitValue(self.exponent + other.exponent)

    def __str__(self) -> str:
        if self.exponent.im == 0:
            return f"exp({self.exponent.re})"
        return f"exp({self.exponent})"


def unit_reduce(z) -> UnitValue:
    """Canonical representative of exp(z) for z rational or Gaussian rational."""
    return UnitValue(z)


def _check_int_matrix(m) -> list[list[int]]:
    rows = [[int(x) for x in r] for r in m]
    if rows != [list(r) for r in m]:
        raise ValueError("hermite_normal_form needs an integer matrix")
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows


def hermite_normal_form(m: Sequence[Sequence[int]]):
    """Row-style Hermite normal form.

    Returns (H, U) with H = U*m, U unimodular over the integers, and H in
    row echelon form with positive pivots and entries above each pivot
    reduced into [0, pivot).
    """
    rows = _check_int_matrix(m)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]

    def row_op(i, j, q):
        # row_i -= q * row_j
        ri, rj = rows[i], rows[j]
        for k in range(ncols):
            ri[k] -= q * rj[k]
        ui, uj = u[i], u[j]
        for k in range(nrows):
            ui[k] -= q * uj[k]

    r = 0
    for c in range(ncols):
        while True:
            nonzero = [i for i in range(r, nrows) if rows[i][c] != 0]
            if not nonzero:
                break
            best = min(nonzero, key=lambda i: abs(rows[i][c]))
            if best != r:
                rows[r], rows[best], u[r], u[best] = rows[best], rows[r], u[best], u[r]
            done = True
            for i in range(r + 1, nrows):
                if rows[i][c] != 0:
                    row_op(i, r, rows[i][c] // rows[r][c])
                    if rows[i][c] != 0:
                        done = False
            if done:
                break
        if rows[r][c] != 0:  # r < nrows: the loop stops when r reaches it
            if rows[r][c] < 0:
                rows[r], u[r] = [-x for x in rows[r]], [-x for x in u[r]]
            for j in range(r):
                if rows[j][c] != 0:
                    row_op(j, r, rows[j][c] // rows[r][c])
            r += 1
            if r == nrows:
                break
    return tuple(map(tuple, rows)), tuple(map(tuple, u))


class ReducedLattice:
    """The integer span of generators in Q^dim, reduced once.

    Each generator is a pair (den, nums), the vector nums / den for integers
    nums over a positive integer den.  Denominators are cleared by the lcm
    of the generators' denominators and the Hermite normal form H = U*G of
    the scaled generator matrix G is computed once; every membership query
    is then back-substitution against H.  Scaling G by a positive integer
    leaves U unchanged, so the coefficients returned do not depend on the
    scale.  H, U and G are kept as sparse rows, the nonzero entries
    (index, value) of each row.
    """

    def __init__(self, generators: Sequence[tuple[int, Sequence[int]]], dim: int):
        if any(len(nums) != dim for _, nums in generators):
            raise ValueError("generator/target dimension mismatch")
        self.dim, self.scale = dim, lcm(*[den for den, _ in generators])
        g = [[x * (self.scale // den) for x in nums] for den, nums in generators]
        h, self.u_rows, self.g_rows = [
            tuple([tuple([(k, x) for k, x in enumerate(row) if x]) for row in m])
            for m in (*hermite_normal_form(g), g)
        ]
        self.h_rows = tuple([row for row in h if row])  # each starts at its pivot

    def member_over(self, nums: Sequence[int], den: int) -> tuple[int, ...] | None:
        """Integer coefficients c with sum(c_i * generators_i) == nums / den,
        for integers nums over a positive denominator, or None."""
        if len(nums) != self.dim:
            raise ValueError("generator/target dimension mismatch")
        scaled = [x * self.scale for x in nums]
        if any([x % den for x in scaled]):
            return None
        t_int = [x // den for x in scaled]
        residual = list(t_int)
        coeffs = [0] * len(self.g_rows)  # y*U for the quotients y
        for h_row, u_row in zip(self.h_rows, self.u_rows):
            pivot, p = h_row[0]
            q, rem = divmod(residual[pivot], p)
            if rem:
                return None
            if q:
                for k, x in h_row:
                    residual[k] -= q * x
                for i, x in u_row:
                    coeffs[i] += q * x
        if any(residual):
            return None
        # paranoia: witnesses must reconstruct the target exactly
        for c, g_row in zip(coeffs, self.g_rows):
            if c:
                for k, x in g_row:
                    t_int[k] -= c * x
        if any(t_int):
            raise AssertionError("lattice_membership produced a bad witness")
        return tuple(coeffs)


def lattice_membership(generators: Sequence[Sequence], target) -> tuple[int, ...] | None:
    """Integer coefficients c with sum(c_i * generators_i) == target, or None.

    Generators and target may be rational; each goes to `ReducedLattice`,
    which answers repeated queries against the same generators, as integers
    over one denominator.
    """
    den, nums = int_vec(to_vec(target))
    lattice = ReducedLattice([int_vec(to_vec(g)) for g in generators], len(nums))
    return lattice.member_over(nums, den)
