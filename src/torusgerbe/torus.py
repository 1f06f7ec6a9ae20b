"""Complex tori with a rational complex structure on the lattice Z^{2n}.

The lattice is always Z^{2n} in the standard basis; multiplication by i on
the real torus V = R^{2n} is a rational matrix J with J*J = -I.  This module
also houses the J-pullback of alternating 2-forms (the forms themselves live
in `forms` and are re-exported here), the (1,1) type projectors, and the
trilinear type condition that gerbe data must satisfy.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import lcm

from .exact import (
    Frozen,
    PackedRows,
    ReducedLattice,
    Vec,
    basis_vec,
    dimension_mismatch,
    identity_mat,
    int_vec,
    lattice_membership,  # noqa: F401  (still importable from this module)
    mat_mul,
    mat_transpose,
    mat_vec,
    sized_vector,
    to_fraction,
    to_mat,
    to_vec,
)
from .forms import AltForm2, AltForm3, alternating_matrix


class NotAComplexStructure(ValueError):
    """Raised when a candidate matrix J does not satisfy J*J = -I."""


class TorusData(Frozen):
    """A complex torus of dimension n presented by J acting on R^{2n}; its
    transpose jt is kept beside J, outside equality, hashing and repr."""

    _fields = ("n", "j")

    def __post_init__(self):
        dim = 2 * self.n
        j = to_mat(self.j)
        if self.n < 1 or len(j) != dim or any(len(r) != dim for r in j):
            raise NotAComplexStructure(f"J must be {dim}x{dim}")
        minus_identity = tuple(
            tuple(-x for x in row) for row in identity_mat(dim)
        )
        if mat_mul(j, j) != minus_identity:
            raise NotAComplexStructure("J*J != -I")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "jt", mat_transpose(j))

    @property
    def dim(self) -> int:
        return 2 * self.n

    def mul_i(self, v: Vec) -> Vec:
        """Multiplication by i, realized as J*v."""
        return mat_vec(self.j, sized_vector(v, self.dim, "v"))

    def basis(self) -> tuple[Vec, ...]:
        return tuple(basis_vec(self.dim, k) for k in range(self.dim))

    @functools.cached_property
    def j_columns(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """(dj, cols): dj is the lcm of J's denominators and cols[a] holds
        the nonzero entries (p, dj * J[p][a]) of J e_a."""
        dj = lcm(*(x.denominator for row in self.j for x in row))
        cols = tuple(
            tuple((p, int(row[a] * dj)) for p, row in enumerate(self.j) if row[a])
            for a in range(self.dim)
        )
        return dj, cols

    def times_j(self, m) -> list[list[int]]:
        """dj*m*J for an integer matrix m, from the nonzero entries of J's
        columns."""
        cols = self.j_columns[1]
        return [[sum([row[p] * c for p, c in col]) for col in cols] for row in m]

    def mul_i_over(self, x) -> list[int]:
        """dj*J*x for an integer vector x, from the nonzero entries of J's
        columns."""
        ix = [0] * self.dim
        for a, col in zip(x, self.j_columns[1]):
            if a:
                for p, c in col:
                    ix[p] += a * c
        return ix

    def lift(self, v: Vec) -> tuple[int, list[int], list[int]]:
        """(dv, x, ix) with v = x/dv for the lcm dv of v's denominators and
        ix = dj*J*x: the integers in which the kernels take a vector.  An
        entry without a denominator goes through `to_vec`, which rejects a
        float."""
        if len(v) != self.dim:
            raise dimension_mismatch("v", v, self.dim)
        try:
            dv, x = int_vec(v)
        except AttributeError:
            dv, x = int_vec(to_vec(v))
        return dv, x, self.mul_i_over(x)

    @functools.cached_property
    def pullback_map(self) -> tuple[int, tuple]:
        """(dj**2, images): the integer map omega -> dj**2 * J^T*omega*J on
        pair coordinates.  images[k], for the k-th pair p < q in
        lexicographic order, holds the nonzero entries (coordinate, value)
        of the pair coordinates of dj**2 * J^T*(e_p ^ e_q)*J; it is built
        from the nonzero entries of rows p and q of J alone."""
        dj = self.j_columns[0]
        # rows[p]: the nonzero entries (a, dj * J[p][a]) of row p of J
        rows = [[(a, int(x * dj)) for a, x in enumerate(row) if x] for row in self.j]
        pairs = list(itertools.combinations(range(self.dim), 2))
        index = {pair: k for k, pair in enumerate(pairs)}
        out = []
        for p, q in pairs:
            # (J^T*(e_p ^ e_q)*J)[a][b] = J[p][a]*J[q][b] - J[q][a]*J[p][b]
            image = {}
            for a, x in rows[p]:
                for b, y in rows[q]:
                    if a < b:
                        image[a, b] = image.get((a, b), 0) + x * y
                    elif b < a:
                        image[b, a] = image.get((b, a), 0) - x * y
            out.append(tuple([(index[ab], c) for ab, c in sorted(image.items()) if c]))
        return dj * dj, tuple(out)

    @functools.cached_property
    def anti_invariant_lattice(self) -> ReducedLattice:
        """The lattice spanned by the anti-invariant parts of the integer
        basis 2-forms, in pair coordinates; it depends only on J,
        so it is reduced once per torus.  Each part goes in as its integer
        coordinates over its denominator."""
        d = self.dim
        parts = [
            anti_invariant_part(self, AltForm2.from_pairs(d, {(a, b): 1}))
            for a, b in itertools.combinations(range(d), 2)
        ]
        return ReducedLattice([(f.den, f.upper) for f in parts], d * (d - 1) // 2)

    @functools.cached_property
    def anti_invariant_table(self) -> tuple[PackedRows, PackedRows, PackedRows]:
        """(V, U, G), packed: the anti-invariant lattice as one integer map.

        Row k of G is `scale` times the anti-invariant part of the k-th
        basis pair form, H = U*G is the lattice's Hermite normal form and
        H_r its r nonzero rows, whose U rows are kept.  Row k of the m x r
        table V holds the quotients of G's row k against H_r, so G = V*H_r;
        they are found once per torus, by back-substitution, and a row that
        does not reduce raises.  For omega = upper/den, scale times its
        anti-invariant part is then (upper^T*V/den)*H_r.
        """
        lat = self.anti_invariant_lattice
        m, r = lat.dim, len(lat.h_rows)
        g, u = _dense_rows(lat.g_rows, m), _dense_rows(lat.u_rows[:r], m)
        v = [lat.quotients(row) for row in g]
        if None in v:
            raise AssertionError("a generator is not in the span of its Hermite normal form")
        return PackedRows(v), PackedRows(u, m), PackedRows(g)  # u has no rows if r = 0


def _dense_rows(rows, width: int) -> list[list[int]]:
    """The rows of (index, value) entries as full rows of the given width."""
    out = []
    for row in rows:
        full = [0] * width
        for k, x in row:
            full[k] = x
        out.append(full)
    return out


def check_complex_structure(j_rows) -> TorusData:
    """Validate a candidate complex-structure matrix and wrap it."""
    j = to_mat(j_rows)
    if not j or len(j) % 2 != 0:
        raise NotAComplexStructure("J must be square of even dimension")
    return TorusData(n=len(j) // 2, j=j)


class HodgeImage(Frozen):
    """Value of the Hodge projection: a complex-valued alternating 2-form
    re + i*im."""

    _fields = ("re", "im")

    @property
    def is_zero(self) -> bool:
        return self.re.is_zero and self.im.is_zero


def contract3(e3: AltForm3, w) -> AltForm2:
    """Contraction of a 3-form in its first slot: (x, y) -> E(w, x, y).

    Its pair coordinates are one product with the form's packed
    `AltForm3.contraction_table`, which `contract_pairs` builds once per
    form.  The form keeps the last contraction it built, with its vector,
    in its instance dict (as it keeps `int_entries`), so the calls one
    query makes with the same w contract once; `translate_gerbe` reads a
    gerbe's shift table and does not contract.  The memo stays on the
    form, not in a gerbe's tables: `fixes_gerbe` has no gerbe, and a
    lookup keyed by E hashes E's entries, 1.9 us at n = 2 and 4-17 us at
    n = 3, 4 (Xeon, Python 3.11.7), three times per membership query of
    about 75 us.  w is validated first, so a float still raises TypeError
    and a length other than E's dimension a ValueError naming w; only the
    very tuple the last contraction stored returns before that check,
    since it passed it and a tuple cannot change.  Both objects are
    immutable, so the result is shared.
    """
    last = vars(e3).get("_last_contraction")
    if last is not None and last[0] is w:
        return last[1]
    v = sized_vector(w, e3.dim, "w")
    if last is not None and last[0] == v:
        return last[1]
    dw, x = int_vec(v)
    de, rows = e3.contraction_table
    omega = AltForm2.from_coords(e3.dim, rows.times(x), de * dw)
    vars(e3)["_last_contraction"] = (w if type(w) is tuple else v, omega)
    return omega


def _pullback_combination(torus: TorusData, omega: AltForm2, c0, c1):
    """`pullback_over` for omega's integer storage."""
    if omega.dim != torus.dim:
        raise ValueError("form/torus dimension mismatch")
    return pullback_over(torus, omega.upper, omega.den, c0, c1)


def pullback_over(torus: TorusData, nums, den: int, c0, c1):
    """c0*omega + c1*J^T*omega*J for the form omega whose pair coordinates
    are the integers nums over the positive integer den, as (coords, den'):
    the pair coordinates of the result are the integers coords over den'.
    c0 and c1 are scaled by the lcm dc of their denominators; the torus's
    pullback map does the rest.
    """
    dj2, images = torus.pullback_map
    c0, c1 = to_fraction(c0), to_fraction(c1)
    dc = lcm(c0.denominator, c1.denominator)
    k0 = c0.numerator * (dc // c0.denominator) * dj2
    k1 = c1.numerator * (dc // c1.denominator)
    out = [k0 * x for x in nums]
    if k1:
        for image, x in zip(images, nums):
            if x:
                x *= k1
                for k, c in image:
                    out[k] += c * x
    return out, dc * dj2 * den


def pullback_combination(torus: TorusData, omega: AltForm2, c0, c1) -> AltForm2:
    """The form c0*omega + c1*J^T*omega*J."""
    return AltForm2.from_coords(torus.dim, *_pullback_combination(torus, omega, c0, c1))


def j_pullback2(torus: TorusData, omega: AltForm2) -> AltForm2:
    """Pullback (x, y) -> omega(Jx, Jy)."""
    return pullback_combination(torus, omega, 0, 1)


def anti_invariant_part(torus: TorusData, omega: AltForm2) -> AltForm2:
    """Projector onto the J-anti-invariant part: (omega - J*omega)/2.

    The kernel is exactly the J-invariant forms, i.e. those of type (1,1).
    """
    return pullback_combination(torus, omega, Fraction(1, 2), Fraction(-1, 2))


def hodge_projection(torus: TorusData, omega: AltForm2) -> HodgeImage:
    """Complex-valued projection killing the (1,1) part:

    omega^H(w1, w2) = (omega(w1,w2) - omega(Jw1,Jw2)
                       + i*omega(Jw1,w2) + i*omega(w1,Jw2)) / 4

    With A = omega - J^T*omega*J the real part is A/4, and since J*J = -I
    the imaginary part (J^T*omega + omega*J)/4 is A*J/4.
    """
    nums, den = _pullback_combination(torus, omega, 1, -1)
    m = alternating_matrix(nums, torus.dim)
    return HodgeImage(
        re=AltForm2.from_coords(torus.dim, nums, 4 * den),
        im=AltForm2.from_upper(torus.times_j(m), 4 * den * torus.j_columns[0]),
    )


def type_condition_check(torus: TorusData, e3: AltForm3) -> bool:
    """Whether E(x,y,z) = E(ix,iy,z) + E(x,iy,iz) + E(ix,y,iz) on the lattice.

    Both sides are alternating and trilinear, so strictly increasing basis
    triples suffice.  In complex dimension 2 this holds for every E.  The
    check runs in integers: J and E are scaled by the lcm of their
    denominators (dj, and de of `AltForm3.int_entries`), so the left side
    picks up dj**2, and each of the three sums walks only the nonzero
    entries of two columns of J.
    """
    if e3.dim != torus.dim:
        raise ValueError("form/torus dimension mismatch")
    d = torus.dim
    dj, cols = torus.j_columns
    t = [[[0] * d for _ in range(d)] for _ in range(d)]  # de * E(e_a, e_b, e_c)
    for a, b, c, k in e3.int_entries[1]:
        t[a][b][c] = t[b][c][a] = t[c][a][b] = k
        t[b][a][c] = t[a][c][b] = t[c][b][a] = -k
    lhs_scale = dj * dj
    for a, b, c in itertools.combinations(range(d), 3):
        cb, cc = cols[b], cols[c]
        rhs = 0
        for p, x in cols[a]:
            tp = t[p]
            for q, y in cb:  # E(ie_a, ie_b, e_c)
                rhs += x * y * tp[q][c]
            tpb = tp[b]
            for r, z in cc:  # E(ie_a, e_b, ie_c)
                rhs += x * z * tpb[r]
        ta = t[a]
        for q, y in cb:  # E(e_a, ie_b, ie_c)
            taq = ta[q]
            for r, z in cc:
                rhs += y * z * taq[r]
        if rhs != lhs_scale * t[a][b][c]:
            return False
    return True


def skew_symmetrize(f, args):
    """Sum of sign(sigma) * f(permuted args) over all permutations (k = 2, 3)."""
    args = tuple(args)
    if len(args) == 2:
        a, b = args
        return f(a, b) - f(b, a)
    if len(args) == 3:
        a, b, c = args
        return (
            f(a, b, c) - f(a, c, b) + f(b, c, a) - f(b, a, c) + f(c, a, b) - f(c, b, a)
        )
    raise ValueError("skew_symmetrize supports 2 or 3 arguments")


def integral_anti_invariant_member(torus: TorusData, omega: AltForm2) -> bool:
    """Whether omega lies in Alt^2(Z) + {type (1,1) forms}.

    Decided exactly: the anti-invariant part (omega - J^T*omega*J)/2 of
    omega must be an integer combination of the anti-invariant parts of the
    integer basis 2-forms.  With the torus's table (V, U, G), scale times
    that part of omega = upper/den is (y/den)*H_r for y = upper^T*V, and
    H_r's rows are independent, so omega is a member iff den divides every
    entry of y.  A member's witness c = (y/den)*U must then reconstruct the
    target, c*G = (upper/den)*G, checked as (y*U - upper)*G = 0.
    """
    if omega.dim != torus.dim:
        raise ValueError("form/torus dimension mismatch")
    v, u, g = torus.anti_invariant_table
    upper, den = omega.upper, omega.den
    y = v.times(upper)
    if any([s % den for s in y]):
        return False
    # paranoia: the witness must reconstruct the target exactly
    if any(g.times([a - b for a, b in zip(u.times(y), upper)])):
        raise AssertionError("lattice_membership produced a bad witness")
    return True
