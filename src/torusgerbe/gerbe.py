"""Canonical gerbe data and the exponents it attaches to lattice pairs.

A gerbe on the torus is presented by a rational alternating 2-form B and an
integral alternating 3-form E satisfying the type condition.  The attached
cocycle has values exp(B(l1,l2)/2 + H_{l1,l2}(v)) where H is holomorphic and
linear in v; this module computes those exponents exactly, the effect of
translating the data, and the isomorphism test for two presentations.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .exact import Frozen, GaussianRational, PackedRows, Vec, ZERO_G, dot
from .exact import lattice_vector, mat_vec, sized_vector, to_vec, vec_is_zero
from .torus import AltForm2, AltForm3, TorusData, integral_anti_invariant_member
from .torus import contract3, pullback_combination, type_condition_check


class TypeConditionFailed(ValueError):
    """Raised when a 3-form is incompatible with the complex structure."""


class ExponentFn(Frozen):
    """Exponent of a holomorphic function of v: const + (re + i*im) . v.

    The linear part is stored as a pair of real covectors.  Holomorphy of
    exp of this function amounts to lin_re(Jv) = -lin_im(v) and
    lin_im(Jv) = lin_re(v), which is exactly checkable.  The covectors are
    kept as tuples of `Fraction`s of one length, so equal functions hash
    alike; an int or `Fraction` constant is its real part.
    """

    _fields = ("const", "lin_re", "lin_im")

    def __init__(self, const, lin_re, lin_im):
        if not isinstance(const, GaussianRational):
            const = GaussianRational.real(const)
        lin_re, lin_im = to_vec(lin_re), to_vec(lin_im)
        if len(lin_re) != len(lin_im):
            raise ValueError("exponent covectors of different lengths")
        vars(self).update(const=const, lin_re=lin_re, lin_im=lin_im)

    @property
    def dim(self) -> int:
        return len(self.lin_re)

    def linear(self, v: Vec) -> GaussianRational:
        return GaussianRational(dot(self.lin_re, v), dot(self.lin_im, v))

    def evaluate(self, v) -> GaussianRational:
        return self.const + self.linear(sized_vector(v, self.dim, "v"))

    def shift(self, w) -> "ExponentFn":
        """Precompose with v -> v + w."""
        w = sized_vector(w, self.dim, "w")
        return ExponentFn(self.const + self.linear(w), self.lin_re, self.lin_im)

    def add_const(self, c: GaussianRational) -> "ExponentFn":
        return ExponentFn(self.const + c, self.lin_re, self.lin_im)

    def __add__(self, other: "ExponentFn") -> "ExponentFn":
        if self.dim != other.dim:
            raise ValueError("exponent dimension mismatch")
        return ExponentFn(
            self.const + other.const,
            tuple(a + b for a, b in zip(self.lin_re, other.lin_re)),
            tuple(a + b for a, b in zip(self.lin_im, other.lin_im)),
        )

    def __sub__(self, other: "ExponentFn") -> "ExponentFn":
        return self + (-other)

    def __neg__(self) -> "ExponentFn":
        return ExponentFn(
            -self.const,
            tuple(-a for a in self.lin_re),
            tuple(-a for a in self.lin_im),
        )

    @property
    def is_zero(self) -> bool:
        return self.const.is_zero and vec_is_zero(self.lin_re) and vec_is_zero(self.lin_im)

    @property
    def linear_part_is_zero(self) -> bool:
        return vec_is_zero(self.lin_re) and vec_is_zero(self.lin_im)

    def is_holomorphic(self, torus: TorusData) -> bool:
        re_j = mat_vec(torus.jt, self.lin_re)
        im_j = mat_vec(torus.jt, self.lin_im)
        return re_j == tuple(-a for a in self.lin_im) and im_j == self.lin_re


class Character(Frozen):
    """Homomorphism from the lattice to C^x, stored as exponents on the basis.

    The value on a lattice vector l is exp(sum_k exponents[k] * l_k).  Two
    characters agree exactly when the exponent difference is real and
    integral componentwise.  The exponents are kept as a tuple of
    `GaussianRational`s; an int or `Fraction` exponent is its real part.
    """

    _fields = ("exponents",)

    def __init__(self, exponents):
        exps = [
            e if isinstance(e, GaussianRational) else GaussianRational.real(e)
            for e in exponents
        ]
        vars(self).update(exponents=tuple(exps))

    @staticmethod
    def identity(dim: int) -> "Character":
        return Character((ZERO_G,) * dim)

    @property
    def dim(self) -> int:
        return len(self.exponents)

    def exponent_at(self, lam) -> GaussianRational:
        lam = lattice_vector(lam, self.dim, "lam")
        return sum([e * c for e, c in zip(self.exponents, lam)], ZERO_G)

    def __mul__(self, other: "Character") -> "Character":
        if self.dim != other.dim:
            raise ValueError("character dimension mismatch")
        return Character(tuple([a + b for a, b in zip(self.exponents, other.exponents)]))

    def inverse(self) -> "Character":
        return Character(tuple(-a for a in self.exponents))

    @property
    def is_trivial(self) -> bool:
        return all(e.im == 0 and e.re.denominator == 1 for e in self.exponents)

    def equivalent(self, other: "Character") -> bool:
        return (self * other.inverse()).is_trivial


class GerbeData(Frozen):
    """Gerbe presentation (B, E) on a torus; E integral and type-compatible.

    `GerbeData(...)` checks both.  `translate_gerbe` builds its result by
    `_with_b`, which skips the checks: they read only the torus, E and the
    dimension of B, and the result keeps all three from a checked gerbe.
    """

    _fields = ("torus", "b", "e")

    def __post_init__(self):
        if self.b.dim != self.torus.dim or self.e.dim != self.torus.dim:
            raise ValueError("form/torus dimension mismatch")
        if not self.e.is_integral:
            raise ValueError("the 3-form of a gerbe must be integral")
        if not type_condition_check(self.torus, self.e):
            raise TypeConditionFailed(
                "3-form violates the type condition for this complex structure"
            )

    def _with_b(self, b: AltForm2) -> "GerbeData":
        """This gerbe with the 2-form b of the same dimension, unchecked."""
        g = object.__new__(GerbeData)
        vars(g).update(torus=self.torus, b=b, e=self.e)
        return g

    @functools.cached_property
    def basis_records(self) -> dict:
        """Per case, the records of the lattice basis vectors that
        `TranslationContext.create` combines every other record from; it
        fills the dict on first use of a case.  Not compared, hashed or
        shown."""
        return {}

    @functools.cached_property
    def factor_rows(self) -> tuple[int, int, PackedRows]:
        """`basis_factor_rows` of the torus and E, built on first use; the
        translation factors that `first_failing_pair` decides the basis
        pairs on.  Not compared, hashed or shown."""
        return basis_factor_rows(self.torus, self.e)

    @functools.cached_property
    def factor_bound(self) -> int:
        """`factor_digit_bound` of the torus and E, computed on first use.
        Not compared, hashed or shown."""
        return factor_digit_bound(self.torus, self.e)


def _canonical_exponent(
    torus: TorusData, e3: AltForm3, a, b, c
) -> tuple[Fraction, Fraction]:
    """(exponent_re, exponent_im) at rational (a, b, c), by `exponent_over`."""
    vecs = (to_vec(a), to_vec(b), to_vec(c))
    re, dre, im, dim = exponent_over(torus, e3, *map(torus.lift, vecs))
    return Fraction(re, dre), Fraction(im, dim)


def exponent_over(torus: TorusData, e3: AltForm3, a, b, c) -> tuple[int, int, int, int]:
    """(re, dre, im, dim) with exponent_re = re/dre and exponent_im = im/dim,
    for triples (da, x, ix) with a = x/da and ix = dj*J*x, likewise b, c,
    as `TorusData.lift` builds them.

    With E scaled by the lcm de of its denominators (`AltForm3.int_entries`),
    s1..s6 the scaled E(a,b,c), E(ia,ib,c), E(ia,b,ic), E(a,ib,c), E(a,b,ic)
    and E(ia,b,c), and D = da*db*dc*de:

        re = (2*dj**2*s1 + s2 + s3) / (16*dj**2*D)
        im = (s4 + s5 - 2*s6) / (16*dj*D)

    Each determinant is expanded along its first argument, so s2 + s3 and
    s4 + s5 share the minors of (ib, c) plus those of (b, ic).
    """
    (da, a, ia), (db, b, ib), (dc, c, ic) = a, b, c
    dj = torus.j_columns[0]
    de, ks = e3.int_entries
    k2 = 2 * dj * dj
    re = im = 0
    for p, q, r, k in ks:
        bp, bq, br = b[p], b[q], b[r]
        cp, cq, cr = c[p], c[q], c[r]
        jbp, jbq, jbr = ib[p], ib[q], ib[r]
        jcp, jcq, jcr = ic[p], ic[q], ic[r]
        # minors on the pairs (q, r), (p, r), (p, q): m of (b, c), n of
        # (ib, c) plus (b, ic)
        m0, m1, m2 = bq * cr - br * cq, bp * cr - br * cp, bp * cq - bq * cp
        n0 = jbq * cr - jbr * cq + bq * jcr - br * jcq
        n1 = jbp * cr - jbr * cp + bp * jcr - br * jcp
        n2 = jbp * cq - jbq * cp + bp * jcq - bq * jcp
        ap, aq, ar = a[p], a[q], a[r]
        jap, jaq, jar = ia[p], ia[q], ia[r]
        re += k * (
            k2 * (ap * m0 - aq * m1 + ar * m2) + jap * n0 - jaq * n1 + jar * n2
        )
        im += k * (
            ap * n0 - aq * n1 + ar * n2 - 2 * (jap * m0 - jaq * m1 + jar * m2)
        )
    den = 16 * dj * da * db * dc * de
    return re, den * dj, im, den


def factor_digit_bound(torus: TorusData, e3: AltForm3) -> int:
    """h0 = 6*K*m**2, a bound on the numerators of `exponent_over` at every
    basis triple (e_k, e_a, e_b), read off E and J alone.

    With K the sum of |k| over E's integer coefficients and m the largest
    of dj and the entries of dj*J in absolute value, a 3x3 minor of basis
    vectors and their J-images is at most 1 with no J-image among them, m
    with one and 2*m**2 with two, so |re| <= K*(2*dj**2 + 4*m**2) and
    |im| <= 4*K*m, both at most h0.  At (x/dw, e_a, e_b) the numerators
    over dw times those denominators are sum_k x_k times those at e_k, so
    at most h0*sum_k |x_k|.
    """
    (dj, cols), (_, ks) = torus.j_columns, e3.int_entries
    m = max(dj, *[abs(y) for col in cols for _, y in col])
    return 6 * sum(abs(k) for *_, k in ks) * m * m


def balanced_digits(n: int, h: int, count: int) -> list[int]:
    """The count lowest balanced base-B digits of n for B = 2*h + 1, each
    in [-h, h] and lowest first, then what is left: n is sum_k
    digits[k]*B**k + rest*B**count.  When n is sum_k B**k*v_k for count
    values |v_k| <= h, the digits are the v_k and the rest is 0."""
    base, digits = 2 * h + 1, []
    for _ in range(count):
        r = (n + h) % base - h
        digits.append(r)
        n = (n - r) // base
    digits.append(n)
    return digits


def basis_factor_rows(torus: TorusData, e3: AltForm3) -> tuple[int, int, PackedRows]:
    """(dre, dim, rows): the translation factors H_{e_a,e_b} of the basis
    pairs as packed integer rows (`PackedRows`), one per basis vector e_k,
    over the denominators dre = 16*dj**2*de and dim = 16*dj*de of
    `exponent_over` at basis triples.

    Row k holds exponent_over(e_k, e_a, e_b) for the pairs (a, b) in
    row-major order: the d**2 real numerators, then the d**2 imaginary
    ones.  The numerators are linear in the first argument's (x, dj*J*x),
    so for w = x/dw the row vector rows.times(x) over (dw*dre, dw*dim)
    holds exponent_over(w, e_a, e_b) with the same integers.  E is
    alternating, so each factor is antisymmetric in (a, b): only a < b is
    computed, the diagonal is zero and (b, a) is -(a, b).

    One call per pair evaluates all d first arguments at once (Kronecker
    substitution): at x = (1, B, ..., B**(d-1)) each numerator is
    sum_k B**k * (its value at e_k), whose `balanced_digits` are those
    values, as each is at most h = `factor_digit_bound` in absolute value
    and B = 2*h + 1.
    """
    d = torus.dim
    h = factor_digit_bound(torus, e3)
    x = [(2 * h + 1) ** k for k in range(d)]
    packed, lifts = (1, x, torus.mul_i_over(x)), [torus.lift(ek) for ek in torus.basis()]
    rows = [[0] * (2 * d * d) for _ in range(d)]
    for a, b in itertools.combinations(range(d), 2):
        ab, ba = a * d + b, b * d + a
        re, _, im, _ = exponent_over(torus, e3, packed, lifts[a], lifts[b])
        for row, r, i in zip(rows, balanced_digits(re, h, d), balanced_digits(im, h, d)):
            row[ab], row[ba], row[d * d + ab], row[d * d + ba] = r, -r, i, -i
    dj, de = torus.j_columns[0], e3.int_entries[0]
    return 16 * dj * dj * de, 16 * dj * de, PackedRows(rows)


def exponent_re(torus: TorusData, e3: AltForm3, a, b, c) -> Fraction:
    """Real part of the canonical exponent, trilinear in rational arguments:

    (E(a,b,c) + E(ia,ib,c)/2 + E(ia,b,ic)/2) / 8
    """
    return _canonical_exponent(torus, e3, a, b, c)[0]


def exponent_im(torus: TorusData, e3: AltForm3, a, b, c) -> Fraction:
    """Imaginary part of the canonical exponent, trilinear in rational arguments:

    (E(a,ib,c)/2 + E(a,b,ic)/2 - E(ia,b,c)) / 8
    """
    return _canonical_exponent(torus, e3, a, b, c)[1]


def forms_over(torus: TorusData, e3: AltForm3, w: Vec) -> tuple:
    """The canonical exponent with its first argument fixed at w, in
    integers: (dw, x, ix, do, omega, omega_i, l).

    (dw, x, ix) is `TorusData.lift` of w, so iw = ix/(dj*dw), and omega,
    omega_i and l are the full integer matrices of E(w,.,.) over do =
    de*dw, E(iw,.,.) over dj*do and L_w over 16*dj*do, the bilinear form
    L_w = (J^T*omega + omega*J - 2*omega_i)/16 with exponent_im(w, x, y) =
    x^T*L_w*y.  Since omega is alternating, J^T*omega = -(omega*J)^T, so
    with Y = dj*omega*J the form is l = Y - Y^T - 2*omega_i.
    """
    dw, x, ix = torus.lift(w)
    omega, do = e3.contract_over(x, dw)
    omega_i = e3.contract_over(ix)[0]
    y = torus.times_j(omega)
    r = range(torus.dim)
    l = [[y[a][b] - y[b][a] - 2 * omega_i[a][b] for b in r] for a in r]
    return dw, x, ix, do, omega, omega_i, l


def pair_exponent(gerbe: GerbeData, l1, l2) -> ExponentFn:
    """The holomorphic exponent H attached to a lattice pair, linear in v."""
    t = gerbe.torus
    l1, l2 = lattice_vector(l1, t.dim, "l1"), lattice_vector(l2, t.dim, "l2")
    parts = [_canonical_exponent(t, gerbe.e, ek, l1, l2) for ek in t.basis()]
    lin_re, lin_im = zip(*parts)
    return ExponentFn(ZERO_G, lin_re, lin_im)


def cocycle_exponent(gerbe: GerbeData, l1, l2) -> ExponentFn:
    """Exponent of the canonical cocycle: B(l1,l2)/2 plus the pair exponent.

    The translation-invariant normalizing constants of the full cocycle are
    omitted; every identity computed downstream is independent of them.
    """
    l1, l2 = to_vec(l1), to_vec(l2)
    h = pair_exponent(gerbe, l1, l2)
    return h.add_const(GaussianRational.real(gerbe.b.evaluate(l1, l2) / 2))


def translation_factor(gerbe: GerbeData, w, l1, l2) -> GaussianRational:
    """Exponent of the factor a translation by w multiplies the cocycle by.

    It reads only E and J, never the per-vector forms of w, so it is the
    independent side of the trivialization residual.
    """
    t = gerbe.torus
    l1, l2 = lattice_vector(l1, t.dim, "l1"), lattice_vector(l2, t.dim, "l2")
    return GaussianRational(*_canonical_exponent(t, gerbe.e, w, l1, l2))


def translation_shift_form(torus: TorusData, e3: AltForm3, w) -> AltForm2:
    """The 2-form (5*E(w,.,.) - 3*E(w,i.,i.)) / 8 added to B by translation."""
    return pullback_combination(torus, contract3(e3, w), *SHIFT_COEFFICIENTS)


# (c0, c1) of the translation shift c0*omega + c1*J^T*omega*J
SHIFT_COEFFICIENTS = (Fraction(5, 8), Fraction(-3, 8))


def translate_gerbe(gerbe: GerbeData, w) -> GerbeData:
    """Canonical presentation of the gerbe pulled back by translation by w."""
    shift = translation_shift_form(gerbe.torus, gerbe.e, w)
    return gerbe._with_b(gerbe.b + shift)


def gerbes_isomorphic(g1: GerbeData, g2: GerbeData) -> bool:
    """Whether two presentations describe isomorphic gerbes.

    True iff the 3-forms agree and the difference of the 2-forms lies in
    Alt^2(Z) + {type (1,1) forms}, decided exactly via lattice membership of
    anti-invariant parts.
    """
    if g1.torus != g2.torus:
        raise ValueError("gerbes live on different tori")
    if g1.e != g2.e:
        return False
    return integral_anti_invariant_member(g1.torus, g1.b - g2.b)
