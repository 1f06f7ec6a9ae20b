"""The one integer layout of a 2-form: its pair coordinates, the entries on
the pairs a < b in lexicographic order.

`torus.pullback_over` maps pair coordinates to pair coordinates through
`TorusData.pullback_map`; it is compared with dense `Fraction` matrices.
`AltForm2.from_pairs` writes its coordinates straight from the dict and
reports a bad pair or a float as it reads the items in order.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgerbe import AltForm2, check_complex_structure
from torusgerbe.exact import mat_mul
from torusgerbe.torus import pullback_over

from helpers import FractionAltForm2, standard_j_rows, twisted_torus

# the (c0, c1) of every c0*omega + c1*J^T*omega*J the package forms: the
# pullback, the anti-invariant part, the translation shift, the integral
# (1,1) piece and the (1,1) membership test; then pairs with unequal
# denominators, which the package's own never have
COEFFICIENTS = [
    (0, 1), (F(1, 2), F(-1, 2)), (F(5, 8), F(-3, 8)), (F(-3, 8), F(-3, 8)), (1, -1),
    (F(1, 2), F(1, 3)), (F(2, 3), F(-5, 4)), (3, F(-1, 6)),
]
TORI = [
    twisted_torus(n, 0) if twisted else check_complex_structure(standard_j_rows(n))
    for n in (2, 3)
    for twisted in (False, True)
]
TORUS_IDS = [f"n{n}-{tw}" for n in (2, 3) for tw in ("standard", "twisted")]
N4 = twisted_torus(4, 0)


def pairs(dim):
    return list(itertools.combinations(range(dim), 2))


def dense_pullback(torus, nums, den, c0, c1):
    """The pair coordinates of c0*omega + c1*J^T*omega*J for the form with
    pair coordinates nums / den, by two dense Fraction matrix products."""
    omega = FractionAltForm2.from_pairs(
        torus.dim, {pair: F(x, den) for pair, x in zip(pairs(torus.dim), nums)}
    ).entries
    pulled = mat_mul(torus.jt, mat_mul(omega, torus.j))
    return [c0 * omega[a][b] + c1 * pulled[a][b] for a, b in pairs(torus.dim)]


def assert_pullback_matches(torus, nums, den):
    for c0, c1 in COEFFICIENTS:
        coords, d = pullback_over(torus, nums, den, c0, c1)
        assert len(coords) == len(nums)
        assert [F(x, d) for x in coords] == dense_pullback(torus, nums, den, c0, c1)


@st.composite
def coordinates(draw, dim):
    """(nums, den): integer pair coordinates over a positive denominator."""
    count = dim * (dim - 1) // 2
    nums = draw(st.lists(st.integers(-20, 20), min_size=count, max_size=count))
    return nums, draw(st.integers(1, 12))


@pytest.mark.parametrize("torus", TORI, ids=TORUS_IDS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_pullback_over_is_the_dense_combination(torus, data):
    assert_pullback_matches(torus, *data.draw(coordinates(torus.dim)))


def test_pullback_over_at_n4():
    rng = random.Random(4)
    nums = [rng.randint(-9, 9) for _ in pairs(N4.dim)]
    assert_pullback_matches(N4, nums, 6)


def test_pullback_map_stays_sparse():
    # the standard J permutes the basis up to sign, so each basis 2-form
    # pulls back to one basis 2-form
    t = check_complex_structure(standard_j_rows(12))
    dj2, images = t.pullback_map
    assert dj2 == 1 and len(images) == len(pairs(t.dim))
    assert all(len(image) == 1 for image in images)


@pytest.mark.parametrize(
    "coeffs, error",
    [
        ({(1, 0): 1}, ValueError),
        ({(0, 4): 1}, ValueError),
        ({(-1, 2): 1}, ValueError),
        ({(2, 2): 1}, ValueError),
        ({(0, 1): 0.5}, TypeError),
        # a bad pair is reported before its float, and each item in turn
        ({(1, 0): 0.5}, ValueError),
        ({(0, 1): 1, (2, 3): 0.5, (3, 2): 1}, TypeError),
        ({(0, 1): 1, (3, 2): 1, (2, 3): 0.5}, ValueError),
    ],
)
def test_from_pairs_errors(coeffs, error):
    match = "pair indices" if error is ValueError else "floats are not allowed"
    with pytest.raises(error, match=match):
        AltForm2.from_pairs(4, coeffs)
