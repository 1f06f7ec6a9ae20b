"""One input contract for every public function evaluated at a lattice vector.

Each row names a public function and the lattice-vector argument it takes;
the other arguments are fixed on the n = 2 gerbe with E = 2*e123 and B =
e12/2, in the integral case at w = (1/2, 0, 0, 0).  Every row is checked
by `exact.lattice_vector`, so for each:
- a float entry raises the package's TypeError, an integral-valued one too;
- a vector of the wrong length raises the dimension mismatch;
- a non-integer entry raises ValueError naming the argument;
- a list and a tuple of the same entries give equal results.

A rational vector (any w) is checked by `exact.sized_vector`, the length
half of the same check: the second table holds one row per public
function and rational-vector argument, a wrong length raises the same
dimension mismatch, naming the argument, and a float the package's
TypeError.  The third table holds the integer methods that take the
vectors the kernels have already validated, which check the length alone
and name the argument the same way.  A form, exponent function or
character of the wrong dimension is named as its argument too.
"""

import ast
import inspect
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from torusgerbe import (
    AltForm2,
    AltForm3,
    Character,
    GaussianRational,
    ObstructionContext,
    SubgroupCase,
    TranslationContext,
    case_decomposition,
    cocycle_exponent,
    contract3,
    exponent_im,
    exponent_re,
    fixes_gerbe,
    in_case_subgroup,
    invariance_class,
    integral_part_exponent,
    invariant_part_exponent,
    lift_defect_exponent,
    pair_exponent,
    symmetric_part_exponent,
    translate_gerbe,
    translation_factor,
    trivialization_residual,
    trivializing_exponent,
    unitarize_exponent,
    verify_trivialization,
)
from torusgerbe.exact import ReducedLattice, dot, lattice_membership
from torusgerbe.gerbe import ExponentFn, GerbeData, forms_over, gerbe_tables
from torusgerbe.gerbe import translation_shift_form
from torusgerbe.torus import integral_anti_invariant_member, pullback_combination
from torusgerbe.torus import type_condition_check
from torusgerbe.trivialization import first_failing_pair

from helpers import gerbe4, vec

INT = SubgroupCase.INTEGRAL
W1 = vec(F(1, 2), 0, 0, 0)
W2 = vec(0, F(1, 2), 0, 0)
E0 = (1, 0, 0, 0)
G = gerbe4(2, AltForm2.from_pairs(4, {(0, 1): F(1, 2)}))
CTX = TranslationContext.create(G, W1, INT)
OCTX = ObstructionContext(G, INT)
CHAR = Character(tuple(GaussianRational(F(k), F(1, 2)) for k in range(4)))

# name -> (argument, the call with the vector as that argument)
ROWS = {
    "Character.exponent_at": ("lam", lambda v: CHAR.exponent_at(v)),
    "pair_exponent(l1)": ("l1", lambda v: pair_exponent(G, v, E0)),
    "pair_exponent(l2)": ("l2", lambda v: pair_exponent(G, E0, v)),
    "cocycle_exponent(l1)": ("l1", lambda v: cocycle_exponent(G, v, E0)),
    "cocycle_exponent(l2)": ("l2", lambda v: cocycle_exponent(G, E0, v)),
    "translation_factor(l1)": ("l1", lambda v: translation_factor(G, W1, v, E0)),
    "translation_factor(l2)": ("l2", lambda v: translation_factor(G, W1, E0, v)),
    "trivializing_exponent": ("lam", lambda v: trivializing_exponent(CTX, v)),
    "integral_part_exponent": ("lam", lambda v: integral_part_exponent(CTX, v)),
    "unitarize_exponent": ("lam", lambda v: unitarize_exponent(CTX, v)),
    "symmetric_part_exponent": ("lam", lambda v: symmetric_part_exponent(CTX, v)),
    "invariant_part_exponent": ("lam", lambda v: invariant_part_exponent(CTX, v)),
    "first_failing_pair(l1)": ("l1", lambda v: first_failing_pair(CTX, [(E0, E0), (v, E0)])),
    "first_failing_pair(l2)": ("l2", lambda v: first_failing_pair(CTX, [(E0, v)])),
    "verify_trivialization(l1)": ("l1", lambda v: verify_trivialization(CTX, [(v, E0)])),
    "verify_trivialization(l2)": ("l2", lambda v: verify_trivialization(CTX, [(E0, v)])),
    "trivialization_residual(l1)": ("l1", lambda v: trivialization_residual(CTX, v, E0)),
    "trivialization_residual(l2)": ("l2", lambda v: trivialization_residual(CTX, E0, v)),
    "lift_defect_exponent": ("lam", lambda v: lift_defect_exponent(OCTX, W1, W2, v)),
}
NAMES = sorted(ROWS)
# name -> (argument, the call with the rational vector as that argument)
RATIONAL_ROWS = {
    "TranslationContext.create": ("w", lambda v: TranslationContext.create(G, v, INT)),
    "ObstructionContext.vector": ("w", lambda v: ObstructionContext(G, INT).vector(v)),
    "contract3": ("w", lambda v: contract3(G.e, v)),
    "fixes_gerbe": ("w", lambda v: fixes_gerbe(G.torus, G.e, v)),
    "in_case_subgroup": ("w", lambda v: in_case_subgroup(G.torus, G.e, v, INT)),
    "invariance_class": ("w", lambda v: invariance_class(G.torus, G.e, v)),
    "case_decomposition": ("w", lambda v: case_decomposition(G.torus, G.e, v, INT)),
    "translate_gerbe": ("w", lambda v: translate_gerbe(G, v)),
    "translation_shift_form": ("w", lambda v: translation_shift_form(G.torus, G.e, v)),
    # TorusData.lift named its own parameter: "v has 3 entries, not 4"
    "forms_over": ("w", lambda v: forms_over(G.torus, G.e, v)),
    "translation_factor(w)": ("w", lambda v: translation_factor(G, v, E0, E0)),
    "TorusData.mul_i": ("v", lambda v: G.torus.mul_i(v)),
    "AltForm2.apply": ("v", lambda v: G.b.apply(v)),
    "AltForm2.evaluate(x)": ("x", lambda v: G.b.evaluate(v, W1)),
    "AltForm2.evaluate(y)": ("y", lambda v: G.b.evaluate(W1, v)),
    "TorusData.lift": ("v", lambda v: G.torus.lift(v)),
    "AltForm3.evaluate(x)": ("x", lambda v: G.e.evaluate(v, W1, W2)),
    "AltForm3.evaluate(y)": ("y", lambda v: G.e.evaluate(W1, v, W2)),
    "AltForm3.evaluate(z)": ("z", lambda v: G.e.evaluate(W1, W2, v)),
    **{
        f"{fn.__name__}({what})": (
            what,
            lambda v, fn=fn, k=k: fn(G.torus, G.e, *[v if a == k else W1 for a in range(3)]),
        )
        for fn in (exponent_re, exponent_im)
        for k, what in enumerate("abc")
    },
}


@pytest.mark.parametrize("name", NAMES)
def test_a_float_raises_the_package_type_error(name):
    _, call = ROWS[name]
    for v in ([0.5, 0, 0, 0], (1, 0, 0, 1.0)):
        with pytest.raises(TypeError, match="floats are not allowed in exact computations"):
            call(v)


@pytest.mark.parametrize("name", NAMES)
def test_a_wrong_length_raises_the_dimension_mismatch(name):
    what, call = ROWS[name]
    for v in ((1, 0, 0), (1, 0, 0, 0, 0), ()):
        with pytest.raises(ValueError, match=f"dimension mismatch: {what} has {len(v)} entries"):
            call(v)


@pytest.mark.parametrize("name", sorted(RATIONAL_ROWS))
def test_a_wrong_length_rational_vector_is_named(name):
    what, call = RATIONAL_ROWS[name]
    for v in ((F(1, 2), 0, 0), (F(1, 2), 0, 0, 0, 0)):
        message = rf"^dimension mismatch: {what} has {len(v)} entries, not 4$"
        with pytest.raises(ValueError, match=message):
            call(v)
    call(W2)  # a member of the right length passes


def test_every_public_vector_function_has_a_rational_row():
    # a public function of these modules that validates, contracts or lifts
    # a vector takes a rational vector argument
    import torusgerbe.gerbe
    import torusgerbe.symmetry
    import torusgerbe.torus

    markers = ("sized_vector(", "contract3(", ".lift(", ".contraction(")
    callers = {
        name
        for module in (torusgerbe.torus, torusgerbe.symmetry, torusgerbe.gerbe)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and not name.startswith("_")
        and any(m in inspect.getsource(fn) for m in markers)
    }
    rows = {name.split("(")[0] for name in RATIONAL_ROWS}
    # basis_factor_rows lifts the basis vectors itself and takes no vector
    assert callers - rows == {"basis_factor_rows"}
    # pinned, so that a function whose check moves behind a new entry point
    # cannot drop out of the detected set unseen
    assert callers == {
        "basis_factor_rows",
        "case_decomposition",
        "contract3",
        "fixes_gerbe",
        "forms_over",
        "in_case_subgroup",
        "invariance_class",
        "translate_gerbe",
        "translation_factor",
        "translation_shift_form",
    }


@pytest.mark.parametrize("name", sorted(RATIONAL_ROWS))
def test_a_float_in_a_rational_vector_raises_the_package_type_error(name):
    # TorusData.lift raised AttributeError: 'float' object has no
    # attribute 'denominator'
    _, call = RATIONAL_ROWS[name]
    for v in ([0.5, 0, 0, 0], (1, 0, 0, 1.0)):
        with pytest.raises(TypeError, match="floats are not allowed in exact computations"):
            call(v)


# name -> (argument, the call with the integer list as that argument)
INTEGER_ROWS = {
    "AltForm3.evaluate_over(x)": ("x", lambda v: G.e.evaluate_over(v, [1, 0, 0, 0], [0, 1, 0, 0])),
    "AltForm3.evaluate_over(y)": ("y", lambda v: G.e.evaluate_over([1, 0, 0, 0], v, [0, 1, 0, 0])),
    "AltForm3.evaluate_over(z)": ("z", lambda v: G.e.evaluate_over([1, 0, 0, 0], [0, 1, 0, 0], v)),
    "AltForm3.contract_pairs": ("nums", lambda v: G.e.contract_pairs(v, 2)),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ROWS))
def test_a_wrong_length_integer_vector_is_named(name):
    # each said "vector/form dimension mismatch"
    what, call = INTEGER_ROWS[name]
    for v in ([1, 0, 0], [1, 0, 0, 0, 0], []):
        message = rf"^dimension mismatch: {what} has {len(v)} entries, not 4$"
        with pytest.raises(ValueError, match=message):
            call(v)
    call([0, 0, 1, 0])  # the right length passes


@pytest.mark.parametrize("name", NAMES)
def test_a_non_integer_entry_raises_naming_the_argument(name):
    # lift_defect_exponent read (1/2, 0, 0, 0) as 0 and returned 0+0i
    what, call = ROWS[name]
    for v in ((F(1, 2), 0, 0, 0), [0, 0, 0, F(-7, 3)], (1, 0, F(2, 4), 0)):
        with pytest.raises(ValueError, match=rf"^{what} must be a lattice \(integer\) vector$"):
            call(v)


@pytest.mark.parametrize("name", NAMES)
def test_a_list_and_a_tuple_give_equal_results(name):
    _, call = ROWS[name]
    for entries in ((2, -1, 0, 3), (0, 0, 0, 0), (1, 0, 0, 0)):
        fractions = tuple(F(x) for x in entries)
        assert call(list(entries)) == call(tuple(entries)) == call(fractions)


def test_one_function_reads_the_integrality_test():
    src = Path(__file__).resolve().parent.parent / "src" / "torusgerbe"
    readers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(n, ast.Name) and n.id == "vec_is_integral" for n in ast.walk(node)
            ):
                readers.append(f"{path.name}:{node.name}")
    assert readers == ["exact.py:lattice_vector"]


E6 = AltForm3.from_coeffs(6, {(0, 1, 2): 2})
B6 = AltForm2.from_pairs(6, {(0, 1): 1})
ONE, TWO = ExponentFn(0, (1,), (0,)), ExponentFn(0, (1, 0), (0, 1))
E3_6, OMEGA_6, OTHER_6 = (f"{what} has dimension 6, not 4" for what in ("e3", "omega", "other"))
# name -> (message, a call that raises it).  Each message was a bare
# "dimension mismatch", or one after "form/torus", "exponent", "character"
# or "generator/target"; the first four rows blamed w: "w has 4 entries, not 6"
NAMED_MISMATCH_ROWS = {
    "fixes_gerbe(e3)": (E3_6, lambda: fixes_gerbe(G.torus, E6, W1)),
    "in_case_subgroup(e3)": (E3_6, lambda: in_case_subgroup(G.torus, E6, W1, INT)),
    "case_decomposition(e3)": (E3_6, lambda: case_decomposition(G.torus, E6, W1, INT)),
    "invariance_class(e3)": (E3_6, lambda: invariance_class(G.torus, E6, W1)),
    "gerbe_tables(e3)": (E3_6, lambda: gerbe_tables(G.torus, E6)),
    "type_condition_check(e3)": (E3_6, lambda: type_condition_check(G.torus, E6)),
    "pullback_combination(omega)": (OMEGA_6, lambda: pullback_combination(G.torus, B6, 1, 1)),
    "integral_anti_invariant_member(omega)": (
        OMEGA_6,
        lambda: integral_anti_invariant_member(G.torus, B6),
    ),
    "GerbeData(b)": ("b has dimension 6, not 4", lambda: GerbeData(G.torus, B6, G.e)),
    "GerbeData(e)": ("e has dimension 6, not 4", lambda: GerbeData(G.torus, G.b, E6)),
    "ExponentFn.__add__": ("other has dimension 2, not 1", lambda: ONE + TWO),
    "Character.__mul__": ("other has dimension 4, not 6", lambda: Character((0,) * 6) * CHAR),
    "AltForm2.__add__": (OTHER_6, lambda: G.b + B6),
    "AltForm2.__sub__": (OTHER_6, lambda: G.b - B6),
    "dot": ("v has 3 entries, not 2", lambda: dot((F(1), F(2)), (F(1), F(2), F(3)))),
    "ReducedLattice(generators)": (
        "generators[1] has 3 entries, not 2",
        lambda: lattice_membership([(1, 0), (1, 0, 0)], (1, 0)),
    ),
    "ReducedLattice.member_over(nums)": (
        "nums has 3 entries, not 2",
        lambda: ReducedLattice([(1, (1, 0))], 2).member_over((1, 0, 0), 1),
    ),
}


@pytest.mark.parametrize("name", sorted(NAMED_MISMATCH_ROWS))
def test_a_mismatched_dimension_names_the_argument(name):
    message, call = NAMED_MISMATCH_ROWS[name]
    with pytest.raises(ValueError, match=rf"^dimension mismatch: {re.escape(message)}$"):
        call()
