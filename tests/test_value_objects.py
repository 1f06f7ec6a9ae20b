"""The contract every value object of the package keeps.

A value object is frozen: assigning to or deleting any attribute raises
AttributeError.  Equality and hashing read its named fields and nothing
else, so equal objects hash alike, and a field kept outside comparison (a
record's integer matrices, `TorusData.jt`, an obstruction context's cache)
moves neither.  Constructors that normalise a sequence argument give the
same object for a list and a tuple, and a missing argument raises
TypeError.  `_Basis` alone compares by identity.
"""

import enum
import sys
from fractions import Fraction as F

import pytest

from torusgerbe import (
    AltForm2,
    AltForm3,
    Character,
    ExponentFn,
    GaussianRational,
    GerbeData,
    TorusData,
    TranslationContext,
    UnitValue,
)
from torusgerbe.cli import ProblemFile
from torusgerbe.obstruction import (
    ObstructionContext,
    SecondObstructionValues,
    SubgroupSpec,
    ThetaGroupElement,
    VanishingResult,
)
from torusgerbe.symmetry import Decomposition, InvarianceClass
from torusgerbe.torus import HodgeImage
from torusgerbe.trivialization import _Basis, _stacked


def torus(seq):
    return TorusData(1, seq([seq([0, -1]), seq([1, 0])]))


def gerbe(seq):
    b = AltForm2(seq([seq([0, F(1, 2)]), seq([F(-1, 2), 0])]))
    return GerbeData(torus(seq), b, AltForm3.zero(2))


def second_values(seq):
    one = UnitValue(0)
    return SecondObstructionValues(one, one, one, GaussianRational(0, 0), True, True, True, True)


# name -> (build(seq), compared fields, fields outside comparison, required
# arguments).  build passes seq (list or tuple) for every sequence argument
# the constructor normalises; the fields are in declaration order.
ROWS = {
    "GaussianRational": (lambda seq: GaussianRational(F(1, 2), -3), ("re", "im"), (), 2),
    "UnitValue": (lambda seq: UnitValue(F(5, 2)), ("exponent",), (), 1),
    "AltForm2": (
        lambda seq: AltForm2(seq([seq([0, F(1, 2)]), seq([F(-1, 2), 0])])),
        ("dim", "upper", "den"),
        (),
        1,
    ),
    "AltForm3": (
        lambda seq: AltForm3.from_coeffs(4, {(0, 1, 2): 2}),
        ("dim", "entries"),
        (),
        2,
    ),
    "TorusData": (torus, ("n", "j"), ("jt",), 2),
    "HodgeImage": (
        lambda seq: HodgeImage(AltForm2.zero(2), AltForm2(seq([seq([0, 1]), seq([-1, 0])]))),
        ("re", "im"),
        (),
        2,
    ),
    "ExponentFn": (
        lambda seq: ExponentFn(1, seq([F(1, 3), 0]), seq([0, 2])),
        ("const", "lin_re", "lin_im"),
        (),
        3,
    ),
    "Character": (
        lambda seq: Character(seq([1, GaussianRational(0, F(1, 2))])),
        ("exponents",),
        (),
        1,
    ),
    "GerbeData": (gerbe, ("torus", "b", "e"), (), 3),
    "InvarianceClass": (
        lambda seq: InvarianceClass(AltForm2.zero(2), True),
        ("representative", "is_zero"),
        (),
        2,
    ),
    "Decomposition": (
        lambda seq: Decomposition(AltForm2.zero(2), AltForm2.zero(2)),
        ("invariant_part", "integral_part"),
        (),
        2,
    ),
    "TranslationContext": (
        lambda seq: TranslationContext.create(gerbe(seq), seq([F(1, 2), 0]), "integral"),
        ("gerbe", "w", "case"),
        ("dw", "x", "ix", "den", "member", "omega", "f", "m", "r"),
        12,
    ),
    "_Basis": (
        lambda seq: _stacked(TranslationContext.basis(gerbe(seq), "integral")),
        ("records", "rows"),
        (),
        2,
    ),
    "ObstructionContext": (
        lambda seq: ObstructionContext(gerbe(seq), "integral"),
        ("gerbe", "case"),
        ("_vectors",),
        2,
    ),
    "SecondObstructionValues": (
        second_values,
        (
            "skew",
            "general_factor",
            "closed_form",
            "skew_exponent",
            "skew_is_real",
            "agree_skew_general",
            "agree_skew_closed",
            "agree_general_closed",
        ),
        (),
        8,
    ),
    "ThetaGroupElement": (
        lambda seq: ThetaGroupElement(Character(seq([0, 0])), seq([F(1, 2), 0])),
        ("character", "w"),
        (),
        2,
    ),
    "SubgroupSpec": (
        lambda seq: SubgroupSpec(seq([seq([1, 0])]), "oneone"),
        ("generators", "case"),
        (),
        2,
    ),
    "VanishingResult": (
        lambda seq: VanishingResult(True, None, 3),
        ("vanishes", "certificate", "tuples_checked", "cross_check_disagreements"),
        (),
        3,
    ),
    "ProblemFile": (
        lambda seq: ProblemFile(gerbe(seq), (("w", (F(1), F(0))),), None),
        ("gerbe", "vectors", "case"),
        (),
        3,
    ),
}

BY_IDENTITY = {"_Basis"}
VALUE_ROWS = sorted(set(ROWS) - BY_IDENTITY)


def build(name, seq=tuple):
    return ROWS[name][0](seq)


def frozen_classes() -> dict:
    """Every class of the package that refuses attribute assignment, by
    name, exceptions and enums aside."""
    found = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "torusgerbe" and not mod_name.startswith("torusgerbe."):
            continue
        for name, obj in vars(module).items():
            if (
                isinstance(obj, type)
                and obj.__module__ == mod_name
                and obj.__setattr__ is not object.__setattr__
                and not issubclass(obj, (BaseException, enum.Enum))
            ):
                found[name] = obj
    found.pop("Frozen", None)  # the shared base, which has no fields
    return found


def test_every_frozen_class_has_a_row():
    found = frozen_classes()
    assert set(found) == set(ROWS)
    for name, cls in found.items():
        assert type(build(name)) is cls


@pytest.mark.parametrize("name", VALUE_ROWS)
def test_equal_instances_hash_alike(name):
    a, b = build(name), build(name)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != object() and a != None  # noqa: E711


@pytest.mark.parametrize("name", VALUE_ROWS)
def test_a_list_and_a_tuple_argument_give_equal_objects(name):
    a, b = build(name, list), build(name, tuple)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_fields_can_be_neither_assigned_nor_deleted(name):
    obj = build(name)
    _, compared, hidden, _ = ROWS[name]
    for field in (*compared, *hidden, "not_a_field"):
        before = vars(obj).get(field)
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert vars(obj).get(field) is before


@pytest.mark.parametrize("name", VALUE_ROWS)
def test_only_the_compared_fields_decide_equality(name):
    """Changing any compared field breaks equality; changing any other
    leaves ==, hash and repr as they were."""
    obj = build(name)
    _, compared, hidden, _ = ROWS[name]
    for field in compared:
        other = build(name)
        object.__setattr__(other, field, "changed")
        assert other != obj
    other = build(name)
    for field in hidden:
        object.__setattr__(other, field, "changed")
    assert other == obj and hash(other) == hash(obj) and repr(other) == repr(obj)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_repr_shows_the_compared_fields_in_order(name):
    obj = build(name)
    shown = ", ".join(f"{f}={getattr(obj, f)!r}" for f in ROWS[name][1])
    assert repr(obj) == f"{type(obj).__qualname__}({shown})"


def test_the_basis_compares_by_identity():
    a, b = build("_Basis"), build("_Basis")
    assert a == a and a != b and a.records == b.records
    assert hash(a) == object.__hash__(a)


def test_each_obstruction_context_gets_its_own_cache():
    a, b = build("ObstructionContext"), build("ObstructionContext")
    assert a._vectors == {} and a._vectors is not b._vectors
    b.vector((F(1, 2), 0))
    assert len(b._vectors) == 1 and a._vectors == {}
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_a_missing_or_extra_argument_raises_type_error(name):
    obj = build(name)
    _, compared, hidden, required = ROWS[name]
    args = [getattr(obj, f) for f in (*compared, *hidden)]
    for bad in (args[: required - 1], [*args, None]):
        with pytest.raises(TypeError):
            type(obj)(*bad)
    with pytest.raises(TypeError):
        type(obj)(*args[: required - 1], not_a_field=None)


def test_defaults_and_derived_fields():
    assert VanishingResult(False, None, 0).cross_check_disagreements == ()
    t = build("TorusData")
    assert t.jt == tuple(zip(*t.j))


GERBE_REPR = (
    "GerbeData(torus=TorusData(n=1, j=((Fraction(0, 1), Fraction(-1, 1)), "
    "(Fraction(1, 1), Fraction(0, 1)))), b=AltForm2(dim=2, upper=(1,), den=2), "
    "e=AltForm3(dim=2, entries=()))"
)

REPRS = {
    "GaussianRational": "GaussianRational(re=Fraction(1, 2), im=Fraction(-3, 1))",
    "UnitValue": (
        "UnitValue(exponent=GaussianRational(re=Fraction(1, 2), im=Fraction(0, 1)))"
    ),
    "GerbeData": GERBE_REPR,
    "ExponentFn": (
        "ExponentFn(const=GaussianRational(re=Fraction(1, 1), im=Fraction(0, 1)), "
        "lin_re=(Fraction(1, 3), Fraction(0, 1)), lin_im=(Fraction(0, 1), Fraction(2, 1)))"
    ),
    "Character": (
        "Character(exponents=(GaussianRational(re=Fraction(1, 1), im=Fraction(0, 1)), "
        "GaussianRational(re=Fraction(0, 1), im=Fraction(1, 2))))"
    ),
    "TranslationContext": (
        f"TranslationContext(gerbe={GERBE_REPR}, w=(Fraction(1, 2), Fraction(0, 1)), "
        "case=<SubgroupCase.INTEGRAL: 'integral'>)"
    ),
    "ObstructionContext": (
        f"ObstructionContext(gerbe={GERBE_REPR}, case=<SubgroupCase.INTEGRAL: 'integral'>)"
    ),
    "VanishingResult": (
        "VanishingResult(vanishes=True, certificate=None, tuples_checked=3, "
        "cross_check_disagreements=())"
    ),
    "SubgroupSpec": (
        "SubgroupSpec(generators=((Fraction(1, 1), Fraction(0, 1)),), "
        "case=<SubgroupCase.TYPE_ONE_ONE: 'oneone'>)"
    ),
    "ProblemFile": (
        f"ProblemFile(gerbe={GERBE_REPR}, vectors=(('w', (Fraction(1, 1), Fraction(0, 1))),), "
        "case=None)"
    ),
    "HodgeImage": (
        "HodgeImage(re=AltForm2(dim=2, upper=(0,), den=1), "
        "im=AltForm2(dim=2, upper=(1,), den=1))"
    ),
}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_is_unchanged(name):
    assert repr(build(name)) == REPRS[name]
