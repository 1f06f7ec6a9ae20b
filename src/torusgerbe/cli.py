"""Batch front end.

Reads a JSON problem file describing a torus and gerbe data, runs one
computation, writes a deterministic JSON report to stdout and a short
human summary to stderr.

Problem file schema (all rationals are strings like "p/q" or "n"; indices
are 1-based and strictly increasing):

    {
      "n": 2,
      "J": [["0","-1","0","0"], ...],            # 2n x 2n, rows
      "E": [{"indices": [1,2,3], "coeff": "2"}],
      "B": [{"indices": [1,2], "coeff": "1/2"}],  # optional
      "vectors": {"w": ["1/2","0","0","0"]},      # optional, named
      "case": "integral"                          # optional
    }

Exit status: 0 = computed; 1 = a verified identity failed or an
obstruction does not vanish (still a successful run); 2 = input error.

Each command is one entry of ``COMMAND_TABLE``: its help text, its flags
(keys of ``FLAGS``), its handler and its stderr summary.  A handler takes
the parsed problem and the flag values and returns (result, status).
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .exact import UnitValue, Vec
from .gerbe import Character, GerbeData, TypeConditionFailed, gerbes_isomorphic, translate_gerbe
from .obstruction import (
    FirstObstructionNonzero,
    ObstructionContext,
    ObstructionKind,
    SubgroupSpec,
    defect_character,
    first_obstruction_alternating,
    gerbal_class,
    lift_defect_character,
    obstruction_vanishes,
    second_obstruction_alternating,
)
from .symmetry import NotInSubgroup, SubgroupCase, in_case_subgroup, invariance_class
from .torus import (
    AltForm2,
    AltForm3,
    NotAComplexStructure,
    check_complex_structure,
    type_condition_check,
)
from .trivialization import TranslationContext, first_failing_pair

# tau-verify checks dim**2 basis pairs plus --samples random pairs
MAX_SAMPLES = 100_000

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class ProblemError(ValueError):
    """Input error anchored to a problem-file field."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class MalformedRational(ProblemError):
    pass


class NonIncreasingIndices(ProblemError):
    pass


class BadDimensions(ProblemError):
    pass


class UnknownCommand(ValueError):
    pass


def _is_int(x) -> bool:
    """An integer in the JSON sense: true and false are not integers."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_rational(text, field: str) -> Fraction:
    if _is_int(text):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise MalformedRational(f"not a rational string: {text!r}", field)
    try:
        return Fraction(text.strip())
    except ValueError as exc:  # beyond Python's int-string digit limit
        raise MalformedRational(
            f"numeral of {len(text.strip())} characters is too long", field
        ) from exc


def render_rational(x: Fraction) -> str:
    try:
        return str(x)
    except ValueError as exc:  # beyond Python's int-string digit limit
        raise ProblemError(
            f"a number exceeds the {sys.get_int_max_str_digits()}-digit limit "
            "of integer strings",
            "result",
        ) from exc


def _parse_vector(entries, dim: int, field: str) -> Vec:
    if not isinstance(entries, (list, tuple)):
        raise BadDimensions("vector must be a list of rational strings", field)
    if len(entries) != dim:
        raise BadDimensions(f"vector must have {dim} entries, got {len(entries)}", field)
    return tuple(parse_rational(x, f"{field}[{k}]") for k, x in enumerate(entries))


def _parse_forms(items, arity: int, dim: int, name: str) -> dict:
    """The {indices, coeff} list of an alternating form as 0-based index
    tuples -> summed coefficients."""
    if not isinstance(items, list):
        raise ProblemError(f"{name} must be a list of {{indices, coeff}} objects", name)
    coeffs = {}
    for k, item in enumerate(items):
        field = f"{name}[{k}]"
        if not isinstance(item, dict) or "indices" not in item or "coeff" not in item:
            raise ProblemError("expected {indices, coeff}", field)
        idx = item["indices"]
        if not isinstance(idx, list) or len(idx) != arity or not all(_is_int(i) for i in idx):
            count = {2: "two", 3: "three"}[arity]
            raise ProblemError(f"indices must be {count} integers", f"{field}.indices")
        if not (1 <= idx[0] and idx[-1] <= dim and all(a < b for a, b in zip(idx, idx[1:]))):
            raise NonIncreasingIndices(
                f"indices must be strictly increasing in 1..{dim}, got {idx}",
                f"{field}.indices",
            )
        key = tuple(i - 1 for i in idx)
        coeffs[key] = coeffs.get(key, Fraction(0)) + parse_rational(
            item["coeff"], f"{field}.coeff"
        )
    return coeffs


@dataclass(frozen=True)
class ProblemFile:
    """Validated problem data: the gerbe plus named vectors and default case."""

    gerbe: GerbeData
    vectors: tuple[tuple[str, Vec], ...]
    case: SubgroupCase | None

    @property
    def n(self) -> int:
        return self.gerbe.torus.n

    def vector(self, name: str) -> Vec | None:
        for key, v in self.vectors:
            if key == name:
                return v
        return None


def parse_problem(text: str) -> ProblemFile:
    """Parse and fully validate a problem document."""
    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise ProblemError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise ProblemError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemError("problem document must be a JSON object")

    n = doc.get("n")
    if not _is_int(n) or n < 1:
        raise BadDimensions("n must be a positive integer", "n")
    dim = 2 * n
    try:
        shape = f"J must be a {dim}x{dim} array"
    except ValueError as exc:  # 2n beyond Python's int-string digit limit
        raise BadDimensions("n is too large", "n") from exc

    j_rows = doc.get("J")
    if not isinstance(j_rows, list) or len(j_rows) != dim:
        raise BadDimensions(shape, "J")
    j = []
    for r, row in enumerate(j_rows):
        if not isinstance(row, list) or len(row) != dim:
            raise BadDimensions(shape, f"J[{r}]")
        j.append([parse_rational(x, f"J[{r}][{c}]") for c, x in enumerate(row)])
    torus = check_complex_structure(j)  # may raise NotAComplexStructure

    e3 = AltForm3.from_coeffs(dim, _parse_forms(doc.get("E", []), 3, dim, "E"))
    if not e3.is_integral:
        raise ProblemError("the 3-form coefficients must be integers", "E")
    b2 = AltForm2.from_pairs(dim, _parse_forms(doc.get("B", []), 2, dim, "B"))
    gerbe = GerbeData(torus=torus, b=b2, e=e3)  # may raise TypeConditionFailed

    raw_vectors = doc.get("vectors", {})
    if not isinstance(raw_vectors, dict):
        raise ProblemError("vectors must be an object of named vectors", "vectors")
    vectors = tuple(
        (name, _parse_vector(raw_vectors[name], dim, f"vectors.{name}"))
        for name in sorted(raw_vectors)
    )

    case = None if doc.get("case") is None else _parse_case(doc["case"], "case")
    return ProblemFile(gerbe=gerbe, vectors=vectors, case=case)


def problem_document(problem: ProblemFile) -> dict:
    doc = {
        "n": problem.n,
        "J": [ser_vec(row) for row in problem.gerbe.torus.j],
        "E": [
            {"indices": [a + 1, b + 1, c + 1], "coeff": render_rational(v)}
            for (a, b, c), v in problem.gerbe.e.entries
        ],
        "B": ser_form2(problem.gerbe.b),
        "vectors": {name: ser_vec(v) for name, v in problem.vectors},
    }
    if problem.case is not None:
        doc["case"] = problem.case.value
    return doc


def ser_vec(v: Vec) -> list[str]:
    return [render_rational(x) for x in v]


def ser_unit(u: UnitValue) -> dict:
    out = {"exponent_mod1": render_rational(u.exponent.re)}
    if u.exponent.im != 0:
        out["exponent_im"] = render_rational(u.exponent.im)
    return out


def ser_character(c: Character) -> dict:
    exponents = [{"re": render_rational(e.re), "im": render_rational(e.im)} for e in c.exponents]
    return {"exponents": exponents, "trivial": c.is_trivial}


def ser_form2(f: AltForm2) -> list[dict]:
    pairs = itertools.combinations(range(f.dim), 2)
    return [
        {"indices": [a + 1, b + 1], "coeff": render_rational(Fraction(x, f.den))}
        for (a, b), x in zip(pairs, f.upper)
        if x
    ]


def _parse_case(raw, field: str) -> SubgroupCase:
    if raw not in ("integral", "oneone"):
        raise ProblemError(f"{field} must be 'integral' or 'oneone'", field)
    return SubgroupCase(raw)


def _named(problem: ProblemFile, name: str, field: str) -> Vec:
    v = problem.vector(name)
    if v is None:
        raise ProblemError(f"unknown vector name {name!r}", field)
    return v


def _vectors(problem: ProblemFile, args: dict, *flags: str) -> tuple[Vec, ...]:
    """The vectors given by the flags: each a name from the problem file or
    inline rationals 'a,b,...'."""
    out = []
    for flag in flags:
        spec, field = args[flag], f"--{flag}"
        if problem.vector(spec) is None and "," in spec:
            out.append(_parse_vector(spec.split(","), problem.gerbe.torus.dim, field))
        else:
            out.append(_named(problem, spec, field))
    return tuple(out)


def _resolve_case(problem: ProblemFile, args: dict) -> SubgroupCase:
    if args.get("case"):
        return _parse_case(args["case"], "--case")
    if problem.case is not None:
        return problem.case
    raise ProblemError("no case given: pass --case or set it in the problem file")


def _resolve_generators(problem: ProblemFile, args: dict) -> tuple[Vec, ...]:
    names = [name for name in (args.get("generators") or "").split(",") if name]
    if not names:
        raise ProblemError("--generators is required for this command")
    return tuple(_named(problem, name, "--generators") for name in names)


def _obstruction_doc(gerbe: GerbeData, case: SubgroupCase, gens, kind: ObstructionKind) -> dict:
    """The vanishing decision of one obstruction on the subgroup generated
    by ``gens``, with the obstruction's value at the certificate if any."""
    result = obstruction_vanishes(gerbe, SubgroupSpec.create(gens, case), kind)
    doc = {
        "vanishes": result.vanishes,
        "tuples_checked": result.tuples_checked,
        "certificate": (
            None if result.certificate is None else [ser_vec(v) for v in result.certificate]
        ),
        "cross_check_disagreements": [
            [ser_vec(v) for v in triple] for triple in result.cross_check_disagreements
        ],
    }
    if result.certificate is None:
        return doc
    ctx = ObstructionContext(gerbe, case)
    if kind is ObstructionKind.FIRST:
        w1, w2, lam = result.certificate
        char = first_obstruction_alternating(ctx, w1, w2)
        doc["value_at_certificate"] = ser_unit(UnitValue(char.exponent_at(lam)))
    else:
        values = second_obstruction_alternating(ctx, *result.certificate)
        doc["values_at_certificate"] = {
            "skew": ser_unit(values.skew),
            "general_factor": ser_unit(values.general_factor),
            "closed_form": ser_unit(values.closed_form),
            "skew_is_real": values.skew_is_real,
        }
    return doc


# ---------------------------------------------------------------- handlers


def _check_torus(problem: ProblemFile, args: dict) -> tuple[dict, int]:
    return {"n": problem.n, "complex_structure_ok": True}, 0


def _check_type(problem: ProblemFile, args: dict) -> tuple[dict, int]:
    # parse_problem already enforced this; recompute rather than assume
    ok = type_condition_check(problem.gerbe.torus, problem.gerbe.e)
    return {"type_condition": ok}, 0 if ok else 1


def _translate(problem: ProblemFile, args: dict) -> tuple[dict, int]:
    (w,) = _vectors(problem, args, "w")
    translated = translate_gerbe(problem.gerbe, w)
    return {
        "w": ser_vec(w),
        "B_translated": ser_form2(translated.b),
        "isomorphic_to_original": gerbes_isomorphic(problem.gerbe, translated),
    }, 0


def _membership(problem: ProblemFile, args: dict) -> tuple[dict, int]:
    torus, e = problem.gerbe.torus, problem.gerbe.e
    (w,) = _vectors(problem, args, "w")
    cls = invariance_class(torus, e, w)
    return {
        "w": ser_vec(w),
        "fixes_gerbe": cls.is_zero,
        "integral": in_case_subgroup(torus, e, w, SubgroupCase.INTEGRAL),
        "type_one_one": in_case_subgroup(torus, e, w, SubgroupCase.TYPE_ONE_ONE),
        "contraction": ser_form2(cls.representative),
    }, 0


def _tau_verify(problem: ProblemFile, args: dict) -> tuple[dict, int]:
    case = _resolve_case(problem, args)
    (w,) = _vectors(problem, args, "w")
    samples = args.get("samples", 10)
    if not 0 <= samples <= MAX_SAMPLES:
        raise ProblemError(f"must be an integer from 0 to {MAX_SAMPLES}", "--samples")
    ctx = TranslationContext.create(problem.gerbe, w, case, check=False)
    failure = first_failing_pair(ctx, None, samples, args.get("seed", 0))
    return {
        "w": ser_vec(w),
        "case": case.value,
        "pairs_checked": problem.gerbe.torus.dim**2 + samples,
        "ok": failure is None,
        "first_failure": None if failure is None else [ser_vec(v) for v in failure],
    }, 0 if failure is None else 1


def _xi(problem: ProblemFile, args: dict) -> tuple[dict, int]:
    case = _resolve_case(problem, args)
    w1, w2 = _vectors(problem, args, "w1", "w2")
    char = lift_defect_character(ObstructionContext(problem.gerbe, case), w1, w2)
    return {
        "w1": ser_vec(w1),
        "w2": ser_vec(w2),
        "case": case.value,
        "character": ser_character(char),
        "composition_matches_closed_exponent": True,
    }, 0


def _obstruction(kind: ObstructionKind) -> Callable[[ProblemFile, dict], tuple[dict, int]]:
    def handler(problem: ProblemFile, args: dict) -> tuple[dict, int]:
        case = _resolve_case(problem, args)
        gens = _resolve_generators(problem, args)
        doc = _obstruction_doc(problem.gerbe, case, gens, kind)
        return doc, 0 if doc["vanishes"] else 1

    return handler


def _theta_table(problem: ProblemFile, args: dict) -> tuple[dict, int]:
    case = _resolve_case(problem, args)
    gens = _resolve_generators(problem, args)
    ctx = ObstructionContext(problem.gerbe, case)
    products = [
        {"i": i + 1, "j": j + 1, "defect_character": ser_character(defect_character(ctx, a, b))}
        for i, a in enumerate(gens)
        for j, b in enumerate(gens)
    ]
    return {"case": case.value, "generators": [ser_vec(g) for g in gens], "products": products}, 0


def _gerbal_class(problem: ProblemFile, args: dict) -> tuple[dict, int]:
    case = _resolve_case(problem, args)
    w1, w2, w3 = _vectors(problem, args, "w1", "w2", "w3")
    try:
        value = gerbal_class(ObstructionContext(problem.gerbe, case), w1, w2, w3)
    except FirstObstructionNonzero as exc:
        return {"error": "FirstObstructionNonzero", "message": str(exc)}, 1
    return {
        "w1": ser_vec(w1),
        "w2": ser_vec(w2),
        "w3": ser_vec(w3),
        "case": case.value,
        "value": ser_unit(value),
    }, 0 if value.is_trivial else 1


_J2 = [["0", "-1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]

# The worked examples' problems, on the standard 2-torus with E = c e123;
# an example's generators are its vectors, in name order.
EXAMPLES = {
    "k-group": {"n": 2, "J": _J2, "E": [{"indices": [1, 2, 3], "coeff": "1"}], "case": "integral"},
    # a non-split two-generator subgroup
    "first-obstruction": {
        "n": 2,
        "J": _J2,
        "E": [{"indices": [1, 2, 3], "coeff": "2"}],
        "vectors": {"u": ["1/2", "0", "0", "0"], "v": ["0", "1/2", "0", "0"]},
        "case": "integral",
    },
    # the half-lattice: the first obstruction vanishes, the second does not
    "second-obstruction": {
        "n": 2,
        "J": _J2,
        "E": [{"indices": [1, 2, 3], "coeff": "4"}],
        "vectors": {
            "h1": ["1/2", "0", "0", "0"],
            "h2": ["0", "1/2", "0", "0"],
            "h3": ["0", "0", "1/2", "0"],
            "h4": ["0", "0", "0", "1/2"],
        },
        "case": "integral",
    },
}


def _k_group(problem: ProblemFile) -> tuple[dict, int]:
    """Integral membership over a grid for E = e123, and the half-lattice
    inside the symmetries of the doubled gerbe E = 2 e123."""
    gerbe, case = problem.gerbe, problem.case  # the integral case
    grid = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    table = []
    all_match = True
    for w1 in grid:
        for w2 in grid:
            for w3 in grid:
                for w4 in grid:
                    w = (w1, w2, w3, w4)
                    got = in_case_subgroup(gerbe.torus, gerbe.e, w, case)
                    expected = all(x.denominator == 1 for x in (w1, w2, w3))
                    all_match &= got == expected
                    table.append({"w": ser_vec(w), "integral": got, "expected": expected})
    doubled = parse_problem(json.dumps(EXAMPLES["first-obstruction"])).gerbe
    half = Fraction(1, 2)
    half_lattice_ok = all(
        in_case_subgroup(doubled.torus, doubled.e, tuple(half * x for x in v), case)
        for v in (
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1), (1, 0, 1, 0)
        )
    )
    return {
        "membership_matches_expected": all_match,
        "half_lattice_in_doubled_symmetries": half_lattice_ok,
        "table": table,
    }, 0 if (all_match and half_lattice_ok) else 1


def _example(problem: ProblemFile | None, args: dict) -> tuple[dict, int]:
    name = args.get("name")
    if name not in EXAMPLES:
        raise ProblemError(f"--name must be one of {', '.join(EXAMPLES)}", "--name")
    example = parse_problem(json.dumps(EXAMPLES[name]))
    if name == "k-group":
        return _k_group(example)
    gens = tuple(v for _, v in example.vectors)
    if name == "first-obstruction":
        doc = _obstruction_doc(example.gerbe, example.case, gens, ObstructionKind.FIRST)
        return doc, 0 if doc["vanishes"] else 1
    doc = {
        kind.value: _obstruction_doc(example.gerbe, example.case, gens, kind)
        for kind in ObstructionKind
    }
    return doc, 0 if all(d["vanishes"] for d in doc.values()) else 1


# ---------------------------------------------------------------- commands

_VECTOR_FLAG = {
    "required": True,
    "help": "vector name from the problem file, or inline rationals 'a,b,...'",
}

# flag -> argparse keywords; "problem" is the positional problem file
FLAGS = {
    "problem": {"help": "path to a JSON problem file"},
    "w": _VECTOR_FLAG,
    "w1": _VECTOR_FLAG,
    "w2": _VECTOR_FLAG,
    "w3": _VECTOR_FLAG,
    "case": {"choices": ["integral", "oneone"], "default": None},
    "generators": {"required": True, "help": "comma-separated vector names from the problem file"},
    "samples": {
        "type": int,
        "default": 10,
        "help": f"random lattice pairs checked after the basis pairs "
        f"(0 to {MAX_SAMPLES}, default 10)",
    },
    "seed": {"type": int, "default": 0},
    "name": {"required": True, "choices": list(EXAMPLES)},
}


class Command(NamedTuple):
    help: str
    flags: tuple[str, ...]
    run: Callable[[ProblemFile | None, dict], tuple[dict, int]]
    summary: tuple[str, str] = ("status 0", "status 1")  # stderr, by exit status


_GENERATED = ("problem", "case", "generators")
_OBSTRUCTION_SUMMARY = ("obstruction vanishes", "obstruction does not vanish")

COMMAND_TABLE = {
    "check-torus": Command("validate the complex structure", ("problem",), _check_torus),
    "check-type": Command("check the 3-form type condition", ("problem",), _check_type),
    "translate": Command("translate the gerbe data", ("problem", "w"), _translate),
    "membership": Command("symmetry-group membership of a vector", ("problem", "w"), _membership),
    "tau-verify": Command(
        "verify the trivialization identity", ("problem", "w", "case", "samples", "seed"),
        _tau_verify, ("identity holds", "identity FAILS"),
    ),
    "xi": Command(
        "lifting-defect character of two translations", ("problem", "w1", "w2", "case"), _xi
    ),
    "obstruction1": Command(
        "first obstruction on a generated subgroup", _GENERATED,
        _obstruction(ObstructionKind.FIRST), _OBSTRUCTION_SUMMARY,
    ),
    "obstruction2": Command(
        "second obstruction on a generated subgroup", _GENERATED,
        _obstruction(ObstructionKind.SECOND), _OBSTRUCTION_SUMMARY,
    ),
    "theta-table": Command("defect characters for all generator pairs", _GENERATED, _theta_table),
    "gerbal-class": Command(
        "closed-form degree-3 class of a triple", ("problem", "w1", "w2", "w3", "case"),
        _gerbal_class,
    ),
    "example": Command(
        "run a built-in worked example", ("name",), _example,
        ("computed (status 0)", "computed (status 1)"),
    ),
}


def run_command(cmd: str, problem: ProblemFile | None, args: dict) -> tuple[dict, int]:
    """Execute one command; returns (report document, exit status)."""
    command = COMMAND_TABLE.get(cmd)
    if command is None:
        raise UnknownCommand(f"unknown command {cmd!r}")
    report: dict = {
        "command": cmd,
        "args": {k: v for k, v in sorted(args.items()) if v is not None and k != "problem"},
    }
    if "problem" in command.flags:
        if problem is None:
            raise ProblemError("this command needs a problem file")
        report["problem"] = problem_document(problem)
    report["result"], status = command.run(problem, args)
    return report, status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusgerbe",
        description=(
            "Exact computations for gerbes on complex tori: symmetry "
            "membership, trivialization checks, and equivariance obstructions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMAND_TABLE.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            p.add_argument(flag if flag == "problem" else f"--{flag}", **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    cmd = args.pop("command")
    problem_path = args.pop("problem", None)

    try:
        problem = None
        if problem_path is not None:
            with open(problem_path, "r", encoding="utf-8") as fh:
                problem = parse_problem(fh.read())
        report, status = run_command(cmd, problem, args)
    except (
        ProblemError,
        NotAComplexStructure,
        TypeConditionFailed,
        NotInSubgroup,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        report = {"command": cmd, "result": {"error": type(exc).__name__, "message": str(exc)}}
        status = 2

    result = report["result"]
    print(json.dumps(report, sort_keys=True, indent=2))
    if "error" in result:
        summary = f"ERROR ({result['message']})"
    else:
        summary = COMMAND_TABLE[cmd].summary[status]
    print(f"{cmd}: {summary}", file=sys.stderr)
    return status


def console_main() -> None:
    sys.exit(main())
