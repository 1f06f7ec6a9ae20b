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
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction


from .exact import GaussianRational, UnitValue, Vec
from .gerbe import Character, GerbeData, TypeConditionFailed, gerbes_isomorphic, translate_gerbe
from .obstruction import (
    FirstObstructionNonzero,
    ObstructionContext,
    ObstructionKind,
    SubgroupSpec,
    VanishingResult,
    defect_character,
    first_obstruction_alternating,
    gerbal_class,
    lift_defect_character,
    obstruction_vanishes,
    second_obstruction_alternating,
)
from .symmetry import (
    NotInSubgroup,
    SubgroupCase,
    in_case_subgroup,
    invariance_class,
)
from .torus import (
    AltForm2,
    AltForm3,
    NotAComplexStructure,
    check_complex_structure,
    type_condition_check,
)
from .trivialization import TranslationContext, first_failing_pair

COMMANDS = (
    "check-torus",
    "check-type",
    "translate",
    "membership",
    "tau-verify",
    "xi",
    "obstruction1",
    "obstruction2",
    "theta-table",
    "gerbal-class",
    "example",
)

EXAMPLE_NAMES = ("k-group", "first-obstruction", "second-obstruction")

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
    return str(x)


def _parse_vector(entries, dim: int, field: str) -> Vec:
    if not isinstance(entries, (list, tuple)):
        raise BadDimensions("vector must be a list of rational strings", field)
    if len(entries) != dim:
        raise BadDimensions(f"vector must have {dim} entries, got {len(entries)}", field)
    return tuple(parse_rational(x, f"{field}[{k}]") for k, x in enumerate(entries))


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

    j_rows = doc.get("J")
    if not isinstance(j_rows, list) or len(j_rows) != dim:
        raise BadDimensions(f"J must be a {dim}x{dim} array", "J")
    j = []
    for r, row in enumerate(j_rows):
        if not isinstance(row, list) or len(row) != dim:
            raise BadDimensions(f"J must be a {dim}x{dim} array", f"J[{r}]")
        j.append([parse_rational(x, f"J[{r}][{c}]") for c, x in enumerate(row)])
    torus = check_complex_structure(j)  # may raise NotAComplexStructure

    e_items = doc.get("E", [])
    if not isinstance(e_items, list):
        raise ProblemError("E must be a list of {indices, coeff} objects", "E")
    e_coeffs = {}
    for k, item in enumerate(e_items):
        field = f"E[{k}]"
        if not isinstance(item, dict) or "indices" not in item or "coeff" not in item:
            raise ProblemError("expected {indices, coeff}", field)
        idx = item["indices"]
        if (
            not isinstance(idx, list)
            or len(idx) != 3
            or not all(_is_int(i) for i in idx)
        ):
            raise ProblemError("indices must be three integers", f"{field}.indices")
        if not (1 <= idx[0] < idx[1] < idx[2] <= dim):
            raise NonIncreasingIndices(
                f"indices must be strictly increasing in 1..{dim}, got {idx}",
                f"{field}.indices",
            )
        key = (idx[0] - 1, idx[1] - 1, idx[2] - 1)
        e_coeffs[key] = e_coeffs.get(key, Fraction(0)) + parse_rational(
            item["coeff"], f"{field}.coeff"
        )
    e3 = AltForm3.from_coeffs(dim, e_coeffs)
    if not e3.is_integral:
        raise ProblemError("the 3-form coefficients must be integers", "E")

    b_items = doc.get("B", [])
    if not isinstance(b_items, list):
        raise ProblemError("B must be a list of {indices, coeff} objects", "B")
    b_coeffs = {}
    for k, item in enumerate(b_items):
        field = f"B[{k}]"
        if not isinstance(item, dict) or "indices" not in item or "coeff" not in item:
            raise ProblemError("expected {indices, coeff}", field)
        idx = item["indices"]
        if (
            not isinstance(idx, list)
            or len(idx) != 2
            or not all(_is_int(i) for i in idx)
        ):
            raise ProblemError("indices must be two integers", f"{field}.indices")
        if not (1 <= idx[0] < idx[1] <= dim):
            raise NonIncreasingIndices(
                f"indices must be strictly increasing in 1..{dim}, got {idx}",
                f"{field}.indices",
            )
        key = (idx[0] - 1, idx[1] - 1)
        b_coeffs[key] = b_coeffs.get(key, Fraction(0)) + parse_rational(
            item["coeff"], f"{field}.coeff"
        )
    b2 = AltForm2.from_pairs(dim, b_coeffs)

    gerbe = GerbeData(torus=torus, b=b2, e=e3)  # may raise TypeConditionFailed

    raw_vectors = doc.get("vectors", {})
    if not isinstance(raw_vectors, dict):
        raise ProblemError("vectors must be an object of named vectors", "vectors")
    vectors = tuple(
        (name, _parse_vector(raw_vectors[name], dim, f"vectors.{name}"))
        for name in sorted(raw_vectors)
    )

    case = None
    if "case" in doc and doc["case"] is not None:
        raw_case = doc["case"]
        if raw_case not in ("integral", "oneone"):
            raise ProblemError("case must be 'integral' or 'oneone'", "case")
        case = SubgroupCase(raw_case)

    return ProblemFile(gerbe=gerbe, vectors=vectors, case=case)


def render_problem(problem: ProblemFile) -> str:
    """Canonical JSON text; parse(render(p)) == p."""
    return json.dumps(problem_document(problem), sort_keys=True, indent=2) + "\n"


def problem_document(problem: ProblemFile) -> dict:
    torus = problem.gerbe.torus
    doc = {
        "n": torus.n,
        "J": [[render_rational(x) for x in row] for row in torus.j],
        "E": [
            {"indices": [a + 1, b + 1, c + 1], "coeff": render_rational(v)}
            for (a, b, c), v in problem.gerbe.e.entries
        ],
        "B": [
            {"indices": [a + 1, b + 1], "coeff": render_rational(problem.gerbe.b.entry(a, b))}
            for a in range(torus.dim)
            for b in range(a + 1, torus.dim)
            if problem.gerbe.b.entry(a, b) != 0
        ],
        "vectors": {name: [render_rational(x) for x in v] for name, v in problem.vectors},
    }
    if problem.case is not None:
        doc["case"] = problem.case.value
    return doc


def ser_vec(v: Vec) -> list[str]:
    return [render_rational(x) for x in v]


def ser_gauss(z: GaussianRational) -> dict:
    return {"re": render_rational(z.re), "im": render_rational(z.im)}


def ser_unit(u: UnitValue) -> dict:
    out = {"exponent_mod1": render_rational(u.exponent.re)}
    if u.exponent.im != 0:
        out["exponent_im"] = render_rational(u.exponent.im)
    return out


def ser_character(c: Character) -> dict:
    return {"exponents": [ser_gauss(e) for e in c.exponents], "trivial": c.is_trivial}


def ser_form2(f: AltForm2) -> list[dict]:
    return [
        {"indices": [a + 1, b + 1], "coeff": render_rational(f.entry(a, b))}
        for a in range(f.dim)
        for b in range(a + 1, f.dim)
        if f.entry(a, b) != 0
    ]


def _resolve_vector(problem: ProblemFile, spec: str, flag: str) -> Vec:
    named = problem.vector(spec)
    if named is not None:
        return named
    if "," in spec:
        parts = spec.split(",")
        return _parse_vector(parts, problem.gerbe.torus.dim, flag)
    raise ProblemError(f"unknown vector name {spec!r}", flag)


def _resolve_case(problem: ProblemFile, args: dict) -> SubgroupCase:
    raw = args.get("case")
    if raw:
        if raw not in ("integral", "oneone"):
            raise ProblemError("--case must be 'integral' or 'oneone'", "--case")
        return SubgroupCase(raw)
    if problem.case is not None:
        return problem.case
    raise ProblemError("no case given: pass --case or set it in the problem file")


def _resolve_generators(problem: ProblemFile, args: dict) -> tuple[Vec, ...]:
    raw = args.get("generators")
    if not raw:
        raise ProblemError("--generators is required for this command")
    names = [x for x in raw.split(",") if x]
    gens = []
    for name in names:
        v = problem.vector(name)
        if v is None:
            raise ProblemError(f"unknown vector name {name!r}", "--generators")
        gens.append(v)
    return tuple(gens)


def _vanishing_report(result: VanishingResult) -> dict:
    return {
        "vanishes": result.vanishes,
        "tuples_checked": result.tuples_checked,
        "certificate": (
            None
            if result.certificate is None
            else [ser_vec(v) for v in result.certificate]
        ),
        "cross_check_disagreements": [
            [ser_vec(v) for v in triple] for triple in result.cross_check_disagreements
        ],
    }


def run_command(cmd: str, problem: ProblemFile | None, args: dict) -> tuple[dict, int]:
    """Execute one command; returns (report document, exit status)."""
    if cmd not in COMMANDS:
        raise UnknownCommand(f"unknown command {cmd!r}")
    if cmd == "example":
        return _run_example(args)
    if problem is None:
        raise ProblemError("this command needs a problem file")

    gerbe = problem.gerbe
    torus = gerbe.torus
    report: dict = {
        "command": cmd,
        "problem": problem_document(problem),
        "args": {
            k: v for k, v in sorted(args.items()) if v is not None and k != "problem"
        },
    }
    status = 0

    if cmd == "check-torus":
        report["result"] = {"n": torus.n, "complex_structure_ok": True}

    elif cmd == "check-type":
        # parse_problem already enforced this; recompute rather than assume
        ok = type_condition_check(torus, gerbe.e)
        report["result"] = {"type_condition": ok}
        status = 0 if ok else 1

    elif cmd == "translate":
        w = _resolve_vector(problem, args["w"], "--w")
        translated = translate_gerbe(gerbe, w)
        report["result"] = {
            "w": ser_vec(w),
            "B_translated": ser_form2(translated.b),
            "isomorphic_to_original": gerbes_isomorphic(gerbe, translated),
        }

    elif cmd == "membership":
        w = _resolve_vector(problem, args["w"], "--w")
        cls = invariance_class(torus, gerbe.e, w)
        report["result"] = {
            "w": ser_vec(w),
            "fixes_gerbe": cls.is_zero,
            "integral": in_case_subgroup(torus, gerbe.e, w, SubgroupCase.INTEGRAL),
            "type_one_one": in_case_subgroup(
                torus, gerbe.e, w, SubgroupCase.TYPE_ONE_ONE
            ),
            "contraction": ser_form2(cls.representative),
        }

    elif cmd == "tau-verify":
        case = _resolve_case(problem, args)
        w = _resolve_vector(problem, args["w"], "--w")
        samples = args.get("samples", 10)
        if not 0 <= samples <= MAX_SAMPLES:
            raise ProblemError(
                f"must be an integer from 0 to {MAX_SAMPLES}", "--samples"
            )
        ctx = TranslationContext.create(gerbe, w, case, check=False)
        failure = first_failing_pair(ctx, None, samples, args.get("seed", 0))
        ok = failure is None
        report["result"] = {
            "w": ser_vec(w),
            "case": case.value,
            "pairs_checked": torus.dim**2 + samples,
            "ok": ok,
            "first_failure": None if ok else [ser_vec(v) for v in failure],
        }
        status = 0 if ok else 1

    elif cmd == "xi":
        case = _resolve_case(problem, args)
        ctx = ObstructionContext(gerbe, case)
        w1 = _resolve_vector(problem, args["w1"], "--w1")
        w2 = _resolve_vector(problem, args["w2"], "--w2")
        char = lift_defect_character(ctx, w1, w2)
        report["result"] = {
            "w1": ser_vec(w1),
            "w2": ser_vec(w2),
            "case": case.value,
            "character": ser_character(char),
            "composition_matches_closed_exponent": True,
        }

    elif cmd == "obstruction1":
        case = _resolve_case(problem, args)
        gens = _resolve_generators(problem, args)
        spec = SubgroupSpec.create(gens, case)
        result = obstruction_vanishes(gerbe, spec, ObstructionKind.FIRST)
        doc = _vanishing_report(result)
        if result.certificate is not None:
            ctx = ObstructionContext(gerbe, case)
            w1, w2, lam = result.certificate
            char = first_obstruction_alternating(ctx, w1, w2)
            doc["value_at_certificate"] = ser_unit(
                UnitValue(char.exponent_at(lam))
            )
        report["result"] = doc
        status = 0 if result.vanishes else 1

    elif cmd == "obstruction2":
        case = _resolve_case(problem, args)
        gens = _resolve_generators(problem, args)
        spec = SubgroupSpec.create(gens, case)
        result = obstruction_vanishes(gerbe, spec, ObstructionKind.SECOND)
        doc = _vanishing_report(result)
        if result.certificate is not None:
            ctx = ObstructionContext(gerbe, case)
            values = second_obstruction_alternating(ctx, *result.certificate)
            doc["values_at_certificate"] = {
                "skew": ser_unit(values.skew),
                "general_factor": ser_unit(values.general_factor),
                "closed_form": ser_unit(values.closed_form),
                "skew_is_real": values.skew_is_real,
            }
        report["result"] = doc
        status = 0 if result.vanishes else 1

    elif cmd == "theta-table":
        case = _resolve_case(problem, args)
        gens = _resolve_generators(problem, args)
        ctx = ObstructionContext(gerbe, case)
        products = []
        for i, w1 in enumerate(gens):
            for j, w2 in enumerate(gens):
                char = defect_character(ctx, w1, w2)
                products.append(
                    {"i": i + 1, "j": j + 1, "defect_character": ser_character(char)}
                )
        report["result"] = {
            "case": case.value,
            "generators": [ser_vec(g) for g in gens],
            "products": products,
        }

    elif cmd == "gerbal-class":
        case = _resolve_case(problem, args)
        ctx = ObstructionContext(gerbe, case)
        w1 = _resolve_vector(problem, args["w1"], "--w1")
        w2 = _resolve_vector(problem, args["w2"], "--w2")
        w3 = _resolve_vector(problem, args["w3"], "--w3")
        try:
            value = gerbal_class(ctx, w1, w2, w3)
        except FirstObstructionNonzero as exc:
            report["result"] = {"error": "FirstObstructionNonzero", "message": str(exc)}
            return report, 1
        report["result"] = {
            "w1": ser_vec(w1),
            "w2": ser_vec(w2),
            "w3": ser_vec(w3),
            "case": case.value,
            "value": ser_unit(value),
        }
        status = 0 if value.is_trivial else 1

    return report, status


def _fixture_problem(e_coeff: int) -> ProblemFile:
    """The standard 2-torus fixture with E = e_coeff * e1^e2^e3."""
    doc = {
        "n": 2,
        "J": [
            ["0", "-1", "0", "0"],
            ["1", "0", "0", "0"],
            ["0", "0", "0", "-1"],
            ["0", "0", "1", "0"],
        ],
        "E": [{"indices": [1, 2, 3], "coeff": str(e_coeff)}],
        "case": "integral",
    }
    return parse_problem(json.dumps(doc))


def _run_example(args: dict) -> tuple[dict, int]:
    name = args.get("name")
    if name not in EXAMPLE_NAMES:
        raise ProblemError(
            f"--name must be one of {', '.join(EXAMPLE_NAMES)}", "--name"
        )
    report: dict = {"command": "example", "args": {"name": name}}

    if name == "k-group":
        problem = _fixture_problem(1)
        gerbe = problem.gerbe
        torus = gerbe.torus
        grid = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
        table = []
        all_match = True
        for w1 in grid:
            for w2 in grid:
                for w3 in grid:
                    for w4 in grid:
                        w = (w1, w2, w3, w4)
                        got = in_case_subgroup(
                            torus, gerbe.e, w, SubgroupCase.INTEGRAL
                        )
                        expected = all(x.denominator == 1 for x in (w1, w2, w3))
                        all_match &= got == expected
                        table.append(
                            {"w": ser_vec(w), "integral": got, "expected": expected}
                        )
        doubled = _fixture_problem(2)
        half = Fraction(1, 2)
        half_lattice_ok = all(
            in_case_subgroup(
                doubled.gerbe.torus,
                doubled.gerbe.e,
                tuple(half * x for x in v),
                SubgroupCase.INTEGRAL,
            )
            for v in (
                (1, 0, 0, 0),
                (0, 1, 0, 0),
                (0, 0, 1, 0),
                (0, 0, 0, 1),
                (1, 1, 1, 1),
                (1, 0, 1, 0),
            )
        )
        report["result"] = {
            "membership_matches_expected": all_match,
            "half_lattice_in_doubled_symmetries": half_lattice_ok,
            "table": table,
        }
        return report, 0 if (all_match and half_lattice_ok) else 1

    if name == "first-obstruction":
        problem = _fixture_problem(2)
        gerbe = problem.gerbe
        half = Fraction(1, 2)
        gens = ((half, 0, 0, 0), (0, half, 0, 0))
        spec = SubgroupSpec.create(gens, SubgroupCase.INTEGRAL)
        result = obstruction_vanishes(gerbe, spec, ObstructionKind.FIRST)
        ctx = ObstructionContext(gerbe, SubgroupCase.INTEGRAL)
        doc = _vanishing_report(result)
        if result.certificate is not None:
            w1, w2, lam = result.certificate
            char = first_obstruction_alternating(ctx, w1, w2)
            doc["value_at_certificate"] = ser_unit(UnitValue(char.exponent_at(lam)))
        report["result"] = doc
        return report, 0 if result.vanishes else 1

    # second-obstruction
    problem = _fixture_problem(4)
    gerbe = problem.gerbe
    half = Fraction(1, 2)
    gens = tuple(
        tuple(half * x for x in v)
        for v in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    )
    spec = SubgroupSpec.create(gens, SubgroupCase.INTEGRAL)
    first = obstruction_vanishes(gerbe, spec, ObstructionKind.FIRST)
    second = obstruction_vanishes(gerbe, spec, ObstructionKind.SECOND)
    doc = {
        "first": _vanishing_report(first),
        "second": _vanishing_report(second),
    }
    if second.certificate is not None:
        ctx = ObstructionContext(gerbe, SubgroupCase.INTEGRAL)
        values = second_obstruction_alternating(ctx, *second.certificate)
        doc["second"]["values_at_certificate"] = {
            "skew": ser_unit(values.skew),
            "general_factor": ser_unit(values.general_factor),
            "closed_form": ser_unit(values.closed_form),
            "skew_is_real": values.skew_is_real,
        }
    report["result"] = doc
    return report, 0 if (first.vanishes and second.vanishes) else 1


def _summary_line(report: dict, status: int) -> str:
    cmd = report.get("command", "?")
    result = report.get("result", {})
    if status == 2 or "error" in result:
        detail = result.get("message", "input error")
        return f"{cmd}: ERROR ({detail})"
    if cmd in ("obstruction1", "obstruction2"):
        verdict = "vanishes" if result.get("vanishes") else "does not vanish"
        return f"{cmd}: obstruction {verdict}"
    if cmd == "tau-verify":
        return f"{cmd}: {'identity holds' if result.get('ok') else 'identity FAILS'}"
    if cmd == "example":
        return f"example: computed (status {status})"
    return f"{cmd}: status {status}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusgerbe",
        description=(
            "Exact computations for gerbes on complex tori: symmetry "
            "membership, trivialization checks, and equivariance obstructions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, problem=True, vectors=(), case=False, gens=False, samples=False):
        p = sub.add_parser(name, help=help_text)
        if problem:
            p.add_argument("problem", help="path to a JSON problem file")
        for flag in vectors:
            p.add_argument(
                f"--{flag}",
                required=True,
                help="vector name from the problem file, or inline rationals 'a,b,...'",
            )
        if case:
            p.add_argument("--case", choices=["integral", "oneone"], default=None)
        if gens:
            p.add_argument(
                "--generators",
                required=True,
                help="comma-separated vector names from the problem file",
            )
        if samples:
            p.add_argument(
                "--samples",
                type=int,
                default=10,
                help=f"random lattice pairs checked after the basis pairs "
                f"(0 to {MAX_SAMPLES}, default 10)",
            )
            p.add_argument("--seed", type=int, default=0)
        return p

    add("check-torus", "validate the complex structure")
    add("check-type", "check the 3-form type condition")
    add("translate", "translate the gerbe data", vectors=("w",))
    add("membership", "symmetry-group membership of a vector", vectors=("w",))
    add("tau-verify", "verify the trivialization identity", vectors=("w",), case=True, samples=True)
    add("xi", "lifting-defect character of two translations", vectors=("w1", "w2"), case=True)
    add("obstruction1", "first obstruction on a generated subgroup", case=True, gens=True)
    add("obstruction2", "second obstruction on a generated subgroup", case=True, gens=True)
    add("theta-table", "defect characters for all generator pairs", case=True, gens=True)
    add("gerbal-class", "closed-form degree-3 class of a triple", vectors=("w1", "w2", "w3"), case=True)
    pex = sub.add_parser("example", help="run a built-in worked example")
    pex.add_argument("--name", required=True, choices=list(EXAMPLE_NAMES))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    args = vars(ns)
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
        report = {
            "command": cmd,
            "result": {"error": type(exc).__name__, "message": str(exc)},
        }
        print(json.dumps(report, sort_keys=True, indent=2))
        print(f"{cmd}: ERROR ({exc})", file=sys.stderr)
        return 2

    print(json.dumps(report, sort_keys=True, indent=2))
    print(_summary_line(report, status), file=sys.stderr)
    return status


def console_main() -> None:
    sys.exit(main())
