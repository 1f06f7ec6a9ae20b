"""Mutation check of single functions: make one small change at a time and
see whether the tests notice it.

    python3 tools/mutants.py MODULE NAME [NAME ...] [--workdir DIR]
        [--timeout S] [-- PYTEST_ARGS ...]

MODULE is a source file of the package (say `src/torusgerbe/exact.py`) and
each NAME a function in it, `Class.method` for a method; an unknown NAME is
an error (exit 2) before anything is copied or run.  Every mutant
changes one node inside the named function, nested functions included:
- a binary operator, augmented assignments too: + and - swap, * and //
  swap, % becomes //;
- a boolean operator: `and` and `or` swap;
- a comparison: == and != swap, < and <= swap, > and >= swap, `is` and
  `is not` swap;
- an integer constant k becomes k + 1;
- `not x` becomes `not not x`, the truth value of x.

The repository is copied once into the work directory (a fresh temporary
directory by default).  For each mutant the module is written there from
`ast.unparse` of the mutated tree, the tests run as `python -m pytest -x -q`
(the tier-1 suite unless PYTEST_ARGS name others), and the module is put
back.  A mutant is killed when pytest fails or runs past the timeout.  The
unmutated round trip through `ast.unparse` runs first and must pass.  Only
the standard library is used; the tool is not a test and is not collected.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BINARY = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv,
}
BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}
COMPARE = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE,
    ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}


def find_function(tree: ast.Module, name: str) -> ast.FunctionDef:
    """The function `name` of tree, `Class.method` for a method; LookupError
    naming it if there is none."""
    scope = tree
    for part in name.split("."):
        scope = next(
            (
                node for node in ast.iter_child_nodes(scope)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == part
            ),
            None,
        )
        if scope is None:
            break
    if not isinstance(scope, ast.FunctionDef):
        raise LookupError(name)
    return scope


def mutations(func: ast.FunctionDef):
    """(node, change, description) for every mutant of func, in a fixed
    order: change(node) turns the node into the mutant's, in place."""

    def setter(field, value):
        return lambda node: setattr(node, field, value)

    for node in ast.walk(func):
        where = f"line {getattr(node, 'lineno', func.lineno)}"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINARY:
            new = BINARY[type(node.op)]()
            yield node, setter("op", new), f"{where}: {ast.unparse(node)}, {type(new).__name__}"
        elif isinstance(node, ast.BoolOp):
            new = BOOLEAN[type(node.op)]()
            yield node, setter("op", new), f"{where}: {ast.unparse(node)}, {type(new).__name__}"
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in COMPARE:
                    ops = list(node.ops)
                    ops[i] = COMPARE[type(op)]()
                    yield node, setter("ops", ops), f"{where}: {ast.unparse(node)}, {type(ops[i]).__name__}"
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, setter("value", node.value + 1), f"{where}: {node.value} -> {node.value + 1}"
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            # `not x` -> `not not x`, which is the truth value of x
            flip = setter("operand", ast.UnaryOp(ast.Not(), node.operand))
            yield node, flip, f"{where}: {ast.unparse(node)} without not"


def mutate(tree: ast.Module, name: str, index: int) -> tuple[ast.Module, str]:
    """A copy of tree with the index-th mutation of the named function."""
    tree = copy.deepcopy(tree)
    node, change, what = list(mutations(find_function(tree, name)))[index]
    change(node)
    return ast.fix_missing_locations(tree), what


def run_tests(work: Path, pytest_args: list[str], timeout: float) -> tuple[bool, float]:
    """(passed, seconds) of one pytest run in the copy."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="source file, relative to the repository root")
    parser.add_argument("names", nargs="+", help="functions to mutate (Class.method for methods)")
    parser.add_argument("--workdir", help="where to copy the repository (default: a temporary directory)")
    parser.add_argument("--timeout", type=float, default=None, help="seconds per run (default: 4x the clean run)")
    args, pytest_args = parser.parse_known_args(argv)
    pytest_args = [a for a in pytest_args if a != "--"]
    source = ROOT / args.module
    if not source.is_file():
        parser.error(f"no source file {args.module}")
    original = source.read_text()
    tree = ast.parse(original)
    for name in args.names:
        try:
            find_function(tree, name)
        except LookupError:
            parser.error(f"no function {name} in {args.module}")
    base = Path(args.workdir or tempfile.mkdtemp(prefix="mutants-"))
    work = base / "repo"
    if work.exists():
        shutil.rmtree(work)
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT, work, ignore=ignore)
    target = work / args.module
    try:
        target.write_text(ast.unparse(tree))
        passed, clean_s = run_tests(work, pytest_args, None)
        if not passed:
            print("the unmutated round trip fails its tests; nothing to compare", file=sys.stderr)
            return 2
        timeout = args.timeout or 4 * clean_s
        print(f"clean run {clean_s:.1f} s, timeout {timeout:.0f} s")
        totals = {}
        for name in args.names:
            count = len(list(mutations(find_function(tree, name))))
            killed, survivors = 0, []
            for index in range(count):
                mutant, what = mutate(tree, name, index)
                target.write_text(ast.unparse(mutant))
                passed, seconds = run_tests(work, pytest_args, timeout)
                if passed:
                    survivors.append(what)
                else:
                    killed += 1
                print(f"  {name} #{index} {'SURVIVED' if passed else 'killed'} ({seconds:.1f} s) {what}")
            totals[name] = (count, killed, survivors)
    finally:
        target.write_text(original)
    print()
    for name, (count, killed, survivors) in totals.items():
        print(f"{name}: {count} mutants, {killed} killed, {len(survivors)} survived")
        for what in survivors:
            print(f"    survivor {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
