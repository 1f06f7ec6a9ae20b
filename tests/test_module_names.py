"""Every global name a function reads is bound in its module, every
module-level import of the package is read, every module-level
definition of the package is read or re-exported, and every method or
property of a package class has its name read by a package module.

A function body that reads a name its module never binds raises
``NameError`` only when the function runs, so a missing import hides until
the one call that reaches it.  An import that nothing reads stays behind
when code moves between modules, and so does a function, class or method
that only the tests still call.  The project has no linter dependency, so
the checks read the compiler's own symbol tables (stdlib ``symtable``) for
every module of the package and of the test suite, and the syntax tree
(stdlib ``ast``) of every package module but ``__init__.py``, whose
imports are its re-exports.
"""

import ast
import builtins
import symtable
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [*(ROOT / "src" / "torusgerbe").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)
PACKAGE_MODULES = sorted(
    p for p in (ROOT / "src" / "torusgerbe").glob("*.py") if p.name != "__init__.py"
)
# (module, name) of the imports kept although their module never reads them
UNREAD_IMPORTS_KEPT = {
    # bench/test_bench.py checks that this binding of a traced function is wrapped
    ("torus.py", "lattice_membership"),
}
# (module, name) of the definitions kept although no package module reads them
UNREFERENCED_KEPT = set()
# "Class.method" of the public methods and properties kept although no
# package module reads their names, each with its reason
UNREAD_METHODS_KEPT = {
    "GaussianRational.times_i": "public arithmetic of the exact complex value",
    "ExponentFn.is_holomorphic": "the holomorphy test the tests apply to every exponent",
    "Character.identity": "the neutral element of the theta group's characters",
    "Character.equivalent": "equality of characters up to an integral exponent",
    "SecondObstructionValues.all_nontrivial": "public summary of the three second values",
    "AltForm2.upper_coeffs": "the pair coordinates as Fractions, the public view of storage",
}
# Builtins, plus the attributes the import system sets on every module.
ALWAYS_BOUND = set(dir(builtins)) | {"__builtins__", "__cached__", "__file__", "__path__"}


def _function_tables(table, prefix=""):
    """(qualified name, table) of each function, lambda and comprehension
    scope below ``table``."""
    for child in table.get_children():
        name = prefix + child.get_name()
        if child.get_type() == "function":
            yield name, child
        yield from _function_tables(child, name + ".")


def unbound_global_reads(source, filename):
    """Sorted (line, function, name) for each global read that nothing binds.

    A module-level name is bound by assignment, import, ``def`` or
    ``class`` at module level, or by a function that declares it ``global``
    and assigns it.
    """
    top = symtable.symtable(source, filename, "exec")
    functions = list(_function_tables(top))
    bound = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    bound |= {
        s.get_name()
        for _, f in functions
        for s in f.get_symbols()
        if s.is_declared_global() and s.is_assigned()
    }
    return sorted(
        {
            (f.get_lineno(), func, s.get_name())
            for func, f in functions
            for s in f.get_symbols()
            if s.is_global()
            and s.is_referenced()
            and s.get_name() not in bound
            and s.get_name() not in ALWAYS_BOUND
        }
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_functions_read_only_bound_globals(path):
    unbound = unbound_global_reads(path.read_text(encoding="utf-8"), str(path))
    rel = path.relative_to(ROOT)
    assert not unbound, "\n".join(
        f"{rel}:{line}: {func} reads {name!r}, which the module never binds"
        for line, func, name in unbound
    )


def test_check_flags_a_missing_import():
    source = (
        "import os\n"
        "counter = 0\n"
        "def bump():\n"
        "    global counter, total\n"
        "    counter += 1\n"
        "    total = len(os.sep)\n"
        "def uses():\n"
        "    return total, [fixes(x) for x in range(counter)], lambda: missing\n"
    )
    assert unbound_global_reads(source, "<snippet>") == [
        (8, "uses.lambda", "missing"),
        (8, "uses.listcomp", "fixes"),
    ]


def unread_imports(source):
    """Sorted (line, name) for each name a module-level import binds that
    the module never reads (``from __future__`` imports excepted)."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_module_imports_are_read(path):
    unread = [
        (line, name)
        for line, name in unread_imports(path.read_text(encoding="utf-8"))
        if (path.name, name) not in UNREAD_IMPORTS_KEPT
    ]
    assert not unread, "\n".join(
        f"{path.relative_to(ROOT)}:{line}: {name!r} is imported but never read"
        for line, name in unread
    )


def test_kept_unread_imports_are_still_unread():
    # an exception that the module has come to read is no longer needed
    for module, name in UNREAD_IMPORTS_KEPT:
        source = (ROOT / "src" / "torusgerbe" / module).read_text(encoding="utf-8")
        assert name in {n for _, n in unread_imports(source)}


def test_check_flags_an_unread_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, lcm as least\n"
        "import sys\n"
        "def f(x: least) -> int:\n"
        "    gcd = 2\n"
        "    return os.sep\n"
    )
    assert unread_imports(source) == [(3, "gcd"), (4, "sys")]


def unreferenced_definitions(sources):
    """Sorted (module, line, name) for each module-level ``def`` or
    ``class`` of a module in ``sources`` (file name -> source) but
    ``__init__.py`` that no statement of any module reads, its own
    statement aside, and that ``__init__.py`` does not import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = {
        (module, k): {
            n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for module, tree in trees.items()
        for k, stmt in enumerate(tree.body)
    }
    exported = {
        alias.name
        for stmt in trees.get("__init__.py", ast.Module(body=[])).body
        if isinstance(stmt, ast.ImportFrom)
        for alias in stmt.names
    }
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        (module, stmt.lineno, stmt.name)
        for module, tree in trees.items()
        if module != "__init__.py"
        for k, stmt in enumerate(tree.body)
        if isinstance(stmt, definitions)
        and stmt.name not in exported
        and not any(stmt.name in names for key, names in reads.items() if key != (module, k))
    )


def _package_sources():
    return {
        p.name: p.read_text(encoding="utf-8") for p in (ROOT / "src" / "torusgerbe").glob("*.py")
    }


def test_package_definitions_are_read():
    unread = [
        (module, line, name)
        for module, line, name in unreferenced_definitions(_package_sources())
        if (module, name) not in UNREFERENCED_KEPT
    ]
    assert not unread, "\n".join(
        f"src/torusgerbe/{module}:{line}: {name!r} is defined but no package module reads it"
        for module, line, name in unread
    )


def test_kept_definitions_are_still_unread():
    # an exception that the package has come to read is no longer needed
    unread = {(module, name) for module, _, name in unreferenced_definitions(_package_sources())}
    assert UNREFERENCED_KEPT <= unread


def test_check_flags_an_unread_definition():
    sources = {
        "__init__.py": "from .a import shown\n",
        "__main__.py": "from .a import run\nrun()\n",
        "a.py": (
            "def shown(): pass\n"
            "def run(): return helper()\n"
            "def helper(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Dead:\n"
            "    def make(self): return Dead()\n"
            "def _private(): pass\n"
        ),
        "b.py": "from .a import _private\nVALUE = 1\n",
    }
    assert unreferenced_definitions(sources) == [
        ("a.py", 4, "recursive"),
        ("a.py", 5, "Dead"),
        ("a.py", 7, "_private"),
    ]


def unread_methods(sources):
    """Sorted (module, line, "Class.name") for each method or property of a
    module-level class of a module in ``sources`` (file name -> source),
    dunder names aside, whose name no module reads as an attribute or holds
    as a string constant."""
    read = set()
    for source in sources.values():
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    methods = (ast.FunctionDef, ast.AsyncFunctionDef)
    return sorted(
        (module, fn.lineno, f"{cls.name}.{fn.name}")
        for module, source in sources.items()
        for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, methods)
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and fn.name not in read
    )


def test_package_methods_are_read():
    unread = [
        (module, line, name)
        for module, line, name in unread_methods(_package_sources())
        if name not in UNREAD_METHODS_KEPT
    ]
    assert not unread, "\n".join(
        f"src/torusgerbe/{module}:{line}: {name!r} is defined but no package module reads it"
        for module, line, name in unread
    )


def test_kept_methods_are_still_unread():
    # an exception that the package has come to read is no longer needed
    assert set(UNREAD_METHODS_KEPT) <= {name for *_, name in unread_methods(_package_sources())}


def test_check_flags_an_unread_method():
    sources = {
        "a.py": (
            "import functools\n"
            "class Record:\n"
            "    def __eq__(self, other): return True\n"
            "    def used(self): return self.named\n"
            "    @functools.cached_property\n"
            "    def leftover(self): return 1\n"
            "    @property\n"
            "    def named(self): return getattr(self, 'by_string')\n"
            "    def by_string(self): pass\n"
            "    def dead(self): return Record().dead\n"
        ),
        "b.py": "from .a import Record\nRecord().used()\n",
    }
    # a name read anywhere counts, in the method's own body too
    assert unread_methods(sources) == [("a.py", 6, "Record.leftover")]
