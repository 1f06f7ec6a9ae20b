"""The mutation tool resolves its function names and makes valid mutants.

`tools/mutants.py` is loaded by path, as `tests/test_bench_targets.py` loads
the bench tracer; no mutant is run here.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FORMS = "src/torusgerbe/forms.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants_tool", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = load_tool()
TREE = ast.parse((ROOT / FORMS).read_text())


def test_method_lookup():
    func = TOOL.find_function(TREE, "AltForm3.contract_over")
    assert isinstance(func, ast.FunctionDef) and func.name == "contract_over"
    assert TOOL.find_function(TREE, "alternating_matrix").name == "alternating_matrix"
    for name in ("AltForm3.no_such_method", "AltForm3", "contract_over"):
        with pytest.raises(LookupError):
            TOOL.find_function(TREE, name)


def test_unknown_name_is_a_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        TOOL.main([FORMS, "AltForm3.coeff", "AltForm3.nope", "--workdir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "no function AltForm3.nope in src/torusgerbe/forms.py" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # nothing was copied


def test_every_mutant_unparses_and_compiles():
    name = "AltForm3.contract_over"
    count = len(list(TOOL.mutations(TOOL.find_function(TREE, name))))
    assert count > 10
    sources = set()
    for index in range(count):
        mutant, what = TOOL.mutate(TREE, name, index)
        source = ast.unparse(mutant)
        compile(source, FORMS, "exec")
        sources.add(source)
    assert len(sources) == count  # each mutant changes the module


def test_boolean_modulo_and_identity_mutants():
    tree = ast.parse(
        "def verdict(z, y, pairs):\n"
        "    if pairs is None or z is not None:\n"
        "        return z and y\n"
        "    y = -y / 2\n"
        "    return y % 3\n"
    )
    count = len(list(TOOL.mutations(TOOL.find_function(tree, "verdict"))))
    bodies = {ast.unparse(TOOL.mutate(tree, "verdict", i)[0]) for i in range(count)}
    expected = [
        "if pairs is None and z is not None:",  # or -> and
        "if pairs is not None or z is not None:",  # is -> is not
        "if pairs is None or z is None:",  # is not -> is
        "return z or y",  # and -> or
        "return y // 3",  # % -> //
        "return y % 4",  # the constant
        "y = -y * 2",  # / -> *
        "y = +y / 2",  # -y -> +y, which is y
        "y = -y / 3",  # the constant
    ]
    assert count == len(expected) == len(bodies)
    for line in expected:
        assert sum(line in body for body in bodies) == 1, line
    assert "return y % 3" in ast.unparse(tree)  # each mutant works on a copy
