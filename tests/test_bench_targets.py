"""Every function the benchmark tracer wraps exists in the package.

`bench/tracer.py` names the traced functions per layer (`TARGETS`).  A
function renamed or removed in the package would otherwise show up only as
a warning in a traced benchmark run.  The tracer module is loaded by path
and read, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_targets() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer_targets", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = [(layer, name) for layer, names in load_targets().items() for name in names]


def test_tracer_names_targets():
    assert TARGETS


@pytest.mark.parametrize("layer, name", TARGETS, ids=[f"{a}.{b}" for a, b in TARGETS])
def test_traced_function_is_callable_in_its_layer(layer, name):
    module = importlib.import_module(f"torusgerbe.{layer}")
    assert callable(getattr(module, name, None)), f"torusgerbe.{layer}.{name}"
