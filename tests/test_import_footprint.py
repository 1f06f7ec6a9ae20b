"""The compile footprint of the modules `import torusgerbe` loads.

Without cached bytecode, importing the package compiles every module it
loads, and the largest single compile sets the process's peak memory at
import.  The benchmark's `peak_rss_mib` of every in-process workload
includes that peak, so a module that grows past the bound below costs
memory on every workload, whatever it computes.  `cli.py` loads only in the
command-line entry point and is left out.
"""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BOUND_MIB = 1.30


def _loaded_modules() -> list[Path]:
    """Source files of the package modules a fresh `import torusgerbe`
    loads, from a child interpreter so this process's imports do not
    count."""
    code = (
        "import sys, torusgerbe\n"
        "for name, m in sorted(sys.modules.items()):\n"
        "    if name == 'torusgerbe' or name.startswith('torusgerbe.'):\n"
        "        print(m.__file__)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    return [Path(line) for line in out.splitlines()]


MODULES = _loaded_modules()


def compile_peak_mib(path: Path) -> float:
    source = path.read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def test_the_package_modules_are_found():
    names = {p.name for p in MODULES}
    assert {"__init__.py", "obstruction.py", "torus.py"} <= names
    assert "cli.py" not in names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_compile_peak_within_bound(path):
    peak = compile_peak_mib(path)
    assert peak <= BOUND_MIB, (
        f"{path.name} compiles at a peak of {peak:.3f} MiB, above {BOUND_MIB} MiB: "
        "`import torusgerbe` without cached bytecode compiles every module, and "
        "the largest compile sets the benchmark's peak_rss_mib on every "
        "in-process workload"
    )
