"""Every name a library module imports is used there or listed in its
``__all__``, no library module calls ``np.linalg.solve`` (every small
solve goes through ``model._solve``), importing the command line loads
numpy and no SciPy, and every library name that the benchmark's tracer
spans exists.

The package ``__init__`` is left out of the import scan: importing
names to re-export them is its whole job."""

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dirac_thermo"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_scan_sees_unused_names():
    source = "from typing import Sequence, Optional\nimport os\nx: Optional[int] = None\n"
    assert unused_imports(source) == ["Sequence (line 1)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path.read_text()) == []


def linalg_solves(source: str) -> list:
    """Lines that reach numpy's ``linalg.solve``: an attribute
    ``<...>.linalg.solve`` or an import of ``solve`` from numpy.linalg."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "solve"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found.extend(node.lineno for alias in node.names if alias.name == "solve")
    return sorted(found)


def test_the_solve_scan_sees_every_spelling():
    source = (
        "import numpy as np\nimport numpy\nfrom numpy.linalg import solve, norm\n"
        "x = np.linalg.solve(A, b)\ny = numpy.linalg.solve\nz = np.linalg.norm(b)\n"
    )
    assert linalg_solves(source) == [3, 4, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_calls_numpy_solve(path):
    assert linalg_solves(path.read_text()) == []


def test_the_command_line_imports_no_scipy():
    # a fresh process: the test session itself may have SciPy loaded
    probe = ("import sys, dirac_thermo.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def perfbench_tracing():
    """``perfbench/tracing.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_spans_exists():
    # the tracer rebinds these names by module attribute: deleting one
    # from the library would break the benchmark, so a name goes only
    # after the tracer stops spanning it
    tracing = perfbench_tracing()
    spanned = [(layer, name) for layer, names in tracing.SPANNED.items() for name in names]
    spanned += [("dirac", name) for name in tracing.PER_ARENA]
    missing = [
        f"{layer}.{name}" for layer, name in spanned
        if not callable(getattr(importlib.import_module(f"dirac_thermo.{layer}"), name, None))
    ]
    assert spanned and missing == []


def test_the_benchmark_instruments_install_and_restore():
    # entering an instrument rebinds every library name it times or
    # spans, so a name the library lost fails here, not only in a traced
    # benchmark run; leaving it puts the originals back
    tracing = perfbench_tracing()
    dynamics = importlib.import_module("dirac_thermo.dynamics")
    original = dynamics.integrate_explicit
    for instrument in (tracing.Tracer(), tracing.IntegrationTimer()):
        with instrument.installed():
            assert dynamics.integrate_explicit is not original
        assert dynamics.integrate_explicit is original
