"""Every name a library module imports is used there or listed in its
``__all__``, no library module calls ``np.linalg.solve`` (every small
solve is the fused kernels' float code), no fused kernel and no part of
the diagnostics pass makes a BLAS or LAPACK call, importing the command
line loads
numpy and no SciPy, importing the package and building models compile
no fused kernel, each fused kernel's math has one statement, its
generated source, and every library name that the benchmark's tracer
spans exists.

The package ``__init__`` is left out of the import scan: importing
names to re-export them is its whole job."""

import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from dirac_thermo import dirac, dynamics, legendre, model
from dirac_thermo.model import _fused

from test_dynamics import FUSED_MODELS, fused_model

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


def test_the_implicit_route_makes_no_lapack_solve():
    # the generated implicit step factors its block-eliminated Newton
    # matrix in float code: its source calls no solve, and dynamics, once
    # the caller of ``model._solve`` for that step, names it nowhere
    tree = ast.parse((SRC / "dynamics.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert "_solve" not in names
    for n in (1, 2, 3):
        assert "solve" not in dynamics._implicit_step_source(n)


def blas_calls(source: str) -> list:
    """Lines with a matrix product (``@``) or a name of numpy's dense
    linear algebra (``dot``, ``matmul``, ``einsum``, ``linalg`` and the like)."""
    names = ("dot", "vdot", "inner", "matmul", "einsum", "tensordot", "linalg")
    return sorted(
        node.lineno for node in ast.walk(ast.parse(textwrap.dedent(source)))
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
        or (isinstance(node, ast.Attribute) and node.attr in names)
    )


def test_the_blas_scan_sees_every_spelling():
    source = "a = x @ y\nb = np.dot(x, y)\nc = np.linalg.solve(A, b)\nd = np.max(x)\ne = x.T.dot(y)\n"
    assert blas_calls(source) == [1, 2, 3, 5]


def kernel_sources() -> list:
    """Every fused kernel's source at n = 1, 2 and 3."""
    out = []
    for n in (1, 2, 3):
        out += [dynamics._work_source(n, False), dynamics._work_source(n, True), dynamics._momentum_source(n),
                legendre._fiber_source(n), dynamics._residual_source(n), dynamics._implicit_step_source(n),
                dynamics._step_source("M", n, False), dynamics._step_source("M", n, True),
                dynamics._step_source("N", n, False)]
    return out


def test_the_kernels_and_the_diagnostics_pass_make_no_blas_call():
    # float code and column accumulations of one fixed order, the same
    # bits on any CPU
    functions = (dynamics._diagnostics_block, dynamics._solution_data, model._dots, model._momentum_rater,
                 model._solver, dirac._conditions, dirac.dirac_membership)
    for source in kernel_sources() + [inspect.getsource(f) for f in functions]:
        assert blas_calls(source) == [], source
        assert not {node.id for node in ast.walk(ast.parse(textwrap.dedent(source)))
                    if isinstance(node, ast.Name)} & RETIRED


# the numpy helpers that the fused kernels called for numpy's bits, and
# the rules that skipped them
RETIRED = {"_dot", "_mv", "_momentum_rate_from", "_solve_rows", "_vector_matrix", "_solve", "_rules",
           "_quiet", "_STRICT_GLOBALS", "solve1"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_keeps_a_retired_helper(path):
    tree = ast.parse(path.read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    names |= {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not names & RETIRED


def test_the_command_line_imports_no_scipy():
    # a fresh process: the test session itself may have SciPy loaded
    probe = ("import sys, dirac_thermo.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_import_and_the_builders_compile_no_fused_kernel():
    # a fused kernel's fast binding compiles at its first call that finds
    # its replays traced: importing the package and building models
    # compile nothing, and the Hamiltonian gate (the benchmark's set-up),
    # which traces L's order-2 jet before its fiber solves, compiles one
    # fiber source per distinct n, bound fast and never strict, for the
    # piston (n = 1) and the membrane (n = 3)
    probe = ("import dirac_thermo as dt; from dirac_thermo import model\n"
             "def compiled():\n"
             "    entries = [item for kernels in model._FUSED.values() for item in kernels.items()]\n"
             "    bound = sorted((kind, n, [k is not None for k in pair]) for (kind, n, _), (_, _, pair) in entries)\n"
             "    print(model._compiled.cache_info().currsize, bound)\n"
             "compiled()\n"
             "models = [dt.build_piston(), dt.build_membrane(), dt.build_reactions()]; compiled()\n"
             "[dt.build_hamiltonian_model(m) for m in models[:2]]; compiled()")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == [
        "0 []",
        "0 []",
        "2 [('fiber', 1, [True, False]), ('fiber', 3, [True, False])]",
    ]


def hand_written_kernels(source: str) -> list:
    """Functions named as the per-evaluator copies of the fused kernels'
    math were: ``_per_evaluator...`` and ``_momentum_work``."""
    return sorted(
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        and (node.name.startswith("_per_evaluator") or node.name == "_momentum_work")
    )


def test_the_kernel_scan_sees_the_copies():
    source = "def _per_evaluator_work(m):\n    pass\nclass A:\n    def _momentum_work(self):\n        pass\n"
    assert hand_written_kernels(source) == ["_momentum_work", "_per_evaluator_work"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_keeps_a_hand_written_kernel(path):
    # the per-evaluator paths are the tests' reference (conftest.py)
    assert hand_written_kernels(path.read_text()) == []


@pytest.mark.parametrize("kind", sorted(FUSED_MODELS))
def test_the_fast_and_strict_kernels_share_one_code_object(kind):
    # one source per kernel, compiled once and bound twice, each binding
    # cached per (model, kind)
    model = fused_model(kind)
    builds = {"work": dynamics._build_work, "residual": dynamics._build_residual,
              "implicit-step": dynamics._build_implicit_step, "work-step": dynamics._build_work_step}
    if not model.degenerate:
        builds.update({"fiber": legendre._build_fiber, "momentum": dynamics._build_momentum,
                       "momentum-step": dynamics._build_momentum_step})
    for name, build in builds.items():
        fast, strict = _fused(model, name), _fused(model, name, build, strict=True)
        assert fast is not None and strict is not fast, name
        assert fast.__code__ is strict.__code__, name
        assert _fused(model, name, build, strict=True) is strict, name  # bound once, not per call


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
