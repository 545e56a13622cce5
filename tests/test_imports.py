"""Guards on the package's imports: that `import ns1d`, and an IMEX run, load
no scipy module but LAPACK's extension `scipy.linalg._flapack` (the
scipy.linalg package would cost most of the package's import time and is not
used), that `import ns1d`, and a pulse run, load no numpy.polynomial, that
`ns1d.solver.solve_banded` is scipy's own `dptsv`, that every `__all__` entry
resolves, that no module imports a name it does not use, that every import is
of the standard library, ns1d, a test module or a package the CI workflow pins,
that no private helper outlives its last reader, and that no configuration field
outlives its last reader."""

import ast
import importlib
import importlib.machinery
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ns1d
import ns1d.solver

SRC = Path(ns1d.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent
WORKFLOW = TESTS.parent / ".github" / "workflows" / "tier1.yml"
SCIPY_MODULES = "sorted(m for m in sys.modules if m.startswith('scipy'))"
# the same, and numpy.polynomial, which kanel_potential's Gauss-Legendre rule does without
IMPORT_MODULES = "sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy.polynomial')))"


def in_fresh_process(code: str, **env) -> str:
    """What code prints to stdout, run by a new interpreter that finds ns1d in SRC."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **env)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_import_loads_no_interpolate_or_optimize(tmp_path):
    # nor any scipy module but the LAPACK extension, before and after an IMEX run, nor,
    # before it, numpy.polynomial
    run = ["run", "--set", "solver.integrator=imex", "--set", "grid.N=64", "--set",
           "time.t_end=0.1", "--set", "output.formats=json"]
    code = (f"import json, sys, ns1d; before = {IMPORT_MODULES}; from ns1d.cli import main; "
            f"code = main({run!r}); print(json.dumps([before, code, {SCIPY_MODULES}]))")
    out = in_fresh_process(code, NS1D_OUT=str(tmp_path))
    assert json.loads(out.splitlines()[-1]) == [["scipy.linalg._flapack"], 0,
                                                ["scipy.linalg._flapack"]]


def test_run_loads_no_numpy_polynomial(tmp_path):
    # a pulse run records the Kanel' pair, whose Gauss-Legendre rule is held as literals
    run = ["run", "--set", "grid.N=32", "--set", "time.t_end=0.01", "--set",
           "output.formats=json"]
    code = (f"import json, sys; from ns1d.cli import main; code = main({run!r}); "
            "print(json.dumps([code, [m for m in sys.modules if m.startswith('numpy.polynomial')]]))")
    out = in_fresh_process(code, NS1D_OUT=str(tmp_path))
    assert json.loads(out.splitlines()[-1]) == [0, []]
    assert json.loads((tmp_path / "summary.json").read_text())["final_record"]["kanel_lhs"] > 0


@pytest.mark.parametrize("first, second", [("ns1d.solver", "scipy.linalg.lapack"),
                                           ("scipy.linalg.lapack", "ns1d.solver")])
def test_solve_banded_is_scipys_dptsv(first, second):
    code = (f"import {first}, {second}; "
            "print(ns1d.solver.solve_banded is scipy.linalg.lapack.dptsv)")
    assert in_fresh_process(code).split() == ["True"]


def test_missing_lapack_extension_is_an_import_error(tmp_path, monkeypatch):
    # a scipy without linalg/_flapack*.so where the loader looks: refused, naming the file
    moved = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    moved.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: moved)
    with pytest.raises(ImportError, match=r"scipy/linalg/_flapack\..*so, found in none of "
                                          rf"\['{tmp_path}/linalg'\]"):
        ns1d.solver._load_flapack()


def test_every_all_entry_resolves():
    # a stale entry, left by a deletion, breaks `from ns1d.<module> import *`
    modules = [ns1d] + [importlib.import_module(f"ns1d.{info.name}")
                        for info in pkgutil.iter_modules(ns1d.__path__)]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not stale, f"__all__ entries that do not resolve: {stale}"


def unused_imports(source: str) -> list:
    """Names a module imports but neither uses nor lists in __all__; an import
    statement carrying `# noqa: F401` and `from __future__` imports are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(f"line {node.lineno}: {name}")
    return unused


def test_unused_import_guard_sees_an_unused_name():
    assert unused_imports("import math\nfrom os import path, sep\nx = sep\n") == [
        "line 1: math", "line 2: path"]
    assert unused_imports("import os.path\nfrom os import sep  # noqa: F401\n"
                          "__all__ = ['sep']\nos.getcwd()\n") == []


def test_no_module_imports_an_unused_name():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted((SRC / "ns1d").glob("*.py"))}
    assert not {name: names for name, names in found.items() if names}, found


def imported_packages(sources: dict) -> set:
    """The top-level package of each absolute import in sources (file name -> text),
    function-level imports included."""
    packages = set()
    for tree in map(ast.parse, sources.values()):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                packages |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                packages.add(node.module.split(".")[0])
    return packages


def workflow_pins(text: str) -> dict:
    """package -> version of the one `pip install name==version ...` line of a workflow;
    a package given without `==version` is not pinned, and refused."""
    (line,) = re.findall(r"pip install (.+)", text)
    pins = [pin.partition("==") for pin in line.split()]
    assert all(eq and version for _, eq, version in pins), f"unpinned: {line}"
    return {name: version for name, _, version in pins}


def test_import_guards_see_every_package_and_pin():
    sources = {"a.py": "import os.path, numpy as np\nfrom . import grid\n",
               "b.py": "def f():\n    from scipy.linalg import lapack\n    from .a import f\n"}
    assert imported_packages(sources) == {"os", "numpy", "scipy"}
    assert workflow_pins("  run: python -m pip install numpy==2.4.6 pytest==9.0.3\n") == {
        "numpy": "2.4.6", "pytest": "9.0.3"}
    with pytest.raises(AssertionError, match="unpinned"):
        workflow_pins("run: pip install numpy==2.4.6 pytest\n")


def test_every_import_is_stdlib_ns1d_a_test_module_or_pinned():
    # so that CI installs what the tests import, and nothing else: mpmath, used to
    # compute reference values, stays out of the tests, which hold them as literals
    paths = [*(SRC / "ns1d").glob("*.py"), *TESTS.glob("*.py")]
    imported = imported_packages({path.name: path.read_text() for path in paths})
    local = {"ns1d"} | {path.stem for path in TESTS.glob("*.py")}
    third_party = imported - set(sys.stdlib_module_names) - local
    assert third_party == set(workflow_pins(WORKFLOW.read_text()))  # hypothesis, numpy,
    # pytest and scipy


def unreferenced_helpers(sources: dict) -> list:
    """Module-level `_private` functions and classes of sources (file name ->
    text) whose name no expression in any of them reads: a helper left behind
    by a deletion.  Imports do not count as reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in read]


def test_dead_helper_guard_sees_an_unreferenced_helper():
    sources = {"a.py": "def _used():\n    pass\n\n\ndef _dead():\n    pass\n\n\nclass _Gone:\n"
                       "    pass\n",
               "b.py": "from a import _dead, _used\nimport a\nx = _used() or a._Gone\n"}
    assert unreferenced_helpers(sources) == ["a.py: _dead"]


def test_no_module_keeps_an_unreferenced_helper():
    sources = {path.name: path.read_text() for path in sorted((SRC / "ns1d").glob("*.py"))}
    assert not unreferenced_helpers(sources)


CONFIG_CLASSES = ("SolverConfig", "RunConfig")
# and the Stage, each of whose fields is work done once per state, the Plan,
# each of whose fields is built once per run, and the gas model, the profile h
# and the manufactured case, each of whose fields some formula reads
CHECKED_CLASSES = CONFIG_CLASSES + ("Stage", "Plan", "GasModel", "HProfile", "ManufacturedCase")


def unread_fields(sources: dict, classes=CONFIG_CLASSES) -> list:
    """Fields of the dataclasses named in classes whose name no attribute read in
    sources (file name -> text) takes, outside the class bodies (defaults and
    validation) and make_solver_config (which copies every field by name): a
    knob whose last reader is gone, or a stage field computed for nothing.  A
    read through a name ending in `config` counts only for CONFIG_CLASSES, so
    `config.amplitude` hides no other class's `amplitude`."""
    fields, read, config_read = {}, set(), set()
    for tree in (ast.parse(text) for text in sources.values()):
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in classes:
                fields[node.name] = [stmt.target.id for stmt in node.body
                                     if isinstance(stmt, ast.AnnAssign)]
            elif not (isinstance(node, ast.FunctionDef) and node.name == "make_solver_config"):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                        # the receiver's name: `x` of `x.a`, `b` of `x.b.a`
                        owner = getattr(sub.value, "id", getattr(sub.value, "attr", ""))
                        (config_read if owner.endswith("config") else read).add(sub.attr)
    assert set(fields) == set(classes), f"classes not found: {set(classes) - set(fields)}"
    return [f"{cls}.{name}" for cls, names in fields.items() for name in names
            if name not in read and (cls not in CONFIG_CLASSES or name not in config_read)]


def test_unread_field_guard_sees_a_knob_without_a_reader():
    sources = {"a.py": "class SolverConfig:\n    tol: float = 1.0\n    cfl: float = 0.4\n\n"
                       "    def __post_init__(self):\n        assert self.tol > 0\n",
               "b.py": "class RunConfig:\n    tol: float = 1.0\n\n\n"
                       "def make_solver_config(config):\n    return config.tol\n\n\n"
                       "def step(config):\n    config.tol = 2.0\n    return config.cfl\n"}
    assert unread_fields(sources) == ["SolverConfig.tol", "RunConfig.tol"]


def test_unread_field_guard_sees_a_stage_field_without_a_reader():
    sources = {path.name: path.read_text() for path in sorted((SRC / "ns1d").glob("*.py"))}
    field = "    theta_x: np.ndarray\n"
    assert sources["solver.py"].count(field) == 1
    sources["solver.py"] = sources["solver.py"].replace(field, field + "    spare: np.ndarray\n")
    assert unread_fields(sources, CHECKED_CLASSES) == ["Stage.spare"]


def test_unread_field_guard_does_not_count_a_config_read_for_another_class():
    # harness reads config.amplitude; that read must not keep a case field of that name
    sources = {path.name: path.read_text() for path in sorted((SRC / "ns1d").glob("*.py"))}
    field = "    v: ClosedForm\n"
    assert sources["verification.py"].count(field) == 1
    sources["verification.py"] = sources["verification.py"].replace(
        field, field + "    amplitude: float = 0.0\n")
    assert unread_fields(sources, CHECKED_CLASSES) == ["ManufacturedCase.amplitude"]


def test_no_configuration_field_outlives_its_last_reader():
    sources = {path.name: path.read_text() for path in sorted((SRC / "ns1d").glob("*.py"))}
    assert not unread_fields(sources, CHECKED_CLASSES)
