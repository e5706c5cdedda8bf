"""Unused-import and dead-helper checks for src/riccisym, in place of a linter,
and the set of modules a cold import loads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riccisym

PACKAGE = Path(riccisym.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names that the module's import statements bind and its code never
    reads, bar those imported on a line marked ``# noqa: F401``.

    An attribute chain such as np.linspace starts with a Name node, so it
    counts as a use of np; __future__ imports are not names.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(alias, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(alias, alias.asname or alias.name) for alias in node.names]
        else:
            continue
        bound.update(name for alias, name in names if "# noqa: F401" not in lines[alias.lineno - 1])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
    source += "from .rotsym import RotSymTensor, definiteness_check\n"
    source += "def f(T: RotSymTensor):\n    return np.zeros(os.sep)\n"
    assert unused_imports(source) == ["definiteness_check"]


def test_the_check_exempts_only_a_line_marked_noqa():
    # a name kept for a patch, such as cli's eval_jet2, is marked at its import
    source = "from .exprfn import EvalError, Expr, parse\n"
    source += "from .exprfn import eval_jet2  # noqa: F401  patched by a tracer\n"
    source += "from .pipeline import (\n    branch,  # noqa: F401\n    solve,\n)\n"
    source += "def f(text) -> Expr:\n    import math\n    return parse(text)\n"
    assert unused_imports(source) == ["EvalError", "math", "solve"]


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / f"{module}.py").read_text()) == []


def private_definitions(source: str) -> set[str]:
    """Module-level _names that a def, a class or an assignment binds; dunders aside."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def names_read(source: str) -> set[str]:
    """Names the code loads, bare or as an attribute (module._name)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """module._name for each module-level _name that no module reads."""
    read = set().union(*(names_read(source) for source in sources.values()))
    return sorted(
        f"{module}.{name}"
        for module, source in sources.items()
        for name in private_definitions(source) - read
    )


def test_the_check_finds_a_dead_helper():
    sources = {
        "a": "_TOL = 1e-13\n_unused: int = 3\ndef _used():\n    return _TOL\n"
        "def _dead():\n    return _used()\nclass _Shape:\n    pass\n",
        "b": "from . import a\n__all__ = []\ndef f():\n    return a._Shape\n",
    }
    assert dead_helpers(sources) == ["a._dead", "a._unused"]


def test_every_private_helper_is_read():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert dead_helpers(sources) == []


def readers(source: str, name: str) -> list[str]:
    """The top-level definitions of the module that read name, as a name, an
    attribute or an import, at any depth of their code; "<module>" for each
    top-level statement outside a definition that does."""
    found = []
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.alias) and node.name == name):
                found.append(getattr(stmt, "name", "<module>"))
                break
    return found


def test_the_check_finds_a_grid_evaluator():
    assert readers("from .exprfn import _jets_into as fill\n", "_jets_into") == ["<module>"]
    source = "from . import exprfn\ndef f(e, ts):\n    def g():\n"
    source += "        return exprfn._jets_into(None, (e,), ts)\n    return g()\n"
    assert readers(source, "_jets_into") == ["f"]
    source = "def _jets_into(out, exprs, ts):\n    return True\n"
    source += "def sample(ts, *exprs):\n    return _jets_into(None, exprs, ts)\n"
    assert readers(source, "_jets_into") == ["sample"]


def test_sample_is_the_only_grid_evaluator():
    # exprfn.sample is the one way to evaluate an expression over a grid:
    # the array kernel's runner, _jets_into, has no caller but sample
    found = [f"{p.stem}.{where}" for p in sorted(PACKAGE.glob("*.py"))
             for where in readers(p.read_text(), "_jets_into")]
    assert found == ["exprfn.sample"]


EXPR_NODES = ("Num", "Pi", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call")


def node_readers(sources: dict[str, str]) -> list[str]:
    """module.definition for each top-level definition (or "<module>") that
    reads one of the Expr node classes."""
    return sorted({f"{module}.{where}" for module, source in sources.items()
                   for name in EXPR_NODES for where in readers(source, name)})


def test_the_check_finds_a_second_tree_walker():
    source = "from .exprfn import Mul, Num\n_ONE = Num(1.0)\n"
    source += "def taylor(e, K):\n    return isinstance(e, Mul)\n"
    source += "class Interval:\n    def walk(self, e):\n        return exprfn.Call\n"
    source += "def width(x):\n    return x.hi - x.lo\n"
    assert node_readers({"interval": source}) == [
        "interval.<module>", "interval.Interval", "interval.taylor",
    ]


def test_compile_is_the_only_tree_walker_for_evaluation():
    # exprfn._compile is the one walk that evaluates an expression: beside
    # it only the tables, the parser and unparse read the node classes, so
    # a new arithmetic (Taylor coefficients, intervals) is a set of rules
    # for _compile, not a second dispatch on the node types
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert node_readers(sources) == [
        "exprfn.<module>", "exprfn._Parser", "exprfn._compile", "exprfn.unparse",
    ]


POOL_MODULES = ("concurrent.futures", "multiprocessing")


def imported_pools(source: str) -> list[str]:
    """The modules under POOL_MODULES that the module imports, at any depth
    of its code (a lazy import inside a function counts)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
            names.extend(f"{node.module}.{alias.name}" for alias in node.names)
    return sorted({name for name in names
                   if any(name == p or name.startswith(p + ".") for p in POOL_MODULES)})


def test_the_check_finds_a_process_pool():
    source = "import os\ndef run(jobs):\n    from concurrent.futures import ProcessPoolExecutor\n"
    source += "    import multiprocessing.pool as mp\n    from concurrent import futures\n"
    assert imported_pools(source) == [
        "concurrent.futures", "concurrent.futures.ProcessPoolExecutor", "multiprocessing.pool",
    ]
    assert imported_pools("from .potential import integrate_separatrix\nimport concurrency\n") == []


def test_no_module_starts_a_process_pool():
    # one config per process: a shell loop or xargs -P runs many, so the
    # package has no worker pool to start or to keep off the import path
    pools = {p.stem: imported_pools(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert {module: names for module, names in pools.items() if names} == {}


IMPORT_SET_PROBE = """
import json, pathlib, subprocess, sys, tempfile
import numpy as np
compiles = []
run = subprocess.run
subprocess.run = lambda *args, **kwargs: compiles.append(args) or run(*args, **kwargs)
import riccisym, riccisym.cli

cold = sorted(name for name in sys.modules
              if name.split(".")[0] == "scipy" or name == "concurrent.futures.process"
              or name in ("fractions", "decimal"))
tables_at_import = riccisym.cli._tables.cache_info().currsize
with tempfile.TemporaryDirectory() as tmp:
    riccisym.cli.write_csv(pathlib.Path(tmp, "x.csv"), ("x",), [(np.ones(1),)])
tables_after_write = riccisym.cli._tables.cache_info().currsize
riccisym.tensorlab.invert_spd(np.eye(3))
native = riccisym.potential._native.cache_info().currsize
print(json.dumps([cold, tables_at_import, tables_after_write, "scipy.linalg" in sys.modules,
                  native, len(compiles)]))
"""


def test_a_cold_import_loads_numpy_and_nothing_heavier():
    # the solve, verify and CLI path reads no scipy, loads no process pool
    # and no exact-arithmetic module, and builds the CSV writer's tables on
    # its first write; the numeric oracle loads scipy.linalg on first use;
    # the compiled RK4 mirror is neither built nor loaded before a solve
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SET_PROBE], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    cold, tables_at_import, tables_after_write, oracle_loads_linalg, native, compiles = (
        json.loads(proc.stdout)
    )
    assert cold == []
    assert (native, compiles) == (0, 0)
    assert not tables_at_import
    assert tables_after_write
    assert oracle_loads_linalg
