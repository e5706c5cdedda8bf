"""An unused-import check for src/riccisym, in place of a linter."""

import ast
from pathlib import Path

import pytest

import riccisym

PACKAGE = Path(riccisym.__file__).parent
# bench/tracer.py counts the eval_jet2 calls of each module by patching its
# binding, so cli keeps one it does not call
ALLOWED = {("cli", "eval_jet2")}


def unused_imports(source: str) -> list[str]:
    """Names that the module's import statements bind and its code never reads.

    An attribute chain such as np.linspace starts with a Name node, so it
    counts as a use of np; __future__ imports are not names.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
    source += "from .rotsym import RotSymTensor, definiteness_check\n"
    source += "def f(T: RotSymTensor):\n    return np.zeros(os.sep)\n"
    assert unused_imports(source) == ["definiteness_check"]


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_every_import_is_used(module):
    unused = unused_imports((PACKAGE / f"{module}.py").read_text())
    assert [name for name in unused if (module, name) not in ALLOWED] == []
