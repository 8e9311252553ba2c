"""Each module of the package imports only the modules below it.

The layers, from the bottom: errors, systems, lattice, discretization,
euler, refine, benchcli.  Imports are read from the source with ``ast``, at
any depth, so an import inside a function counts too.
"""

import ast
from pathlib import Path

import pytest

import eulerreach

LAYERS = ("errors", "systems", "lattice", "discretization", "euler", "refine", "benchcli")
PACKAGE_DIR = Path(eulerreach.__file__).parent


def _package_imports(path: Path) -> set[str]:
    """Package modules the source file imports, by their short names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            full = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "eulerreach." * bool(node.level) + (node.module or "")
            base = base.rstrip(".")
            # "from . import refine" and "from eulerreach import x" name
            # submodules (or package attributes) after the package itself
            full = [f"{base}.{a.name}" for a in node.names] if base == "eulerreach" else [base]
        else:
            continue
        names.update(n.split(".")[1] for n in full if n.startswith("eulerreach."))
    return names


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE_DIR.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_lower_layers(module):
    below = set(LAYERS[: LAYERS.index(module)])
    assert _package_imports(PACKAGE_DIR / f"{module}.py") - below == set()
