"""The runtime is stdlib-only: no bvsigma module imports a third-party package.

numpy, sympy or hypothesis may be installed next to the package; this test
fails as soon as a module under src/bvsigma imports one of them (or any
other non-stdlib name), at module level or inside a function.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bvsigma"
MODULES = sorted(PACKAGE.rglob("*.py"))


def imported_top_levels(path):
    """Top-level names of every absolute import in the module at ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_stdlib(path):
    foreign = imported_top_levels(path) - set(sys.stdlib_module_names) - {"bvsigma"}
    assert not foreign, "%s imports non-stdlib %s" % (path.name, sorted(foreign))


def test_checker_sees_a_third_party_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom numpy import array\n\ndef f():\n    import sympy\n")
    assert imported_top_levels(module) - set(sys.stdlib_module_names) == {"numpy", "sympy"}
