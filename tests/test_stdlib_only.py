"""The runtime is stdlib-only: no bvsigma module imports a third-party package.

numpy, sympy or hypothesis may be installed next to the package; this test
fails as soon as a module under src/bvsigma imports one of them (or any
other non-stdlib name), at module level or inside a function.  It also
fails on an import that its module never uses (pyflakes' F401, by the same
``ast`` walk, since no linter is a dependency), on an import below module
level (inside a function, class, ``if`` or ``try``: every dependency is
stated at the top), and when importing the CLI loads ``dataclasses`` or
``inspect``, which every command would pay for at start-up.
"""

import ast
import os
import subprocess
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


def imports_below_module_level(path):
    """Line numbers of the imports of the module at ``path`` that are not
    statements of the module body itself."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    top = {id(node) for node in tree.body}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    )


def unused_imports(path):
    """Names the module at ``path`` imports and never uses.

    A name counts as used when it appears as a name anywhere in the module,
    string annotations included.  Exempt: ``__future__`` imports, the
    re-exports listed in ``__all__`` and every import whose first line is
    marked ``# noqa: F401``.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__" and "# noqa: F401" not in lines[node.lineno - 1]:
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        for leaf in ast.walk(annotation) if annotation else ():
            if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                used.update(n.id for n in ast.walk(ast.parse(leaf.value, mode="eval")) if isinstance(n, ast.Name))
    return sorted(imported - used - exported)


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


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert not unused_imports(path), "%s never uses %s" % (path.name, unused_imports(path))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_at_module_level(path):
    assert not imports_below_module_level(path), "%s imports below module level at lines %s" % (
        path.name, imports_below_module_level(path))


def test_checker_sees_an_import_below_module_level(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\n"
        "if os.sep:\n"
        "    import re\n"
        "\n"
        "class C:\n"
        "    from json import dumps\n"
        "\n"
        "def f():\n"
        "    try:\n"
        "        import sympy\n"
        "    except ImportError:\n"
        "        pass\n"
    )
    assert imports_below_module_level(module) == [3, 6, 10]


def test_cli_import_loads_no_dataclasses_or_inspect():
    """``dataclasses`` imports ``inspect``, and with it ``ast``, ``dis`` and
    ``tokenize``: about 10 ms of every command's start-up, for nothing the
    engine uses."""
    code = "import sys, bvsigma.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_checker_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Optional, Sequence\n"
        "from json import dumps  # noqa: F401\n"
        "from collections import deque as queue, OrderedDict\n"
        "__all__ = ['queue']\n"
        "\n"
        "def f(x: 'Optional[int]') -> Sequence:\n"
        "    import re\n"
        "    return os.sep\n"
    )
    assert unused_imports(module) == ["OrderedDict", "re", "sys"]
