"""Every name a package module imports is used there or exported by it.

An AST scan of ``src/ncprob/*.py`` (the package ``__init__`` only
re-exports): a name bound by an import must appear as a name in the module
body or in its ``__all__``.  An import line marked ``# noqa: F401`` keeps a
binding on purpose and says why in a comment above it.
"""

import ast
import pathlib

import pytest

import ncprob

MODULES = sorted(p for p in pathlib.Path(ncprob.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(path: pathlib.Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_scan_sees_the_package():
    assert {p.name for p in MODULES} >= {"algebra_core.py", "hilbert_module.py", "dilation.py", "suites.py"}


def test_scan_flags_an_unused_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\nimport os\nfrom math import pi, tau\n"
        "from math import e  # noqa: F401\n__all__ = ['tau']\nprint(pi)\n"
    )
    assert unused_imports(path) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []
