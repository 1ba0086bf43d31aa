"""Structure of the package source."""

import ast
import pathlib
import re
import sys

import pytest

import quarticfibres

PACKAGE = pathlib.Path(quarticfibres.__file__).parent


def test_no_private_names_imported_across_modules():
    # a helper two modules need belongs, public, in one module (e.g. the
    # plane-curve toolkit in `plane`), not imported privately from another
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            sibling = node.level == 1 or (node.module or "").startswith(
                "quarticfibres")
            if sibling:
                offenders += [f"{path.name}: {node.module}.{alias.name}"
                              for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE.parents[1] / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("the package is not running from its source tree")
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    declared = {re.match(r"[\w.-]+", dep).group() for dep in deps}
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"quarticfibres"}
    assert third_party == declared
