"""Structure of the package source."""

import ast
import pathlib

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
