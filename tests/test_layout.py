"""Structure of the package source."""

import argparse
import ast
import inspect
import pathlib
import re
import sys
import textwrap

import pytest

import quarticfibres
from quarticfibres import cli

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


def _args_read(fn, seen) -> set:
    """Names a cli function reads off its parsed `args`, with those the
    module-level cli helpers it passes `args` to read."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    reads, dynamic = set(), False
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and any(isinstance(a, ast.Name) and a.id == "args"
                      for a in node.args)):
            name = node.func.id
            if name == "getattr":
                key = node.args[1]
                if isinstance(key, ast.Constant):
                    reads.add(key.value)
                else:
                    dynamic = True
            elif hasattr(cli, name) and name not in seen:
                seen.add(name)
                reads |= _args_read(getattr(cli, name), seen)
    if dynamic:
        # getattr(args, n) over literal names: count every string literal
        reads |= {n.value for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return reads


def test_cli_subcommands_define_only_the_flags_they_read():
    top = cli._build_parser()
    subs = next(a for a in top._actions
                if isinstance(a, argparse._SubParsersAction))
    unread = []
    for command, parser in sorted(subs.choices.items()):
        reads = _args_read(parser.get_default("func"), set())
        unread += [f"{command} {a.dest}" for a in parser._actions
                   if a.dest != "help" and a.dest not in reads]
    assert unread == []


def test_every_public_plane_function_has_a_caller_elsewhere():
    # the shared toolkit exports only what another module calls
    tree = ast.parse((PACKAGE / "plane.py").read_text())
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")}
    called = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "plane.py":
            continue
        module = ast.parse(path.read_text())
        imported = {alias.asname or alias.name: alias.name
                    for node in ast.walk(module)
                    if isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[-1] == "plane"
                    for alias in node.names}
        for node in ast.walk(module):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in imported:
                called.add(imported[fn.id])
            elif (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
                  and fn.value.id == "plane"):
                called.add(fn.attr)
    assert sorted(public - called) == []
