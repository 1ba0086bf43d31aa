"""Structure of the package source."""

import argparse
import ast
import importlib
import importlib.util
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


def test_only_the_field_and_polynomial_layers_reach_gf2x():
    # every carry-less product of packed polynomials goes through the one
    # kernel of `upoly` (`mul`, `square`, `pow`); only the field tables of
    # `finitefield` reach `gf2x` besides it
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            if any(n.split(".")[-1] == "gf2x" for n in names):
                users.add(path.stem)
    assert users <= {"gf2x", "finitefield", "upoly"}


def test_search_caps_are_checked_in_two_places():
    # the plane scans are bounded once, where kernels builds its planes,
    # and the one extension a root search builds is the root lift of
    # fibres._lift_roots, which blow-up directions and lines through
    # (0:1:0) share: no caller adds a cap of its own
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and "check_cap" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    callers.add(f"{path.stem}.{fn.name}")
    assert callers == {"kernels._zero_masks", "fibres._lift_roots"}


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


def _public_definitions(tree):
    """(qualified name, bare name, node) for each public module-level
    function and class, and each public method or property of such a
    class."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item.name, item


def _mentions(tree):
    """(name, line) for each name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1], node.lineno


def test_every_public_plane_function_has_a_caller_elsewhere():
    # every public name of the package is reached from src/ (the CLI and
    # the acceptance battery), not from tests alone: it occurs as a name,
    # an attribute or an import outside its own definition.  The shared
    # toolkit in `plane` must be reached from another module.
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    mentions: dict = {}
    for module, tree in trees.items():
        for name, line in _mentions(tree):
            mentions.setdefault(name, []).append((module, line))
    unreached = []
    for module, tree in trees.items():
        for qualname, name, node in _public_definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(where != module
                       or (module != "plane" and line not in own)
                       for where, line in mentions.get(name, ())):
                unreached.append(f"{module}.{qualname}")
    assert unreached == []


def test_perfbench_traces_names_the_package_has():
    # perfbench wraps package functions by name; a renamed or deleted one
    # would break every traced run
    tracing = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    if not tracing.exists():
        pytest.skip("perfbench/ is not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", tracing)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    missing = []
    for module_name, path, *_ in module.SPANS + module.COUNTERS:
        obj = importlib.import_module(f"quarticfibres.{module_name}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(f"{module_name}.{path}")
    assert missing == []
    from quarticfibres import kernels
    assert hasattr(kernels, "USING_NUMBA")
