"""Every imported name is used.  The scan covers src/ (but not the package
__init__.py, whose imports are its exports), scripts/ and tests/.  A name
counts as used when the module refers to it anywhere, a string annotation
included; an import line marked ``# noqa`` is skipped.

No module in src/ or scripts/ imports an underscore name from another
module of the package: what one module shares with another is public.
Binding a public name to a private alias (``write_json as _write_json``)
is allowed.

Every ``from conf_ensemble.<module> import name`` in src/, scripts/ and
tests/, and every relative import inside the package (__init__.py
included), names the module that defines name, not one that only
imports it in turn.

Every function, class, method and property src/ defines is referred to
by name from the program: src/, scripts/ or perfbench/.  Code only the
tests reach is an API kept for the tests, and belongs in them."""

from __future__ import annotations

import ast
import re

import pytest

from conftest import ROOT

PROGRAM = sorted(
    list((ROOT / "src").rglob("*.py")) + list((ROOT / "scripts").glob("*.py"))
)
SOURCES = sorted(
    [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "tests").glob("*.py"))
)


def _imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Name bound by each import, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    names[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [
        node.annotation for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None
    ] + [
        node.returns for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns
    ]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = _used_names(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in _imported_names(tree, source.splitlines()).items()
        if name not in used
    ]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _private_package_imports(tree: ast.Module) -> list[str]:
    """Underscore names imported from the package, relatively or by name."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "conf_ensemble")
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", PROGRAM, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_name_is_imported_from_the_package(path):
    private = _private_package_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not private, f"{path.name} imports private names: {', '.join(private)}"


PACKAGE = ROOT / "src" / "conf_ensemble"


def _defined_names(module: str) -> set[str]:
    """The names a package module binds at top level by def, class or
    assignment; an import does not define the name it binds."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _misattributed_imports(path) -> list[str]:
    """Names path imports from a package module that does not define them."""
    in_package = path.is_relative_to(PACKAGE)
    wrong = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        if node.level and in_package:
            module = node.module
        elif not node.level and node.module.startswith("conf_ensemble."):
            module = node.module.removeprefix("conf_ensemble.")
        else:
            continue
        defined = _defined_names(module)
        wrong += [f"{alias.name} from {module} (line {node.lineno})"
                  for alias in node.names if alias.name not in defined]
    return wrong


@pytest.mark.parametrize("path", sorted([PACKAGE / "__init__.py", *SOURCES]),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_names_the_defining_module(path):
    wrong = _misattributed_imports(path)
    assert not wrong, f"{path.name} imports names their module does not define: {wrong}"


# A perfbench hook target, "module:attr" or "module:Class.attr"; the module
# part may be an f-string's placeholder.
_HOOK_TARGET = re.compile(r"[\w.]*:([\w.]+)")


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names a module refers to: names, attributes, imported names, and
    the attributes hook target strings name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            target = _HOOK_TARGET.fullmatch(node.value)
            if target:
                names.update(target.group(1).split("."))
    return names


def unreferenced_definitions(root) -> list[str]:
    """The functions, classes, methods and properties defined in root's
    src/ whose names nothing in its src/, scripts/ or perfbench/ refers
    to; a dunder method is called by Python itself."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "scripts", "perfbench")
             for path in sorted((root / folder).rglob("*.py"))}
    referenced = set().union(*map(_referenced_names, trees.values()))
    return [
        f"{path.relative_to(root)}:{node.lineno} {node.name}"
        for path, tree in trees.items() if path.is_relative_to(root / "src")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced
    ]


def test_every_definition_in_src_is_used_by_the_program():
    unused = unreferenced_definitions(ROOT)
    assert not unused, f"defined in src/ but used only by tests, or not at all: {unused}"
