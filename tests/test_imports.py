"""Every imported name is used.  The scan covers src/ (but not the package
__init__.py, whose imports are its exports), scripts/ and tests/.  A name
counts as used when the module refers to it anywhere, a string annotation
included; an import line marked ``# noqa`` is skipped."""

from __future__ import annotations

import ast

import pytest

from conftest import ROOT

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
