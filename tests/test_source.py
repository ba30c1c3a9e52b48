"""Static checks on the package source, stdlib only."""
from __future__ import annotations

import ast
from pathlib import Path

import dirtw

PACKAGE = Path(dirtw.__file__).resolve().parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a package's __init__ uses its imports by re-exporting them
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


def test_checker_flags_an_unused_import():
    assert _unused_imports("import os\nfrom sys import argv, path\nprint(argv)\n") == [
        "line 1: os", "line 2: path"]
    assert _unused_imports("from . import x\n__all__ = ['x']\n") == []


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = {m.name: _unused_imports(m.read_text()) for m in modules}
    assert {name: lines for name, lines in unused.items() if lines} == {}
