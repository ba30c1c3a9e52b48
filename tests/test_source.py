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


# questions about D minus Z that take Z as a banned set instead of a copy
QUESTIONS = {"tarjan_sccs", "scc", "reachable", "guard_breach",
             "offending_components", "is_balanced_separator"}


def _name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _copies_in_questions(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and _name(node.func) in QUESTIONS):
            continue
        inner = [sub for arg in [*node.args, *(kw.value for kw in node.keywords)]
                 for sub in ast.walk(arg)]
        if any(isinstance(sub, ast.Call) and _name(sub.func) == "minus" for sub in inner):
            out.append(f"line {node.lineno}: {_name(node.func)}")
    return out


def test_checker_flags_a_question_asked_of_a_copy():
    source = ("scc(D.minus(Z))\n"
              "x = digraph.tarjan_sccs(D.minus(Z) if Z else D)\n"
              "reachable(D, X, Y=D.minus(Z))\n"
              "scc(D, Z)\n"
              "rest = D.minus(Z)\n"
              "tarjan_sccs(rest)\n"
              "menger(D.minus(Z), X, Y, 1)\n")
    assert _copies_in_questions(source) == [
        "line 1: scc", "line 2: tarjan_sccs", "line 3: reachable"]


def test_no_question_about_d_minus_z_copies_d():
    modules = sorted(PACKAGE.glob("*.py"))
    found = {m.name: _copies_in_questions(m.read_text()) for m in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
