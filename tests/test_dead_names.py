"""Every module-level name and every method of the package has a user.

A user is a reference from package code (a name, an attribute or an import),
or a mention in the benchmark's sources or in README.  A name that only the
tests reach is unused generality: it goes, and the tests that used it are
rewritten against what the package does use.  Dunder methods, which Python
calls, and overrides, which their base class calls, need no other user.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "daylux"
TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}


def defined_names(tree: ast.Module):
    """The functions, classes and assigned names at the top level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def defined_methods(module: str, tree: ast.Module):
    """(class, method) for each method of a top-level class that is no dunder or override."""
    loaded = importlib.import_module("daylux" if module == "__init__" else f"daylux.{module}")
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = getattr(loaded, node.name).__mro__[1:]
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = item.name
            if not (name.startswith("__") and name.endswith("__")
                    or any(hasattr(base, name) for base in bases)):
                yield node.name, name


def referenced_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


USED = {name for tree in TREES.values() for name in referenced_names(tree)}
MENTIONS = "\n".join(
    p.read_text(encoding="utf-8") for p in [ROOT / "README.md", *sorted(ROOT.glob("bench/*.py"))]
)


def has_user(name: str) -> bool:
    return name in USED or re.search(rf"\b{re.escape(name)}\b", MENTIONS) is not None


def test_every_module_level_name_has_a_user():
    unused = [
        f"{module}:{name}"
        for module, tree in TREES.items()
        for name in defined_names(tree)
        if not has_user(name)
    ]
    assert unused == []


def test_every_method_of_a_package_class_has_a_user():
    unused = [
        f"{module}:{cls}.{name}"
        for module, tree in TREES.items()
        for cls, name in defined_methods(module, tree)
        if not has_user(name)
    ]
    assert unused == []
