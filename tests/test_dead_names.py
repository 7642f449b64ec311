"""Every module-level function, class and constant of the package has a user.

A user is a reference from package code (a name, an attribute or an import),
or a mention in the benchmark's sources or in README.  A name that only the
tests reach is unused generality: it goes, and the tests that used it are
rewritten against what the package does use.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "daylux"


def defined_names(tree: ast.Module):
    """The functions, classes and assigned names at the top level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def referenced_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_module_level_name_has_a_user():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    used = {name for tree in trees.values() for name in referenced_names(tree)}
    mentions = "\n".join(
        p.read_text(encoding="utf-8") for p in [ROOT / "README.md", *sorted(ROOT.glob("bench/*.py"))]
    )
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in defined_names(tree)
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", mentions)
    ]
    assert unused == []
