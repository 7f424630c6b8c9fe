"""Every module-level private name in the package is used somewhere in it.

A helper whose last caller is deleted is easy to leave behind, since no
test of the package's behaviour notices it. This test parses the modules
with ``ast`` and fails on a module-level name with a leading underscore
(not a dunder) that nothing in ``src/hextorus`` reads, imports or reaches as
an attribute, apart from its own definition.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hextorus"


def bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def used_names(tree: ast.AST) -> Counter:
    """How often each name is read, imported or taken as an attribute."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def unused_private_names(paths) -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    used = sum(map(used_names, trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            for name in bound_names(node):
                private = name.startswith("_") and not name.startswith("__")
                if private and used[name] == used_names(node)[name]:
                    unused.append(f"{path.name}: {name}")
    return unused


def test_every_private_name_is_used():
    assert unused_private_names(sorted(SRC.glob("*.py"))) == []


def test_a_helper_left_behind_is_found(tmp_path):
    # a helper only its own body calls, next to one that a caller reads
    module = tmp_path / "mod.py"
    module.write_text(
        "_LIMIT = 3\n"
        "def _gather(z, at):\n    return _gather(z, at[1:]) if at else z\n"
        "def _used():\n    return _LIMIT\n"
        "def api():\n    return _used()\n"
    )
    assert unused_private_names([module]) == ["mod.py: _gather"]
