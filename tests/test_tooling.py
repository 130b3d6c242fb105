"""Source-tree rules that no behavioural test can see.

Every module-level function and class in src/svtf must be used by the
library itself or exported from svtf/__init__.py: code that only tests call
belongs in tests/conftest.py, where it cannot drift into an oracle of itself.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "svtf"


def _exported() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _uses(node: ast.AST) -> Counter:
    """How often each name is read under node, as a bare name or an attribute."""
    return Counter(
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, (ast.Name, ast.Attribute))
    )


def _unused(modules: dict) -> list[str]:
    """Module-level functions and classes read nowhere but in their own body."""
    uses = sum((_uses(tree) for tree in modules.values()), Counter())
    return [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and uses[node.name] == _uses(node)[node.name]
    ]


def test_every_module_level_definition_is_used_or_exported():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exported = _exported()
    assert [entry for entry in _unused(modules) if entry.split()[-1] not in exported] == []


def test_the_rule_sees_an_unused_definition():
    tree = ast.parse(
        "def used():\n    return 1\n\n"
        "def unused():\n    return used() + unused()\n\n"
        "class Unused:\n    def method(self):\n        return Unused\n"
    )
    assert _unused({"m.py": tree}) == ["m.py:4 unused", "m.py:7 Unused"]
