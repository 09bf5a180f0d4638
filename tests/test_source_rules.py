"""Rules on the package source: searches stay iterative and no helper is dead."""

import ast
from pathlib import Path

import csglab

SOURCES = sorted(Path(csglab.__file__).parent.glob("*.py"))
# dynamics re-exports the deviation search from game, next to run_dynamics
RE_EXPORTS = {("dynamics.py", "best_response"), ("dynamics.py", "first_improvement")}


def self_calls(tree):
    """(function name, line) of every call a function makes to its own name.

    Calls inside nested functions count for the enclosing ones too, and
    ``self.f(...)`` or ``cls.f(...)`` inside a method ``f`` counts as a call
    to ``f``.
    """
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
                name = callee.attr if callee.value.id in ("self", "cls") else None
            else:
                name = getattr(callee, "id", None)
            if name == function.name:
                yield function.name, node.lineno


def test_rule_catches_direct_nested_and_yield_from_recursion():
    source = """
def walk(node):
    walk(node)

def outer():
    def assign(j):
        yield from assign(j + 1)
    return assign(0)

class Tree:
    def depth(self):
        return self.depth()

def fine(items):
    return sorted(items)
"""
    assert [name for name, _ in self_calls(ast.parse(source))] == ["walk", "assign", "depth"]


def test_no_function_calls_itself():
    assert SOURCES
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        for name, line in self_calls(ast.parse(path.read_text()))
    ]
    assert found == [], "recursive functions (use an explicit stack): " + ", ".join(found)


def unused_imports(tree):
    """Names a module imports and never reads, in sorted order."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def unreferenced_privates(trees):
    """Module-level private functions and classes that no module names.

    A reference is a bare name, an attribute or an imported name, in any of
    ``trees``; the definition itself is not one.
    """
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return sorted(
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in referenced
    )


def test_rule_catches_unused_imports():
    source = """
from __future__ import annotations
import os
import os.path
import json as j
from . import flows
from .game import agent_cost, sum_cost

def total(profile):
    return flows.max_flow, sum_cost(profile)
"""
    assert unused_imports(ast.parse(source)) == ["agent_cost", "j", "os"]


def test_rule_catches_unreferenced_private_helpers():
    game = """
def _scan():
    return 0

def _dead():
    return 1

class _Orphan:
    pass

class _Base:
    pass

def _imported():
    return 2

def _by_attribute():
    return 3

def public():
    return _scan()
"""
    other = """
from . import game
from .game import _imported

class Child(_Base):
    pass

def use():
    return _imported() + game._by_attribute()
"""
    trees = [ast.parse(game), ast.parse(other)]
    assert unreferenced_privates(trees) == ["_Orphan", "_dead"]


def test_no_unused_imports():
    found = [
        f"{path.name} {name}"
        for path in SOURCES
        if path.name != "__init__.py"
        for name in unused_imports(ast.parse(path.read_text()))
        if (path.name, name) not in RE_EXPORTS
    ]
    assert found == [], "unused imports: " + ", ".join(found)


def test_no_unreferenced_private_helpers():
    found = unreferenced_privates([ast.parse(path.read_text()) for path in SOURCES])
    assert found == [], "private helpers nothing references: " + ", ".join(found)
