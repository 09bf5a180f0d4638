"""Rules on the package source that keep its searches iterative."""

import ast
from pathlib import Path

import csglab

SOURCES = sorted(Path(csglab.__file__).parent.glob("*.py"))


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
