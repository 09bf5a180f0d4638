"""Rules on the package source: searches stay iterative, no helper or
parameter is dead, no module imports dataclasses, only game reads the
scaled share tables, only game's profile gate refuses an infeasible
profile, no IndexError is caught, no type test goes through a typing
alias and every ``arcs`` given to ``first_path`` yields its arcs lazily."""

import ast
from pathlib import Path

import csglab

SOURCES = sorted(Path(csglab.__file__).parent.glob("*.py"))
# dynamics re-exports the deviation search from game, next to run_dynamics
RE_EXPORTS = {("dynamics.py", "best_response")}
# prices come from game._prices, so no other module needs the tables
SCALED_TABLES = {"scaled_shares", "scaled_prefix"}


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


def bare_name(node):
    """The last name in a name or attribute: ``IndexError`` for
    ``IndexError`` and ``builtins.IndexError``."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def dataclass_imports(tree):
    """Line of every import of the standard ``dataclasses`` module, in line order.

    Building a frozen dataclass at import takes 1.02-1.08 ms against 0.12 ms
    for a NamedTuple (four fields, Python 3.11 on a Xeon), and the module
    loads ``inspect`` besides. Plain records are NamedTuples; a value that
    needs a ``cached_property``, a checked ``__init__`` or equality by its
    own type subclasses ``graphs.Frozen``.
    """
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_rule_catches_dataclass_imports():
    source = """
import dataclasses
from dataclasses import dataclass, field
import os, dataclasses as dc
from . import dataclasses_like
from .dataclasses import local

def build():
    from dataclasses import make_dataclass
    return make_dataclass

class Record:
    import dataclasses.fields
"""
    assert dataclass_imports(ast.parse(source)) == [2, 3, 4, 9, 13]


def test_no_module_imports_dataclasses():
    found = [f"{path.name}:{line}" for path in SOURCES for line in dataclass_imports(ast.parse(path.read_text()))]
    assert found == [], "dataclasses imports (use a NamedTuple or graphs.Frozen): " + ", ".join(found)


def scaled_table_reads(tree):
    """(table, line) of every attribute read of a scaled share table."""
    return [
        (node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in SCALED_TABLES
    ]


def test_rule_catches_scaled_table_reads():
    source = """
def price(instance, e, load):
    shares = instance.scaled_shares
    return shares[e][load + 1] - instance.scaled_prefix[e][load]

def fine(instance, profile):
    return instance.scale, instance.capacities, profile.loads
"""
    assert scaled_table_reads(ast.parse(source)) == [("scaled_shares", 3), ("scaled_prefix", 4)]


def test_only_game_reads_the_scaled_tables():
    found = [
        f"{path.name}:{line} {table}"
        for path in SOURCES
        if path.name != "game.py"
        for table, line in scaled_table_reads(ast.parse(path.read_text()))
    ]
    assert found == [], "scaled tables read outside game (price through game._prices): " + ", ".join(found)


def profile_refusals(tree):
    """(function, line) of every raise of InfeasibleProfile, in line order.

    The function is the innermost one around the raise, None at module
    level. ``game._loads`` is the one gate: every function that takes a
    profile reads its loads through it.
    """
    found = []
    stack = [(tree, None)]
    while stack:
        node, function = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            error = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if bare_name(error) == "InfeasibleProfile":
                found.append((function, node.lineno))
        stack.extend((child, function) for child in ast.iter_child_nodes(node))
    return sorted(found, key=lambda item: item[1])


def test_rule_catches_infeasible_profile_refusals():
    source = """
from . import errors
from .errors import InfeasibleGame, InfeasibleProfile

def _loads(instance, profile):
    raise InfeasibleProfile("edge 0 loaded 2 over capacity 1")

def potential(instance, profile):
    def check():
        raise errors.InfeasibleProfile("overloaded")
    raise InfeasibleProfile

def fine(instance):
    raise InfeasibleGame("no feasible strategy profile exists")

raise InfeasibleProfile("at import")
"""
    assert profile_refusals(ast.parse(source)) == [("_loads", 6), ("check", 10), ("potential", 11), (None, 16)]


def test_only_the_profile_gate_refuses_an_infeasible_profile():
    found = {
        (path.name, function, line)
        for path in SOURCES
        for function, line in profile_refusals(ast.parse(path.read_text()))
    }
    gate = {item for item in found if item[:2] == ("game.py", "_loads")}
    assert gate, "game._loads no longer refuses an infeasible profile"
    others = sorted(f"{name}:{line} {function}" for name, function, line in found - gate)
    assert others == [], "InfeasibleProfile raised outside game._loads: " + ", ".join(others)


def unread_parameters(tree):
    """(function name, parameter) of every parameter its function never reads.

    A read is a load of the bare name anywhere in the body, nested functions
    included; ``self`` and ``cls`` are skipped.
    """
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = function.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        body = function.body if isinstance(function.body, list) else [function.body]
        read = {
            node.id
            for statement in body
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for param in params:
            if param is not None and param.arg not in ("self", "cls") and param.arg not in read:
                yield getattr(function, "name", "<lambda>"), param.arg


def test_rule_catches_unread_parameters():
    source = """
def route(instance, reference, loads, *, cap=10, **options):
    loads = dict(loads)
    return instance, loads

def outer(items, key):
    def inner():
        return sorted(items, key=key)
    return inner

class Pool:
    def size(self, extra, *rest):
        return len(rest)

    @classmethod
    def build(cls):
        return cls()

pick = lambda value, default: value
"""
    assert list(unread_parameters(ast.parse(source))) == [
        ("route", "reference"),
        ("route", "cap"),
        ("route", "options"),
        ("size", "extra"),
        ("<lambda>", "default"),
    ]


def test_every_parameter_is_read():
    found = [
        f"{path.name} {function} {param}"
        for path in SOURCES
        for function, param in unread_parameters(ast.parse(path.read_text()))
    ]
    assert found == [], "parameters their function never reads: " + ", ".join(found)


def index_error_handlers(tree):
    """Line of every ``except`` clause that catches IndexError, alone or in a tuple.

    Table bounds are decided by explicit length checks, so an IndexError is a
    bug and must surface.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if "IndexError" in map(bare_name, caught):
                yield node.lineno


def test_rule_catches_index_error_handlers():
    source = """
import builtins

def share(table, load):
    try:
        return table[load]
    except IndexError:
        return None

def either(table, key):
    try:
        return table[key]
    except (KeyError, builtins.IndexError):
        return None

def fine(table, key):
    try:
        return table[key]
    except KeyError:
        return None
    except Exception:
        raise
"""
    assert list(index_error_handlers(ast.parse(source))) == [7, 13]


def test_no_index_error_is_caught():
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in index_error_handlers(ast.parse(path.read_text()))
    ]
    assert found == [], "IndexError handlers (check the length instead): " + ", ".join(found)


def typing_alias_checks(tree):
    """(line, alias) of every isinstance or issubclass against a typing alias,
    in line order.

    ``typing.Mapping``, ``Sequence`` and their kin answer through a generic
    alias's ``__instancecheck__``: 0.68 against 0.15 µs for
    ``collections.abc.Mapping`` on a dict (Python 3.11, timeit). The
    ``collections.abc`` classes are the ones to test against.
    """
    modules, aliases = {"typing"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names if alias.name == "typing")
        elif isinstance(node, ast.ImportFrom) and node.module == "typing":
            aliases.update(alias.asname or alias.name for alias in node.names)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and bare_name(node.func) in ("isinstance", "issubclass")):
            continue
        kinds = node.args[1:]
        if kinds and isinstance(kinds[0], ast.Tuple):
            kinds = kinds[0].elts
        found += [
            (node.lineno, ast.unparse(kind))
            for kind in kinds
            if isinstance(kind, ast.Name) and kind.id in aliases
            or isinstance(kind, ast.Attribute) and getattr(kind.value, "id", None) in modules
        ]
    return sorted(found)


def test_rule_catches_type_tests_against_typing_aliases():
    source = """
import typing
import typing as t
from collections.abc import Mapping
from typing import Sequence as Seq, Any

def parse(doc, items, kind):
    if isinstance(doc, typing.Mapping):
        return isinstance(items, (list, Seq))
    if issubclass(kind, t.Iterable):
        return isinstance(doc, Mapping)
    return isinstance(doc, (dict, str)), Any
"""
    assert typing_alias_checks(ast.parse(source)) == [(8, "typing.Mapping"), (9, "Seq"), (10, "t.Iterable")]


def test_no_type_test_goes_through_a_typing_alias():
    found = [
        f"{path.name}:{line} {alias}"
        for path in SOURCES
        for line, alias in typing_alias_checks(ast.parse(path.read_text()))
    ]
    assert found == [], "type tests against typing aliases (use collections.abc): " + ", ".join(found)


def own_nodes(scope):
    """The nodes of a module's or function's own body, not descending into
    nested functions, lambdas or classes (which are yielded, not entered)."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def list_built_arcs(tree):
    """(line, callable) of every ``arcs`` argument of ``first_path`` that is
    not a generator function, in line order.

    ``first_path`` tries arcs one at a time and stops at the sink, so an
    ``arcs`` that builds a node's whole list builds every arc the search
    never tries: on N parallel unit edges max-flow built (N + 1)(N + 2) / 2
    residual arcs that way. A name resolves to the def of that name in the
    innermost enclosing scope that has one and is reported by its dotted
    path; a lambda or anything unresolved is reported by its source text.
    """
    found = []
    stack = [(tree, (tree,))]
    while stack:
        node, scopes = stack.pop()
        if isinstance(node, ast.Call) and bare_name(node.func) == "first_path":
            keywords = [k.value for k in node.keywords if k.arg == "arcs"]
            for arcs in node.args[2:3] + keywords:
                named = resolve_def(arcs, scopes) if isinstance(arcs, ast.Name) else None
                if named is None:
                    found.append((node.lineno, ast.unparse(arcs)))
                elif not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in own_nodes(named[1])):
                    found.append((node.lineno, named[0]))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes += (node,)
        stack.extend((child, scopes) for child in ast.iter_child_nodes(node))
    return sorted(found)


def resolve_def(name, scopes):
    """(dotted path, def) of the function ``name`` reads, looked up from the
    innermost of ``scopes`` (a module, then the functions around the read)
    outwards, or None when no scope defines it."""
    for depth in range(len(scopes), 0, -1):
        for node in own_nodes(scopes[depth - 1]):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name.id:
                return ".".join(s.name for s in scopes[1:depth] + (node,)), node
    return None


def test_rule_catches_arcs_that_build_lists():
    source = """
from . import graphs
from .graphs import first_path

def lazy(node):
    yield from ()

def search(graph):
    def arcs(node):
        return [(e.id, e.head) for e in graph.outgoing[node]]

    def carrying(node):
        for e in graph.outgoing[node]:
            yield e.id, e.head

    first_path(graph.source, graph.sink, arcs)
    first_path(graph.source, graph.sink, carrying)
    graphs.first_path(graph.source, graph.sink, arcs=lambda node: ())
    return first_path(graph.source, graph.sink, lazy)

def outer(graph):
    def lazy(node):
        def inner():
            yield node
        return inner()

    return first_path(graph.source, graph.sink, lazy), first_path(0, 1, graph.arcs)
"""
    assert list_built_arcs(ast.parse(source)) == [
        (16, "search.arcs"),
        (18, "lambda node: ()"),
        (27, "graph.arcs"),
        (27, "outer.lazy"),
    ]


def test_every_arcs_given_to_first_path_is_a_generator():
    calls = [
        node
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and bare_name(node.func) == "first_path"
    ]
    assert len(calls) >= 3, "first_path callers went missing; the rule checks nothing"
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        for line, name in list_built_arcs(ast.parse(path.read_text()))
    ]
    assert found == [], "arcs callables that build lists (yield each arc): " + ", ".join(found)
