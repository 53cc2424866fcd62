"""Every top-level function, class and method of the library is reached.

A name is reached when `src/cyclemeet` refers to it outside its own
definitions at least as many times as it is defined, or when
`cyclemeet.__all__` exports it. References are counted by bare name, so a
method name that k classes define needs k references: one call of
`AuxGraph.to_json_dict` does not reach `CycleSet.to_json_dict` too. An
undecorated method is referred to only by a call, `.name(...)`, so reads of
a field of the same name (`CycleEmbedding.vertices`) do not reach it; a
decorated one (a property, a cached property, a class or static method)
is referred to by any attribute read. Code that only tests call belongs in
`tests/` or goes; the few exceptions are named below with the reason each
one stays.
"""

import ast
from collections import Counter
from pathlib import Path

import cyclemeet

SRC = Path(cyclemeet.__file__).parent

ALLOWED = {
    "Graph.edges": "the edge list of the exported Graph, which the tests read",
    "_Parser.error": "overrides argparse.ArgumentParser.error",
}


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node, whether only calls refer to it) of each
    top-level def and class and each method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not item.name.startswith("__"):
                    plain = not isinstance(item, ast.ClassDef) and not item.decorator_list
                    yield f"{node.name}.{item.name}", item.name, item, plain


def _references(node: ast.AST, calls: bool) -> list[str]:
    """The bare names node refers to; with ``calls``, the names of its ``.name(...)`` calls."""
    out = []
    for sub in ast.walk(node):
        if calls:
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                out.append(sub.func.attr)
        elif isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.extend(alias.name for alias in sub.names)
    return out


def unreached_names() -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    counts = {calls: Counter(name for tree in trees.values() for name in _references(tree, calls))
              for calls in (False, True)}
    defined: dict[tuple[str, bool], list[str]] = {}
    for module, tree in trees.items():
        for qualified, name, node, calls in _definitions(tree):
            counts[calls][name] -= _references(node, calls).count(name)
            defined.setdefault((name, calls), []).append(f"{module[:-3]}.{qualified}")
    return [
        where
        for (name, calls), places in defined.items()
        if counts[calls][name] < len(places) and name not in cyclemeet.__all__
        for where in places
    ]


def test_every_library_name_is_reached_or_allowed():
    unreached = unreached_names()
    allowed = sorted(f for f in unreached if f.split(".", 1)[1] in ALLOWED)
    assert sorted(unreached) == allowed, "reached by nothing in src/cyclemeet"
    assert len(allowed) == len(ALLOWED), "an allowlist entry is no longer needed"
