import ast
from pathlib import Path

import caflow

SOURCES = sorted(Path(caflow.__file__).parent.glob("*.py"))


def module_level_private_names(tree):
    # the private (single-underscore) names a module binds at its top level
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in targets if name.startswith("_") and not name.startswith("__"))


def referenced_names(tree):
    # every name a module reads, as a name, an attribute or an import
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_module_name_is_used_in_the_package():
    # a path that is deleted must take its helpers with it: a private name
    # that no code of the package reads is an orphan
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    used = {name for tree in trees.values() for name in referenced_names(tree)}
    orphans = sorted(
        f"{module}:{name}" for module, tree in trees.items()
        for name in module_level_private_names(tree) if name not in used
    )
    assert not orphans, f"private names defined but never used: {orphans}"
