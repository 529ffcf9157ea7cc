import ast
from pathlib import Path

import caflow

# every module but the package's __init__, whose imports are re-exports
SOURCES = sorted(p for p in Path(caflow.__file__).parent.glob("*.py") if p.name != "__init__.py")

#: (module, name) pairs kept without a reader: perfbench's tracer wraps
#: ``caflow.capacity.simulate`` by name
ALLOWED = {("capacity", "simulate")}


def module_level_imports(body):
    # the names the module's own imports bind, outside any function or class
    for node in body:
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.If):  # as under ``if TYPE_CHECKING:``
            yield from module_level_imports(node.body + node.orelse)


def read_names(tree):
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def unused_imports(path):
    tree = ast.parse(path.read_text())
    read = read_names(tree)
    return [
        f"{path.stem}:{name}" for name in module_level_imports(tree.body)
        if name not in read and (path.stem, name) not in ALLOWED
    ]


def test_every_module_level_import_is_read():
    unused = [entry for path in SOURCES for entry in unused_imports(path)]
    assert not unused, f"imported at module level but never read: {unused}"


def test_the_scan_sees_an_unread_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import scipy.sparse as sp\n"
        "def f(x: sp.csr_matrix):\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["mod:np"]
