"""No private code is left behind: every private module-level function or
class, and every private method, in the tphi package is named somewhere in
the package besides its own definition.

Names are matched by spelling, as variables or attributes read anywhere in
the package's modules; an import alone does not count.  A replaced helper
that lingers once its last caller has moved on fails here.
"""

import ast
from collections import Counter
from pathlib import Path

import tphi

SOURCES = sorted(Path(tphi.__file__).parent.glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """Private module-level functions and classes, and the private methods
    of module-level classes."""
    for node in tree.body:
        if isinstance(node, DEFS):
            if _private(node.name):
                yield node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFS[:2]) and _private(item.name):
                        yield item


def _names(tree):
    """Every variable and attribute name in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_private_definition_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert "poset.py" in trees
    used = Counter(name for tree in trees.values() for name in _names(tree))
    unused = []
    for file, tree in trees.items():
        for node in _private_definitions(tree):
            # a name read only inside its own definition is not used
            if used[node.name] == Counter(_names(node))[node.name]:
                unused.append(f"{file}:{node.lineno} {node.name}")
    assert unused == []
