"""No module in ``src/repro`` imports a name at module level and never uses it.

An unused import is dead weight that still runs at import time, and it
tells the reader a dependency exists where none does.  A name counts as
used when the module reads it anywhere (including inside functions and
in string annotations) or lists it in ``__all__``.  Exempt: package
``__init__.py`` files, whose imports are re-exports, and
``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def _module_level_imports(tree):
    """``(bound name, lineno)`` of every import in the module body,
    including those nested in top-level ``if``/``try`` blocks."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for block in ("body", "orelse", "finalbody", "handlers"):
                pending.extend(getattr(node, block, []))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)


def _annotation_names(annotation):
    """Names read by a string annotation such as ``"Optional[Foo]"``."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            parsed = ast.parse(annotation.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return set()


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                used |= {
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant)
                }
    return used


def unused_imports(source):
    """``(name, lineno)`` of module-level imports ``source`` never uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    return [
        (name, lineno)
        for name, lineno in _module_level_imports(tree)
        if name not in used
    ]


def _scanned_modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "__init__.py":
            yield path


def test_no_unused_module_level_imports():
    found = [
        f"{path.relative_to(ROOT)}:{lineno}: {name}"
        for path in _scanned_modules()
        for name, lineno in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "unused module-level imports:\n" + "\n".join(found)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", [("os", 1)]),
        ("import os.path\nos.getcwd()\n", []),
        ("from typing import List, Optional\nx: List[int] = []\n", [("Optional", 1)]),
        ("import numpy as np\ndef f():\n    return np.zeros(1)\n", []),
        ("from __future__ import annotations\n", []),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from a import Foo\ndef f(x: 'Foo') -> 'Foo':\n    pass\n", []),
        ("try:\n    import json\nexcept ImportError:\n    json = None\n", []),
        ("if True:\n    import json\n", [("json", 2)]),
        ("def f():\n    import json\n", []),
    ],
)
def test_scanner(source, expected):
    assert unused_imports(source) == expected
