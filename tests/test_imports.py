"""Every imported name is used: an AST scan of ``src/``, ``tests/`` and ``scripts/``.

Package ``__init__.py`` files re-export names and ``from __future__``
imports switch on compiler features, so neither is scanned.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _annotation_names(tree: ast.AST):
    """Names inside quoted annotations such as ``-> "Rng"``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns] + [a.annotation for a in ast.walk(node.args)
                                            if isinstance(a, ast.arg)]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                yield from (n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))


def unused_imports(source: str):
    """(line, name) for each imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_annotation_names(tree))
    return sorted((line, name) for line, name in imported if name not in used)


def test_scanner_reports_an_unused_import():
    source = 'import os\nimport sys\nfrom typing import List\nx: "List" = sys.argv\n'
    assert unused_imports(source) == [(1, "os")]


def test_no_unused_imports():
    found = []
    for folder in ("src", "tests", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                      for line, name in unused_imports(path.read_text())]
    assert found == []
