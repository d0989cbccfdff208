"""Every imported name is used: an AST scan of ``src/`` and ``tests/``.

Package ``__init__.py`` files re-export names and ``from __future__``
imports switch on compiler features, so neither is scanned.

Every module-level UPPER_CASE constant in ``src/`` is read somewhere under
``src/``, ``tests/`` or ``bench/``, as a bare name or as an
attribute; its own assignment and an import do not count as a read.

Every ``self.<attr>`` that a class in ``src/`` stores is read as an
attribute somewhere under ``src/``, ``tests/`` or ``bench/``.  One that an
``__init__`` sets to a literal is stored again somewhere under those
folders; otherwise it is a knob that nothing turns.

The register rules (``attestsim/trust.py``) import nothing from the
package, and the symbolic model (``attestsim/modelcheck/``) imports
nothing from it but those rules: the model shares the decision of trust
with the agent and none of its crypto, TPM or agent code.
"""

import ast
import re
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
    for folder in ("src", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                      for line, name in unused_imports(path.read_text())]
    assert found == []


CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*$")


def _reads(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def unread_constants(defining, reading):
    """(path, line, name) for each module-level constant of a ``defining``
    source (path -> text) that neither it nor any ``reading`` text reads."""
    trees = {path: ast.parse(text) for path, text in defining.items()}
    read = set()
    for tree in [*trees.values(), *map(ast.parse, reading)]:
        read.update(_reads(tree))
    found = []
    for path, tree in trees.items():
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            found += [(path, stmt.lineno, t.id) for t in targets
                      if isinstance(t, ast.Name) and CONSTANT.match(t.id)
                      and t.id not in read]
    return sorted(found)


def test_scanner_reports_an_unread_constant():
    defining = {"m.py": "LIMIT = 1\nUNUSED: int = 2\nREAD_ELSEWHERE = 3\n"
                        "lowercase = 4\nprint(LIMIT)\n"}
    reading = ["from m import UNUSED\nimport m\nm.READ_ELSEWHERE\n"]
    assert unread_constants(defining, reading) == [("m.py", 2, "UNUSED")]


def sources(folder):
    """Path -> text of every module under ``folder``."""
    return {str(p.relative_to(ROOT)): p.read_text()
            for p in sorted((ROOT / folder).rglob("*.py"))}


def test_every_constant_is_read():
    reading = [text for folder in ("tests", "bench")
               for text in sources(folder).values()]
    assert unread_constants(sources("src"), reading) == []


def write_only_attributes(defining, reading):
    """(path, class, attribute) for each ``self.<attr>`` that a method of a
    ``defining`` source (path -> text) stores and that no ``.attr`` load in
    it or in any ``reading`` text reads."""
    trees = {path: ast.parse(text) for path, text in defining.items()}
    read = {node.attr for tree in [*trees.values(), *map(ast.parse, reading)]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = set()
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                found.update((path, cls.name, node.attr) for node in ast.walk(method)
                             if isinstance(node, ast.Attribute)
                             and isinstance(node.ctx, ast.Store)
                             and isinstance(node.value, ast.Name)
                             and node.value.id == "self" and node.attr not in read)
    return sorted(found)


def test_scanner_reports_a_write_only_attribute():
    defining = {"m.py": "class A:\n    def __init__(self, x):\n        self.kept = x\n"
                        "        self.lost: int = x\n        self.bumped = 0\n"
                        "        self.mine = 1\n\n    def bump(self):\n"
                        "        self.bumped += self.mine\n"}
    reading = ["a.kept\n"]
    assert write_only_attributes(defining, reading) == [("m.py", "A", "bumped"),
                                                        ("m.py", "A", "lost")]


def test_every_stored_attribute_is_read():
    reading = [text for folder in ("tests", "bench")
               for text in sources(folder).values()]
    assert write_only_attributes(sources("src"), reading) == []


def constant_attributes(defining, reading):
    """(path, class, attribute) for each ``self.<attr>`` that an ``__init__``
    of a ``defining`` source (path -> text) sets to a literal and that no
    other assignment (plain, augmented or annotated) in it or in any
    ``reading`` text stores again."""
    trees = {path: ast.parse(text) for path, text in defining.items()}
    initial = {}  # the literal store node -> (path, class, attribute)
    for path, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for init in cls.body:
                if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                    continue
                for stmt in ast.walk(init):
                    if not (isinstance(stmt, (ast.Assign, ast.AnnAssign))
                            and isinstance(stmt.value, ast.Constant)):
                        continue
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    initial.update({t: (path, cls.name, t.attr) for t in targets
                                    if isinstance(t, ast.Attribute)
                                    and isinstance(t.value, ast.Name)
                                    and t.value.id == "self"})
    stored = {node.attr for tree in [*trees.values(), *map(ast.parse, reading)]
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and node not in initial}
    return sorted(found for found in initial.values() if found[2] not in stored)


def test_scanner_reports_a_constant_attribute():
    defining = {"m.py": "class A:\n    def __init__(self):\n        self.fixed = True\n"
                        "        self.unset: int = None\n        self.count = 0\n"
                        "        self.moved = None\n        self.level = 1\n"
                        "        self.made = []\n\n    def bump(self):\n"
                        "        self.count += 1\n"}
    reading = ["a.moved = 2\nb.level: int = 3\n"]
    assert constant_attributes(defining, reading) == [("m.py", "A", "fixed"),
                                                      ("m.py", "A", "unset")]


def test_no_attribute_keeps_its_initial_literal():
    reading = [text for folder in ("tests", "bench")
               for text in sources(folder).values()]
    assert constant_attributes(sources("src"), reading) == []


def package_imports(source: str, package: str):
    """The ``attestsim`` modules that ``source``, a module of the dotted
    ``package``, imports, with relative imports resolved."""
    parts = package.split(".")
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = parts[:len(parts) - node.level + 1] if node.level else []
            if node.module:
                names = [".".join(base + [node.module])]
            else:
                names = [".".join(base + [a.name]) for a in node.names]
        else:
            continue
        found.update(n for n in names if n.split(".")[0] == "attestsim")
    return found


def test_scanner_resolves_relative_imports():
    source = ("import os\nfrom ..trust import rule\nfrom .terms import h\n"
              "from . import world\nimport attestsim.crypto\n")
    assert package_imports(source, "attestsim.modelcheck") == {
        "attestsim.trust", "attestsim.modelcheck.terms", "attestsim.modelcheck.world",
        "attestsim.crypto"}


SRC = ROOT / "src" / "attestsim"


def test_trust_rules_import_nothing_from_the_package():
    assert package_imports((SRC / "trust.py").read_text(), "attestsim") == set()


def test_the_model_imports_only_the_trust_rules_from_the_package():
    found = []
    for path in sorted((SRC / "modelcheck").glob("*.py")):
        found += [f"{path.name}: {module}"
                  for module in sorted(package_imports(path.read_text(),
                                                       "attestsim.modelcheck"))
                  if module != "attestsim.trust"
                  and not module.startswith("attestsim.modelcheck")]
    assert found == []
