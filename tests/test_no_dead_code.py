"""Every top-level name and every method defined in the package is used by the
package, and every name a module imports is used in that module.

A top-level name counts as used when it appears as a whole word in another
part of ``src/vmk`` (the package ``__init__`` and the definition itself
excluded) or when the package ``__init__`` exports it.  A non-dunder method
or property of a class counts as used when ``.name`` appears anywhere in
``src/vmk`` outside its own definition.  A mention in the tests or in the
benchmark harness does not count: code that only they run belongs in
``tests/oracles.py`` or in the test file itself.  The package ``__init__``
is exempt from the top-level and import checks because it only re-exports.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vmk"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
INIT = ast.parse((PACKAGE / "__init__.py").read_text())
EXPORTS = {a.asname or a.name for node in INIT.body if isinstance(node, ast.ImportFrom) for a in node.names}


def _definitions(tree):
    """(name, first line, last line) of every top-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno, node.end_lineno


def test_every_top_level_name_is_referenced():
    sources = {p: p.read_text() for p in MODULES}
    unused = []
    for path, text in sources.items():
        lines = text.splitlines()
        for name, first, last in _definitions(ast.parse(text)):
            if name in EXPORTS:
                continue
            own = "\n".join(lines[: first - 1] + lines[last:])
            corpus = [own] + [t for p, t in sources.items() if p != path]
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(t) for t in corpus):
                unused.append(f"{path.name}:{first} {name}")
    assert not unused, "defined but never referenced: " + ", ".join(unused)


def _methods(tree):
    """(class, name, first line, last line) of every non-dunder method and property of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield node.name, item.name, item.lineno, item.end_lineno


def test_every_method_is_referenced():
    sources = {p: p.read_text() for p in PACKAGE.glob("*.py")}
    unused = []
    for path, text in sources.items():
        lines = text.splitlines()
        for cls, name, first, last in _methods(ast.parse(text)):
            own = "\n".join(lines[: first - 1] + lines[last:])
            corpus = [own] + [t for p, t in sources.items() if p != path]
            attribute = re.compile(rf"\.{re.escape(name)}\b")
            if not any(attribute.search(t) for t in corpus):
                unused.append(f"{path.name}:{first} {cls}.{name}")
    assert not unused, "method defined but never referenced: " + ", ".join(sorted(unused))


def test_every_import_is_used():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "imported but never used: " + ", ".join(unused)
