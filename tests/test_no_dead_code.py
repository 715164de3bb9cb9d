"""Every top-level name defined in the package is used somewhere, and every
name a module imports is used in that module.

A top-level name counts as used when it appears as a whole word in another
part of ``src/vmk`` (the package ``__init__`` and the definition itself
excluded), in the tests or in the benchmark harness.  The package
``__init__`` is exempt from both checks because it only re-exports.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vmk"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
    others = [p.read_text() for d in ("tests", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    sources = {p: p.read_text() for p in MODULES}
    unused = []
    for path, text in sources.items():
        lines = text.splitlines()
        for name, first, last in _definitions(ast.parse(text)):
            own = "\n".join(lines[: first - 1] + lines[last:])
            corpus = [own] + [t for p, t in sources.items() if p != path] + others
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(t) for t in corpus):
                unused.append(f"{path.name}:{first} {name}")
    assert not unused, "defined but never referenced: " + ", ".join(unused)


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
