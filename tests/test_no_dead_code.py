"""Every top-level name and every method defined in the package is used by the
package, and every name a module imports is used in that module.

Uses are read from the syntax tree, so a mention in a docstring, a comment
or a message does not count.  A top-level name counts as used when some
module of ``src/vmk`` other than the package ``__init__`` loads it as a name
or an attribute outside the name's own definition.  A non-dunder method or
property of a class counts as used when some module loads it as an
attribute outside its own definition.  Re-exporting a name from the package
``__init__`` is not a use: the paper-level API that no command calls is
listed in ``PUBLIC_API``, and the scan must flag exactly those names.  A
use in the tests or in the benchmark harness does not count either: code
that only they run belongs in ``tests/oracles.py`` or in the test file
itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vmk"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
INIT = ast.parse((PACKAGE / "__init__.py").read_text())
EXPORTS = {a.asname or a.name for node in INIT.body if isinstance(node, ast.ImportFrom) for a in node.names}
# Exported for library users and the tests; no command calls them.
PUBLIC_API = {"simulate_forward_variance", "optimal_control_affine", "optimal_control_quadratic",
              "gamma_quadratic", "wishart_model"}


def _loads(tree, skip=(0, 0)):
    """(names, attribute names) the tree loads, leaving out the nodes on the lines skip[0] to skip[1]."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if not isinstance(getattr(node, "ctx", None), ast.Load) or skip[0] <= node.lineno <= skip[1]:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return names, attributes


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
    trees = {p: ast.parse(p.read_text()) for p in MODULES}
    unused = {}
    for path, tree in trees.items():
        elsewhere = set().union(*(set().union(*_loads(t)) for p, t in trees.items() if p != path))
        for name, first, last in _definitions(tree):
            if name not in elsewhere and name not in set().union(*_loads(tree, (first, last))):
                unused[name] = f"{path.name}:{first} {name}"
    assert PUBLIC_API <= EXPORTS, "PUBLIC_API names a name the package does not export"
    flagged = {name: where for name, where in unused.items() if name not in PUBLIC_API}
    assert not flagged, "defined but never referenced: " + ", ".join(flagged.values())
    stale = PUBLIC_API - set(unused)
    assert not stale, "PUBLIC_API lists names the package itself uses: " + ", ".join(sorted(stale))


def _methods(tree):
    """(class, name, first line, last line) of every non-dunder method and property of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield node.name, item.name, item.lineno, item.end_lineno


def test_every_method_is_referenced():
    trees = {p: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    unused = []
    for path, tree in trees.items():
        elsewhere = set().union(*(_loads(t)[1] for p, t in trees.items() if p != path))
        for cls, name, first, last in _methods(tree):
            if name not in elsewhere and name not in _loads(tree, (first, last))[1]:
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
