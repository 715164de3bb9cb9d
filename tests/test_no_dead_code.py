"""Every top-level name and every method defined in the package is used by the
package, every name a module imports is used in that module, and every
parameter with a default is passed by some call in the package.

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


def _defaulted_params(tree):
    """(function, parameter, position or None) of each parameter with a default in a top-level function or method.

    A function is named as calls name it: a method by its own name, ``__init__`` by its class's; a method's
    positions are counted after self.
    """
    funcs = [(f, f.name, 0) for f in tree.body if isinstance(f, ast.FunctionDef)]
    funcs += [(f, c.name if f.name == "__init__" else f.name, 1) for c in tree.body if isinstance(c, ast.ClassDef)
              for f in c.body if isinstance(f, ast.FunctionDef)]
    for func, name, skip in funcs:
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield name, arg.arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _calls(tree):
    """(callee name, positions given, keywords given) of every call in the tree; None gives them all.

    ``functools.partial(f, ...)`` is a call of f; a ``*args`` call gives every position and a ``**mapping``
    call every keyword.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            if getattr(func, "id", getattr(func, "attr", None)) == "partial" and args:
                func, args = args[0], args[1:]
            keywords = {kw.arg for kw in node.keywords}
            yield (getattr(func, "id", getattr(func, "attr", None)),
                   None if any(isinstance(a, ast.Starred) for a in args) else len(args),
                   None if None in keywords else keywords)


def test_every_default_is_passed_by_some_call():
    """Each parameter with a default is given by some call in the package, so no knob is left unturned.

    Calls are matched by name, a method by its own name and ``__init__`` by its class's.  The functions
    of ``PUBLIC_API`` and ``cli.main``'s ``argv`` are exempt: library users and the console script pass them.
    """
    trees = {p: ast.parse(p.read_text()) for p in MODULES}
    calls = {}
    for tree in trees.values():
        for name, positions, keywords in _calls(tree):
            calls.setdefault(name, []).append((positions, keywords))
    dead = []
    for path, tree in trees.items():
        for name, param, index in _defaulted_params(tree):
            if name in PUBLIC_API or (path.name, name, param) == ("cli.py", "main", "argv"):
                continue
            if not any(keywords is None or param in keywords
                       or (index is not None and (positions is None or positions > index))
                       for positions, keywords in calls.get(name, ())):
                dead.append(f"{path.name} {name}.{param}")
    assert not dead, "parameter whose default no call overrides: " + ", ".join(sorted(dead))
