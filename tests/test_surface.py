"""Public surface guard: every public top-level function and class of
``src/kmcert``, and every public method of those classes, is used somewhere
in the package outside its own definition and ``__init__.py``.  A method
counts as used only through an attribute reference (``obj.name``), so a
local variable of the same name does not hide it; a top-level name counts
through a plain name, an attribute or a ``from`` import.  A name that only
tests call is either deleted or moved to ``tests/oracles.py``; the allowlist
names the few exceptions, one reason each."""

import ast
import collections
import pathlib

import kmcert

PACKAGE = pathlib.Path(kmcert.__file__).resolve().parent

ALLOWED = {
    "verify_files": "the benchmark's agreement gate (perfbench/worker.py) reads its list",
}


def public_definitions(tree):
    """``(name, is a method, first line, last line)`` of every public
    top-level function or class and every public method of a top-level
    class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, False, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, True, item.lineno, item.end_lineno


def name_uses(tree):
    """Line numbers of the references to each identifier, by kind:
    ``attrs`` holds attribute references, ``names`` plain names and
    ``from`` imports."""
    attrs, names = collections.defaultdict(list), collections.defaultdict(list)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs[node.attr].append(node.lineno)
        elif isinstance(node, ast.Name):
            names[node.id].append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.name].append(node.lineno)
    return {"attrs": attrs, "names": names}


def unused_public_names():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    uses = {name: name_uses(tree) for name, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for name, is_method, first, last in public_definitions(tree):
            kinds = ("attrs",) if is_method else ("attrs", "names")
            used = any(not (m == module and first <= line <= last)
                       for m in trees for kind in kinds
                       for line in uses[m][kind].get(name, ()))
            if not used and name not in ALLOWED:
                unused.append(f"{module}:{first} {name}")
    return unused


def test_every_public_name_is_used_inside_the_package():
    assert unused_public_names() == []


def test_allowlist_entries_exist():
    defined = {name for p in PACKAGE.glob("*.py")
               for name, *_ in public_definitions(ast.parse(p.read_text(encoding="utf-8")))}
    assert set(ALLOWED) <= defined
