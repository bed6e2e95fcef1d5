"""Every name a library module imports is used in that module, and every
private function, class and method of the library is named in it besides
its own definition."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pslgaug"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_detected():
    assert unused_imports("import os\nimport sys\nfrom .a import b, c as d\nsys.exit(d)\n") == [
        (1, "os"), (3, "b")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def private_definitions(tree):
    """The private module-level functions and classes of a module and the
    private methods of its classes, as (qualified name, name) pairs."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{f.name}", f.name) for f in node.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
    return [(q, n) for q, n in out if n.startswith("_") and not n.endswith("__")]


def unnamed_privates(sources):
    """The private definitions (module, qualified name) of ``sources``
    (module name -> source) whose name no code of any of them reads."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return sorted((m, q) for m, tree in trees.items()
                  for q, name in private_definitions(tree) if name not in named)


def test_unnamed_privates_detected():
    a = "def _a():\n    pass\n\n\ndef _b():\n    return _a()\n"
    b = "class C:\n    def _m(self):\n        pass\n\n    def __init__(self):\n        pass\n"
    assert unnamed_privates({"a": a, "b": b}) == [("a", "_b"), ("b", "C._m")]
    assert unnamed_privates({"a": a, "b": b + "C()._m()\n_b()\n"}) == []


def test_every_private_definition_is_named_in_the_library():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unnamed_privates(sources) == []


def unread_parameters(source):
    """The parameters (line, function, name) of the functions and lambdas of
    ``source`` that their body never reads, except ``self``, ``cls`` and
    names starting with ``_``.  A nested function's read counts for the
    function that encloses it."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out += [(p.lineno, name, p.arg) for p in params
                if p.arg not in read and p.arg not in ("self", "cls") and not p.arg.startswith("_")]
    return sorted(out)


def test_unread_parameters_detected():
    source = ("def f(a, b, _c, *d, e, **k):\n    return a + (lambda x, y: x)(e, 0)\n\n\n"
              "class C:\n    def m(self, v):\n        def inner():\n            return v\n"
              "        return inner\n")
    assert unread_parameters(source) == [
        (1, "f", "b"), (1, "f", "d"), (1, "f", "k"), (2, "<lambda>", "y")]


@pytest.mark.parametrize("module", ["__init__.py", *MODULES])
def test_every_parameter_is_read(module):
    assert unread_parameters((SRC / module).read_text(encoding="utf-8")) == []
