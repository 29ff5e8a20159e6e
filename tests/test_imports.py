"""Importing the library does no avoidable work.

An import in ``src/nommon`` binds a name in its module or function;
that scope must then read the name somewhere. An unused import is
work at every import of the module, and hides what the module really
depends on. No linter is assumed to be installed, so the check is an
AST scan: a name counts as read wherever it occurs as a name.

A call at module level runs at every import too. Only the calls in
``IMPORT_TIME_CALLS`` may run there: they build constants or wrap a
function, and none of them grows with the library's inputs.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY = os.path.join(ROOT, "src", "nommon")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# callees a module may call at import, as written: compiled patterns,
# weak tables, literal containers, cache decorators and string templates
IMPORT_TIME_CALLS = {"re.compile", "WeakValueDictionary", "frozenset", "dict",
                     "tuple", "lru_cache", "_ARGS.format"}
# whole calls allowed in one module: sets._ATOMS, the one alphabet carrier
IMPORT_TIME_CALLS_IN = {("sets.py", "strong_set([1])")}


def library_trees():
    """(file name, AST) of each module of the library."""
    for name in sorted(os.listdir(LIBRARY)):
        if name.endswith(".py"):
            with open(os.path.join(LIBRARY, name)) as f:
                yield name, ast.parse(f.read(), filename=name)


def unused_imports(tree):
    """(line, name) of each imported name that its scope never reads."""
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)]
    out = []
    for scope in scopes:
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for node in direct_imports(scope):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    out.append((node.lineno, name))
    return sorted(out)


def direct_imports(scope):
    """The import statements of a scope, outside its nested functions."""
    found = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_unused_imports_are_found():
    tree = ast.parse(
        "import a\nfrom b import c, d as e\n"
        "def f():\n    from g import h\n    return c\n"
        "def k():\n    import h\n    return h\n"
    )
    assert unused_imports(tree) == [(1, "a"), (2, "e"), (4, "h")]


def test_the_library_has_no_unused_import():
    found = []
    for name, tree in library_trees():
        found += [(name, line, imported) for line, imported in unused_imports(tree)]
    assert found == []


def import_time_calls(tree):
    """The calls that run when the module is imported, in source order:
    in its body, class bodies, decorators and default values, but not in
    function bodies or under ``if __name__ == "__main__"``."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS + (ast.Lambda,)):
            args = node.args
            stack += getattr(node, "decorator_list", []) + args.defaults
            stack += [d for d in args.kw_defaults if d is not None]
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            continue
        if isinstance(node, ast.Call):
            found.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found, key=lambda call: (call.lineno, call.col_offset))


def test_import_time_calls_are_found():
    tree = ast.parse(
        "import re\nP = re.compile('a')\nX = build()\n"
        "@lru_cache(maxsize=2)\ndef f(a=g(), *, b=lambda c=d(): e()):\n    return h()\n"
        "class C:\n    y = [k(i) for i in range(2)]\n"
        "if __name__ == '__main__':\n    main()\n"
    )
    assert [(call.lineno, ast.unparse(call.func)) for call in import_time_calls(tree)] == [
        (2, "re.compile"), (3, "build"), (4, "lru_cache"), (5, "g"), (5, "d"),
        (8, "k"), (8, "range"),
    ]


def test_the_library_does_no_work_at_import():
    found = []
    for name, tree in library_trees():
        for call in import_time_calls(tree):
            callee, text = ast.unparse(call.func), ast.unparse(call)
            if callee not in IMPORT_TIME_CALLS and (name, text) not in IMPORT_TIME_CALLS_IN:
                found.append((name, call.lineno, text))
    assert found == []
