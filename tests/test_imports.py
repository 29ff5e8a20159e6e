"""Every name the library imports is used where it is imported.

An import in ``src/nommon`` binds a name in its module or function;
that scope must then read the name somewhere. An unused import is
work at every import of the module, and hides what the module really
depends on. No linter is assumed to be installed, so the check is an
AST scan: a name counts as read wherever it occurs as a name.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY = os.path.join(ROOT, "src", "nommon")


def unused_imports(tree):
    """(line, name) of each imported name that its scope never reads."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, functions)]
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
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
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
    for name in sorted(os.listdir(LIBRARY)):
        if name.endswith(".py"):
            with open(os.path.join(LIBRARY, name)) as f:
                tree = ast.parse(f.read(), filename=name)
            found += [(name, line, imported) for line, imported in unused_imports(tree)]
    assert found == []
