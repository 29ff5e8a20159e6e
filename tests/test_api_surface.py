"""Every function and method of the library has a caller in it.

A function or method defined in ``src/nommon`` must be referred to,
by name, somewhere in ``src/nommon`` or ``perfbench/``: as a name, an
attribute, or a dotted string such as the ones ``perfbench/layers.py``
traces. Code that only tests call belongs in ``tests/reference.py``.
The public entry points that nothing inside calls are listed in
``KEEP``, each with the reason it stays. Dunder methods are exempt,
since Python calls them.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY = os.path.join(ROOT, "src", "nommon")
CALLERS = [LIBRARY, os.path.join(ROOT, "perfbench")]

KEEP = {
    "language_boolean": "boolean closure of recognizable languages, for library users",
    "recheck_msr_certificate": "re-checks an MSR certificate from classify_quotient",
    "reiterman_instance_suite": "probes an equation class for closure, for library users",
    "identity_morphism": "the unit of compose_morphisms, for library users",
    "FsSubset.is_empty": "emptiness of a finitely supported subset, for library users",
    "FsSubset.empty": "the empty subset; its complement is the whole carrier",
    "power": "x^e for exponents of any size, by cycle reduction",
}


def python_files(directory):
    return [
        os.path.join(directory, name)
        for name in sorted(os.listdir(directory))
        if name.endswith(".py")
    ]


def definitions(tree):
    """(qualified name, name) of every function and method in a module,
    nested ones included."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child.name))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def references(tree):
    """Every name the module refers to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                names.update(node.value.split("."))
    return names


def parse(path):
    with open(path) as f:
        return ast.parse(f.read(), filename=path)


def unreferenced():
    referred = set()
    for directory in CALLERS:
        for path in python_files(directory):
            referred |= references(parse(path))
    return {
        qualname
        for path in python_files(LIBRARY)
        for qualname, name in definitions(parse(path))
        if not (name.startswith("__") and name.endswith("__")) and name not in referred
    }


def test_every_library_function_has_a_caller_or_a_reason():
    assert sorted(unreferenced() - set(KEEP)) == []


def test_every_kept_entry_point_is_defined_and_uncalled():
    # an entry point that gains a caller leaves the list
    assert unreferenced() >= set(KEEP)
