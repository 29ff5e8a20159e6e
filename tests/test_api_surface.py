"""Every function and method of the library has a caller in it.

A function or method defined in ``src/nommon`` must be referred to,
by name, somewhere in ``src/nommon`` or ``perfbench/``. A function
counts as referred to as a name, an attribute, or a part of a string
such as the dotted ones ``perfbench/layers.py`` traces. A method
counts only as an attribute or a part of a dotted string, so that a
same-named local or function does not hide an uncalled method. Code
that only tests call belongs in ``tests/reference.py``.
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
    """(qualified name, name, is a method) of every function and method
    in a module, nested ones included."""
    out = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child.name, in_class))
                visit(child, prefix + child.name + ".", False)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", True)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return out


def references(tree):
    """The names the module refers to in any way, and those it refers
    to as attributes or parts of dotted strings."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                parts = node.value.split(".")
                (attributes if len(parts) > 1 else names).update(parts)
    return names | attributes, attributes


def parse(path):
    with open(path) as f:
        return ast.parse(f.read(), filename=path)


def unreferenced():
    referred, as_attributes = set(), set()
    for directory in CALLERS:
        for path in python_files(directory):
            names, attributes = references(parse(path))
            referred |= names
            as_attributes |= attributes
    return {
        qualname
        for path in python_files(LIBRARY)
        for qualname, name, is_method in definitions(parse(path))
        if not (name.startswith("__") and name.endswith("__"))
        and name not in (as_attributes if is_method else referred)
    }


def test_every_library_function_has_a_caller_or_a_reason():
    assert sorted(unreferenced() - set(KEEP)) == []


def test_every_kept_entry_point_is_defined_and_uncalled():
    # an entry point that gains a caller leaves the list
    assert unreferenced() >= set(KEEP)
