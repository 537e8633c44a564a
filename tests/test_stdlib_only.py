"""`src/ybforge` imports only the standard library and its own modules.

numpy, sympy and hypothesis are installed for the tests, so an import of
one of them in the package would still pass every other test here; this
one parses each module and rejects any such import.
"""
import ast
import pathlib
import sys

import ybforge

PACKAGE = pathlib.Path(ybforge.__file__).parent


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, root in imported_roots(tree):
            if root not in sys.stdlib_module_names and root != "ybforge":
                outside.append("%s:%d imports %s" % (path.name, lineno, root))
    assert outside == []
