"""`src/ybforge` imports only the standard library and its own modules.

numpy, sympy and hypothesis are installed for the tests, so an import of
one of them in the package would still pass every other test here; this
one parses each module and rejects any such import.  A second test keeps
the CLI's start-up light: every `ybforge` command is a fresh process, so
each module that `import ybforge.cli` pulls in is paid for on every call,
and so would be an argument parser built at import (the first `main` call
builds it; a process that only imports the module never needs it).
A third test rejects any `assert` statement in the package, because
`python -O` removes it and with it the check.
"""
import ast
import os
import pathlib
import subprocess
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


def test_package_has_no_assert_statement():
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


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


# `dataclasses` brings in `inspect`, `ast`, `dis` and `tokenize`, and each
# decorated class generates code at import time
HEAVY_AT_START_UP = ("dataclasses", "inspect")

PROBE = """
import sys
before = set(sys.modules)
import ybforge.cli
print(" ".join(sorted(set(sys.modules) - before)))
print(ybforge.cli._PARSER is None)
"""


def test_cli_import_leaves_heavy_modules_out():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    modules, parser_unbuilt = proc.stdout.splitlines()
    loaded = set(modules.split())
    assert "ybforge.cli" in loaded
    assert [name for name in HEAVY_AT_START_UP if name in loaded] == []
    assert parser_unbuilt == "True"
