"""`ybcore` compares the two words of an identity in one place.

`_first_difference` decides every verdict and `_witness` every witness;
besides them only `composes_to_identity` (a word against the identity) and
`lift` (one factor, for inspection) read the kernel `_push`.  A second
comparison loop beside them fails here.
"""
import ast
import pathlib

import ybforge

SRC = pathlib.Path(ybforge.__file__).parent
READERS = ["_first_difference", "_witness", "composes_to_identity", "lift"]


def test_only_the_comparison_and_its_witness_read_the_kernel():
    tree = ast.parse((SRC / "ybcore.py").read_text())
    # each top-level statement that names _push: a function, a class or
    # module-level code
    readers = [getattr(stmt, "name", "<module>") for stmt in tree.body
               if any(isinstance(node, ast.Name) and node.id == "_push"
                      for node in ast.walk(stmt))]
    assert sorted(readers) == sorted(READERS)
