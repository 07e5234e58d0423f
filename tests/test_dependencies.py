"""The package's import graph: numpy is its one dependency."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "stostab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _imported_packages(tree: ast.AST):
    """Top-level names of the absolute imports in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_src_imports_only_the_standard_library_and_numpy():
    # scipy, sympy and hypothesis are for the tests; the package itself
    # must run where only numpy is installed
    sources = sorted(SRC.glob("*.py"))
    assert sources
    bad = [f"{path.name}: {name}" for path in sources
           for name in _imported_packages(ast.parse(path.read_text(), str(path)))
           if name not in ALLOWED]
    assert not bad, bad
