"""Where the package forks: one runner starts and reaps every child."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "stostab"


def _fork_sites(tree: ast.AST, filename: str):
    """``file:function`` of every use of ``os.fork``, and every import of it."""
    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{filename}:{node.name}"
        if (isinstance(node, ast.Attribute) and node.attr == "fork"
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield where
        if (isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(alias.name == "fork" for alias in node.names)):
            yield f"{where} (from os import fork)"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    yield from visit(tree, f"{filename}:<module>")


def test_os_fork_is_called_only_in_the_share_runner():
    # sde._run_shares hands each share to sde._fork and reaps every child
    # it started; a fork anywhere else could leave a child unreaped
    sites = [site for path in sorted(SRC.glob("*.py"))
             for site in _fork_sites(ast.parse(path.read_text(), str(path)), path.name)]
    assert sites == ["sde.py:_fork"], sites
