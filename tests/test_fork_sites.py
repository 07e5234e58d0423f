"""Where the package forks and maps memory: one runner sizes, starts and
reaps every share, and one helper maps every array the shares write."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "stostab"


def _sites(match):
    """``file:function`` of every node of the package that ``match`` labels.

    ``match(node)`` returns None, or a label that is appended to the site.
    """
    def visit(node, where, filename):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{filename}:{node.name}"
        label = match(node)
        if label is not None:
            yield where + label
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where, filename)

    return [site for path in sorted(SRC.glob("*.py"))
            for site in visit(ast.parse(path.read_text(), str(path)),
                              f"{path.name}:<module>", path.name)]


def _os_fork(node):
    # every use of os.fork, and every import of it
    if (isinstance(node, ast.Attribute) and node.attr == "fork"
            and isinstance(node.value, ast.Name) and node.value.id == "os"):
        return ""
    if (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name == "fork" for alias in node.names)):
        return " (from os import fork)"
    return None


def _share_count(node):
    # every call of _n_shares, by name or attribute, and every import of it
    if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "_n_shares")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "_n_shares")):
        return ""
    if (isinstance(node, ast.ImportFrom)
            and any(alias.name == "_n_shares" for alias in node.names)):
        return " (import)"
    return None


def _mmap_call(node):
    # every call of mmap.mmap, and every import of mmap's names
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "mmap" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "mmap"):
        return ""
    if isinstance(node, ast.ImportFrom) and node.module == "mmap":
        return " (from mmap import)"
    return None


def _mapped_call(node):
    # every call of _mapped, by name or attribute
    if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "_mapped")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "_mapped")):
        return ""
    return None


def test_os_fork_is_called_only_in_the_share_runner():
    # sde._run_shares hands each share to sde._fork and reaps every child
    # it started; a fork anywhere else could leave a child unreaped
    sites = _sites(_os_fork)
    assert sites == ["sde.py:_fork"], sites


def test_only_the_share_runner_decides_a_share_count():
    # sde._run_shares sizes every share from the items' weights and its
    # caller's least weight a share; a caller that counted its own shares
    # could hand the runner a count that its policy would not choose
    sites = _sites(_share_count)
    assert sites == ["sde.py:_run_shares"], sites


def test_only_verify_mapped_maps_memory():
    # every array a forked share writes, and the kernel's workspace, is one
    # anonymous shared mapping from verify._mapped
    sites = _sites(_mmap_call)
    assert sites == ["verify.py:_mapped"], sites


def test_the_mapping_check_sees_a_second_helper(tmp_path, monkeypatch):
    # the check above fails on a package that maps memory anywhere else
    (tmp_path / "verify.py").write_text((SRC / "verify.py").read_text() + (
        "\n\ndef _private(n):\n"
        "    return mmap.mmap(-1, n, flags=mmap.MAP_PRIVATE)\n"))
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert _sites(_mmap_call) == ["verify.py:_mapped", "verify.py:_private"]


def test_the_ensemble_maps_memory_only_from_its_layout():
    # mc_stability maps every result, the noise buffer included, from
    # _ensemble_plan's layout, so the memory refusal counts all of it; a
    # share maps only its kernel workspace
    sites = _sites(_mapped_call)
    assert sites == ["verify.py:_step_paths", "verify.py:mc_stability",
                     "verify.py:wong_zakai_experiment", "verify.py:wong_zakai_experiment",
                     "verify.py:strong_order_estimate"], sites
