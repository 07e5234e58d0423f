"""The names that the benchmark under perfbench/ looks up on the package.

``perfbench/tracer.py`` wraps every function its ``LAYERS`` table names, and
the benchmark's files read further names as ``stostab.<name>`` attributes,
through ``from stostab import ...`` and through local aliases such as
``sde = stostab.sde``.  A rename or deletion in the package would break the
benchmark without failing any other test, so the files are read here,
read-only, and every name is resolved.
"""

import ast
import glob
import importlib.util
import os

import stostab
from stostab import (DiffusionDesign, SystemParams, brockett, cli, closed_loop,
                     lyapunov, sde, verify)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
TRACER = os.path.join(PERFBENCH, "tracer.py")
MODULES = {"brockett": brockett, "lyapunov": lyapunov, "verify": verify,
           "sde": sde, "cli": cli}


def traced_layers() -> dict:
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_name_the_benchmark_reads_is_bound():
    cl = closed_loop(SystemParams(1.0, 1.0, 4.0, 4.0), DiffusionDesign(1e-4, 1e-4))
    layers = traced_layers()
    assert set(layers) == set(MODULES)
    for layer, names in layers.items():
        for name in names:
            if name.startswith("closed_loop."):
                attr = name.split(".", 1)[1]
                fn = getattr(cl if attr == "control" else cl.sde, attr)
            else:
                fn = getattr(MODULES[layer], name)
            assert callable(fn), f"{layer}.{name}"
    # read by perfbench/selftest.py, which also reads h_matrix and g_matrix
    assert callable(brockett.v2_hessian)


def _dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def stostab_reads(path: str) -> set:
    """Dotted ``stostab.*`` names that one file imports or reads.

    Local names bound to the package or one of its parts, by an import or
    by an assignment such as ``verify, sde = stostab.verify, stostab.sde``,
    are followed to the attributes read on them.
    """
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "stostab":
                    alias[a.asname or "stostab"] = a.name if a.asname else "stostab"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "stostab":
            for a in node.names:
                alias[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            pairs = [(node.targets[0], node.value)]
            if isinstance(node.targets[0], ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = list(zip(node.targets[0].elts, node.value.elts))
            for target, value in pairs:
                chain = _dotted(value)
                if (isinstance(target, ast.Name) and chain
                        and chain.split(".")[0] == "stostab"):
                    alias[target.id] = chain
    reads = set(alias.values())
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain.split(".")[0] in alias:
            head, _, rest = chain.partition(".")
            reads.add(f"{alias[head]}.{rest}")
    return reads


def test_every_stostab_name_perfbench_reads_resolves():
    files = sorted(glob.glob(os.path.join(PERFBENCH, "*.py")))
    assert files
    reads = {}
    for path in files:
        for name in stostab_reads(path):
            reads.setdefault(name, os.path.basename(path))
    # the package and the names the workloads build their runs from
    for name in ("stostab.SdeSystem", "stostab.ITO", "stostab.STRATONOVICH",
                 "stostab.verify.mc_stability", "stostab.cli.main"):
        assert name in reads, name
    for name, where in sorted(reads.items()):
        obj = stostab
        for part in name.split(".")[1:]:
            assert hasattr(obj, part), f"{where} reads {name}, which is not bound"
            obj = getattr(obj, part)
