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


# The type of each value the benchmark reads through constant subscripts
# and computes with.  Resolving the keys alone would pass a schema entry
# whose (kind, default) order was swapped, which hands the workload a kind
# string for a number.
SUBSCRIPT_READS = {
    "stostab.cli.SUBCOMMAND_SCHEMA['simulate']['n_paths'][1]": int,
}


def _chain(node):
    """``("a", ".b['c'][0]")`` for attributes and constant subscripts on a name, else None."""
    suffix = ""
    while True:
        if isinstance(node, ast.Attribute):
            suffix = f".{node.attr}{suffix}"
        elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            suffix = f"[{node.slice.value!r}]{suffix}"
        else:
            break
        node = node.value
    return (node.id, suffix) if isinstance(node, ast.Name) else None


def stostab_reads(path: str) -> set:
    """``stostab.*`` names, with constant subscripts, that one file imports or reads.

    Local names bound to the package or one of its parts, by an import or
    by an assignment such as ``verify, sde = stostab.verify, stostab.sde``,
    are followed to the attributes and items read on them.  Only the
    longest read of a chain is kept: resolving it resolves its prefixes.
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
                chain = _chain(value)
                if isinstance(target, ast.Name) and chain and chain[0] == "stostab":
                    alias[target.id] = "".join(chain)
    chains = {node: _chain(node) for node in ast.walk(tree)
              if isinstance(node, (ast.Attribute, ast.Subscript))}
    inner = {node.value for node, chain in chains.items() if chain}
    reads = set(alias.values())
    for node, chain in chains.items():
        if chain and chain[0] in alias and node not in inner:
            reads.add(alias[chain[0]] + chain[1])
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
    assert {name for name in reads if "[" in name} == set(SUBSCRIPT_READS)
    for name, where in sorted(reads.items()):
        try:
            # every name is a chain of identifiers and constant keys
            value = eval(name, {"stostab": stostab})
        except (AttributeError, LookupError) as exc:
            raise AssertionError(f"{where} reads {name}, which is not bound: {exc!r}")
        if name in SUBSCRIPT_READS:
            assert isinstance(value, SUBSCRIPT_READS[name]), f"{where} reads {name} = {value!r}"
