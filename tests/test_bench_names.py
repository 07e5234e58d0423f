"""The names that the benchmark under perfbench/ looks up on the package.

``perfbench/tracer.py`` wraps every function its ``LAYERS`` table names, and
``perfbench/selftest.py`` reads ``stostab.brockett.v2_hessian``.  A rename or
deletion in the package would break the benchmark without failing any other
test, so the table is loaded here, read-only, and every name is resolved.
"""

import importlib.util
import os

from stostab import (DiffusionDesign, SystemParams, brockett, cli, closed_loop,
                     lyapunov, sde, verify)

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")
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
