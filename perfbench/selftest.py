"""Checks of the benchmark itself, run explicitly from the checkout root::

    python3 -m pytest -q perfbench/selftest.py

The output check must reject a wrong program and accept a reassociated
kernel, diverged paths must reach ``failed``, and traced call counts must
repeat exactly and match the known waste of one Euler-Maruyama step.  The
file is not named ``test_*.py`` so the package's own suite does not collect
it.
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import stostab  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from calibration import Clock  # noqa: E402


def reference(wl) -> dict:
    return workloads.load_reference(wl.name)["slots"][str(wl.slot)]


def check(wl) -> list:
    return workloads.compare(wl.outcome(wl.call()).values, reference(wl))


@pytest.fixture
def narrow(tmp_path):
    wl = workloads.make("ensemble-narrow", 0, str(tmp_path))
    wl.prepare()
    return wl


def test_program_at_reference_passes(narrow):
    assert check(narrow) == []


def test_zero_gain_loop_fails_the_check(narrow):
    # the no-noise loop, k1 = k2 = 0, against the k = 1e-4 reference
    narrow.loop = stostab.closed_loop(stostab.SystemParams(*workloads.PLANT),
                                      stostab.DiffusionDesign(0.0, 0.0))
    assert check(narrow)


def test_reassociated_kernel_passes(narrow, monkeypatch):
    # H = g^T Hess g by matmul instead of the 3-operand einsum
    brockett = stostab.brockett

    def h_matmul(p, x):
        g = brockett.g_matrix(p, x)
        return np.swapaxes(g, -1, -2) @ brockett.v2_hessian(x) @ g

    monkeypatch.setattr(brockett, "h_matrix", h_matmul)
    values, ref = narrow.outcome(narrow.call()).values, reference(narrow)
    assert workloads.compare(values, ref) == []
    assert any(values[k][0] != ref[k][0] for k in ref)   # the last bits did move


def test_dropped_ito_correction_fails_the_check(tmp_path, monkeypatch):
    # "Heun" that steps the Stratonovich system as if it were Ito, which drops
    # the (1/2) sigma' sigma drift correction
    sde = stostab.sde

    def heun_without_correction(sys_, x0, path):
        return sde.euler_maruyama(dataclasses.replace(sys_, convention=sde.ITO), x0, path)

    monkeypatch.setattr(sde, "heun_stratonovich", heun_without_correction)
    wl = workloads.make("convergence", 0, str(tmp_path))
    wl.prepare()
    problems = check(wl)
    assert any(p.startswith("heun_slope") for p in problems)
    assert not any(p.startswith(("em_slope", "wz_")) for p in problems)


def test_diverged_paths_count_as_failed(narrow):
    # test-only start that plain EM does not survive at dt = 1e-3
    wl = workloads.Ensemble("diverging", 10, 2.0, slot=0, x0=(1.5, -1.0, 2.0))
    wl.prepare()
    with np.errstate(all="ignore"):
        values = wl.outcome(wl.call()).values
        runner = run.Runner(wl, values, workloads.compare, Clock(narrow.kernel))
        runner.rep()
    assert runner.problems == []
    assert values["n_diverged"][0] > 0
    assert runner.attempted == 10
    assert runner.failed == values["n_diverged"][0]


def traced_call(wl) -> dict:
    tr = tracer.Tracer()
    with tr.attached(wl):
        tr.rep = 0
        wl.outcome(wl.call())
        tr.rep = -1
    metrics, repeat = tr.layer_metrics([0], wl.batched_steps, wl.noise_bytes)
    assert repeat
    return {k: v for k, (v, unit) in metrics.items() if unit != "s" and unit != "us"}


def test_traced_counts_repeat_and_show_step_waste(narrow):
    first, second = traced_call(narrow), traced_call(narrow)
    assert first == second
    assert first["lyapunov.v2_hessian.calls_per_step"] == 3
    assert first["brockett.diffusion_b.calls_per_step"] == 2
    assert first["verify.mc_stability.calls"] == 1
    assert first["verify.noise_bytes"] == 200 * 500 * 8
    assert sorted(first) == sorted(n for n in tracer.per_layer_names()
                                   if not n.endswith(("self_s", "_p50", "_p99"))
                                   and n != "trace_overhead_share")


def test_convergence_makes_no_closed_loop_calls(tmp_path):
    wl = workloads.make("convergence", 0, str(tmp_path))
    wl.prepare()
    counts = traced_call(wl)
    assert all(v == 0 for k, v in counts.items() if k.startswith(("brockett.", "lyapunov.")))
    assert counts["sde.euler_maruyama.calls"] == 7 * wl.em_paths + wl.wz_real


def test_tracer_restores_stostab(narrow):
    before = {name: getattr(stostab.brockett, name) for name in ("h_matrix", "v2_hessian")}
    with tracer.Tracer().attached(narrow):
        assert stostab.brockett.h_matrix is not before["h_matrix"]
    assert {name: getattr(stostab.brockett, name) for name in before} == before
