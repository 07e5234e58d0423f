"""The benchmark's four workloads and their output checks.

Each workload is a closed loop: one process makes one timed call after
another, with no concurrency.  A workload object is prepared once (set-up,
untimed), then ``call()`` is the timed call and ``outcome()`` turns its
result into check values and failure counts (untimed).

Inputs come from the benchmark seed n through a reference slot n mod SLOTS:
slot s runs the acceptance seeds plus s (ensembles and ``simulate``: master
seed 1 + s; ``convergence``: EM and Heun seed 7 + s, Wong-Zakai seed 3 + s).
Slot 0 is the acceptance configuration, slot 1 the held-out seed for
confirming a claim.  Reference values for every slot are stored under
``reference/`` and were produced by ``make_reference.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

import stostab
from stostab import cli

from calibration import ArrayKernel, ScalarKernel

SLOTS = 10

# A value passes when |got - ref| <= RTOL * max(|ref|, scale), with scale a
# typical magnitude stored beside the reference (0 for plain relative checks,
# so a reference of exactly 0 must be matched exactly).  Computing h_matrix
# by matmul instead of einsum moves these values by about 1e-17 relative;
# dropping the Ito correction or the noise gains moves them by 1e-2 or more
# (selftest.py checks both).
RTOL = 1e-6

PLANT = (1.0, 1.0, 4.0, 4.0)
GAINS = (1e-4, 1e-4)
X0 = (0.0, 0.0, 1.0)
DT = 1e-3
EPS, CONV, M_LEVEL = 5.0, 0.1, 20.0

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


@dataclass
class Outcome:
    """Check values of one timed call and its operation counts."""

    values: dict            # name -> (value or list of values, scale)
    failed: int


def _dev(values, centre) -> tuple:
    """Sum of deviations from ``centre`` with the sum of their magnitudes as scale."""
    d = np.asarray(values, dtype=float) - centre
    return float(d.sum()), float(np.abs(d).sum())


class Workload:
    name = ""
    acceptance_seed = 1
    loop = None             # closed loop built at set-up, if the workload uses one
    ops = 0                 # operations per timed call: paths or realizations
    path_steps = 0          # integrator steps per call, summed over paths
    batched_steps = 0       # closed-loop EM steps of mc_stability per call
    noise_bytes = 0         # computed size of mc_stability's noise pre-draw
    kernel = None           # calibration kernel matched to the workload's mix

    def __init__(self, slot: int):
        self.slot = slot
        self.seed = self.acceptance_seed + slot


class Ensemble(Workload):
    """``verify.mc_stability`` from (0, 0, 1) at the acceptance settings."""

    def __init__(self, name: str, n_paths: int, horizon: float, slot: int, x0=X0):
        super().__init__(slot)
        self.name = name
        self.n_paths = n_paths
        self.horizon = horizon
        self.x0 = tuple(x0)
        n_steps = int(math.floor(horizon / DT + 1e-9))
        self.ops = n_paths
        self.batched_steps = n_steps
        self.path_steps = n_paths * n_steps
        self.noise_bytes = n_paths * n_steps * 8

    def prepare(self):
        self.loop = stostab.closed_loop(stostab.SystemParams(*PLANT),
                                        stostab.DiffusionDesign(*GAINS))

    def call(self):
        return stostab.verify.mc_stability(self.loop, self.x0, DT, self.horizon,
                                           self.n_paths, EPS, CONV, M_LEVEL, self.seed)

    def outcome(self, rep) -> Outcome:
        # v2 and the norm move little from their start over a short horizon,
        # so the checks compare the drop from the start, not the raw level.
        v2_start = rep.v2_start
        norm0 = float(np.linalg.norm(self.x0))
        values = {
            "v2_start": (v2_start, 0.0),
            "v2_drop_quantiles": ([v2_start - q for q in rep.v2_terminal_quantiles], 0.0),
            "norm_drop_median": (norm0 - rep.terminal_norm_median, 0.0),
            "p_converge": (rep.p_converge, 0.0),
            "p_sup_exceed": (rep.p_sup_exceed, 0.0),
            "sup_v2_exceedance": (rep.sup_v2_exceedance, 0.0),
            "n_diverged": (rep.n_diverged, 0.0),
        }
        for j in range(3):
            values[f"terminal_x{j + 1}_dev_sum"] = _dev(rep.terminal_states[:, j], self.x0[j])
        return Outcome(values, rep.n_diverged)


class SimulateDense(Workload):
    """``stostab simulate`` through ``cli.main`` at its defaults, thin 1."""

    name = "simulate-dense"

    def __init__(self, horizon: float, slot: int, scratch: str):
        super().__init__(slot)
        self.horizon = horizon
        self.scratch = scratch
        n_paths = cli.SUBCOMMAND_SCHEMA["simulate"]["n_paths"][1]
        n_steps = int(math.floor(horizon / DT + 1e-9))
        self.ops = n_paths
        self.batched_steps = n_steps
        self.path_steps = n_paths * n_steps
        self.noise_bytes = n_paths * n_steps * 8

    def prepare(self):
        os.makedirs(self.scratch, exist_ok=True)

    def call(self):
        out = tempfile.mkdtemp(prefix="simulate-", dir=self.scratch)
        argv = ["simulate", "--thin", "1", "--horizon", repr(self.horizon),
                "--seed", str(self.seed), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = stostab.cli.main(argv)
        return code, out

    def outcome(self, result) -> Outcome:
        code, out = result
        try:
            return self._read(code, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _read(self, code: int, out: str) -> Outcome:
        summary = {}
        with open(os.path.join(out, "summary.txt")) as fh:
            for line in fh:
                if not line.startswith("#"):
                    key, _, value = line.partition(" = ")
                    summary[key] = value.strip()
        v2_start = float(summary["v2_start"])
        values = {"exit_code": (code, 0.0)}
        for key, text in summary.items():
            if key == "drift_nonpositive_2se":
                values[key] = (1.0 if text == "true" else 0.0, 0.0)
            elif key.startswith("v2_terminal_q"):
                values[key + "_drop"] = (v2_start - float(text), 0.0)
            elif key == "terminal_norm_median":
                values["norm_drop_median"] = (float(np.linalg.norm(X0)) - float(text), 0.0)
            else:
                values[key] = (float(text), 0.0)
        buckets = _csv_body(os.path.join(out, "v2_drift_buckets.csv"))
        for j, col in enumerate(("start", "end", "mean_dv2_dt", "stderr", "count")):
            values[f"bucket_{col}"] = (buckets[:, j].tolist(),
                                       float(np.nanmax(np.abs(buckets[:, j]))))

        files = sorted(f for f in os.listdir(out) if f.startswith("path_"))
        bodies = [_csv_body(os.path.join(out, f)) for f in files]
        values["path_files"] = (len(files), 0.0)
        values["path_rows"] = ([len(b) for b in bodies], 0.0)
        # Per file and column, the sum of deviations from the start state
        # (states) or from 0 (time, control); the scale is the column's mean
        # absolute deviation sum, so near-cancelling sums are not over-tight.
        centre = np.array([0.0, *X0, 0.0, 0.0])
        for j, col in enumerate(("t", "x1", "x2", "x3", "u1", "u2")):
            sums = [float((b[:, j] - centre[j]).sum()) for b in bodies]
            scale = float(np.mean([np.abs(b[:, j] - centre[j]).sum() for b in bodies]))
            values[f"path_{col}_dev_sums"] = (sums, scale)
        return Outcome(values, int(summary["n_diverged"]))


class Convergence(Workload):
    """Strong order of EM and Heun on x dw, and the Wong-Zakai experiment."""

    name = "convergence"
    acceptance_seed = 7
    wz_acceptance_seed = 3

    dts = [2.0 ** -k for k in range(6, 13)]     # as in acceptance criterion 6
    meshes = (16, 64, 256, 1024)                # as in acceptance criterion 5

    def __init__(self, slot: int, em_paths: int, heun_paths: int, wz_real: int):
        super().__init__(slot)
        self.wz_seed = self.wz_acceptance_seed + slot
        self.em_paths = em_paths
        self.heun_paths = heun_paths
        self.wz_real = wz_real
        # A diverged path or realization raises, which fails the whole call.
        self.ops = em_paths + heun_paths + wz_real
        level_steps = sum(round(1.0 / dt) for dt in self.dts)
        wz_steps = sum(self.meshes) + 4 * max(self.meshes)   # RK4 lifts + fine EM
        self.path_steps = (em_paths + heun_paths) * level_steps + wz_real * wz_steps

    def prepare(self):
        zero = lambda x: np.zeros_like(x)
        ident = lambda x: np.asarray(x, float)
        self.ito = stostab.SdeSystem(1, zero, ident, stostab.ITO)
        self.strat = stostab.SdeSystem(1, zero, ident, stostab.STRATONOVICH)

    def call(self):
        verify, sde = stostab.verify, stostab.sde
        em = verify.strong_order_estimate(
            sde.euler_maruyama, self.ito, lambda x0, T, wT: x0 * np.exp(wT - 0.5 * T),
            [1.0], 1.0, self.dts, n_paths=self.em_paths, seed=self.seed)
        heun = verify.strong_order_estimate(
            sde.heun_stratonovich, self.strat, lambda x0, T, wT: x0 * np.exp(wT),
            [1.0], 1.0, self.dts, n_paths=self.heun_paths, seed=self.seed)
        wz = verify.wong_zakai_experiment(1.0, 1.0, self.meshes, self.wz_real, self.wz_seed)
        return em, heun, wz

    def outcome(self, result) -> Outcome:
        em, heun, wz = result
        return Outcome({
            "em_slope": (em, 0.0),
            "heun_slope": (heun, 0.0),
            "wz_mse": (wz.mse.tolist(), 0.0),
            "wz_ito_mean_log_ratio": (wz.ito_mean_log_ratio, 0.0),
            "wz_ito_std_log_ratio": (wz.ito_std_log_ratio, 0.0),
        }, 0)


def _csv_body(path: str) -> np.ndarray:
    """Rows of a CSV file after its comment header and column-name line."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")][1:]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines])


NAMES = ("ensemble-narrow", "ensemble-wide", "simulate-dense", "convergence")


def make(name: str, seed: int, scratch: str) -> Workload:
    """The workload ``name`` at its benchmark size, inputs from ``seed``.

    Each size keeps one timed call between about 0.3 s and 7 s on a shared
    2-vCPU Intel Xeon host, so a run of ``run_seconds`` holds several calls.
    The calibration kernel of each workload imitates its mix (see
    calibration.py); its reference time is the kernel's fast-phase (10th
    percentile) time on that host.
    """
    slot = seed % SLOTS
    if name == "ensemble-narrow":
        wl = Ensemble(name, 200, 0.5, slot)
        wl.kernel = ArrayKernel(200, 150, ref_s=0.0163)
    elif name == "ensemble-wide":
        wl = Ensemble(name, 10_000, 0.1, slot)
        wl.kernel = ArrayKernel(10_000, 30, ref_s=0.126)
    elif name == "simulate-dense":
        wl = SimulateDense(0.25, slot, scratch)
        wl.kernel = ArrayKernel(200, 100, ref_s=0.0417, format_rows=50)
    elif name == "convergence":
        wl = Convergence(slot, em_paths=2, heun_paths=2, wz_real=50)
        wl.kernel = ScalarKernel(20_000, ref_s=0.208)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
    return wl


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as fh:
        return json.load(fh)


def compare(values: dict, ref: dict) -> list:
    """Names of check values that miss the reference, with the worst offence."""
    bad = []
    for key in sorted(set(ref) | set(values)):
        if key not in values or key not in ref:
            bad.append(f"{key}: {'missing' if key not in values else 'unexpected'}")
            continue
        got = np.atleast_1d(np.asarray(values[key][0], dtype=float))
        want = np.atleast_1d(np.asarray(ref[key][0], dtype=float))
        if got.shape != want.shape:
            bad.append(f"{key}: shape {got.shape} != {want.shape}")
            continue
        tol = RTOL * np.maximum(np.abs(want), ref[key][1])
        same = (got == want) | (np.isnan(got) & np.isnan(want))
        with np.errstate(invalid="ignore"):
            miss = ~same & ~(np.abs(got - want) <= tol)
        if miss.any():
            i = int(np.argmax(miss))
            bad.append(f"{key}[{i}]: got {float(got.flat[i])!r}, reference {float(want.flat[i])!r}")
    return bad
