"""Spans around the calls into stostab's layers, recorded from outside.

The tracer replaces each traced function by a timing wrapper wherever a
``stostab`` module binds it (``brockett`` imports ``v2_hessian`` from
``lyapunov`` by name, ``verify`` imports the integrators from ``sde``, and so
on), and wraps the ``drift``/``diffusion``/``control`` callables of every
:class:`stostab.ClosedLoop` the benchmark or the CLI builds.  Nothing inside
``src/`` changes.  Spans stay in memory and are written out once, at the end.

A span's self time is its duration minus the durations of the traced spans
directly inside it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import time

import numpy as np

# Layer -> traced functions.  Names with a ``closed_loop.`` prefix are the
# callables of a ClosedLoop; the rest are module functions.
LAYERS = {
    "brockett": ("closed_loop.drift", "closed_loop.diffusion",
                 "closed_loop.control", "diffusion_b", "sigma", "h_matrix",
                 "eigs_sym2", "g_matrix"),
    "lyapunov": ("v2_eval", "v2_gradient", "v2_hessian", "sontag_control"),
    "verify": ("mc_stability", "strong_order_estimate",
               "wong_zakai_experiment", "path_seeds"),
    "sde": ("euler_maruyama", "heun_stratonovich", "ode_drive",
            "sample_wiener", "piecewise_linear_lift", "trajectory_to_csv"),
    "cli": ("main",),
}

TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
SPAN_STATS = ("calls", "self_s", "us_per_call_p50", "us_per_call_p99")

# Counters recorded at a span boundary: counter name -> (span, rows of work
# taken from the call's arguments).
COUNTERS = {
    "sde.csv_rows": ("sde.trajectory_to_csv", lambda args: len(args[0].times)),
}

# Waste counts per batched Euler-Maruyama step of the closed loop.
PER_STEP = ("lyapunov.v2_hessian", "brockett.diffusion_b")


def per_layer_names() -> list:
    """Every per-layer metric name, in reporting order."""
    names = [f"{span}.{stat}" for span in TRACED for stat in SPAN_STATS]
    names += [f"{span}.calls_per_step" for span in PER_STEP]
    names += ["verify.noise_bytes", *COUNTERS, "trace_overhead_share"]
    return names


class Tracer:
    """In-memory span recorder; ``rep`` tags the spans of one timed call."""

    def __init__(self):
        self.spans = []          # (span_id, name, rep, parent_id, start_ns, end_ns, self_ns)
        self.counts = {}         # (counter, rep) -> total
        self.rep = -1
        self._stack = []         # [span_id, child_ns] of the open spans
        self._next_id = 0

    def wrap(self, name: str, fn):
        counter = next(((c, rows) for c, (span, rows) in COUNTERS.items()
                        if span == name), None)

        def traced(*args, **kwargs):
            if self.rep < 0:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0]
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((span_id, name, self.rep, parent, start, end,
                                   end - start - frame[1]))
                if counter is not None:
                    key = (counter[0], self.rep)
                    self.counts[key] = self.counts.get(key, 0) + counter[1](args)

        traced.__wrapped__ = fn
        return traced

    def wrap_loop(self, cl):
        """Copy of a ClosedLoop whose drift, diffusion and control are traced."""
        sde = dataclasses.replace(
            cl.sde,
            drift=self.wrap("brockett.closed_loop.drift", cl.sde.drift),
            diffusion=self.wrap("brockett.closed_loop.diffusion", cl.sde.diffusion))
        return dataclasses.replace(
            cl, sde=sde, control=self.wrap("brockett.closed_loop.control", cl.control))

    @contextlib.contextmanager
    def patched(self):
        """Swap every traced function, and ``closed_loop``, in every stostab module."""
        import stostab
        from stostab import brockett, cli, lyapunov, sde, verify
        modules = (stostab, brockett, cli, lyapunov, sde, verify)
        owners = {"brockett": brockett, "lyapunov": lyapunov, "verify": verify,
                  "sde": sde, "cli": cli}
        replace = {}
        for span in TRACED:
            layer, fn = span.split(".", 1)
            if not fn.startswith("closed_loop."):
                orig = getattr(owners[layer], fn)
                replace[id(orig)] = (orig, self.wrap(span, orig))
        build = brockett.closed_loop
        replace[id(build)] = (build, lambda p, d: self.wrap_loop(build(p, d)))
        saved = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, replace[id(value)][1])
        try:
            yield
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    @contextlib.contextmanager
    def attached(self, workload):
        """Trace stostab, and the workload's own closed loop, for the duration."""
        loop = workload.loop
        with self.patched():
            if loop is not None:
                workload.loop = self.wrap_loop(loop)
            try:
                yield
            finally:
                workload.loop = loop

    def layer_metrics(self, reps: list, batched_steps: int, noise_bytes: int) -> tuple:
        """Per-layer metrics over the traced reps, and whether counts repeat.

        Calls, self time and counters are per timed call.  The second result
        is False when two reps made different numbers of calls to one span.
        """
        n = len(reps)
        calls = {(name, rep): 0 for name in TRACED for rep in reps}
        self_ns = dict.fromkeys(TRACED, 0)
        durations = {name: [] for name in TRACED}
        for _, name, rep, _, start, end, own in self.spans:
            calls[(name, rep)] += 1
            self_ns[name] += own
            durations[name].append(end - start)
        repeat = True
        out = {}
        for name in TRACED:
            per_rep = {calls[(name, rep)] for rep in reps}
            repeat &= len(per_rep) == 1
            d = np.asarray(durations[name], dtype=float) / 1e3
            out[f"{name}.calls"] = (max(per_rep), "count")
            out[f"{name}.self_s"] = (self_ns[name] / n / 1e9, "s")
            out[f"{name}.us_per_call_p50"] = (float(np.percentile(d, 50)) if len(d) else 0.0, "us")
            out[f"{name}.us_per_call_p99"] = (float(np.percentile(d, 99)) if len(d) else 0.0, "us")
        for name in PER_STEP:
            per_step = out[f"{name}.calls"][0] / batched_steps if batched_steps else 0.0
            out[f"{name}.calls_per_step"] = (per_step, "count")
        out["verify.noise_bytes"] = (noise_bytes, "bytes-computed")
        for counter in COUNTERS:
            per_rep = {self.counts.get((counter, rep), 0) for rep in reps}
            repeat &= len(per_rep) == 1
            out[counter] = (max(per_rep), "count")
        return out, repeat

    def write(self, path) -> None:
        """Write every span as gzipped CSV."""
        with gzip.open(path, "wt") as fh:
            fh.write("span_id,name,rep,parent_id,start_ns,end_ns,self_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")
