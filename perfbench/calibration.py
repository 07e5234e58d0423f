"""Machine-speed calibration for timings taken on a shared, noisy host.

On the 2-vCPU sandbox this benchmark was built on, the speed of the same
single-threaded numpy code drifts by up to 2x in phases of 10 to 30 seconds
(CPU time follows wall time, so the cause is contention on the host, not
preemption).  No run length averages that out.  Each timed call is
therefore bracketed by a fixed calibration kernel, and a timing is reported
as ``raw * ref_s / c``, with ``c`` the mean of the kernel times just before
and just after the call, and ``ref_s`` the kernel's time at the reference
speed of that host (its fast phase).  The kernel lives here, not in stostab,
so no change to the program can move it.

Each workload gets a kernel that imitates its mix, because different
kinds of code slow down by different factors.  :class:`ArrayKernel` does a
few batched numpy operations per step on ``rows`` states (an einsum over
3x3 blocks, elementwise powers, stacking), plus ``%.17g`` row formatting for
the CSV workload.  With ``rows`` = 200 per-call overhead dominates it, as in
the narrow ensemble; with 10 000, array throughput, as in the wide one.
:class:`ScalarKernel` is an interpreter-bound Euler loop on one state, like
the scalar integrators of the convergence workload.
"""

from __future__ import annotations

import time

import numpy as np


class Kernel:
    """A fixed piece of work; ``ref_s`` is its time at the reference speed."""

    def __init__(self, ref_s: float):
        self.ref_s = ref_s

    def run(self) -> float:
        """Seconds one pass of the kernel takes now."""
        start = time.perf_counter()
        self.body()
        return time.perf_counter() - start

    def body(self) -> None:
        raise NotImplementedError


class ArrayKernel(Kernel):
    """``steps`` batched steps on ``rows`` states, with optional CSV formatting."""

    def __init__(self, rows: int, steps: int, ref_s: float, format_rows: int = 0):
        super().__init__(ref_s)
        rng = np.random.default_rng(20111)
        self.x0 = rng.standard_normal((rows, 3)) * 0.1 + np.array([0.0, 0.0, 1.0])
        self.g = rng.standard_normal((rows, 3, 2))
        self.steps = steps
        self.format_rows = format_rows

    def body(self) -> None:
        x, g = self.x0.copy(), self.g
        text = []
        for _ in range(self.steps):
            a = 0.5 * (x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1])
            y = x[:, 2] * x[:, 2]
            p = np.where(a > 1e-300, a, 1.0) ** (1.0 + 0.5 * y)
            h = np.stack([np.stack([a, p, y], axis=-1)] * 3, axis=-2)
            m = np.einsum('...ji,...jk,...kl->...il', g, h, g)
            r = np.sqrt((0.5 * (m[:, 0, 0] - m[:, 1, 1])) ** 2 + m[:, 0, 1] ** 2)
            x = x + 1e-9 * np.stack([r, p, a], axis=-1)
            for row in x[:self.format_rows]:
                text.append(",".join(f"{v:.17g}" for v in (*row, *row)))


class ScalarKernel(Kernel):
    """``steps`` interpreter-bound Euler steps of a one-element state."""

    def __init__(self, steps: int, ref_s: float):
        super().__init__(ref_s)
        self.dw = np.random.default_rng(20111).standard_normal(steps) * 1e-2

    def body(self) -> None:
        x = np.array([1.0])
        for w in self.dw:
            x = x + np.zeros_like(x) * 1e-3 + np.asarray(x, float) * w
            if not (np.all(np.isfinite(x)) and np.linalg.norm(x) <= 1e12):
                break


class Clock:
    """Timer whose readings are scaled to the kernel's reference speed."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.raw = []            # raw seconds of each timed call
        self.factors = []        # ref_s / c of each timed call

    def time(self, fn):
        """Call ``fn`` between two kernel passes; returns (result, scaled seconds)."""
        before = self.kernel.run()
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            raw = time.perf_counter() - start
            factor = self.kernel.ref_s / (0.5 * (before + self.kernel.run()))
            self.raw.append(raw)
            self.factors.append(factor)
        return result, raw * factor
