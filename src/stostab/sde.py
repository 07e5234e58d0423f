"""Wiener paths, piecewise-linear noise, and single-channel SDE integrators.

Systems are described by a drift f(x) and a single-channel diffusion
sigma(x) under a declared stochastic-integral convention (Ito or
Stratonovich).  State-valued callables must broadcast over a leading batch
axis: they accept arrays of shape ``(dim,)`` or ``(N, dim)`` and return the
same shape.  Every integrator is driven by an explicit, pre-sampled
:class:`WienerPath`, so a simulation is a pure function of the system, the
initial state, and the path seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

ITO = "ito"
STRATONOVICH = "stratonovich"

# Euclidean norm beyond which an integration is declared divergent.
DIVERGENCE_BOUND = 1e12


class IntegrationDiverged(RuntimeError):
    """State left the finite range ``|x| <= DIVERGENCE_BOUND``.

    Carries the failure time in ``time`` and the last finite state in
    ``state``.
    """

    def __init__(self, time: float, state=None):
        super().__init__(f"integration diverged at t={time:.6g}")
        self.time = float(time)
        self.state = state


def _finite(x: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(x)) and np.linalg.norm(x) <= DIVERGENCE_BOUND)


def fd_step(coord: np.ndarray) -> np.ndarray:
    """Central-difference step for Jacobians: max(1e-6, 1e-6 |coordinate|)."""
    return np.maximum(1e-6, 1e-6 * np.abs(coord))


def jacobian_fd(fn: Callable, x) -> np.ndarray:
    """Central-difference Jacobian of a vector field, one column per coordinate.

    ``fn`` must broadcast over batches; the result has shape ``(..., n, n)``
    for input of shape ``(..., n)``.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    cols = []
    for j in range(n):
        h = fd_step(x[..., j])
        xp = x.copy()
        xp[..., j] += h
        xm = x.copy()
        xm[..., j] -= h
        cols.append((np.asarray(fn(xp), float) - np.asarray(fn(xm), float))
                    / (2.0 * h)[..., None])
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class SdeSystem:
    """Drift/diffusion pair with a declared convention."""

    dim: int
    drift: Callable
    diffusion: Callable
    convention: str = ITO

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.convention not in (ITO, STRATONOVICH):
            raise ValueError(f"unknown convention {self.convention!r}")


@dataclass(frozen=True, eq=False)
class WienerPath:
    """Equispaced samples of a scalar Wiener path, ``values[0] == 0``.

    ``values[k]`` approximates w(t0 + k dt).  The path remembers the seed it
    was drawn from so derived artifacts can be reproduced.
    """

    t0: float
    dt: float
    values: np.ndarray
    seed: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if len(self.values) < 2:
            raise ValueError("a path needs at least two samples")
        if self.values[0] != 0.0:
            raise ValueError("paths start at w = 0")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.values))

    @property
    def horizon(self) -> float:
        return self.dt * (len(self.values) - 1)

    def increments(self) -> np.ndarray:
        return np.diff(self.values)

    def coarsen(self, factor: int) -> "WienerPath":
        """Keep every ``factor``-th sample.

        The coarse increments are sums of the fine ones, so both paths
        describe the same underlying realization; convergence studies use
        this to share noise across mesh levels.
        """
        if factor < 1 or int(factor) != factor:
            raise ValueError(f"factor must be a positive integer, got {factor}")
        if (len(self.values) - 1) % factor != 0:
            raise ValueError("factor must divide the number of increments")
        return WienerPath(self.t0, self.dt * factor,
                          self.values[::factor].copy(), self.seed)


def wiener_increments(dt: float, seeds, n_steps: int) -> np.ndarray:
    """Row i: n_steps i.i.d. N(0, dt) draws from ``default_rng(seeds[i])``.

    The same seed reproduces the same row bit for bit on one platform.
    """
    dw = np.empty((len(seeds), n_steps))
    for row, seed in zip(dw, seeds):
        np.random.default_rng(int(seed)).standard_normal(out=row)
    dw *= np.sqrt(dt)
    return dw


def sample_wiener(dt: float, horizon: float, seed: int, t0: float = 0.0) -> WienerPath:
    """Sample a Wiener path on floor(horizon/dt) + 1 equispaced points.

    The increments are those of :func:`wiener_increments` for ``seed``.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if horizon < dt:
        raise ValueError(f"horizon must be at least dt, got {horizon} < {dt}")
    n = int(np.floor(horizon / dt + 1e-9))
    w = np.zeros(n + 1)
    np.cumsum(wiener_increments(dt, [seed], n)[0], out=w[1:])
    return WienerPath(t0, dt, w, int(seed))


@dataclass(frozen=True, eq=False)
class PiecewiseLinearNoise:
    """Continuous piecewise-linear interpolant through noise knots."""

    knot_times: np.ndarray
    knot_values: np.ndarray

    def __post_init__(self):
        if len(self.knot_times) != len(self.knot_values):
            raise ValueError("knot arrays must have equal length")
        if len(self.knot_times) < 2:
            raise ValueError("need at least two knots")
        if np.any(np.diff(self.knot_times) <= 0):
            raise ValueError("knot times must be strictly increasing")

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.knot_values) / np.diff(self.knot_times)

    def __call__(self, t):
        return np.interp(t, self.knot_times, self.knot_values)


def piecewise_linear_lift(path: WienerPath, coarsening: int) -> PiecewiseLinearNoise:
    """Lift a sampled path to a piecewise-linear function of time.

    Knots sit at every ``coarsening``-th sample; the last sample is always a
    knot, so the lift agrees with the path at the final time even when
    ``coarsening`` does not divide the sample count.
    """
    if coarsening < 1 or int(coarsening) != coarsening:
        raise ValueError(f"coarsening must be a positive integer, got {coarsening}")
    idx = np.arange(0, len(path.values), coarsening)
    if idx[-1] != len(path.values) - 1:
        idx = np.append(idx, len(path.values) - 1)
    return PiecewiseLinearNoise(path.times[idx], path.values[idx].copy())


def stratonovich_to_ito(sys: SdeSystem) -> SdeSystem:
    """Add the drift correction (1/2)(d sigma/dx) sigma; diffusion unchanged.

    The input must be declared Stratonovich; converting an Ito system is an
    error rather than a silent no-op.  d sigma/dx is taken by
    :func:`jacobian_fd`.
    """
    if sys.convention != STRATONOVICH:
        raise ValueError("stratonovich_to_ito expects a Stratonovich system")
    drift, diffusion = sys.drift, sys.diffusion

    def corrected(x):
        s = np.asarray(diffusion(x), float)
        corr = 0.5 * np.einsum('...ij,...j->...i', jacobian_fd(diffusion, x), s)
        return np.asarray(drift(x), float) + corr

    return SdeSystem(sys.dim, corrected, diffusion, ITO)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time grid, states, and (optionally) the control recorded along a run."""

    times: np.ndarray
    states: np.ndarray
    controls: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.states.shape[0] != len(self.times):
            raise ValueError("times and states disagree in length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.controls is not None and self.controls.shape[0] != len(self.times):
            raise ValueError("controls must align with times")

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]


def _step_path(sys: SdeSystem, x0, path: WienerPath, step: Callable) -> Trajectory:
    """States x_{k+1} = step(x_k, dw_k) over the increments of ``path``."""
    x = np.array(x0, dtype=float)
    if x.shape != (sys.dim,):
        raise ValueError(f"x0 must have shape ({sys.dim},)")
    dw = path.increments()
    times = path.times
    states = np.empty((len(dw) + 1, sys.dim))
    states[0] = x
    for k in range(len(dw)):
        x = step(x, dw[k])
        if not _finite(x):
            raise IntegrationDiverged(times[k + 1], states[k].copy())
        states[k + 1] = x
    return Trajectory(times.copy(), states)


def euler_maruyama(sys: SdeSystem, x0, path: WienerPath) -> Trajectory:
    """Ito stepping x_{k+1} = x_k + f(x_k) dt + sigma(x_k) dw_k on the path mesh.

    Raises :class:`IntegrationDiverged` when the state leaves the finite
    range; the exception carries the failure time.
    """
    if sys.convention != ITO:
        raise ValueError("euler_maruyama expects an Ito-form system")
    f, s, dt = sys.drift, sys.diffusion, path.dt
    return _step_path(sys, x0, path, lambda x, dw: x + np.asarray(f(x), float) * dt
                      + np.asarray(s(x), float) * dw)


def heun_stratonovich(sys: SdeSystem, x0, path: WienerPath) -> Trajectory:
    """Stratonovich predictor-corrector (Heun) stepping on the path mesh.

    Predictor: y = x + f dt + sigma dw.  Corrector averages drift and
    diffusion between x and y.  Converges to the Stratonovich solution.
    """
    if sys.convention != STRATONOVICH:
        raise ValueError("heun_stratonovich expects a Stratonovich system")
    f, s, dt = sys.drift, sys.diffusion, path.dt

    def step(x, dw):
        fx = np.asarray(f(x), float)
        sx = np.asarray(s(x), float)
        y = x + fx * dt + sx * dw
        return x + 0.5 * (fx + np.asarray(f(y), float)) * dt \
                 + 0.5 * (sx + np.asarray(s(y), float)) * dw

    return _step_path(sys, x0, path, step)


def ode_drive(sys: SdeSystem, x0, noise: PiecewiseLinearNoise,
              substeps: int = 1) -> Trajectory:
    """Integrate the pathwise ODE dx/dt = f(x) + sigma(x) dw/dt with RK4.

    The noise slope is constant on each knot interval, so integration steps
    are aligned to knot boundaries; each interval is covered by ``substeps``
    equal classical RK4 steps.  The system is interpreted pathwise, without
    reference to a stochastic convention.
    """
    if substeps < 1 or int(substeps) != substeps:
        raise ValueError(f"substeps must be a positive integer, got {substeps}")
    x = np.array(x0, dtype=float)
    if x.shape != (sys.dim,):
        raise ValueError(f"x0 must have shape ({sys.dim},)")
    kt = noise.knot_times
    slopes = noise.slopes
    times = [kt[0]]
    states = [x.copy()]
    for i in range(len(slopes)):
        s = slopes[i]
        h = (kt[i + 1] - kt[i]) / substeps

        def rhs(y):
            return np.asarray(sys.drift(y), float) + np.asarray(sys.diffusion(y), float) * s

        for j in range(substeps):
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * h * k1)
            k3 = rhs(x + 0.5 * h * k2)
            k4 = rhs(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = kt[i] + (j + 1) * h if j + 1 < substeps else kt[i + 1]
            if not _finite(x):
                raise IntegrationDiverged(t, states[-1].copy())
            times.append(t)
            states.append(x.copy())
    return Trajectory(np.asarray(times), np.asarray(states))


def write_header(fh, header_lines) -> None:
    """Write each header line prefixed with ``# ``."""
    for line in header_lines:
        fh.write(f"# {line}\n")


def write_csv(path, columns, rows, header_lines=()) -> None:
    """Write the header, the column names, then rows of numbers at ``.17g``.

    Rows of Python numbers (``.tolist()``) format faster than numpy scalars.
    """
    with open(path, "w") as fh:
        write_header(fh, header_lines)
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def trajectory_to_csv(traj: Trajectory, path, header_lines=()) -> None:
    """Write ``t,x1,...,xn[,u1,...,um]`` rows at 17 significant digits.

    ``header_lines`` are emitted first, one per line, prefixed with ``# ``.
    """
    cols = ["t"] + [f"x{i + 1}" for i in range(traj.states.shape[1])]
    data = [traj.times, traj.states]
    if traj.controls is not None:
        cols += [f"u{i + 1}" for i in range(traj.controls.shape[1])]
        data.append(traj.controls)
    write_csv(path, cols, np.column_stack(data).tolist(), header_lines)
