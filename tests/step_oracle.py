"""Reference steppers for the generic SDE integrators.

These are the steppers as they ran before the divergence screen and the
hoisted RK4 constants.  ``_finite``, ``_step_path``, ``euler_maruyama``,
``heun_stratonovich`` and ``ode_drive`` are kept verbatim: the exact
per-row divergence test on every step, and RK4 interval widths and step
fractions recomputed per interval and per substep.  The steppers in
``stostab.sde`` must reproduce their times, states and divergence
exceptions bit for bit.
"""

from typing import Callable

import numpy as np

from stostab.sde import (ITO, NORM_SQ_BOUND, STRATONOVICH, IntegrationDiverged,
                         PiecewiseLinearNoise, SdeSystem, Trajectory, WienerPath,
                         _initial_state)


def _finite(x: np.ndarray) -> bool:
    """Every row has |x| <= DIVERGENCE_BOUND; NaN compares False, so it fails."""
    return bool(((x * x).sum(-1) <= NORM_SQ_BOUND).all())


def _step_path(sys: SdeSystem, x0, path: WienerPath, step: Callable) -> Trajectory:
    """States x_{k+1} = step(x_k, dw_k) over the increments of ``path``.

    ``dw_k`` has shape ``(1,)``, or ``(N, 1)`` for a batch, so it scales the
    state rows; it is read from the samples as w_{k+1} - w_k, which is what
    ``np.diff`` computes.
    """
    w = path.values
    x = _initial_state(sys, x0, w.shape[:-1])
    times = path.times
    w = np.moveaxis(w, -1, 0)[..., None]
    states = np.empty((len(times),) + x.shape)
    states[0] = x
    for k in range(len(times) - 1):
        x = step(x, w[k + 1] - w[k])
        if not _finite(x):
            raise IntegrationDiverged(times[k + 1], states[k].copy())
        states[k + 1] = x
    return Trajectory(times, states)


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
    reference to a stochastic convention.  A batched ``noise`` steps one
    state row per interpolant.
    """
    if substeps < 1 or int(substeps) != substeps:
        raise ValueError(f"substeps must be a positive integer, got {substeps}")
    x = _initial_state(sys, x0, noise.knot_values.shape[:-1])
    kt = noise.knot_times
    slopes = np.moveaxis(noise.slopes, -1, 0)[..., None]
    times = [kt[0]]
    states = np.empty((len(slopes) * substeps + 1,) + x.shape)
    states[0] = x
    n = 0
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
                raise IntegrationDiverged(t, states[n].copy())
            times.append(t)
            n += 1
            states[n] = x
    return Trajectory(np.asarray(times), states)
