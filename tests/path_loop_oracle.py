"""Per-path reference loops for the blocked convergence experiments.

These step one Wiener path at a time, the way the experiments were first
written; the batched versions in ``stostab.verify`` must reproduce them bit
for bit.
"""

import numpy as np

from stostab import (ITO, STRATONOVICH, SdeSystem, euler_maruyama, ode_drive,
                     piecewise_linear_lift, sample_wiener)
from stostab.verify import path_seeds


def strong_order_slope(integrate, sys, exact_terminal, x0, horizon, dts,
                       n_paths, seed):
    """Log-log slope of RMS terminal error against step size, path by path."""
    dts = sorted(dts, reverse=True)
    x0 = np.asarray(x0, dtype=float)
    seeds = path_seeds(seed, n_paths)
    errs = np.empty((len(dts), n_paths))
    for i in range(n_paths):
        fine = sample_wiener(dts[-1], horizon, int(seeds[i]))
        ref = np.asarray(exact_terminal(x0, fine.horizon, fine.values[-1]), float)
        for j, dt in enumerate(dts):
            traj = integrate(sys, x0, fine.coarsen(int(round(dt / dts[-1]))))
            errs[j, i] = np.linalg.norm(traj.terminal - ref)
    rms = np.sqrt((errs ** 2).mean(axis=1))
    return float(np.polyfit(np.log(dts), np.log(rms), 1)[0])


def wong_zakai_stats(x0, horizon, meshes, n_real, seed):
    """(mse per mesh, mean and std of the Ito log-ratio), path by path.

    Errors are squared as d * d, which is how numpy squares an array; a
    numpy scalar's ``** 2`` goes through C ``pow``, which can round an exact
    tie the other way.
    """
    n_fine = 4 * max(meshes)
    ident = lambda x: np.asarray(x, float)
    pathwise_sys = SdeSystem(1, np.zeros_like, ident, STRATONOVICH)
    ito_sys = SdeSystem(1, np.zeros_like, ident, ITO)
    seeds = path_seeds(seed, n_real)
    sq_err = np.empty((len(meshes), n_real))
    log_ratio = np.zeros(n_real)
    for i in range(n_real):
        path = sample_wiener(horizon / n_fine, horizon, int(seeds[i]))
        oracle = x0 * np.exp(path.values[-1])
        for j, m in enumerate(meshes):
            traj = ode_drive(pathwise_sys, [x0], piecewise_linear_lift(path, n_fine // m))
            d = traj.terminal[0] - oracle
            sq_err[j, i] = d * d
        if x0 != 0.0:
            log_ratio[i] = np.log(euler_maruyama(ito_sys, [x0], path).terminal[0] / oracle)
    return sq_err.mean(axis=1), log_ratio.mean(), log_ratio.std(ddof=1)
