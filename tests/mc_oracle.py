"""Reference Monte Carlo loop for the one-pass ensemble.

This is ``mc_stability`` as it stepped before the loop was evaluated once per
step on coordinate columns: each step evaluates the loop kernel at the
current state and stacks its drift and sigma, then ``v2_eval`` and the row
norms at the new one, and does the masked bookkeeping on every step.  The
recorded controls are ``cl.control`` of each path's recorded states, and
each path's noise comes from ``default_rng`` on its seed word.  The
one-pass loop in ``stostab.verify`` must reproduce every field of its report
bit for bit.
"""

import numpy as np

from stostab import loop_columns, v2_eval
from stostab.sde import DIVERGENCE_BOUND
from stostab.verify import StabilityReport, path_seeds, wilson_halfwidth


@np.errstate(over="ignore", invalid="ignore")
def oracle_mc_stability(cl, x0, dt, horizon, n_paths, eps, conv_threshold,
                        m_level, seed, n_buckets=50, record_every=0):
    """``mc_stability``'s report, from the reference loop."""
    x0 = np.asarray(x0, dtype=float)
    n_steps = int(np.floor(horizon / dt + 1e-9))
    # numpy's own per-path generators, not the package's vectorized seeding,
    # so matching this loop also checks that seeding bit for bit
    dw = np.stack([np.random.default_rng(int(s)).standard_normal(n_steps)
                   for s in path_seeds(seed, n_paths)]) * np.sqrt(dt)

    x = np.tile(x0, (n_paths, 1))
    alive = np.ones(n_paths, dtype=bool)
    v2 = v2_eval(x)
    v2_start = float(v2[0])
    sup_v2 = v2.copy()
    sup_norm = np.linalg.norm(x, axis=1)

    bucket_of = (np.arange(n_steps) * n_buckets) // n_steps
    bsum = np.zeros(n_buckets)
    bsumsq = np.zeros(n_buckets)
    bcount = np.zeros(n_buckets, dtype=np.int64)

    recording = record_every > 0
    rec_times = []
    rec_states = []
    if recording:
        rec_times.append(0.0)
        rec_states.append(x.copy())

    for k in range(n_steps):
        cols = loop_columns(cl.params, cl.design, x[:, 0], x[:, 1], x[:, 2])
        drift = np.stack(cols.drift, axis=-1)
        sig = np.stack(cols.sigma, axis=-1)
        x_new = x + drift * dt + sig * dw[:, k, None]
        norm_new = np.linalg.norm(x_new, axis=1)
        v2_new = v2_eval(x_new)
        # A NaN state fails the norm test; a finite state can still overflow v2.
        bad = ~((norm_new <= DIVERGENCE_BOUND) & np.isfinite(v2_new))
        newly_dead = alive & bad
        if newly_dead.any():
            # Park dead paths at the equilibrium; stats mask them out below.
            x_new[newly_dead] = 0.0
            v2_new[newly_dead] = 0.0
        ok = alive & ~bad
        if ok.any():
            z = (v2_new[ok] - v2[ok]) / dt
            b = bucket_of[k]
            # each step's samples added one after another, in path order
            bsum[b] += np.cumsum(z)[-1]
            bsumsq[b] += np.cumsum(z * z)[-1]
            bcount[b] += len(z)
        alive &= ~bad
        np.maximum(sup_v2, np.where(alive, v2_new, -np.inf), out=sup_v2)
        np.maximum(sup_norm, np.where(alive, norm_new, -np.inf), out=sup_norm)
        x = x_new
        v2 = v2_new
        if recording and ((k + 1) % record_every == 0 or k + 1 == n_steps):
            rec_times.append((k + 1) * dt)
            rec_states.append(x.copy())

    died = ~alive
    n_diverged = int(died.sum())
    sup_v2 = np.where(died, np.inf, sup_v2)
    sup_norm = np.where(died, np.inf, sup_norm)
    v2_final = np.where(died, np.inf, v2)
    terminal_norm = np.where(died, np.inf, np.linalg.norm(x, axis=1))

    converged = alive & (terminal_norm < conv_threshold)
    n_exceed = int((sup_v2 >= m_level).sum())
    mean = np.full(n_buckets, np.nan)
    se = np.full(n_buckets, np.nan)
    nz = bcount > 0
    mean[nz] = bsum[nz] / bcount[nz]
    multi = bcount > 1
    var = np.maximum(bsumsq[multi] / bcount[multi] - mean[multi] ** 2, 0.0)
    se[multi] = np.sqrt(var / bcount[multi])

    levels = [0.05, 0.5, 0.95]
    quantiles = np.quantile(v2_final, levels)
    # Interpolating towards a diverged (inf) path can give NaN; the exact
    # value there is the upper neighbour.
    quantiles = np.where(np.isnan(quantiles),
                         np.quantile(v2_final, levels, method="higher"), quantiles)
    report = StabilityReport(
        n_paths=n_paths,
        n_steps=n_steps,
        dt=dt,
        horizon=horizon,
        seed=seed,
        v2_start=v2_start,
        m_level=m_level,
        eps=eps,
        conv_threshold=conv_threshold,
        p_converge=float(converged.sum() / n_paths),
        p_sup_exceed=float((sup_norm > eps).sum() / n_paths),
        sup_v2_exceedance=float(n_exceed / n_paths),
        wilson_ci_halfwidth=wilson_halfwidth(n_exceed, n_paths),
        v2_terminal_quantiles=tuple(quantiles.tolist()),
        terminal_norm_median=float(np.median(terminal_norm)),
        n_diverged=n_diverged,
        bucket_edges=np.linspace(0.0, n_steps * dt, n_buckets + 1),
        bucket_mean_drift=mean,
        bucket_stderr=se,
        bucket_counts=bcount,
        terminal_states=x,
        record_times=np.asarray(rec_times) if recording else None,
        record_states=np.stack(rec_states, axis=1) if recording else None,
    )
    if recording:
        report.record_controls = np.stack([cl.control(s) for s in report.record_states])
    return report
