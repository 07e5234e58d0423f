"""Numerical evidence for the noise-assisted stabilizer.

Everything here reduces a stability claim to a reproducible number: the
paper's condition F < 0 on the exact zero set of L_g v2, off which the
generator is -hypot(F, G) < 0, scans of its sign, Monte Carlo estimates of
convergence and supremum-exceedance probabilities with Wilson intervals,
shrinking-radius control scans, Wong-Zakai mesh-refinement errors, and
strong-order slopes.  Scans read (N, 3) states (:func:`grid_points`).
All randomness derives from a single master seed; per-path seeds are words
of the master's seed sequence, so path i is the same no matter how many
paths run or in what order.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import brockett
from .brockett import ClosedLoop, DiffusionDesign, SystemParams
from .lyapunov import G_ZERO, X_GUARD, v2_eval, v2_gradient
from .sde import (ITO, NORM_SQ_BOUND, STRATONOVICH, SdeSystem, _em_step,
                  _failure_text, _final_state, _initial_state, _is_int, _rk4_step,
                  _run_shares, _share_bounds, _step_count, piecewise_linear_lift,
                  header_text, sample_wiener, wiener_increments)


# Samples one block of a per-path experiment holds at once (2 MiB of
# float64).  A strong-order row holds its fine path plus the state history
# of the run that steps it, 2 * (n_steps + 1) samples; a Wong-Zakai row its
# fine path alone (its lifts are views, its runs keep only the final state).
_BLOCK_SAMPLES = 1 << 18


def path_seeds(master_seed: int, n: int) -> np.ndarray:
    """First ``n`` words of the master seed sequence, one per path.

    Word i does not depend on n, so enlarging an ensemble extends it without
    re-randomizing existing paths.  A master seed that is not a nonnegative
    integer (numpy reads None as fresh OS entropy) raises ``ValueError``.
    """
    if not (_is_int(master_seed) and master_seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {master_seed!r}")
    return np.random.SeedSequence(master_seed).generate_state(n, dtype=np.uint64)


# Standard normal quantile of the two-sided 95% level of every interval.
WILSON_Z = 1.959963984540054


def wilson_interval(successes: int, n: int) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    z = WILSON_Z
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= successes <= n:
        raise ValueError("successes must lie in [0, n]")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = z * np.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    return center - half, center + half


def wilson_halfwidth(successes: int, n: int) -> float:
    lo, hi = wilson_interval(successes, n)
    return 0.5 * (hi - lo)


# A point too large for float arithmetic has an inf norm, outside every ball.
@np.errstate(over="ignore")
def grid_points(a1, a2, a3, exclude_radius: float = 0.0) -> np.ndarray:
    """The (N, 3) meshgrid of three 1-d axes of values, in "ij" order.

    Points with |x| < ``exclude_radius`` are left out; a point with a NaN
    norm is kept.  A one-value axis pins a slice: ``grid_points(ax, [0.0],
    ax)`` is the x2 = 0 plane.
    """
    pts = np.stack([m.ravel() for m in np.meshgrid(a1, a2, a3, indexing="ij")], axis=-1)
    if exclude_radius > 0.0:
        pts = pts[~(np.linalg.norm(pts, axis=1) < exclude_radius)]
    return pts


# Largest relative residual of Sontag's identity LV = -hypot(F, G) that the
# kernel may leave off the zero set; it met 1.3e-15 on 6.4 million states.
IDENTITY_TOL = 1e-12


@dataclass(eq=False)
class ScanReport:
    """Generator values over a set of states; ``violations`` are the points
    where the generator is not < 0.  ``identity_residual`` is the largest
    |LV + hypot(F, G)| / hypot(F, G) where G > ``G_ZERO`` (0 with no such
    state), NaN when one is not finite."""

    points: np.ndarray
    values: np.ndarray
    violations: np.ndarray
    violation_values: np.ndarray
    min_value: float
    argmin: np.ndarray
    identity_residual: float

    @property
    def clean(self) -> bool:
        return len(self.violations) == 0


# A point too large for float arithmetic overflows to a NaN LV, which
# counts as a violation.
@np.errstate(over="ignore", invalid="ignore")
def scan_generator(cl: ClosedLoop, points) -> ScanReport:
    """Evaluate the closed-loop generator of v2 on an (N, 3) array of states.

    One kernel pass gives LV = F + L_g v2 . u; every value that is not
    negative, NaN included, is a violation.  There must be a point, and
    none within 1e-3 of the origin, where LV is zero by construction.  Off
    the zero set Sontag's formula makes LV = -hypot(F, G), and the report
    carries the residual of that identity, a self-check of the kernel's
    factor and control.
    """
    pts = brockett._states(points)
    if len(pts) == 0:
        raise ValueError("empty grid: no point to scan")
    if np.any(np.linalg.norm(pts, axis=1) < 1e-3):
        raise ValueError("grid must exclude a ball of radius >= 1e-3 around the origin")
    t = brockett.loop_columns(cl.params, cl.design, pts[:, 0], pts[:, 1], pts[:, 2])
    (lg1, lg2), (u1, u2) = t.lg, t.control
    lv = t.f_term + (lg1 * u1 + lg2 * u2)
    bad = ~(lv < 0.0)
    k = int(np.argmin(lv))
    off = t.g_term > G_ZERO
    h = np.hypot(t.f_term[off], t.g_term[off])
    residual = float(np.max(np.abs(lv[off] + h) / h, initial=0.0))
    return ScanReport(pts, lv, pts[bad], lv[bad], float(lv[k]), pts[k].copy(), residual)


@dataclass(eq=False)
class ZeroSetReport:
    """F (``margins``) and ||L_g v2|| (``lg_norm``) on the zero set of L_g v2:
    the axis points (0, 0, x3) of ``n_axis`` heights, then the off-axis roots."""

    points: np.ndarray
    margins: np.ndarray
    lg_norm: np.ndarray
    n_axis: int

    @property
    def holds(self) -> bool:
        """F < 0 at every point, the origin left out (F = 0 there); false with no height."""
        return self.n_axis > 0 and bool(np.all(self.margins < 0.0))


# A height too large for float arithmetic has a NaN margin, which fails.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def zero_set_check(p: SystemParams, d: DiffusionDesign, heights) -> ZeroSetReport:
    """The zero set of L_g v2 at each distinct nonzero height x3, and F there.

    L_g v2 = M (x1, x2)^T, M = [[b1 P, b3 x3 A], [-b4 x3 A, b2 P]], is 0 on
    the axis and where det M = b1 b2 (P - s x3 A)(P + s x3 A) = 0, s^2 =
    rho = -b3 b4 / (b1 b2): off the axis only if rho >= 0.  Each factor, from
    v2's gradient at (r, 0, x3), is bisected from its sign changes on a log
    grid of X = r^2 in [X_GUARD, 1e4]; each root lies on M's null vector.
    There g v adds nothing to the generator, which one kernel pass gives as F.
    """
    def factor(r, x3, s):
        grad = v2_gradient(np.stack(np.broadcast_arrays(r, 0.0, x3), axis=-1))
        return grad[..., 0] / r - s * grad[..., 2]

    x3 = np.setdiff1d(np.asarray(heights, dtype=float), [0.0])
    pts = [np.column_stack([np.zeros((len(x3), 2)), x3])]
    rho = -(p.b3 * p.b4) / (p.b1 * p.b2)
    if rho >= 0.0:
        s = np.unique([-math.sqrt(rho), math.sqrt(rho)])[:, None, None]
        r = np.sqrt(np.geomspace(X_GUARD, 1e4, 2000))
        f = factor(r, x3[:, None], s)
        neg, ok = f < 0.0, np.isfinite(f)
        i, j, k = np.nonzero((neg[..., 1:] != neg[..., :-1]) & ok[..., 1:] & ok[..., :-1])
        lo, hi, z, sk, neg_lo = r[k], r[k + 1], x3[j], s[i, 0, 0], neg[i, j, k]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            left = (factor(mid, z, sk) < 0.0) == neg_lo
            lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
        # where P = sk x3 A, M's null vector is (b2 sk, b4) or (-b3, b1 sk): the longer
        u = np.stack([p.b2 * sk, np.full_like(sk, p.b4)])
        v = np.stack([np.full_like(sk, -p.b3), p.b1 * sk])
        u = np.where(np.hypot(*u) >= np.hypot(*v), u, v)
        pts.append(np.column_stack([(u * (lo / np.hypot(*u))).T, z]))
    pts = np.concatenate(pts)
    t = brockett.loop_columns(p, d, *pts.T)
    return ZeroSetReport(pts, t.f_term, np.hypot(*t.lg), len(x3))


@dataclass(eq=False)
class StabilityReport:
    """Monte Carlo summary of the closed loop from one initial state.

    Probabilities are plain fractions of the ensemble; ``wilson_ci_halfwidth``
    is the 95% Wilson halfwidth for ``sup_v2_exceedance``, the quantity the
    supermartingale bound constrains.  Diverged paths count as non-convergent
    and as exceeding every threshold, and are also reported separately.
    """

    n_paths: int
    n_steps: int
    dt: float
    horizon: float
    seed: int
    v2_start: float
    m_level: float
    eps: float
    conv_threshold: float
    p_converge: float
    p_sup_exceed: float
    sup_v2_exceedance: float
    wilson_ci_halfwidth: float
    v2_terminal_quantiles: tuple
    terminal_norm_median: float
    n_diverged: int
    bucket_edges: np.ndarray
    bucket_mean_drift: np.ndarray
    bucket_stderr: np.ndarray
    bucket_counts: np.ndarray
    terminal_states: np.ndarray
    record_times: Optional[np.ndarray] = None
    record_states: Optional[np.ndarray] = None
    record_controls: Optional[np.ndarray] = None

    @property
    def drift_nonpositive_2se(self) -> bool:
        """True when every bucket's mean v2 drift is <= 0 within 2 stderr.

        Only buckets with more than one sample have a stderr; with none of
        them there is no evidence either way, and the answer is False.  So
        it is when such a bucket's mean or stderr is not finite: its sums
        overflowed, and an infinite stderr would excuse any mean.
        """
        ok = self.bucket_counts > 1
        mean, se = self.bucket_mean_drift[ok], self.bucket_stderr[ok]
        return bool(ok.any() and np.isfinite(mean).all() and np.isfinite(se).all()
                    and np.all(mean <= 2.0 * se))


# Equal-width time buckets of the v2 drift statistics.
N_BUCKETS = 50

# Fewest paths one stepping process of mc_stability takes.  A kernel pass
# over thousands of rows is arithmetic, which splits across processes; a
# narrower one is numpy dispatch, which every process pays in full.  At 100
# steps on a 2-CPU host, two shares ran 1.04-1.36x the one-process time at
# 2 000 paths, 0.90-1.13x at 4 000 and 0.78-0.96x from 5 000 paths on.
SHARE_MIN_PATHS = 2500


# Fewest drift evaluations (integrator steps times stages) one process of a
# strong-order or Wong-Zakai block takes.  A step of a small block is about
# 13 us of interpreter dispatch, a fork and reap some milliseconds: with 4
# Euler-Maruyama levels of 2 paths on a 2-CPU host, two shares ran 1.42x the
# one-process time at 480 evaluations, 1.09x at 960, 0.82x at 1 920 and
# 0.65-0.79x from 3 840 on.  Test-sized runs stay in one process.
SHARE_MIN_EVALUATIONS = 1024


def _run_levels(seeds, dt, horizon, row_samples, weights, run: Callable) -> None:
    """Run ``run(j, path, blk)`` for every level j on every block of paths.

    The one block loop of the strong-order and Wong-Zakai experiments.  A
    path holds ``row_samples`` while its block runs, so a block holds at
    most _BLOCK_SAMPLES // row_samples paths (at least one).  The blocks
    ``blk`` of ``seeds`` are the fewest such, split by :func:`_share_bounds`
    into sizes that differ by at most one, so no short tail block pays for
    a whole pass of the integrator.  This process draws each block's Wiener
    path, at ``dt`` to ``horizon``; :func:`_run_shares` splits the levels,
    weighted by their drift evaluations, into shares of at least
    ``SHARE_MIN_EVALUATIONS``, runs the first here and forks the others.
    ``run`` writes its rows into a shared mapping, so the results are the
    same bit for bit for any number of shares; a failed level raises what
    running every level here, in order, would raise first.
    """
    n, cap = len(seeds), max(1, _BLOCK_SAMPLES // row_samples)
    for blk in [slice(*b) for b in _share_bounds(np.ones(n, np.int64), -(-n // cap))]:
        path = sample_wiener(dt, horizon, seeds[blk])

        def run_share(lo, hi):
            for j in range(lo, hi):
                run(j, path, blk)

        failed = _run_shares(run_share, weights, SHARE_MIN_EVALUATIONS)
        if failed is not None:
            raise failed[1]
        # the next block's path must not be drawn beside this one
        del path


def _mapped(shape: tuple, dtype=float) -> np.ndarray:
    """A zeroed array of ``shape`` in an anonymous shared mapping of its own.

    A forked child writes into it what this process then reads, and its
    memory goes back to the system when the array dies; from the heap,
    glibc would keep every such block after the first.
    """
    dtype = np.dtype(dtype)
    buf = mmap.mmap(-1, dtype.itemsize * math.prod(shape))
    return np.frombuffer(buf, dtype).reshape(shape)


def _drift_buckets(z: np.ndarray, death: np.ndarray) -> tuple:
    """Mean, stderr and count of the v2 drift samples in each time bucket.

    Column k of ``z`` holds every path's sample z = (v2_new - v2) / dt of
    step k, and 0 from the step at which the path died (``death``) on.
    Each column is summed over its paths in path order (numpy adds the rows
    of an axis-0 sum one after another; one column alone, it sums pairwise),
    and the columns are added in step order, so the statistics do not
    depend on how the paths were shared out.  A path counts for the steps
    before its death.  ``z`` is squared in place, for the second sum.
    """
    n_paths, n_steps = z.shape
    bucket_of = (np.arange(n_steps) * N_BUCKETS) // n_steps
    # bincount adds its weights in index order, so each bucket sums its steps in order
    bsum = np.bincount(bucket_of, z.sum(axis=0), N_BUCKETS)
    z *= z
    bsumsq = np.bincount(bucket_of, z.sum(axis=0), N_BUCKETS)
    alive = n_paths - np.cumsum(np.bincount(death, minlength=n_steps)[:n_steps])
    count = np.bincount(bucket_of, alive, N_BUCKETS).astype(np.int64)
    mean = np.full(N_BUCKETS, np.nan)
    se = np.full(N_BUCKETS, np.nan)
    nz = count > 0
    mean[nz] = bsum[nz] / count[nz]
    multi = count > 1
    var = np.maximum(bsumsq[multi] / count[multi] - mean[multi] ** 2, 0.0)
    # an overflowed sum of squares gives inf - inf = NaN above
    var[np.isinf(bsumsq[multi])] = np.inf
    se[multi] = np.sqrt(var / count[multi])
    return mean, se, count


def _step_paths(cl: ClosedLoop, x0: np.ndarray, dt: float, seeds: np.ndarray,
                n_steps: int, rec_steps: Optional[np.ndarray], out: dict) -> None:
    """Step the paths of ``seeds`` from ``x0`` and write their results to ``out``.

    ``out`` holds one row per path for each result: ``terminal`` (the final
    state), ``v2`` (its v2), ``sup_v2``, ``sup_norm_sq``, ``death`` (the
    step at which the path diverged, or n_steps), ``dw`` and, unless
    ``rec_steps`` is None, ``rec_states`` and ``rec_controls`` at those
    steps, 0 first and n_steps last.  ``dw``, of n_steps columns, receives
    the paths' noise; step k then overwrites column k with every path's v2
    drift sample z = (v2_new - v2) / dt, for :func:`_drift_buckets`: 0 on
    the step at which the path dies, and after it, where the path is parked
    at the origin.

    The states are one block ``x`` of shape ``(3, len(seeds))``, updated in
    place: ``x += f dt``, then ``x += s w`` (``s *= w`` row by row).  The
    kernel pass is bound once to ``x`` and one workspace
    (:func:`brockett._bind_loop`), and the loop calls ufuncs by local name
    on the pass's rows, each operand of one shape.  The pass's first two
    rows are (v2, |x|^2): one call keeps their running maxima in a (2, n)
    block, and one sum of that row pair screens for divergence.  A spent
    noise column holds the previous v2.  A step allocates no column of the
    share's size unless some path diverges, and a path's results do not
    depend on the paths stepped with it.
    """
    add, subtract, multiply, divide, maximum, copyto, isfinite = (
        np.add, np.subtract, np.multiply, np.divide, np.maximum, np.copyto, np.isfinite)
    total = np.add.reduce
    n_paths, dw = len(seeds), out["dw"]
    wiener_increments(dt, seeds, n_steps, out=dw)
    x = np.repeat(x0[:, None], n_paths, axis=1)
    block = _mapped((brockett._N_ROWS, n_paths))
    evaluate = brockett._bind_loop(block, cl.params, cl.design, x)
    t = evaluate()
    v2, norm_sq, drift, sigma, control = t.v2, t.norm_sq, t.drift, t.sigma, t.control
    s1, s2, s3 = sigma
    v2_norm_sq = block[:2]
    sups = v2_norm_sq.copy()
    death = out["death"]
    death[:] = n_steps
    dt = np.array(dt)

    if rec_steps is not None:
        rec_states, rec_controls = out["rec_states"], out["rec_controls"]

        def record(j):
            rec_states[:, j] = x.T
            rec_controls[:, j] = control.T

        record(0)
        j = 1

    for k in range(n_steps):
        w = dw[:, k]
        # (x + f dt) + s w, into x; the drift and sigma blocks are spent
        add(x, multiply(drift, dt, drift), x)
        multiply(s1, w, s1)
        multiply(s2, w, s2)
        multiply(s3, w, s3)
        add(x, sigma, x)
        copyto(w, v2)
        evaluate()
        subtract(v2, w, w)
        divide(w, dt, w)
        # The sum of the |x|^2 row bounds each of its values, and a NaN or
        # inf (a finite state can overflow v2) makes a sum fail: only then test rows.
        v2_sum, norm_sq_sum = total(v2_norm_sq, 1)
        if not (norm_sq_sum <= NORM_SQ_BOUND and math.isfinite(v2_sum)):
            fine = (norm_sq <= NORM_SQ_BOUND) & isfinite(v2)
            newly_dead = ~fine & (death == n_steps)
            if newly_dead.any():
                # Park dead paths at the equilibrium, where their drift
                # samples stay 0, and evaluate the loop there for the next step.
                death[newly_dead] = k
                w[newly_dead] = 0.0
                x[:, newly_dead] = 0.0
                evaluate()
        # A parked path sits at v2 = |x|^2 = 0, and its sups become inf later.
        maximum(sups, v2_norm_sq, out=sups)
        if rec_steps is not None and k + 1 == rec_steps[j]:
            record(j)
            j += 1

    out["terminal"][:] = x.T
    out["v2"][:] = v2
    out["sup_v2"][:], out["sup_norm_sq"][:] = sups


def _ensemble_plan(x0, dt: float, horizon: float, n_paths: int, eps: float,
                   conv_threshold: float, m_level: float, record_every: int) -> tuple:
    """Check a :func:`mc_stability` run and return ``x0`` as an array, the
    step count, the recorded steps (None when ``record_every`` is 0) and the
    results' ``{name: (shape, dtype)}`` layout, the noise buffer ``dw`` (8
    bytes per path-step) included.  A bad argument, or a layout beyond
    physical memory, raise ValueError.
    """
    for name, value in (("dt", dt), ("eps", eps), ("conv_threshold", conv_threshold),
                        ("m_level", m_level)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if not (dt <= horizon and np.isfinite(horizon / dt)):
        raise ValueError(f"horizon must be at least dt and span finitely many "
                         f"steps, got {horizon!r}")
    if not (_is_int(n_paths) and n_paths >= 1):
        raise ValueError(f"n_paths must be a positive integer, got {n_paths!r}")
    if not (_is_int(record_every) and record_every >= 0):
        raise ValueError(f"record_every must be a nonnegative integer, got {record_every!r}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (3,):
        raise ValueError(f"x0 must have shape (3,), got {x0.shape}")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {tuple(x0.tolist())}")
    n_steps = _step_count(horizon, dt)
    layout = {"terminal": ((n_paths, 3), float), "v2": ((n_paths,), float),
              "sup_v2": ((n_paths,), float), "sup_norm_sq": ((n_paths,), float),
              "death": ((n_paths,), np.int64), "dw": ((n_paths, n_steps), float)}
    if record_every:
        # step 0, every record_every-th step, and the last step
        n_rec = -(-n_steps // record_every) + 1
        layout["rec_states"] = ((n_paths, n_rec, 3), float)
        layout["rec_controls"] = ((n_paths, n_rec, 2), float)
    # exact integers, so no count overflows; every dtype is 8 bytes wide
    need = 8 * sum(math.prod(shape) for shape, _ in layout.values())
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        from decimal import Decimal  # a count beyond float range, on refusal only
        raise ValueError(f"n_paths = {n_paths}, n_steps = {n_steps} and record_every = "
                         f"{record_every} need {Decimal(need) / 2**30:.3g} GiB for the noise and "
                         f"results, more than the {memory / 2**30:.3g} GiB of physical memory")
    # capping record_every at n_steps changes no step and keeps the product in int64
    rec_steps = (np.minimum(np.arange(n_rec) * min(record_every, n_steps), n_steps)
                 if record_every else None)
    return x0, n_steps, rec_steps, layout


# Diverging paths overflow on their way out; n_diverged reports them.
@np.errstate(over="ignore", invalid="ignore")
def mc_stability(cl: ClosedLoop, x0, dt: float, horizon: float, n_paths: int,
                 eps: float, conv_threshold: float, m_level: float, seed: int,
                 record_every: int = 0) -> StabilityReport:
    """Euler-Maruyama ensemble of the closed loop with common bookkeeping.

    All paths step together as coordinate columns (:func:`_step_paths`),
    with one kernel pass per step, at the new state: it gives the
    divergence test its v2 and |x|^2, the next step its drift and
    diffusion, and the recording its control.  Path i consumes increments
    from its own seed-word stream, so results are reproducible and
    unchanged under ensemble enlargement.  ``record_every`` > 0 stores
    every k-th state and its control for all paths (plus the final one).

    :func:`_run_shares` steps the paths in shares of at least
    ``SHARE_MIN_PATHS``, the first here and the others in forked children.
    Each share draws its paths' noise into its rows of the results' noise
    buffer and overwrites each spent noise column with that step's v2 drift
    samples, which this process adds up in step order, each step's in path
    order (:func:`_drift_buckets`), so the report is the same bit for bit
    for any number of shares.  The buffer is unmapped before the report is
    built.  A child's failure raises ``RuntimeError`` naming its share's
    first path and the child's error.

    A bad argument (:func:`_ensemble_plan`, :func:`path_seeds`), or noise
    and results beyond physical memory, raise ``ValueError`` before anything
    is mapped, drawn or forked.
    """
    x0, n_steps, rec_steps, layout = _ensemble_plan(
        x0, dt, horizon, n_paths, eps, conv_threshold, m_level, record_every)
    seeds = path_seeds(seed, n_paths)
    res = {name: _mapped(shape, dtype) for name, (shape, dtype) in layout.items()}

    def step_share(lo, hi):
        _step_paths(cl, x0, dt, seeds[lo:hi], n_steps, rec_steps,
                    {name: a[lo:hi] for name, a in res.items()})

    failed = _run_shares(step_share, np.ones(n_paths, np.int64), SHARE_MIN_PATHS)
    if failed is not None:
        lo, exc = failed
        raise RuntimeError(f"could not step the ensemble share from path {lo}: "
                           f"{_failure_text(exc)}")
    mean, se, count = _drift_buckets(res.pop("dw"), res["death"])

    x = res["terminal"]
    died = res["death"] < n_steps
    n_diverged = int(died.sum())
    sup_v2 = np.where(died, np.inf, res["sup_v2"])
    # sqrt is monotone, so the sup of the norms is the root of this sup.
    sup_norm = np.where(died, np.inf, np.sqrt(res["sup_norm_sq"]))
    v2_final = np.where(died, np.inf, res["v2"])
    terminal_norm = np.where(died, np.inf, np.linalg.norm(x, axis=1))

    converged = ~died & (terminal_norm < conv_threshold)
    n_exceed = int((sup_v2 >= m_level).sum())

    levels = [0.05, 0.5, 0.95]
    quantiles = np.quantile(v2_final, levels)
    # Interpolating towards a diverged (inf) path can give NaN; the exact
    # value there is the upper neighbour.
    nan = np.isnan(quantiles)
    if nan.any():
        quantiles[nan] = np.quantile(v2_final, levels, method="higher")[nan]
    return StabilityReport(
        n_paths=n_paths,
        n_steps=n_steps,
        dt=dt,
        horizon=horizon,
        seed=seed,
        v2_start=float(v2_eval(x0)),
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
        bucket_edges=np.linspace(0.0, n_steps * dt, N_BUCKETS + 1),
        bucket_mean_drift=mean,
        bucket_stderr=se,
        bucket_counts=count,
        terminal_states=x,
        record_times=None if rec_steps is None else rec_steps * dt,
        record_states=res.get("rec_states"),
        record_controls=res.get("rec_controls"),
    )


@dataclass(eq=False)
class SmallControlReport:
    """Max control magnitude over shared random directions, per radius."""

    radii: tuple
    max_control: np.ndarray
    n_dirs: int
    seed: int

    @property
    def holds(self) -> bool:
        """The small-control property: max ||u_s|| does not grow as the radius
        shrinks, and on the smallest sphere it is below that radius."""
        return brockett._shrinks(self.max_control, self.radii[-1])


def small_control_scan(cl: ClosedLoop, n_dirs: int, seed: int) -> SmallControlReport:
    """Evaluate max ||u_s|| on spheres of the radii ``brockett.CONTINUITY_RADII``.

    The same unit directions are reused at every radius, so the decay of the
    sequence reflects the control law rather than sampling noise.
    """
    radii = brockett.CONTINUITY_RADII
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_dirs, 3))
    norms = np.linalg.norm(dirs, axis=1)
    dirs /= np.where(norms > 1e-12, norms, 1.0)[:, None]
    # every sphere in one pass: a kernel row does not depend on the rows beside it
    pts = np.multiply.outer(radii, dirs).reshape(-1, 3)
    u = brockett.loop_columns(cl.params, cl.design, *pts.T).control.T
    max_control = np.linalg.norm(u, axis=1).reshape(len(radii), n_dirs).max(axis=1)
    return SmallControlReport(radii, max_control, n_dirs, seed)


@dataclass(eq=False)
class WongZakaiReport:
    """Terminal-error decay of the pathwise ODE under mesh refinement.

    ``mse[i]`` is the mean squared terminal error at mesh ``meshes[i]``
    against the chain-rule solution x0 exp(w(T)) of the same underlying
    path.  The Ito fields hold the uncorrected Euler-Maruyama terminal
    log-ratio statistics, which centre on -T/2 rather than 0: the size of
    the drift correction the conversion must add.
    """

    meshes: tuple
    mse: np.ndarray
    n_real: int
    x0: float
    horizon: float
    n_fine: int
    seed: int
    ito_mean_log_ratio: float
    ito_std_log_ratio: float

    @property
    def non_increasing(self) -> bool:
        return bool(np.all(np.diff(self.mse) <= 0.0))

    @property
    def vacuous(self) -> bool:
        """Every MSE is exactly 0, so refinement has nothing to reduce.

        A horizon so short that x0 exp(w) rounds to x0 gives this.
        """
        return not self.mse.any()


def _wong_zakai_plan(x0: float, horizon: float, meshes, n_real: int) -> tuple:
    """Check a :func:`wong_zakai_experiment` run and return its meshes as a
    tuple of ints and its fine mesh; a bad argument raises ValueError."""
    # from x0 = 0 every path stays at 0, and a zero MSE would pass vacuously
    if not (x0 != 0.0 and np.isfinite(x0)):
        raise ValueError(f"x0 must be nonzero and finite, got {x0}")
    if not (horizon > 0.0 and np.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    meshes = tuple(int(m) for m in meshes)
    if len(meshes) < 2 or any(m < 2 for m in meshes):
        raise ValueError("need at least two meshes of size >= 2")
    if any(b <= a for a, b in zip(meshes, meshes[1:])):
        raise ValueError("meshes must be strictly increasing")
    if n_real < 50:
        raise ValueError("need at least 50 realizations")
    n_fine = 4 * max(meshes)
    for m in meshes:
        if n_fine % m != 0:
            raise ValueError(f"mesh {m} must divide the fine mesh {n_fine}")
    return meshes, n_fine


def wong_zakai_experiment(x0: float, horizon: float, meshes, n_real: int,
                          seed: int) -> WongZakaiReport:
    """Drive dx = x dw pathwise through piecewise-linear lifts of one fine path.

    For each realization the same fine path is lifted at every mesh, the ODE
    is integrated with RK4 steps aligned to the knots, and the terminal value
    is compared with x0 exp(w(T)).  An uncorrected Ito Euler-Maruyama run on
    the fine mesh provides the contrast statistic.  Realizations are stepped
    in blocks of batched paths, each run only to its final state, bit for
    bit that of :func:`ode_drive` and :func:`euler_maruyama` on its path.
    The runs (one per mesh, then the contrast) are the levels of
    :func:`_run_levels`, weighted 4 drift evaluations a step for RK4 and 1
    for Euler-Maruyama.
    """
    meshes, n_fine = _wong_zakai_plan(x0, horizon, meshes, n_real)
    dt_fine = horizon / n_fine

    # np.zeros_like is a Python-level wrapper; np.zeros is one C call
    zero = lambda x: np.zeros(np.shape(x))
    ident = lambda x: np.asarray(x, float)
    pathwise_sys = SdeSystem(1, zero, ident, STRATONOVICH)
    ito_sys = SdeSystem(1, zero, ident, ITO)

    seeds = path_seeds(seed, n_real)
    sq_err, log_ratio = _mapped((len(meshes), n_real)), _mapped((n_real,))

    def run(j, path, blk):
        oracle = x0 * np.exp(path.values[:, -1])
        x = _initial_state(ito_sys, [x0], path.values.shape[:-1])
        if j < len(meshes):
            lift = piecewise_linear_lift(path, n_fine // meshes[j])
            x_n = _final_state(x, lift.knot_times, _rk4_step(pathwise_sys, lift))
            sq_err[j, blk] = (x_n[:, 0] - oracle) ** 2
        else:
            x_n = _final_state(x, path.times, _em_step(ito_sys, path))
            log_ratio[blk] = np.log(x_n[:, 0] / oracle)

    # every run keeps only its final state, and every mesh divides n_fine,
    # so each lift is a view: a block holds its fine path and nothing more
    _run_levels(seeds, dt_fine, horizon, n_fine + 1,
                [4 * m for m in meshes] + [n_fine], run)
    return WongZakaiReport(
        meshes=meshes,
        mse=sq_err.mean(axis=1),
        n_real=n_real,
        x0=float(x0),
        horizon=float(horizon),
        n_fine=n_fine,
        seed=seed,
        ito_mean_log_ratio=float(log_ratio.mean()),
        ito_std_log_ratio=float(log_ratio.std(ddof=1)),
    )


def strong_order_estimate(integrate: Callable, sys: SdeSystem,
                          exact_terminal: Callable, x0, horizon: float,
                          dts, n_paths: int, seed: int) -> float:
    """Log-log slope of RMS terminal error against step size.

    ``integrate(sys, x0, path) -> Trajectory`` is the scheme under test,
    called with x0 of shape (dim,) and a batch of paths, so its terminal
    state has shape (N, dim); ``exact_terminal(x0, horizon, w_T) -> state``
    is its closed-form oracle, called with w_T of shape (N, 1).  At least
    four geometrically spaced step sizes are required, and every level
    re-uses the same underlying fine path by summing increments, so errors
    across levels are positively correlated and the slope is stable.

    The levels are those of :func:`_run_levels`, weighted by their steps
    (each counts as one drift evaluation).  ``integrate`` and
    ``exact_terminal`` run in its children too, so what they record of
    their calls stays there.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be positive, got {n_paths}")
    dts = sorted((float(v) for v in dts), reverse=True)
    if len(dts) < 4:
        raise ValueError("need at least four step sizes")
    ratios = [a / b for a, b in zip(dts, dts[1:])]
    if any(abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios):
        raise ValueError("step sizes must be geometrically spaced")
    dt_min = dts[-1]
    factors = [int(round(dt / dt_min)) for dt in dts]
    for dt, fac in zip(dts, factors):
        if abs(fac * dt_min - dt) > 1e-9 * dt:
            raise ValueError("step sizes must be integer multiples of the smallest")
    n_fine = _step_count(horizon, dt_min)
    for fac in factors:
        if n_fine % fac != 0:
            raise ValueError("every step size must divide the horizon evenly")

    x0 = np.asarray(x0, dtype=float)
    seeds = path_seeds(seed, n_paths)
    errs = _mapped((len(dts), n_paths))

    def run(j, fine, blk):
        ref = np.asarray(exact_terminal(x0, fine.horizon, fine.values[:, -1:]), float)
        traj = integrate(sys, x0, fine.coarsen(factors[j]))
        errs[j, blk] = np.linalg.norm(traj.terminal - ref, axis=-1)

    # a row holds its fine path and the state history of one integrator run
    _run_levels(seeds, dt_min, horizon, 2 * (n_fine + 1),
                [n_fine // fac for fac in factors], run)
    rms = np.sqrt((errs ** 2).mean(axis=1))
    if np.any(rms == 0.0):
        raise ValueError("zero RMS error; slope is undefined")
    slope, _ = np.polyfit(np.log(dts), np.log(rms), 1)
    return float(slope)


def write_summary(path, items, header_lines=()) -> None:
    """Write a flat ``key = value`` summary file with a comment header."""
    with open(path, "w") as fh:
        fh.write(header_text(header_lines))
        fh.writelines(f"{key} = {value}\n" for key, value in items)
