"""Numerical evidence for the noise-assisted stabilizer.

Everything here reduces a stability claim to a reproducible number: scans
of the generator's sign, Monte Carlo estimates of convergence and
supremum-exceedance probabilities with Wilson intervals, shrinking-radius
control scans, Wong-Zakai mesh-refinement errors, and strong-order slopes.
Every check reads its states as an (N, 3) float array; :func:`grid_points`
builds the rectangular ones.
All randomness derives from a single master seed; per-path seeds are words
of the master's seed sequence, so path i is the same no matter how many
paths run or in what order.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import brockett
from .brockett import ClosedLoop, DiffusionDesign, SystemParams
from .lyapunov import _workspace
from .sde import (ITO, NORM_SQ_BOUND, STRATONOVICH, SdeSystem, _em_step,
                  _failure_text, _final_state, _initial_state, _rk4_step,
                  _run_shares, _step_count, piecewise_linear_lift,
                  sample_wiener, wiener_increments, write_csv, write_header)


# Samples one block of a per-path experiment holds at once (2 MiB of
# float64).  A strong-order row holds its fine path plus the scalar state
# history of the one integrator run that steps it, 2 * (n_steps + 1)
# samples; a Wong-Zakai row holds its fine path alone, n_steps + 1, since
# its lifts are views of the path and its runs keep only the final state.
# At 4096 steps a block holds up to 31 and 63 rows.
_BLOCK_SAMPLES = 1 << 18


def _path_blocks(n_paths: int, row_samples: int):
    """Consecutive slices covering range(n_paths) in the fewest blocks.

    ``row_samples`` is what one path holds while its block runs.  Each block
    holds at most _BLOCK_SAMPLES // row_samples paths (at least one), and
    block sizes differ by at most one, larger blocks first, so no short tail
    block pays for a whole pass of the integrator.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be positive, got {n_paths}")
    cap = max(1, _BLOCK_SAMPLES // row_samples)
    n_blocks = -(-n_paths // cap)
    size, extra = divmod(n_paths, n_blocks)
    lo = 0
    for b in range(n_blocks):
        hi = lo + size + (b < extra)
        yield slice(lo, hi)
        lo = hi


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

    Points with |x| < ``exclude_radius`` are left out.  A one-value axis
    pins a slice: ``grid_points(ax, [0.0], ax)`` is the x2 = 0 plane.
    """
    pts = np.stack([m.ravel() for m in np.meshgrid(a1, a2, a3, indexing="ij")], axis=-1)
    if exclude_radius > 0.0:
        pts = pts[np.linalg.norm(pts, axis=1) >= exclude_radius]
    return pts


@dataclass(eq=False)
class ScanReport:
    """Generator values over a set of states, with sign violations singled out.

    ``violations`` collects the points where the generator is not < 0; the
    on-axis fields summarize the x1 = x2 = 0 subset, where the drift term
    vanishes and only the noise trace is at work.
    """

    points: np.ndarray
    values: np.ndarray
    violations: np.ndarray
    violation_values: np.ndarray
    min_value: float
    argmin: np.ndarray
    on_axis_count: int
    on_axis_min: float
    on_axis_max: float

    @property
    def clean(self) -> bool:
        return len(self.violations) == 0


# A point too large for float arithmetic overflows to a NaN LV, which
# counts as a violation.
@np.errstate(over="ignore", invalid="ignore")
def scan_generator(cl: ClosedLoop, points) -> ScanReport:
    """Evaluate the closed-loop generator of v2 on every point of an (N, 3)
    array of states.

    One kernel pass gives LV = F + L_g v2 . u; every value that is not
    negative, NaN included, is a violation.  The points must keep out of
    the ball of radius 1e-3 around the origin, where the generator
    degenerates to zero by construction, and there must be at least one.
    """
    pts = brockett._states(points)
    if len(pts) == 0:
        raise ValueError("empty grid: no point to scan")
    if np.any(np.linalg.norm(pts, axis=1) < 1e-3):
        raise ValueError("grid must exclude a ball of radius >= 1e-3 around the origin")
    t = cl.columns(pts[:, 0], pts[:, 1], pts[:, 2])
    (lg1, lg2), (u1, u2) = t.lg, t.control
    lv = t.f_term + (lg1 * u1 + lg2 * u2)
    bad = ~(lv < 0.0)
    on_axis = (pts[:, 0] == 0.0) & (pts[:, 1] == 0.0)
    k = int(np.argmin(lv))
    return ScanReport(
        points=pts,
        values=lv,
        violations=pts[bad],
        violation_values=lv[bad],
        min_value=float(lv[k]),
        argmin=pts[k].copy(),
        on_axis_count=int(on_axis.sum()),
        on_axis_min=float(lv[on_axis].min()) if on_axis.any() else float("nan"),
        on_axis_max=float(lv[on_axis].max()) if on_axis.any() else float("nan"),
    )


def write_scan_csv(report: ScanReport, path, header_lines=()) -> None:
    """Serialize a scan as ``x1,x2,x3,LV`` rows at 17 significant digits."""
    write_csv(path, ["x1", "x2", "x3", "LV"],
              np.column_stack([report.points, report.values]).tolist(),
              header_lines)


@dataclass(eq=False)
class SclfReport:
    """Outcome of the control-Lyapunov condition check on a set of states.

    The condition is tested only where the control derivative nearly
    vanishes (there is nothing to check elsewhere); ``vacuous`` flags sets
    that contained no such points.
    """

    n_tested: int
    n_holds: int
    margins: np.ndarray
    points: np.ndarray
    vacuous: bool

    @property
    def holds(self) -> bool:
        return (not self.vacuous) and self.n_holds == self.n_tested


def sclf_condition_check(p: SystemParams, d: DiffusionDesign,
                         points) -> SclfReport:
    """Where ||L_g v2|| < 1e-6 on the (N, 3) states, test the noise condition

        (1/2) B^T (g^T Hess v2 g) B + (1/2) grad v2 . (d(gB)/dx)(gB) < -L_f v2.

    The plant is driftless, so L_f v2 = 0.  Where L_g v2 = 0 the
    pre-feedback g v adds nothing to the generator, so the left side is the
    kernel's F, read from one :func:`brockett.loop_columns` pass.  The
    origin is left out: it is the equilibrium, where F = 0 by construction
    and the strict inequality cannot hold.
    """
    pts = brockett._states(points)
    t = brockett.loop_columns(p, d, pts[:, 0], pts[:, 1], pts[:, 2])
    mask = (np.hypot(*t.lg) < 1e-6) & pts.any(axis=1)
    margins = t.f_term[mask]
    return SclfReport(len(margins), int((margins < 0.0).sum()), margins,
                      pts[mask], not mask.any())


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
        them there is no evidence either way, and the answer is False.
        """
        ok = self.bucket_counts > 1
        return bool(ok.any() and np.all(self.bucket_mean_drift[ok]
                                         <= 2.0 * self.bucket_stderr[ok]))


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

    The one block loop of the strong-order and Wong-Zakai experiments.  This
    process draws the Wiener path, at ``dt`` to ``horizon``, of each
    :func:`_path_blocks` slice ``blk`` of ``seeds`` (a path holds
    ``row_samples``); :func:`_run_shares` splits the levels, weighted by
    their drift evaluations, into shares of at least
    ``SHARE_MIN_EVALUATIONS``, runs the first here and forks the others.
    ``run`` writes its rows of the results into a shared mapping, so they
    are the same bit for bit for any number of shares, and a failed level
    raises what running every level here, in order, would raise first.
    """
    for blk in _path_blocks(len(seeds), row_samples):
        path = sample_wiener(dt, horizon, seeds[blk])

        def run_share(lo, hi):
            for j in range(lo, hi):
                run(j, path, blk)

        failed = _run_shares(run_share, weights, SHARE_MIN_EVALUATIONS)
        if failed is not None:
            raise failed[1]
        # the next block's path must not be drawn beside this one
        del path


def _shared_arrays(layout: dict) -> dict:
    """``{name: (shape, dtype)}`` as zeroed arrays in one anonymous shared mapping.

    A forked child writes into them what this process then reads.  Every
    dtype is 8 bytes wide, so every array is aligned.
    """
    sizes = {name: math.prod(shape) for name, (shape, _) in layout.items()}
    buf = mmap.mmap(-1, 8 * sum(sizes.values()))
    arrays, offset = {}, 0
    for name, (shape, dtype) in layout.items():
        arrays[name] = np.frombuffer(buf, dtype, sizes[name], offset).reshape(shape)
        offset += 8 * sizes[name]
    return arrays


def _mapped(shape: tuple) -> np.ndarray:
    """A float array of ``shape`` in an anonymous private mapping of its own.

    Its memory goes back to the system when the array dies.  From the heap,
    glibc would map a block this large only the first time: once it has
    unmapped a freed block, it raises its threshold to that block's size
    and keeps later ones in the heap, which left a 10 000-path ensemble's
    process 1.5 MB larger after each call.  It stays apart from
    :func:`_shared_arrays`, as a private page is cheaper to touch first:
    each share fills its 44 x 5 000 stepping workspace in 0.90-0.94 ms
    private, 1.23-1.28 ms shared (median of 50, 2-CPU Xeon).
    """
    buf = mmap.mmap(-1, 8 * math.prod(shape), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, float).reshape(shape)


# Samples of one transposed block of drift-sample columns (256 KiB of
# float64), which _drift_buckets sums as contiguous rows.
_BUCKET_BLOCK = 1 << 15


def _drift_buckets(z: np.ndarray, death: np.ndarray) -> tuple:
    """Mean, stderr and count of the v2 drift samples in each time bucket.

    Column k of ``z`` holds every path's sample z = (v2_new - v2) / dt of
    step k; a path's samples count for the steps before the one at which
    it died (``death``).  Each column is summed over its paths in path
    order, and the columns are added in step order, so the statistics do
    not depend on how the paths were shared out.  The columns before the
    first death are copied, a block of columns at a time, into the rows of
    one contiguous buffer, which numpy sums as it sums a column, with the
    same bits; from the first death on, each column is summed over the
    paths still alive.
    """
    n_paths, n_steps = z.shape
    bucket_of = (np.arange(n_steps) * N_BUCKETS) // n_steps
    bsum, bsumsq = np.zeros(N_BUCKETS), np.zeros(N_BUCKETS)
    count = np.zeros(N_BUCKETS, dtype=np.int64)
    first_death = death.min()
    width = max(1, _BUCKET_BLOCK // n_paths)
    buf = np.empty(width * n_paths)
    for k0 in range(0, first_death, width):
        k1 = min(k0 + width, first_death)
        block = buf[:(k1 - k0) * n_paths].reshape(k1 - k0, n_paths)
        np.copyto(block, z[:, k0:k1].T)
        b = bucket_of[k0:k1]
        # np.add.at adds in index order, so each bucket sums its steps in order
        np.add.at(bsum, b, block.sum(axis=1))
        block *= block
        np.add.at(bsumsq, b, block.sum(axis=1))
        np.add.at(count, b, n_paths)
    for k in range(first_death, n_steps):
        zk = z[death > k, k]
        if len(zk):
            b = bucket_of[k]
            bsum[b] += zk.sum()
            bsumsq[b] += (zk * zk).sum()
            count[b] += len(zk)
    mean = np.full(N_BUCKETS, np.nan)
    se = np.full(N_BUCKETS, np.nan)
    nz = count > 0
    mean[nz] = bsum[nz] / count[nz]
    multi = count > 1
    var = np.maximum(bsumsq[multi] / count[multi] - mean[multi] ** 2, 0.0)
    se[multi] = np.sqrt(var / count[multi])
    return mean, se, count


def _step_paths(cl: ClosedLoop, x0: np.ndarray, dt: float, seeds: np.ndarray,
                n_steps: int, rec_steps: Optional[np.ndarray], out: dict,
                dw: np.ndarray) -> None:
    """Step the paths of ``seeds`` from ``x0`` and write their results to ``out``.

    ``out`` holds one row per path for each result: ``v2_start``,
    ``terminal`` (the final state), ``v2`` (its v2), ``sup_v2``,
    ``sup_norm_sq``, ``death`` (the step at which the path diverged, or
    n_steps) and, unless ``rec_steps`` is None, ``rec_states`` and
    ``rec_controls`` at those steps, 0 first and n_steps last.  ``dw``, of
    shape ``(len(seeds), n_steps)``, receives the paths' noise; once step k
    has used column k, the column is overwritten with every path's v2 drift
    sample z = (v2_new - v2) / dt of that step, for :func:`_drift_buckets`.

    The states are one block ``x`` of shape ``(3, len(seeds))``, updated in
    place with the pass's drift and sigma blocks, ``x += f dt`` and then
    ``x += s w`` (``s *= w`` row by row); every kernel pass
    (:func:`brockett._loop_into`) computes into one workspace, made once
    here.  The previous step's v2 is kept in a column of its own, since the
    next pass overwrites the workspace.  A step allocates no column of the
    share's size, except on a step where some path diverges.  Each kernel
    operation acts path by path, so a path's results do not depend on the
    other paths stepped with it.
    """
    n_paths = len(seeds)
    wiener_increments(dt, seeds, n_steps, out=dw)
    x = np.repeat(x0[:, None], n_paths, axis=1)
    ws = _workspace(_mapped((brockett._N_ROWS, n_paths)))
    evaluate = functools.partial(brockett._loop_into, ws, *cl.coefficients, *x)
    t = evaluate()
    out["v2_start"][:] = t.v2
    sup_v2, sup_norm_sq, death = out["sup_v2"], out["sup_norm_sq"], out["death"]
    sup_v2[:] = t.v2
    sup_norm_sq[:] = t.norm_sq
    death[:] = n_steps
    v2_prev = t.v2.copy()
    dt = np.array(dt)

    if rec_steps is not None:
        rec_states, rec_controls = out["rec_states"], out["rec_controls"]

        def record(j):
            rec_states[:, j] = x.T
            rec_controls[:, j] = t.control.T

        record(0)
        j = 1

    for k in range(n_steps):
        w = dw[:, k]
        # (x + f dt) + s w, into x; the drift and sigma blocks are spent
        x += np.multiply(t.drift, dt, out=t.drift)
        for s in t.sigma:
            s *= w
        x += t.sigma
        t = evaluate()
        np.subtract(t.v2, v2_prev, out=w)
        w /= dt
        # A NaN state fails the norm test; a finite state can still overflow
        # v2.  The sum of the |x|^2 column bounds each of its rows, and a
        # NaN or inf makes a sum non-finite, so the rows are tested one by
        # one only when a sum fails.
        if not (np.add.reduce(t.norm_sq) <= NORM_SQ_BOUND
                and math.isfinite(np.add.reduce(t.v2))):
            fine = (t.norm_sq <= NORM_SQ_BOUND) & np.isfinite(t.v2)
            newly_dead = ~fine & (death == n_steps)
            if newly_dead.any():
                # Park dead paths at the equilibrium and evaluate the loop
                # there for the next step; the stats mask them out.
                death[newly_dead] = k
                x[:, newly_dead] = 0.0
                t = evaluate()
        # A parked path sits at v2 = |x|^2 = 0, and its sups become inf later.
        np.maximum(sup_v2, t.v2, out=sup_v2)
        np.maximum(sup_norm_sq, t.norm_sq, out=sup_norm_sq)
        np.copyto(v2_prev, t.v2)
        if rec_steps is not None and k + 1 == rec_steps[j]:
            record(j)
            j += 1

    out["terminal"][:] = x.T
    out["v2"][:] = v2_prev


def _is_int(value) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _ensemble_plan(x0, dt: float, horizon: float, n_paths: int, eps: float,
                   conv_threshold: float, m_level: float, record_every: int) -> tuple:
    """Check a :func:`mc_stability` run and return ``x0`` as an array, the
    step count, the recorded steps (None when ``record_every`` is 0) and the
    results' ``{name: (shape, dtype)}`` layout.  A bad argument, or noise (8
    bytes per path-step) and results beyond physical memory, raise ValueError.
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
    layout = {"v2_start": ((n_paths,), float), "terminal": ((n_paths, 3), float),
              "v2": ((n_paths,), float), "sup_v2": ((n_paths,), float),
              "sup_norm_sq": ((n_paths,), float), "death": ((n_paths,), np.int64)}
    if record_every:
        # step 0, every record_every-th step, and the last step
        n_rec = -(-n_steps // record_every) + 1
        layout["rec_states"] = ((n_paths, n_rec, 3), float)
        layout["rec_controls"] = ((n_paths, n_rec, 2), float)
    # exact integers, so no count overflows; every dtype is 8 bytes wide
    need = 8 * (n_paths * n_steps + sum(math.prod(shape) for shape, _ in layout.values()))
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

    All paths step together as coordinate columns, and each step evaluates
    the loop's kernel once, at the new state: that one pass gives the
    divergence test its v2 and |x|^2, the next step its drift and
    diffusion, and the recording its control.  The pass computes into one
    workspace per share, reused on every step, and the state columns are
    updated in place, so a step creates no array of the share's size.
    Path i consumes increments from its own seed-word stream, so results
    are reproducible and unchanged under ensemble enlargement.
    ``record_every`` > 0 stores every k-th state and its control for all
    paths (plus the final one) for export.

    :func:`_run_shares` steps the paths in shares of at least
    ``SHARE_MIN_PATHS``, the first here and the others in forked children;
    a smaller ensemble is one share.  Each share draws its own paths' noise
    into one shared buffer and overwrites each spent noise column with that
    step's v2 drift samples, which this process then adds up in step order,
    so the drift statistics need no memory beyond the noise.  The report is
    the same bit for bit for any number of shares.  A child's failure
    raises ``RuntimeError`` naming its share's first path and the child's
    error.

    A bad ``dt``, ``horizon``, ``n_paths``, ``record_every``, ``eps``,
    ``conv_threshold``, ``m_level``, ``x0`` or ``seed``, or a run whose noise
    and results exceed physical memory, raises ``ValueError`` before anything
    is mapped, drawn or forked.
    """
    x0, n_steps, rec_steps, layout = _ensemble_plan(
        x0, dt, horizon, n_paths, eps, conv_threshold, m_level, record_every)
    seeds = path_seeds(seed, n_paths)
    res = _shared_arrays(layout)
    # a mapping of its own, which the report's views of res do not keep alive
    dw = _shared_arrays({"dw": ((n_paths, n_steps), float)})["dw"]

    def step_share(lo, hi):
        _step_paths(cl, x0, dt, seeds[lo:hi], n_steps, rec_steps,
                    {name: a[lo:hi] for name, a in res.items()}, dw[lo:hi])

    failed = _run_shares(step_share, np.ones(n_paths, np.int64), SHARE_MIN_PATHS)
    if failed is not None:
        lo, exc = failed
        raise RuntimeError(f"could not step the ensemble share from path {lo}: "
                           f"{_failure_text(exc)}")
    mean, se, count = _drift_buckets(dw, res["death"])
    del dw

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
        v2_start=float(res["v2_start"][0]),
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
    def non_increasing(self) -> bool:
        return bool(np.all(np.diff(self.max_control) <= 0.0))


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
    out = []
    for r in radii:
        u = cl.columns(*(r * dirs).T).control.T
        out.append(float(np.linalg.norm(u, axis=1).max()))
    return SmallControlReport(radii, np.asarray(out), n_dirs, seed)


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
    in blocks of batched paths, each run only to its final state; each
    one's result is that of its own path, bit for bit that of
    :func:`ode_drive` and :func:`euler_maruyama`.

    The runs (one per mesh, then the contrast) are the levels of
    :func:`_run_levels`, weighted 4 drift evaluations a step for RK4 and 1
    for Euler-Maruyama; it shares them out over processes, and the report
    is the same bit for bit for any number of shares.
    """
    meshes, n_fine = _wong_zakai_plan(x0, horizon, meshes, n_real)
    dt_fine = horizon / n_fine

    # np.zeros_like is a Python-level wrapper; np.zeros is one C call
    zero = lambda x: np.zeros(np.shape(x))
    ident = lambda x: np.asarray(x, float)
    pathwise_sys = SdeSystem(1, zero, ident, STRATONOVICH)
    ito_sys = SdeSystem(1, zero, ident, ITO)

    seeds = path_seeds(seed, n_real)
    res = _shared_arrays({"sq_err": ((len(meshes), n_real), float),
                          "log_ratio": ((n_real,), float)})
    sq_err, log_ratio = res["sq_err"], res["log_ratio"]

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
    (``integrate`` is opaque, so each step counts as one drift evaluation);
    it shares them out over processes, and the slope is the same bit for
    bit for any number of shares.  ``integrate`` and ``exact_terminal`` run
    in the children too, once per level, so what they record of their
    calls stays there.
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
    errs = _shared_arrays({"errs": ((len(dts), n_paths), float)})["errs"]

    def run(j, fine, blk):
        ref = np.asarray(exact_terminal(x0, fine.horizon, fine.values[:, -1:]), float)
        # factor 1 is the fine path itself; coarsen(1) would copy it
        traj = integrate(sys, x0, fine if factors[j] == 1 else fine.coarsen(factors[j]))
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
        write_header(fh, header_lines)
        fh.writelines(f"{key} = {value}\n" for key, value in items)
