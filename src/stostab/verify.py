"""Numerical evidence for the noise-assisted stabilizer.

Everything here reduces a stability claim to a reproducible number: grid
scans of the generator's sign, Monte Carlo estimates of convergence and
supremum-exceedance probabilities with Wilson intervals, shrinking-radius
control scans, Wong-Zakai mesh-refinement errors, and strong-order slopes.
All randomness derives from a single master seed; per-path seeds are words
of the master's seed sequence, so path i is the same no matter how many
paths run or in what order.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import brockett
from .brockett import ClosedLoop, DiffusionDesign, SystemParams
from .sde import (ITO, NORM_SQ_BOUND, STRATONOVICH, SdeSystem, _em_step,
                  _final_state, _initial_state, _n_shares, _rk4_step,
                  _run_shares, piecewise_linear_lift, sample_wiener,
                  wiener_increments, write_csv, write_header)


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
    re-randomizing existing paths.
    """
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


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid; each axis is a (min, max, count) triple.

    A degenerate axis (count = 1 with min = max) pins a slice, which is how
    the x2 = 0 plane scans are expressed.  ``exclude_radius`` drops points
    with |x| below it.
    """

    axis1: tuple
    axis2: tuple
    axis3: tuple
    exclude_radius: float = 0.0

    def __post_init__(self):
        for ax in (self.axis1, self.axis2, self.axis3):
            lo, hi, count = ax
            if int(count) != count or count < 1:
                raise ValueError(f"axis count must be a positive integer, got {count}")
            if count == 1:
                if lo != hi:
                    raise ValueError("a single-point axis needs min == max")
            elif not lo < hi:
                raise ValueError(f"axis needs min < max, got ({lo}, {hi})")
        if self.exclude_radius < 0:
            raise ValueError("exclude_radius must be nonnegative")

    @staticmethod
    def cube(lo: float, hi: float, count: int, exclude_radius: float = 0.0) -> "GridSpec":
        ax = (lo, hi, count)
        return GridSpec(ax, ax, ax, exclude_radius)

    @staticmethod
    def slice_x2(lo: float, hi: float, count: int, exclude_radius: float = 0.0) -> "GridSpec":
        ax = (lo, hi, count)
        return GridSpec(ax, (0.0, 0.0, 1), ax, exclude_radius)

    def axis_values(self, i: int) -> np.ndarray:
        lo, hi, count = (self.axis1, self.axis2, self.axis3)[i]
        return np.linspace(lo, hi, int(count))

    def points(self) -> np.ndarray:
        """All grid points outside the exclusion ball, shape (N, 3)."""
        a1, a2, a3 = (self.axis_values(i) for i in range(3))
        m1, m2, m3 = np.meshgrid(a1, a2, a3, indexing="ij")
        pts = np.stack([m1.ravel(), m2.ravel(), m3.ravel()], axis=-1)
        if self.exclude_radius > 0.0:
            keep = np.linalg.norm(pts, axis=1) >= self.exclude_radius
            pts = pts[keep]
        return pts


@dataclass(eq=False)
class ScanReport:
    """Generator values over a grid, with sign violations singled out.

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


# A grid point too large for float arithmetic overflows to a NaN LV, which
# counts as a violation.
@np.errstate(over="ignore", invalid="ignore")
def scan_generator(cl: ClosedLoop, grid: GridSpec) -> ScanReport:
    """Evaluate the closed-loop generator of v2 on every grid point.

    One kernel pass gives LV = F + L_g v2 . u; every value that is not
    negative, NaN included, is a violation.  The grid must exclude a ball
    of radius at least 1e-3 around the origin, where the generator
    degenerates to zero by construction, and keep at least one point.
    """
    if grid.exclude_radius < 1e-3:
        raise ValueError("grid must exclude a ball of radius >= 1e-3 around the origin")
    pts = grid.points()
    if len(pts) == 0:
        raise ValueError("empty grid: every point lies inside the exclusion "
                         f"ball of radius {grid.exclude_radius:g}")
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
    """Outcome of the control-Lyapunov condition check on a grid.

    The condition is tested only where the control derivative nearly
    vanishes (there is nothing to check elsewhere); ``vacuous`` flags grids
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
                         grid: GridSpec) -> SclfReport:
    """On the grid points where ||L_g v2|| < 1e-6, test the noise condition

        (1/2) B^T (g^T Hess v2 g) B + (1/2) grad v2 . (d(gB)/dx)(gB) < -L_f v2.

    The plant is driftless, so L_f v2 = 0.  Where L_g v2 = 0 the
    pre-feedback g v adds nothing to the generator, so the left side is the
    kernel's F, read from one :func:`brockett.loop_columns` pass.  The
    origin is left out: it is the equilibrium, where F = 0 by construction
    and the strict inequality cannot hold.
    """
    pts = grid.points()
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


def _ensemble_shares(n_paths: int) -> int:
    """Processes that step an ensemble of ``n_paths`` paths."""
    return _n_shares(n_paths, n_paths, SHARE_MIN_PATHS)


def _shared_arrays(layout: dict) -> dict:
    """``{name: (shape, dtype)}`` as zeroed arrays in one anonymous shared mapping.

    A forked child writes into them what this process then reads.  Every
    dtype is 8 bytes wide, so every array is aligned.
    """
    sizes = {name: int(np.prod(shape)) for name, (shape, _) in layout.items()}
    buf = mmap.mmap(-1, 8 * sum(sizes.values()))
    arrays, offset = {}, 0
    for name, (shape, dtype) in layout.items():
        arrays[name] = np.frombuffer(buf, dtype, sizes[name], offset).reshape(shape)
        offset += 8 * sizes[name]
    return arrays


class _DriftBuckets:
    """Sums of the v2 drift samples z = (v2_new - v2) / dt per time bucket."""

    def __init__(self, n_steps: int):
        self.bucket_of = (np.arange(n_steps) * N_BUCKETS) // n_steps
        self.sum = np.zeros(N_BUCKETS)
        self.sumsq = np.zeros(N_BUCKETS)
        self.count = np.zeros(N_BUCKETS, dtype=np.int64)

    def add(self, k: int, z: np.ndarray, ok: Optional[np.ndarray]) -> None:
        """Add step k's samples ``z``, of the paths in mask ``ok`` (None: all)."""
        if ok is not None:
            z = z[ok]
        if len(z):
            b = self.bucket_of[k]
            self.sum[b] += z.sum()
            self.sumsq[b] += (z * z).sum()
            self.count[b] += len(z)


def _step_paths(cl: ClosedLoop, x0: np.ndarray, dt: float, seeds: np.ndarray,
                n_steps: int, record_every: int, out: dict,
                drift: Callable) -> None:
    """Step the paths of ``seeds`` from ``x0`` and write their results to ``out``.

    ``out`` holds one row per path for each result: ``v2_start``,
    ``terminal`` (the final state), ``v2`` (its v2), ``sup_v2``,
    ``sup_norm_sq``, ``death`` (the step at which the path diverged, or
    n_steps) and, when ``record_every`` > 0, ``rec_states`` and
    ``rec_controls``.  After step k, ``drift(k, z, ok)`` gets every path's
    v2 drift sample z and the mask of the paths alive after the step, or
    None while every path lives.  Each kernel operation acts row by row, so
    a path's results do not depend on the other paths stepped with it.
    """
    n_paths = len(seeds)
    dw = wiener_increments(dt, seeds, n_steps)
    x1, x2, x3 = (np.full(n_paths, c) for c in x0)
    t = cl.columns(x1, x2, x3)
    alive = np.ones(n_paths, dtype=bool)
    all_alive = True
    v2 = t.v2
    out["v2_start"][:] = v2
    sup_v2, sup_norm_sq, death = out["sup_v2"], out["sup_norm_sq"], out["death"]
    sup_v2[:] = v2
    sup_norm_sq[:] = t.norm_sq
    death[:] = n_steps

    recording = record_every > 0
    if recording:
        rec_states, rec_controls = out["rec_states"], out["rec_controls"]
        j = 0

        def record(j):
            rec_states[:, j] = np.column_stack((x1, x2, x3))
            rec_controls[:, j] = np.column_stack(t.control)

        record(0)

    for k in range(n_steps):
        w = dw[:, k]
        (f1, f2, f3), (s1, s2, s3) = t.drift, t.sigma
        x1 = x1 + f1 * dt + s1 * w
        x2 = x2 + f2 * dt + s2 * w
        x3 = x3 + f3 * dt + s3 * w
        t = cl.columns(x1, x2, x3)
        # A NaN state fails the norm test; a finite state can still overflow v2.
        fine = (t.norm_sq <= NORM_SQ_BOUND) & np.isfinite(t.v2)
        z = (t.v2 - v2) / dt
        ok = None
        if not (all_alive and fine.all()):
            ok = alive & fine
            newly_dead = alive & ~fine
            alive = ok
            if newly_dead.any():
                # Park dead paths at the equilibrium and evaluate the loop
                # there for the next step; the stats mask them out.
                all_alive = False
                death[newly_dead] = k
                for col in (x1, x2, x3):
                    col[newly_dead] = 0.0
                t = cl.columns(x1, x2, x3)
        # A parked path sits at v2 = |x|^2 = 0, and its sups become inf later.
        np.maximum(sup_v2, t.v2, out=sup_v2)
        np.maximum(sup_norm_sq, t.norm_sq, out=sup_norm_sq)
        drift(k, z, ok)
        v2 = t.v2
        if recording and ((k + 1) % record_every == 0 or k + 1 == n_steps):
            j += 1
            record(j)

    out["terminal"][:] = np.column_stack((x1, x2, x3))
    out["v2"][:] = v2


# Diverging paths overflow on their way out; n_diverged reports them.
@np.errstate(over="ignore", invalid="ignore")
def mc_stability(cl: ClosedLoop, x0, dt: float, horizon: float, n_paths: int,
                 eps: float, conv_threshold: float, m_level: float, seed: int,
                 record_every: int = 0) -> StabilityReport:
    """Euler-Maruyama ensemble of the closed loop with common bookkeeping.

    All paths step together as coordinate columns, and each step evaluates
    the loop once, through ``cl.columns``, at the new state: that one pass
    gives the divergence test its v2 and |x|^2, the next step its drift and
    diffusion, and the recording its control.  Path i consumes increments
    from its own seed-word stream, so results are reproducible and
    unchanged under ensemble enlargement.  ``record_every`` > 0 stores every
    k-th state and its control for all paths (plus the final one) for
    export.

    The paths are stepped in contiguous shares, one ``os.fork`` child per
    CPU the process may run on, when each share holds at least
    ``SHARE_MIN_PATHS`` paths; a smaller ensemble is stepped in this
    process.  Each share draws its own paths' noise, and the children write
    each step's v2 drift samples, 8 bytes per path-step on top of the
    noise, for this process to add up in step order.  The report is the
    same bit for bit for any number of shares.  A child's failure raises
    ``RuntimeError`` naming its share's first path and the child's error.
    """
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not (dt <= horizon and np.isfinite(horizon / dt)):
        raise ValueError(f"horizon must be at least dt and span finitely many "
                         f"steps, got {horizon!r}")
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    if (isinstance(record_every, (bool, np.bool_))
            or not isinstance(record_every, (int, np.integer)) or record_every < 0):
        raise ValueError(f"record_every must be a nonnegative integer, got {record_every!r}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (3,):
        raise ValueError(f"x0 must have shape (3,), got {x0.shape}")
    n_steps = int(np.floor(horizon / dt + 1e-9))
    seeds = path_seeds(seed, n_paths)

    layout = {"v2_start": (n_paths, float), "terminal": ((n_paths, 3), float),
              "v2": (n_paths, float), "sup_v2": (n_paths, float),
              "sup_norm_sq": (n_paths, float), "death": (n_paths, np.int64)}
    recording = record_every > 0
    if recording:
        # step 0, every record_every-th step, and the last step
        rec_steps = np.minimum(np.arange(0, n_steps + record_every, record_every), n_steps)
        layout["rec_states"] = ((n_paths, len(rec_steps), 3), float)
        layout["rec_controls"] = ((n_paths, len(rec_steps), 2), float)
    res = _shared_arrays(layout)
    buckets = _DriftBuckets(n_steps)
    n_shares = _ensemble_shares(n_paths)
    split = n_shares > 1
    if split:
        z_rows = _shared_arrays({"z": ((n_steps, n_paths), float)})["z"]

    def step_share(lo, hi):
        if split:
            def drift(k, z, ok):
                z_rows[k, lo:hi] = z
        else:
            drift = buckets.add
        _step_paths(cl, x0, dt, seeds[lo:hi], n_steps, record_every,
                    {name: a[lo:hi] for name, a in res.items()}, drift)

    # split, this process only waits: stepping a share here too would hold
    # that share's noise beside the drift samples
    failed = _run_shares(step_share, n_paths, n_shares, n_local=int(not split))
    if failed is not None:
        raise RuntimeError("could not step the ensemble share from path %d: %s" % failed)
    if split:
        # the samples of step k, in path order, of the paths alive after it
        first_death = res["death"].min()
        for k, z in enumerate(z_rows):
            buckets.add(k, z, res["death"] > k if k >= first_death else None)
        del z_rows

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
    bsum, bsumsq, bcount = buckets.sum, buckets.sumsq, buckets.count
    mean = np.full(N_BUCKETS, np.nan)
    se = np.full(N_BUCKETS, np.nan)
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
        bucket_counts=bcount,
        terminal_states=x,
        record_times=rec_steps * dt if recording else None,
        record_states=res["rec_states"] if recording else None,
        record_controls=res["rec_controls"] if recording else None,
    )
    return report


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
        u = cl.control(r * dirs)
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
    """
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
    dt_fine = horizon / n_fine

    # np.zeros_like is a Python-level wrapper; np.zeros is one C call
    zero = lambda x: np.zeros(np.shape(x))
    ident = lambda x: np.asarray(x, float)
    pathwise_sys = SdeSystem(1, zero, ident, STRATONOVICH)
    ito_sys = SdeSystem(1, zero, ident, ITO)

    seeds = path_seeds(seed, n_real)
    sq_err = np.empty((len(meshes), n_real))
    log_ratio = np.empty(n_real)
    # every run keeps only its final state, and every mesh divides n_fine,
    # so each lift is a view: a block holds its fine path and nothing more
    for blk in _path_blocks(n_real, n_fine + 1):
        path = sample_wiener(dt_fine, horizon, seeds[blk])
        oracle = x0 * np.exp(path.values[:, -1])
        x = _initial_state(ito_sys, [x0], path.values.shape[:-1])
        for j, m in enumerate(meshes):
            lift = piecewise_linear_lift(path, n_fine // m)
            x_n = _final_state(x, lift.knot_times, _rk4_step(pathwise_sys, lift))
            sq_err[j, blk] = (x_n[:, 0] - oracle) ** 2
        x_n = _final_state(x, path.times, _em_step(ito_sys, path))
        log_ratio[blk] = np.log(x_n[:, 0] / oracle)
        # the next block's path must not be drawn beside this one
        del path, lift
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
    n_fine = int(np.floor(horizon / dt_min + 1e-9))
    for fac in factors:
        if n_fine % fac != 0:
            raise ValueError("every step size must divide the horizon evenly")

    x0 = np.asarray(x0, dtype=float)
    seeds = path_seeds(seed, n_paths)
    errs = np.empty((len(dts), n_paths))
    # a row holds its fine path and the state history of one integrator run
    for blk in _path_blocks(n_paths, 2 * (n_fine + 1)):
        fine = sample_wiener(dt_min, horizon, seeds[blk])
        ref = np.asarray(exact_terminal(x0, fine.horizon, fine.values[:, -1:]), float)
        for j, fac in enumerate(factors):
            # factor 1 is the fine path itself; coarsen(1) would copy it
            traj = integrate(sys, x0, fine if fac == 1 else fine.coarsen(fac))
            errs[j, blk] = np.linalg.norm(traj.terminal - ref, axis=-1)
            del traj
        del fine, ref
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
