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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import brockett
from .brockett import ClosedLoop, DiffusionDesign, SystemParams
from .lyapunov import ScalarField, generator, v2_eval, v2_field, v2_gradient
from .sde import (DIVERGENCE_BOUND, ITO, STRATONOVICH, SdeSystem,
                  euler_maruyama, ode_drive, piecewise_linear_lift,
                  sample_wiener, stratonovich_to_ito, wiener_increments,
                  write_csv, write_header)


# Path samples held at once by the per-path experiments (512 KB of float64):
# blocks of 16 paths at 4096 steps.
_BLOCK_SAMPLES = 1 << 16


def _path_blocks(n_paths: int, n_steps: int):
    """Consecutive slices of at most _BLOCK_SAMPLES // n_steps paths each."""
    rows = max(1, _BLOCK_SAMPLES // n_steps)
    for lo in range(0, n_paths, rows):
        yield slice(lo, min(lo + rows, n_paths))


def path_seeds(master_seed: int, n: int) -> np.ndarray:
    """First ``n`` words of the master seed sequence, one per path.

    Word i does not depend on n, so enlarging an ensemble extends it without
    re-randomizing existing paths.
    """
    return np.random.SeedSequence(master_seed).generate_state(n, dtype=np.uint64)


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= successes <= n:
        raise ValueError("successes must lie in [0, n]")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = z * np.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    return center - half, center + half


def wilson_halfwidth(successes: int, n: int, z: float = 1.959963984540054) -> float:
    lo, hi = wilson_interval(successes, n, z)
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

    ``violations`` collects the points where the generator is >= 0; the
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


def scan_generator(cl: ClosedLoop, grid: GridSpec,
                   field: Optional[ScalarField] = None) -> ScanReport:
    """Evaluate the closed-loop generator of v2 on every grid point.

    The grid must exclude a ball of radius at least 1e-3 around the origin,
    where the generator degenerates to zero by construction.
    """
    if grid.exclude_radius < 1e-3:
        raise ValueError("grid must exclude a ball of radius >= 1e-3 around the origin")
    if field is None:
        field = v2_field()
    pts = grid.points()
    br = generator(field, cl.sde.drift, cl.sde.diffusion, pts)
    lv = br.value()
    bad = lv >= 0.0
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


def sclf_condition_check(f: Optional[Callable], g: Callable, b: Callable,
                         field: ScalarField, grid: GridSpec,
                         lg_tol: float = 1e-6) -> SclfReport:
    """On points where ||grad V . g|| < lg_tol, test the noise condition

        (1/2) B^T (g^T Hess V g) B + (1/2) grad V . (d(gB)/dx)(gB) < -L_f V.

    ``f`` may be None for a driftless plant.  The margin is the generator of
    V along the Ito form of dx = f dt + (gB) o dw, whose d(gB)/dx is taken by
    central differences so arbitrary (g, B) callables can be audited.
    """
    pts = grid.points()
    lg = generator(field, None, None, pts, control_matrix=g).lg_v
    mask = np.linalg.norm(lg, axis=-1) < lg_tol
    if not mask.any():
        return SclfReport(0, 0, np.empty(0), np.empty((0, 3)), True)
    sub = pts[mask]

    def sig(y):
        bv = b(y)
        bv = np.stack(bv, axis=-1) if isinstance(bv, tuple) else np.asarray(bv, float)
        return np.einsum('...ik,...k->...i', np.asarray(g(y), float), bv)

    ito = stratonovich_to_ito(SdeSystem(3, f or np.zeros_like, sig, STRATONOVICH))
    margins = generator(field, ito.drift, ito.diffusion, sub).value()
    holds = margins < 0.0
    return SclfReport(int(mask.sum()), int(holds.sum()), margins, sub, False)


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

    @property
    def drift_nonpositive_2se(self) -> bool:
        """True when every bucket's mean v2 drift is <= 0 within 2 stderr.

        Only buckets with more than one sample have a stderr; with none of
        them there is no evidence either way, and the answer is False.
        """
        ok = self.bucket_counts > 1
        return bool(ok.any() and np.all(self.bucket_mean_drift[ok]
                                         <= 2.0 * self.bucket_stderr[ok]))


# Diverging paths overflow on their way out; n_diverged reports them.
@np.errstate(over="ignore", invalid="ignore")
def mc_stability(cl: ClosedLoop, x0, dt: float, horizon: float, n_paths: int,
                 eps: float, conv_threshold: float, m_level: float, seed: int,
                 n_buckets: int = 50, record_every: int = 0) -> StabilityReport:
    """Euler-Maruyama ensemble of the closed loop with common bookkeeping.

    All paths step together as one batched state array, and each step
    evaluates the loop once through ``cl.terms``; path i consumes
    increments from its own seed-word stream, so results are reproducible
    and unchanged under ensemble enlargement.  ``record_every`` > 0 stores
    every k-th state for all paths (plus the final one) for export.
    """
    if dt <= 0 or horizon < dt:
        raise ValueError("need dt > 0 and horizon >= dt")
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    if n_buckets < 1:
        raise ValueError("n_buckets must be positive")
    x0 = np.asarray(x0, dtype=float)
    n_steps = int(np.floor(horizon / dt + 1e-9))
    dw = wiener_increments(dt, path_seeds(seed, n_paths), n_steps)

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
        terms = cl.terms(x)
        x_new = x + terms.drift * dt + terms.sigma * dw[:, k, None]
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
            bsum[b] += z.sum()
            bsumsq[b] += (z * z).sum()
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


def small_control_scan(cl: ClosedLoop, radii, n_dirs: int, seed: int) -> SmallControlReport:
    """Evaluate max ||u_s|| on spheres of decreasing radius.

    The same unit directions are reused at every radius, so the decay of the
    sequence reflects the control law rather than sampling noise.
    """
    radii = tuple(float(r) for r in radii)
    if any(r <= 0 for r in radii) or any(a >= b for a, b in zip(radii[1:], radii)):
        raise ValueError("radii must be positive and strictly decreasing")
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
class FormulaCheckReport:
    """Agreement between closed-form displays and the generator route."""

    n_points: int
    max_abs_drift_term: float
    n_slice: int
    max_abs_control_quadratic: float
    max_abs_noise_quadratic: float


def lfv2_formula_check(p: SystemParams, d: DiffusionDesign,
                       grid: GridSpec) -> FormulaCheckReport:
    """Cross-check three hand-derived expressions against direct evaluation.

    (a) The drift term grad v2 . (0, 0, -(1/2)(b1 b4 - b2 b3) B1 B2) against
    its expanded closed form; (b) on the x3 = 0 slice, ||L_g v2||^2 against
    b1^2 x1^2 + b2^2 x2^2; (c) same slice, the noise quadratic B^T H B
    against its expanded form.  All comparisons skip X <= 1e-3 where the
    expansions lose meaning.
    """
    pts = grid.points()
    big_x = pts[:, 0] ** 2 + pts[:, 1] ** 2
    pts = pts[big_x > 1e-3]
    big_x = big_x[big_x > 1e-3]
    x3 = pts[:, 2]
    b1v, b2v = brockett.diffusion_b(d, p, pts)
    coef = p.b2 * p.b3 - p.b1 * p.b4
    f3 = 0.5 * coef * b1v * b2v
    direct = v2_gradient(pts)[:, 2] * f3
    closed = -(2.0 ** (-1.0 - 0.5 * x3 ** 2)) * b1v * b2v * coef * x3 * (
        2.0 ** (0.5 * x3 ** 2) * (big_x - 4.0)
        + big_x ** (1.0 + 0.5 * x3 ** 2) * np.log(2.0 / big_x))
    max_drift = float(np.abs(direct - closed).max()) if len(pts) else 0.0

    a1 = grid.axis_values(0)
    a2 = grid.axis_values(1)
    m1, m2 = np.meshgrid(a1, a2, indexing="ij")
    flat = np.stack([m1.ravel(), m2.ravel(), np.zeros(m1.size)], axis=-1)
    xf = flat[:, 0] ** 2 + flat[:, 1] ** 2
    flat = flat[xf > 1e-3]
    xf = xf[xf > 1e-3]
    lg = generator(v2_field(), None, None, flat,
                   control_matrix=lambda y: brockett.g_matrix(p, y)).lg_v
    g_direct = np.einsum('...k,...k->...', lg, lg)
    g_closed = p.b1 ** 2 * flat[:, 0] ** 2 + p.b2 ** 2 * flat[:, 1] ** 2
    max_g = float(np.abs(g_direct - g_closed).max()) if len(flat) else 0.0

    b1f, b2f = brockett.diffusion_b(d, p, flat)
    bvec = np.stack([b1f, b2f], axis=-1)
    h = brockett.h_matrix(p, flat)
    bhb_direct = np.einsum('...k,...kl,...l->...', bvec, h, bvec)
    cross = (p.b4 * b2f * flat[:, 0] - p.b3 * b1f * flat[:, 1]) ** 2
    bhb_closed = p.b1 ** 2 * b1f ** 2 + p.b2 ** 2 * b2f ** 2 \
        - xf * cross * np.log(2.0 / xf) - (xf - 4.0) * cross
    max_bhb = float(np.abs(bhb_direct - bhb_closed).max()) if len(flat) else 0.0

    return FormulaCheckReport(len(pts), max_drift, len(flat), max_g, max_bhb)


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


def wong_zakai_experiment(x0: float, horizon: float, meshes, n_real: int,
                          seed: int) -> WongZakaiReport:
    """Drive dx = x dw pathwise through piecewise-linear lifts of one fine path.

    For each realization the same fine path is lifted at every mesh, the ODE
    is integrated with RK4 steps aligned to the knots, and the terminal value
    is compared with x0 exp(w(T)).  An uncorrected Ito Euler-Maruyama run on
    the fine mesh provides the contrast statistic.  Realizations are stepped
    in blocks of batched paths; each one's result is that of its own path.
    """
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

    ident = lambda x: np.asarray(x, float)
    pathwise_sys = SdeSystem(1, np.zeros_like, ident, STRATONOVICH)
    ito_sys = SdeSystem(1, np.zeros_like, ident, ITO)

    seeds = path_seeds(seed, n_real)
    sq_err = np.empty((len(meshes), n_real))
    log_ratio = np.zeros(n_real)
    for blk in _path_blocks(n_real, n_fine):
        path = sample_wiener(dt_fine, horizon, seeds[blk])
        oracle = x0 * np.exp(path.values[:, -1])
        for j, m in enumerate(meshes):
            lift = piecewise_linear_lift(path, n_fine // m)
            traj = ode_drive(pathwise_sys, [x0], lift)
            sq_err[j, blk] = (traj.terminal[:, 0] - oracle) ** 2
        em = euler_maruyama(ito_sys, [x0], path)
        if x0 != 0.0:
            log_ratio[blk] = np.log(em.terminal[:, 0] / oracle)
        del path, lift, traj, em
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
    for blk in _path_blocks(n_paths, n_fine):
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
