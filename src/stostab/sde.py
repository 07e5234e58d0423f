"""Wiener paths, piecewise-linear noise, and single-channel SDE integrators.

Systems are described by a drift f(x) and a single-channel diffusion
sigma(x) under a declared stochastic-integral convention (Ito or
Stratonovich).  State-valued callables must broadcast over a leading batch
axis: they accept arrays of shape ``(dim,)`` or ``(N, dim)`` and return the
same shape.  Every integrator is driven by an explicit, pre-sampled
:class:`WienerPath`, so a simulation is a pure function of the system, the
initial state, and the path seed.

Paths come singly or in batches: ``sample_wiener`` given a sequence of N
seeds returns one ``(N, n+1)`` array whose row i is bit for bit the path of
seed i alone, the increments of ``numpy.random.default_rng(seed)`` (seeds
are integers in [0, 2**64)).  Sampling, coarsening and lifting act on the
last axis.  The integrators step a batch as one array: x0 of shape
``(dim,)`` (for every row) or ``(N, dim)`` gives states of shape
``(n+1, N, dim)``, whose row i is the single-path run on seed i.  A batch
raises :class:`IntegrationDiverged` at the first step where any row leaves
the finite range.  One dot product screens the batch; only a total |x|^2
above half the squared bound, inf or NaN runs the per-row test.

Each scheme is a step rule ``(x_k, k) -> x_{k+1}``, run by ``_step_path``,
which records every state, or by ``_final_state`` (the Wong-Zakai
experiment), which keeps only x_n, with the same bits and exception.
"""

from __future__ import annotations

import functools
import os
import pickle
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

ITO = "ito"
STRATONOVICH = "stratonovich"

# Euclidean norm beyond which an integration is declared divergent.
DIVERGENCE_BOUND = 1e12


# The largest double whose rounded square root is <= DIVERGENCE_BOUND, so
# |x|^2 <= NORM_SQ_BOUND is exactly the test |x| <= DIVERGENCE_BOUND on a
# correctly rounded norm; DIVERGENCE_BOUND ** 2 alone is one double short.
NORM_SQ_BOUND = float(np.nextafter(DIVERGENCE_BOUND ** 2, np.inf))


class IntegrationDiverged(RuntimeError):
    """State left the finite range ``|x| <= DIVERGENCE_BOUND``.

    Carries the failure time in ``time`` and the last finite state in
    ``state`` (for a batch, the states of all its rows at that step).
    """

    def __init__(self, time: float, state=None):
        super().__init__(f"integration diverged at t={time:.6g}")
        self.time = float(time)
        self.state = state

    def __reduce__(self):
        # pickled by its arguments, so a forked child's exception keeps them
        return type(self), (self.time, self.state)


def _finite(x: np.ndarray) -> bool:
    """Every row has |x| <= DIVERGENCE_BOUND; NaN compares False, so it fails.

    The batch's total |x|^2 bounds every row's, so one ``vdot`` at most half
    the bound settles the common case; the factor 2 covers any rounding of
    the total.  A larger total, inf or NaN takes the exact per-row test, so
    the answer is always that of the per-row test.
    """
    if np.vdot(x, x) <= 0.5 * NORM_SQ_BOUND:
        return True
    with np.errstate(over="ignore"):  # a square beyond the float range fails
        return bool(((x * x).sum(-1) <= NORM_SQ_BOUND).all())


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
    """Equispaced samples of a scalar Wiener path, ``values[..., 0] == 0``.

    ``values[..., k]`` approximates w(k dt); a batch of N paths on one
    mesh has ``values`` of shape ``(N, n+1)``.
    """

    dt: float
    values: np.ndarray

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.values.shape[-1] < 2:
            raise ValueError("a path needs at least two samples")
        if np.any(self.values[..., 0] != 0.0):
            raise ValueError("paths start at w = 0")

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.values.shape[-1])

    @property
    def horizon(self) -> float:
        return self.dt * (self.values.shape[-1] - 1)

    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=-1)

    def coarsen(self, factor: int) -> "WienerPath":
        """Keep every ``factor``-th sample, as a strided view of ``values``.

        The coarse increments are sums of the fine ones, so both paths
        describe the same underlying realization; convergence studies use
        this to share noise across mesh levels.
        """
        if factor < 1 or int(factor) != factor:
            raise ValueError(f"factor must be a positive integer, got {factor}")
        if (self.values.shape[-1] - 1) % factor != 0:
            raise ValueError("factor must divide the number of increments")
        return WienerPath(self.dt * factor, self.values[..., ::factor])


# numpy's SeedSequence hash (O'Neill's seed_seq_fe, numpy/random/bit_generator.pyx)
# on a pool of four uint32 words.  The hash constants it steps through do not
# depend on the data, so each call's xor word and multiplier are listed once,
# as (n, 1) columns that broadcast over the seeds.  Call k multiplies by the
# word call k + 1 xors with.
def _hash_constants(init: int, mult: int, n: int) -> tuple:
    words = [init]
    for _ in range(n):
        words.append(words[-1] * mult & 0xFFFFFFFF)
    words = np.array(words, np.uint32)[:, None]
    return words[:-1], words[1:]


_POOL_XOR, _POOL_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 4 + 12)   # fill, cross-mix
_STATE_XOR, _STATE_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)      # 8 output words
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# Cross-mix pass ``src``: the other three pool rows, in hashing order.
_CROSS_DST = [[dst for dst in range(4) if dst != src] for src in range(4)]


# Each builds one new array and updates it in place, so a call holds at most
# one temporary beside it: with 10 000 seeds, fresh arrays per operation cost
# more time and memory than the hashing itself.
def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x
    r -= _MIX_R * y
    r ^= r >> 16
    return r


def seed_states(seeds: np.ndarray) -> np.ndarray:
    """Row i: ``SeedSequence(seeds[i]).generate_state(4, np.uint64)``, all rows at once.

    ``seeds`` is a 1-d uint64 array.  Each seed enters the pool as the words
    (lo32, hi32, 0, 0).  numpy turns a seed below 2**32 into one word, but
    it hashes each missing pool word as 0, so such seeds need no branch.
    The pool is one (4, n) array.  Source row ``src`` does not change during
    its own cross-mix pass, so the pass hashes it three times and mixes the
    other three rows in one (3, n) step each.  The output is written one
    column at a time: an (8, n) block and its transpose cost more than they
    save once n reaches the thousands.
    """
    pool = np.zeros((4, len(seeds)), np.uint32)
    pool[0] = seeds             # assignment keeps the low 32 bits
    pool[1] = seeds >> 32
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MULT[:4])
    for src, dst in enumerate(_CROSS_DST):
        k = slice(4 + 3 * src, 7 + 3 * src)
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _POOL_XOR[k], _POOL_MULT[k]))
    state = np.empty((len(seeds), 8), np.uint32)
    for k in range(8):
        state[:, k] = _hashmix(pool[k % 4], _STATE_XOR[k], _STATE_MULT[k])
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _is_int(value) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _seed_array(seeds) -> np.ndarray:
    """``seeds`` as a 1-d uint64 array; a bool, float, negative or >= 2**64 seed is an error."""
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        negative = seeds[seeds < 0]
        if negative.size:
            raise ValueError(f"seed {negative[0]!r} is not an integer in [0, 2**64)")
        return seeds.astype(np.uint64, copy=False)
    for s in seeds:
        if not (_is_int(s) and 0 <= int(s) < 2**64):
            raise ValueError(f"seed {s!r} is not an integer in [0, 2**64)")
    return np.array(seeds, dtype=np.uint64)


@functools.cache
def _stream_from_state():
    """``state -> Generator`` on a PCG64 whose seed-sequence words are ``state``.

    numpy.random is imported here, on the first draw: ``import numpy`` does
    not load it, and loading it would add to every start-up.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        # PCG64 asks its seed sequence for generate_state(4, np.uint64), once
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return lambda state: Generator(PCG64(StateWords(state)))


def wiener_increments(dt: float, seeds, n_steps: int,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row i: n_steps i.i.d. N(0, dt) draws from ``default_rng(seeds[i])``.

    Every seed is hashed into its PCG64 state in one vectorized pass
    (:func:`seed_states`) instead of one ``SeedSequence`` per path; each
    row is bit for bit ``default_rng(seeds[i]).standard_normal(n_steps)``
    times sqrt(dt).  Seeds are integers in [0, 2**64); a bool, float,
    negative or larger seed raises ValueError.  The draws fill ``out``
    (shape ``(len(seeds), n_steps)``, rows contiguous) when it is given,
    which is also returned.
    """
    seeds = _seed_array(seeds)
    if out is None:
        out = np.empty((len(seeds), n_steps))
    elif out.shape != (len(seeds), n_steps):
        raise ValueError(f"out must have shape ({len(seeds)}, {n_steps}), got {out.shape}")
    stream = _stream_from_state()
    for row, state in zip(out, seed_states(seeds)):
        stream(state).standard_normal(out=row)
    out *= np.sqrt(dt)
    return out


def _step_count(horizon: float, dt: float) -> int:
    """Steps of size ``dt`` in ``horizon``: floor(horizon / dt), forgiving a
    quotient that rounding leaves just below an integer (0.3 / 0.1 is 3)."""
    return int(np.floor(horizon / dt + 1e-9))


def sample_wiener(dt: float, horizon: float, seed) -> WienerPath:
    """Sample a Wiener path on floor(horizon/dt) + 1 equispaced points.

    The increments are those of :func:`wiener_increments` for ``seed``.  A
    sequence of seeds gives a batch: ``values`` of shape ``(N, n+1)`` whose
    row i is the path of ``seed[i]``, drawn and summed in place in that one
    array.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if horizon < dt:
        raise ValueError(f"horizon must be at least dt, got {horizon} < {dt}")
    single = np.ndim(seed) == 0
    seeds = _seed_array([seed] if single else seed)
    if not len(seeds):
        raise ValueError("need at least one seed")
    n = _step_count(horizon, dt)
    w = np.zeros((len(seeds), n + 1))
    dw = wiener_increments(dt, seeds, n, out=w[:, 1:])
    np.cumsum(dw, axis=-1, out=dw)
    return WienerPath(dt, w[0] if single else w)


@dataclass(frozen=True, eq=False)
class PiecewiseLinearNoise:
    """Continuous piecewise-linear interpolant through noise knots.

    ``knot_values`` has shape ``(K,)``, or ``(N, K)`` for a batch of N
    interpolants on the same knot times.  Calling it at times ``t`` returns
    shape ``knot_values.shape[:-1] + np.shape(t)``: each interpolant is
    evaluated on its own.
    """

    knot_times: np.ndarray
    knot_values: np.ndarray

    def __post_init__(self):
        if len(self.knot_times) != self.knot_values.shape[-1]:
            raise ValueError("knot arrays must have equal length")
        if len(self.knot_times) < 2:
            raise ValueError("need at least two knots")
        if np.any(np.diff(self.knot_times) <= 0):
            raise ValueError("knot times must be strictly increasing")

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.knot_values, axis=-1) / np.diff(self.knot_times)

    def __call__(self, t):
        if self.knot_values.ndim == 1:
            return np.interp(t, self.knot_times, self.knot_values)
        rows = self.knot_values.reshape(-1, self.knot_values.shape[-1])
        values = [np.interp(t, self.knot_times, row) for row in rows]
        return np.reshape(values, self.knot_values.shape[:-1] + np.shape(t))


def piecewise_linear_lift(path: WienerPath, coarsening: int) -> PiecewiseLinearNoise:
    """Lift a sampled path to a piecewise-linear function of time.

    Knots sit at every ``coarsening``-th sample; the last sample is always a
    knot, so the lift agrees with the path at the final time even when
    ``coarsening`` does not divide the sample count.  When it does divide,
    the knot values are a strided view of ``path.values``, not a copy.
    """
    if coarsening < 1 or int(coarsening) != coarsening:
        raise ValueError(f"coarsening must be a positive integer, got {coarsening}")
    n_samples = path.values.shape[-1]
    if (n_samples - 1) % coarsening == 0:
        return PiecewiseLinearNoise(path.times[::coarsening],
                                    path.values[..., ::coarsening])
    idx = np.append(np.arange(0, n_samples, coarsening), n_samples - 1)
    return PiecewiseLinearNoise(path.times[idx], path.values[..., idx])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time grid, states, and (optionally) the control recorded along a run.

    ``states`` has shape ``(n+1, dim)``, or ``(n+1, N, dim)`` for a batch.
    """

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


def _initial_state(sys: SdeSystem, x0, batch: tuple) -> np.ndarray:
    """x0 as a float array of shape ``batch + (dim,)``; (dim,) fills a batch."""
    x = np.array(x0, dtype=float)
    if x.shape == (sys.dim,) and batch:
        return np.tile(x, batch + (1,))
    if x.shape != batch + (sys.dim,):
        shapes = f"({sys.dim},)" + (f" or {batch + (sys.dim,)}" if batch else "")
        raise ValueError(f"x0 must have shape {shapes}")
    return x


def _step_path(x: np.ndarray, times: np.ndarray, step: Callable) -> Trajectory:
    """States x_{k+1} = step(x_k, k) on the mesh ``times``, from x_0 = ``x``.

    The stepping loop of every integrator: a step that leaves the finite
    range raises :class:`IntegrationDiverged` at ``times[k + 1]`` with the
    states of step k.
    """
    states = np.empty((len(times),) + x.shape)
    states[0] = x
    for k in range(len(times) - 1):
        x = step(x, k)
        if not _finite(x):
            raise IntegrationDiverged(times[k + 1], states[k].copy())
        states[k + 1] = x
    return Trajectory(times, states)


def _final_state(x: np.ndarray, times: np.ndarray, step: Callable) -> np.ndarray:
    """``_step_path(x, times, step).states[-1]``, with no states buffer.

    The same recursion and divergence screen, and the same
    :class:`IntegrationDiverged`; only the last state is kept.
    """
    for k in range(len(times) - 1):
        x_next = step(x, k)
        if not _finite(x_next):
            raise IntegrationDiverged(times[k + 1], x.copy())
        x = x_next
    return x


def _em_step(sys: SdeSystem, path: WienerPath) -> Callable:
    """The Euler-Maruyama step ``(x_k, k) -> x_{k+1}`` on the mesh of ``path``."""
    f, s, dt = sys.drift, sys.diffusion, path.dt
    w = np.moveaxis(path.values, -1, 0)[..., None]
    return lambda x, k: (x + np.asarray(f(x), float) * dt
                         + np.asarray(s(x), float) * (w[k + 1] - w[k]))


def euler_maruyama(sys: SdeSystem, x0, path: WienerPath) -> Trajectory:
    """Ito stepping x_{k+1} = x_k + f(x_k) dt + sigma(x_k) dw_k on the path mesh.

    Raises :class:`IntegrationDiverged` when the state leaves the finite
    range; the exception carries the failure time.  Here and in
    :func:`heun_stratonovich`, dw_k is read from the samples as
    w_{k+1} - w_k, which is what ``np.diff`` computes; of shape ``(1,)``,
    or ``(N, 1)`` for a batch, it scales the state rows.
    """
    if sys.convention != ITO:
        raise ValueError("euler_maruyama expects an Ito-form system")
    x = _initial_state(sys, x0, path.values.shape[:-1])
    return _step_path(x, path.times, _em_step(sys, path))


def heun_stratonovich(sys: SdeSystem, x0, path: WienerPath) -> Trajectory:
    """Stratonovich predictor-corrector (Heun) stepping on the path mesh.

    Predictor: y = x + f dt + sigma dw.  Corrector averages drift and
    diffusion between x and y.  Converges to the Stratonovich solution.
    """
    if sys.convention != STRATONOVICH:
        raise ValueError("heun_stratonovich expects a Stratonovich system")
    f, s, dt = sys.drift, sys.diffusion, path.dt
    x = _initial_state(sys, x0, path.values.shape[:-1])
    w = np.moveaxis(path.values, -1, 0)[..., None]

    def step(x, k):
        dw = w[k + 1] - w[k]
        fx = np.asarray(f(x), float)
        sx = np.asarray(s(x), float)
        y = x + fx * dt + sx * dw
        return x + 0.5 * (fx + np.asarray(f(y), float)) * dt \
                 + 0.5 * (sx + np.asarray(s(y), float)) * dw

    return _step_path(x, path.times, step)


def _rk4_step(sys: SdeSystem, noise: PiecewiseLinearNoise) -> Callable:
    """The classical RK4 step ``(x_k, k) -> x_{k+1}`` across knot interval k.

    The slope (v_{k+1} - v_k) / h_k is read from the knot values at each
    step, the same IEEE operations as :attr:`PiecewiseLinearNoise.slopes`,
    so no array of slopes is built.
    """
    f, g = sys.drift, sys.diffusion
    v = np.moveaxis(noise.knot_values, -1, 0)[..., None]
    widths = np.diff(noise.knot_times).tolist()

    def step(x, k):
        h = widths[k]
        s = (v[k + 1] - v[k]) / h
        half = 0.5 * h
        rhs = lambda y: np.asarray(f(y), float) + np.asarray(g(y), float) * s
        k1 = rhs(x)
        k2 = rhs(x + half * k1)
        k3 = rhs(x + half * k2)
        k4 = rhs(x + h * k3)
        return x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return step


def ode_drive(sys: SdeSystem, x0, noise: PiecewiseLinearNoise) -> Trajectory:
    """Integrate the pathwise ODE dx/dt = f(x) + sigma(x) dw/dt with RK4.

    The noise slope is constant on each knot interval, so each interval is
    one classical RK4 step and the states sit at the knot times.  The
    system is interpreted pathwise, without reference to a stochastic
    convention.  A batched ``noise`` steps one state row per interpolant.
    """
    x = _initial_state(sys, x0, noise.knot_values.shape[:-1])
    return _step_path(x, noise.knot_times, _rk4_step(sys, noise))


def header_text(header_lines) -> str:
    """The header lines, each prefixed with ``# `` and ended by a newline."""
    return "".join(f"# {line}\n" for line in header_lines)


def write_csv(path, columns, rows, header_lines=()) -> None:
    """Write the header, the column names, then rows of numbers at ``.17g``.

    Each row fills one prebuilt ``%.17g,...`` format, one field per column.
    Rows of Python numbers (``.tolist()``) format faster than numpy scalars.
    Path CSVs, whose rows share a time column, go through
    :func:`write_path_csvs` instead.
    """
    fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(header_text(header_lines))
        fh.write(",".join(columns) + "\n")
        fh.writelines(fmt % tuple(row) for row in rows)


# Fewest formatted values one writing process takes: formatting takes about
# 1 us a value, so 2**15 values (some 30 ms) outweigh a fork.
SHARE_MIN_VALUES = 2 ** 15


def write_path_csvs(paths, times, states, controls=None, header_lines=()) -> None:
    """Write path i as ``t,x1,...,xn[,u1,...,um]`` rows to ``paths[i]``.

    ``times`` has shape ``(n,)``, ``states`` ``(N, n, dim)`` and
    ``controls`` ``(N, n, m)`` (or None) for the N paths.  Every file has
    the same header, column names and time column, formatted once into one
    template whose other ``%.17g`` fields are a path's states and controls;
    each file is one ``%`` and one write, with the bytes of formatting every
    number, row by row, as :func:`write_csv` does.

    :func:`_run_shares` writes the files in shares of at least
    ``SHARE_MIN_VALUES`` values, the first here and the others in forked
    children; a child's failure raises ``OSError`` naming its share's first
    file and the child's error.
    """
    n_paths, n_rows, dim = np.shape(states)
    n_controls = 0 if controls is None else np.shape(controls)[-1]
    if (len(paths), len(times)) != (n_paths, n_rows) or (
            controls is not None and np.shape(controls) != (n_paths, n_rows, n_controls)):
        raise ValueError("need one file name per path, and one row per time")
    cols = (["t"] + [f"x{i + 1}" for i in range(dim)]
            + [f"u{i + 1}" for i in range(n_controls)])
    # header lines are free text: escape them for the one % below
    head = (header_text(header_lines) + ",".join(cols) + "\n").replace("%", "%%")
    row = ",%.17g" * (dim + n_controls) + "\n"
    template = head + "".join(["%.17g" % t + row
                               for t in np.asarray(times, float).tolist()])

    def write_share(lo, hi):
        values = np.empty((n_rows, dim + n_controls))
        for i in range(lo, hi):
            values[:, :dim] = states[i]
            if controls is not None:
                values[:, dim:] = controls[i]
            with open(paths[i], "w") as fh:
                fh.write(template % tuple(values.ravel().tolist()))

    failed = _run_shares(write_share, np.full(n_paths, n_rows * (dim + n_controls)),
                         SHARE_MIN_VALUES)
    if failed is not None:
        lo, exc = failed
        raise OSError(f"could not write the path files from {paths[lo]}: "
                      f"{_failure_text(exc)}")


def _n_shares(n_items: int, n_units: int, min_units: int) -> int:
    """Processes to share ``n_units`` of work over ``n_items`` items.

    One per CPU the process may run on, but no more than the items, and
    only so many that each share holds at least ``min_units`` of the work;
    one on a platform without ``os.fork`` or ``os.sched_getaffinity``.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_items, n_units // min_units))


def _share_bounds(weights, n_shares: int) -> list:
    """Contiguous shares ``[(lo, hi), ...]`` of the items, of near-equal weight.

    ``weights`` are the items' nonnegative integer costs, in run order.  Share
    s first ends at the last item boundary at or before s / n_shares of the
    total weight; that is s * n // n_shares for n equal weights.  A boundary
    then moves one item later when that lowers the heavier of the two shares
    it separates, which equal weights never do, so no share outweighs the
    heaviest item plus total / n_shares.  Empty shares are dropped, but no
    items still make one share.
    """
    # prefix sums in one array: a list of Python ints per path would stay
    # in the interpreter's arenas, on top of a wide ensemble's peak memory
    cum = np.concatenate(([0], np.cumsum(weights, dtype=np.int64)))
    bounds = [0, *(int(np.searchsorted(cum, s * int(cum[-1]) // n_shares, "right")) - 1
                   for s in range(1, n_shares)), len(weights)]
    for s in range(1, n_shares):
        lo, b, hi = bounds[s - 1:s + 2]
        if b < hi and max(cum[b + 1] - cum[lo], cum[hi] - cum[b + 1]) < max(
                cum[b] - cum[lo], cum[hi] - cum[b]):
            bounds[s] = b + 1
    return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi] or [(0, 0)]


def _run_shares(work: Callable, weights, min_units: int) -> Optional[tuple]:
    """Run ``work(lo, hi)`` on contiguous shares of the items, one per process.

    The items are ``range(len(weights))``, of integer costs ``weights``.
    This is the one place a share count is decided (:func:`_n_shares`, at
    least ``min_units`` a share; :func:`_share_bounds` splits the items).
    Each share but the first goes to its own :func:`_fork` child, then this
    process runs the first; every child is reaped before this returns or
    raises (an error of this process's share propagates as it is).  Returns
    None, or the first item of the first failed child's share and its
    exception (see :func:`_reap`), which a caller re-raises as what running
    every share here, in order, would have raised first.
    """
    n_shares = _n_shares(len(weights), int(np.sum(weights, dtype=np.int64)), min_units)
    shares = _share_bounds(weights, n_shares)
    children = []
    try:
        for lo, hi in shares[1:]:
            children.append((lo, *_fork(work, lo, hi)))
        work(*shares[0])
    finally:
        failures = [(lo, exc) for lo, pid, read_fd in children
                    if (exc := _reap(pid, read_fd)) is not None]
    return failures[0] if failures else None


def _fork(work: Callable, *args) -> tuple:
    """Run ``work(*args)`` in a forked child; return its pid and a read end.

    The only place that forks.  The child leaves with ``os._exit``, so it
    never flushes this process's buffers or returns into the caller; if
    ``work`` raises, the child first writes the pickled exception to the
    pipe, or a ``RuntimeError`` with its text when the exception does not
    survive a pickle round trip.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            work(*args)
            status = 0
        except BaseException as exc:  # the child must reach os._exit below
            try:
                data = pickle.dumps(exc)
                pickle.loads(data)
            except Exception:
                data = pickle.dumps(RuntimeError(str(exc)))
            with open(write_fd, "wb") as fh:
                fh.write(data)
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _reap(pid: int, read_fd: int) -> Optional[BaseException]:
    """Wait for a child of :func:`_fork`: None if it succeeded, else its exception.

    A child that exited without sending one gives a ``RuntimeError`` naming
    its exit code.
    """
    with open(read_fd, "rb") as fh:
        data = fh.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0:
        return None
    if data:
        return pickle.loads(data)
    return RuntimeError(f"the child process exited with code {code}")


def _failure_text(exc: BaseException) -> str:
    """A failed share's error as its caller reports it; an exception with no
    text reads as the exit code 1 its child left with."""
    return str(exc) or "the child process exited with code 1"


def trajectory_to_csv(traj: Trajectory, path, header_lines=()) -> None:
    """Write ``t,x1,...,xn[,u1,...,um]`` rows at 17 significant digits.

    ``header_lines`` are emitted first, one per line, prefixed with ``# ``.
    This is :func:`write_path_csvs` on a batch of one path.
    """
    controls = None if traj.controls is None else traj.controls[None]
    write_path_csvs([path], traj.times, traj.states[None], controls, header_lines)
