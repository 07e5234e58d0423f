"""The Brockett integrator randomized by Wiener feedback.

The deterministic plant is dx = g(x) u dt with control matrix

    g(x) = [[b1, 0], [0, b2], [b3 x2, -b4 x1]],

controllable for b1 != 0, b2 != 0, b1 b4 + b2 b3 != 0, yet not stabilizable
by any continuous state feedback.  Feeding back a Wiener process through
gains B(x) = (B1, B2) produces the single-channel diffusion
sigma(x) = g(x) B(x).  The gains used here scale with the squared
eigenvalues of H(x) = g(x)^T Hess(v2)(x) g(x) and with |x|^2, so noise acts
where the candidate v2 is concave down and switches off at the origin:

    B1 = k1 lam1(x)^2 |x|^2,        B2 = k2 lam2(x)^2 |x|^2 x3.

A smooth pre-feedback v cancels the first two components of the
Stratonovich-to-Ito drift correction, and the Sontag-type formula built on
v2 closes the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

# The passes call ufuncs as lyapunov's do (see there).
from numpy import (add, copysign, count_nonzero, divide, equal, maximum, minimum,
                   multiply, negative, sqrt, subtract, where)

from .lyapunov import (_HALF, _ONE, _TWO, _V2_OUT, _V2_ROWS, _ZERO, _bind_sontag_factor,
                       _bind_v2, _columns, _const, _state_block, _v2_columns, _v2_views,
                       _workspace)
# Not called here: tools that trace the loop's layers look them up on this module.
from .lyapunov import v2_gradient, v2_hessian  # noqa: F401
from .sde import ITO, SdeSystem


@dataclass(frozen=True)
class SystemParams:
    """Plant gains b1..b4; the constructor enforces finiteness and
    controllability."""

    b1: float
    b2: float
    b3: float
    b4: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value == 0.0 and name in ("b1", "b2"):
                raise ValueError(f"{name} must be nonzero")
        if not 0.0 < abs(self.b1 * self.b4 + self.b2 * self.b3) < np.inf:
            raise ValueError("b1*b4 + b2*b3 must be nonzero and finite")
        if not np.isfinite(self.b1 * self.b4 - self.b2 * self.b3):
            raise ValueError("b1*b4 - b2*b3 must be finite")


@dataclass(frozen=True)
class DiffusionDesign:
    """Gains k1, k2 of the noise design.

    Negative and non-finite gains are rejected.  Zero gains are tolerated so
    the no-noise loop can be assembled as a negative control; a working
    design needs both strictly positive.
    """

    k1: float
    k2: float

    def __post_init__(self):
        if not (np.isfinite(self.k1) and np.isfinite(self.k2)):
            raise ValueError("design gains must be finite")
        if self.k1 < 0.0 or self.k2 < 0.0:
            raise ValueError("design gains must be nonnegative")


def g_matrix(p: SystemParams, x) -> np.ndarray:
    """Control matrix [[b1,0],[0,b2],[b3 x2, -b4 x1]], batched."""
    x = np.asarray(x, dtype=float)
    g = np.zeros(x.shape[:-1] + (3, 2))
    g[..., 0, 0] = p.b1
    g[..., 1, 1] = p.b2
    g[..., 2, 0] = p.b3 * x[..., 1]
    g[..., 2, 1] = -p.b4 * x[..., 0]
    return g


def _states(points) -> np.ndarray:
    """``points`` as float states, raising ValueError unless of shape (N, 3)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
    return pts


def controllability_rank(p: SystemParams, points) -> np.ndarray:
    """Numerical ranks of [g1, g2, [g1, g2]] at an (N, 3) array of states.

    The Lie bracket [g1, g2] = (dg2/dx) g1 - (dg1/dx) g2 evaluates to the
    constant column (0, 0, -(b1 b4 + b2 b3)).  Each row, then each column,
    is divided by its largest |entry|, nonzero for every plant: that leaves
    the rank as it is, and the constant determinant -b1 b2 (b1 b4 + b2 b3)
    survives the scaling, so the bracket does not fall under the tolerance
    beside g1 and g2, which grow with |x|.  A rank counts the singular values
    above 1e-10 times the largest, from one batched SVD of all the states.
    """
    g = g_matrix(p, _states(points))
    bracket = np.broadcast_to([0.0, 0.0, -(p.b1 * p.b4 + p.b2 * p.b3)], g.shape[:-1])
    m = np.concatenate([g, bracket[..., None]], axis=-1)
    m /= np.abs(m).max(axis=-1, keepdims=True)
    m /= np.abs(m).max(axis=-2, keepdims=True)
    s = np.linalg.svd(m, compute_uv=False)
    return np.count_nonzero(s > 1e-10 * s[..., :1], axis=-1)


def _plant(p: SystemParams) -> tuple:
    """The coefficients of ``p`` that the kernel multiplies by, as 0-d arrays
    (see :func:`lyapunov._const`): b1, b2, b3, -b4 (the factor of x1 in g's
    third row) and (1/2)(b2 b3 - b1 b4), of the drift's third component."""
    return tuple(map(_const, (p.b1, p.b2, p.b3, -p.b4, 0.5 * (p.b2 * p.b3 - p.b1 * p.b4))))


def _bind_h_entries(p: tuple, x, hess, out) -> Callable[[], tuple]:
    """A pass, for plant coefficients ``p`` from :func:`_plant`, that
    computes the third row (c, e) = (b3 x2, -b4 x1) of g at the (3, *shape)
    state block ``x`` into the first two rows of the ten-row block ``out``,
    then the entries (H11, H12, H22) of H = g^T Hess(v2) g into rows 3, 5
    and 4, and returns them; the other rows are scratch.

    ``hess`` is the entries (h11, h12, h13, h22, h23, h33) of Hess(v2).  H
    is written out as the double sum over g's nonzero entries, in its order.
    """
    b1, b2, b3, minus_b4, _ = p
    h11, h12, h13, h22, h23, h33 = hess
    c, e, t, k11, k22, k12, b1_h13, b2_h23, c_h33, e_h33 = (out[i, ...] for i in range(10))
    ce, diagonal, b_h, ce_h33 = out[0:2], out[3:5], out[6:8], out[8:10]
    x1, x2 = x[0, ...], x[1, ...]
    entries = (k11, k12, k22)

    def h_pass():
        multiply(b3, x2, c)
        multiply(minus_b4, x1, e)
        multiply(b1, h13, b1_h13)
        multiply(b2, h23, b2_h23)
        multiply(c, h33, c_h33)
        multiply(e, h33, e_h33)
        # (((b1 h12) b2 + b1_h13 e) + (c h23) b2) + c_h33 e
        multiply(b1, h12, k12)
        multiply(k12, b2, k12)
        multiply(b1_h13, e, t)
        add(k12, t, k12)
        multiply(c, h23, t)
        multiply(t, b2, t)
        add(k12, t, k12)
        multiply(c_h33, e, t)
        add(k12, t, k12)
        # ((b1 h11) b1 + 2 (b1_h13 c)) + c_h33 c, and H22 of (b2, h22, b2_h23, e, e_h33)
        multiply(b1, h11, k11)
        multiply(k11, b1, k11)
        multiply(b2, h22, k22)
        multiply(k22, b2, k22)
        multiply(b_h, ce, b_h)
        multiply(b_h, _TWO, b_h)
        add(diagonal, b_h, diagonal)
        multiply(ce_h33, ce, ce_h33)
        add(diagonal, ce_h33, diagonal)
        return entries

    return h_pass


def _bind_eigs(h11, h12, h22, out, zero) -> Callable[[], tuple]:
    """A pass that computes the eigenvalues of [[h11, h12], [h12, h22]],
    ascending, into the first two rows of the four-row block ``out`` (the
    boolean ``zero`` is scratch) and returns them.  The smaller in magnitude
    is det(H) over the larger, since mid -/+ rad would cancel."""
    mid, big, h12_sq, small = (out[i, ...] for i in range(4))
    mid_big = out[:2]
    eigenvalues = (mid, big)

    def eig_pass():
        add(h11, h22, mid)
        subtract(h11, h22, big)
        multiply(mid_big, _HALF, mid_big)
        multiply(h12, h12, h12_sq)
        multiply(big, big, big)
        add(big, h12_sq, big)
        sqrt(big, big)
        copysign(big, mid, big)
        add(big, mid, big)
        multiply(h11, h22, small)
        subtract(small, h12_sq, small)
        equal(big, _ZERO, zero)
        divide(small, where(zero, _ONE, big) if count_nonzero(zero) else big, small)
        minimum(small, big, out=mid)
        maximum(small, big, out=big)
        return eigenvalues

    return eig_pass


def h_matrix(p: SystemParams, x) -> np.ndarray:
    """Symmetric 2x2 form H(x) = g^T Hess(v2) g, batched."""
    x = _state_block(*_columns(x))
    h11, h12, h22 = _bind_h_entries(_plant(p), x, _v2_columns(*x).hess,
                                    np.empty((10,) + x.shape[1:]))()
    return np.stack([np.stack([h11, h12], axis=-1),
                     np.stack([h12, h22], axis=-1)], axis=-2)


def eigs_sym2(h) -> tuple:
    """Closed-form eigenvalues of a symmetric 2x2, ascending."""
    h = np.asarray(h, dtype=float)
    if h.shape[-2:] != (2, 2):
        raise ValueError("expected trailing shape (2, 2)")
    if np.any(np.abs(h[..., 0, 1] - h[..., 1, 0])
              > 1e-9 * np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))):
        raise ValueError("matrix is not symmetric")
    ws = _workspace(np.empty((4,) + h.shape[:-2]))
    return _bind_eigs(h[..., 0, 0], h[..., 0, 1], h[..., 1, 1], ws.block, ws.masks[0])()


def diffusion_b(d: DiffusionDesign, p: SystemParams, x) -> tuple:
    """Noise gains (B1, B2) of the eigenvalue-scaled design."""
    t = loop_columns(p, d, *_columns(x))
    return t.b1, t.b2


def sigma(p: SystemParams, d: DiffusionDesign, x) -> np.ndarray:
    """Single-channel diffusion sigma = g B, a view of one kernel pass."""
    return np.moveaxis(loop_columns(p, d, *_columns(x)).sigma, 0, -1)


class LoopColumns(NamedTuple):
    """Closed-loop quantities at a batch of states, from :func:`loop_columns`:
    a scalar as a column of the states' shape, a vector as a block of shape
    ``(k,) + shape``, one coordinate to a row.

    ``ito`` is the only nonzero (third) component of the randomized loop's
    Ito drift before the control, g v + (1/2)(d sigma/dx) sigma, in the
    grouped form (1/2)(b2 b3 - b1 b4) B1 B2: its gradient-of-B cross terms
    cancel exactly, and adding the two summands would leave rounding noise
    of their order, which grows fast with |x3|.
    """

    v2: np.ndarray          # the candidate v2
    norm_sq: np.ndarray     # |x|^2, summed as (x1^2 + x2^2) + x3^2
    b1: np.ndarray          # noise gain B1
    b2: np.ndarray          # noise gain B2
    sigma: np.ndarray       # diffusion g B, rows (s1, s2, s3)
    f_term: np.ndarray      # F of the universal formula
    g_term: np.ndarray      # G = ||L_g v2||^2
    lg: np.ndarray          # L_g v2, rows (lg1, lg2)
    control: np.ndarray     # Sontag control u, rows (u1, u2)
    drift: np.ndarray       # (0, 0, ito) + g u, rows (f1, f2, f3)
    ito: np.ndarray         # third component of the drift before the control


# Rows of the kernel's workspace: those of a v2 pass, then the 15 columns of
# the loop's own results.  The kernel's temporaries take v2's 17 scratch
# rows once the v2 pass has returned.
_N_ROWS = _V2_ROWS + 15


def _bind_loop(block: np.ndarray, p: SystemParams, d: DiffusionDesign,
               x: np.ndarray) -> Callable[[], LoopColumns]:
    """A pass of :func:`loop_columns` for plant ``p`` and design ``d`` at the
    states in ``x``, a float block of shape ``(3, *shape)`` whose rows are
    x1, x2, x3, into ``block``, a float array of shape ``(_N_ROWS, *shape)``.

    The workspace's rows, the coefficients as 0-d arrays, the helper passes
    and the result, a :class:`LoopColumns` of views of ``block``, are bound
    here once.  Each call reads the states ``x`` holds then, makes only
    ufunc calls and returns that result; it allocates no column unless some
    row has a degenerate H.

    The two halves of each paired computation sit in adjacent rows, and one
    call on the (2, *shape) row blocks does both, each element with the
    IEEE operations of two calls: (x1, x2), (h11, h22), (c, e), (H11, H22),
    (lam1, lam2), (B1, B2), (F, G), (lg1, lg2) and (u1, u2).  Every operand
    of a call has one shape or is 0-d: at 200 rows a column broadcast over
    a row pair cost more than the two calls it replaced.
    """
    ws = _workspace(block)
    v = _v2_views(ws)
    _, norm_sq, (d1, d2, d3), _ = v
    x3 = x[2, ...]
    plant = _plant(p)
    b1, b2, _, _, third = plant
    k1, k2 = _const(d.k1), _const(d.k2)
    scratch = block[_V2_OUT:_V2_ROWS]
    # (c, e, t, H11, H22, H12), then four rows of H's scratch, which the
    # eigenvalues take; after them, its last two rows are the pair scratch
    c, e, t, k11, k22, k12 = ws.rows[_V2_OUT:_V2_OUT + 6]
    ce, diagonal, lam, pair = scratch[0:2], scratch[3:5], scratch[6:8], scratch[8:10]
    pair0, pair1 = pair[0, ...], pair[1, ...]
    results = block[_V2_ROWS:]
    (b1v, b2v, s1, s2, s3, f_term, g_term, lg1, lg2, u1, u2,
     dr1, dr2, dr3, ito) = ws.rows[_V2_ROWS:]
    gains, lg, u = results[0:2], results[7:9], results[9:11]
    v2_pass = _bind_v2(ws, x)
    # (c, e) is the third row of g; the first two rows are diag(b1, b2).
    h_pass = _bind_h_entries(plant, x, v.hess, scratch[:10])
    eig_pass = _bind_eigs(k11, k12, k22, scratch[6:10], ws.masks[0])
    factor_pass = _bind_sontag_factor(results[5:7], pair, ws.masks[0])
    columns = LoopColumns(v.value, v.norm_sq, b1v, b2v, results[2:5], f_term, g_term,
                          lg, u, results[11:14], ito)

    def loop_pass():
        v2_pass()
        h_pass()
        eig_pass()
        multiply(lam, lam, gains)        # (lam1^2, lam2^2)
        multiply(b1v, k1, b1v)           # k1 lam1^2 |x|^2
        multiply(b1v, norm_sq, b1v)
        multiply(b2v, k2, b2v)           # k2 lam2^2 |x|^2 x3
        multiply(b2v, norm_sq, b2v)
        multiply(b2v, x3, b2v)
        multiply(b1, b1v, s1)
        multiply(b2, b2v, s2)
        multiply(ce, gains, pair)        # s3 = c B1 + e B2
        add(pair0, pair1, s3)
        multiply(third, b1v, ito)
        multiply(ito, b2v, ito)
        # sigma^T Hess(v2) sigma = B^T H B, as B1 (H11 B1 + 2 (H12 B2)) + (H22 B2) B2
        multiply(diagonal, gains, pair)
        multiply(k12, b2v, t)
        multiply(t, _TWO, t)
        add(pair0, t, pair0)
        multiply(pair, gains, pair)
        add(pair0, pair1, pair0)
        multiply(d3, ito, f_term)
        multiply(pair0, _HALF, pair0)
        add(f_term, pair0, f_term)
        multiply(b1, d1, lg1)            # L_g v2 = (b1 d1 + c d3, b2 d2 + e d3)
        multiply(b2, d2, lg2)
        multiply(c, d3, pair0)
        multiply(e, d3, pair1)
        add(lg, pair, lg)
        multiply(lg, lg, pair)
        add(pair0, pair1, g_term)
        minus_factor = factor_pass()
        negative(minus_factor, minus_factor)
        multiply(minus_factor, lg1, u1)
        multiply(minus_factor, lg2, u2)
        multiply(b1, u1, dr1)
        multiply(b2, u2, dr2)
        multiply(ce, u, pair)
        add(pair0, pair1, dr3)
        add(dr3, ito, dr3)
        return columns

    return loop_pass


def loop_columns(p: SystemParams, d: DiffusionDesign, x1, x2, x3) -> LoopColumns:
    """Evaluate the whole closed loop in one pass at the states with
    coordinate columns x1, x2, x3 (arrays of one shape).

    v2 and its derivatives, H, its eigenvalues, B, sigma, F, G, L_g v2, the
    Sontag control, the Ito term ``ito`` and the drift are each computed
    once, with the zeros of g skipped, into a fresh block of columns whose
    views are returned (see :class:`LoopColumns`).  A caller that evaluates
    the loop again and again binds one pass to one block (:func:`_bind_loop`).
    """
    x = _state_block(x1, x2, x3)
    return _bind_loop(np.empty((_N_ROWS,) + x.shape[1:]), p, d, x)()


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """Assembled Ito loop: drift = (0, 0, ito) + g u_s, diffusion = sigma.

    The ``sde`` callables and ``control`` return views of one fresh pass
    of :func:`loop_columns` on ``params`` and ``design``, the coordinate
    last.
    """

    params: SystemParams
    design: DiffusionDesign
    sde: SdeSystem
    control: Callable


def closed_loop(p: SystemParams, d: DiffusionDesign) -> ClosedLoop:
    """Assemble the noise-stabilized loop, whose callables each return
    views of one fresh kernel pass.

    Raises ValueError naming the violated condition when the gain map does
    not vanish at the origin or the equilibrium is not preserved exactly.
    """
    def view(name):
        return lambda x: np.moveaxis(getattr(loop_columns(p, d, *_columns(x)), name), 0, -1)

    # a loop that overflows at the origin fails the check below, not with a warning
    with np.errstate(all="ignore"):
        t = loop_columns(p, d, *_columns(np.zeros(3)))
    if t.b1 != 0.0 or t.b2 != 0.0:
        raise ValueError("brockett6 violated: B(0) != 0 for this design")
    if t.drift.any() or t.sigma.any():
        raise ValueError("closed loop does not preserve the origin exactly")
    return ClosedLoop(p, d, SdeSystem(3, view("drift"), view("sigma"), ITO), view("control"))


# Radii of the shrinking-circle sequences in the design report and of the
# small-control scan, and the number of points on each circle.
CONTINUITY_RADII = (1e-1, 1e-2, 1e-3, 1e-4)
N_ANGLES = 16


@dataclass(eq=False)
class DesignReport:
    """Named verdicts for a diffusion gain map.

    Condition names: ``brockett6`` (B vanishes at the origin), ``brockett7``
    (sign condition (b1 b4 - b2 b3) B1 B2 x3 >= 0), ``brockett8`` (gains do
    not vanish on the x1 = x2 = 0 axis away from the origin), and
    ``continuous1``/``continuous2`` (shrinking-radius limits that make the
    closed-loop control continuous at M and at the origin).
    """

    conditions: dict
    details: dict
    c1_sequence: tuple
    c2_sequence: tuple

    @property
    def passed(self) -> bool:
        return all(self.conditions.values())


def _shrinks(seq, bound) -> bool:
    """Whether ``seq`` does not increase and its last value is below ``bound``."""
    return bool(np.all(np.diff(seq) <= 0.0) and seq[-1] < bound)


def _not_finite(n_bad: int) -> str:
    return f", not finite at {n_bad} points" if n_bad else ""


# A state too large for float arithmetic gives a NaN or infinite gain, which
# fails its condition.
@np.errstate(over="ignore", invalid="ignore")
def check_design_conditions(p: SystemParams, d: DiffusionDesign, points,
                            b_fn: Optional[Callable] = None) -> DesignReport:
    """Check the gain-map conditions on a cloud of states.

    ``points``, an (N, 3) array of states, feeds the sign condition, and
    its third coordinates the axis samples of the nonvanishing check.
    ``b_fn`` (default: the eigenvalue-scaled design) maps states to (B1, B2),
    row by row, so stub designs get the same report.  A sign expression or axis gain
    that is not finite fails its condition, and the detail counts them.
    """
    if b_fn is None:
        b_fn = lambda pts: diffusion_b(d, p, pts)
    pts = _states(points)
    conditions = {}
    details = {}

    b10, b20 = b_fn(np.zeros(3))
    conditions["brockett6"] = (b10 == 0.0) and (b20 == 0.0)
    details["brockett6"] = f"B(0) = ({b10:.3g}, {b20:.3g})"

    b1v, b2v = b_fn(pts)
    sign_expr = b1v * b2v * (p.b1 * p.b4 - p.b2 * p.b3) * pts[:, 2]
    worst = float(sign_expr.min()) if len(sign_expr) else 0.0
    n_bad = np.count_nonzero(~np.isfinite(sign_expr))
    conditions["brockett7"] = worst >= -1e-12 and n_bad == 0
    details["brockett7"] = (f"min (b1 b4 - b2 b3) B1 B2 x3 = {worst:.6g} over {len(pts)} points"
                            + _not_finite(n_bad))

    axis_vals = np.unique(pts[:, 2])
    axis_vals = axis_vals[np.abs(axis_vals) > 1e-3]
    if len(axis_vals) == 0:
        conditions["brockett8"] = True
        details["brockett8"] = "no axis samples with |x3| > 1e-3 (vacuous)"
    else:
        m_pts = np.zeros((len(axis_vals), 3))
        m_pts[:, 2] = axis_vals
        b1m, b2m = b_fn(m_pts)
        n_bad = np.count_nonzero(~(np.isfinite(b1m) & np.isfinite(b2m)))
        conditions["brockett8"] = bool(np.all(np.abs(b1m) > 0.0)
                                       and np.all(np.abs(b2m) > 0.0)
                                       and n_bad == 0)
        details["brockett8"] = (f"min |B1| = {np.abs(b1m).min():.3g}, "
                                f"min |B2| = {np.abs(b2m).min():.3g} on the axis"
                                + _not_finite(n_bad))

    # the rings of every radius are one block and their x3 = 0 shadows another:
    # a state's gains do not depend on the states stacked beside it
    angles = 2.0 * np.pi * np.arange(N_ANGLES) / N_ANGLES
    unit = np.stack([np.cos(angles), np.sin(angles), np.ones(N_ANGLES)], axis=-1)
    ring = np.multiply.outer(CONTINUITY_RADII, unit).reshape(-1, 3)
    flat = ring * (1.0, 1.0, 0.0)
    b1r, b2r = b_fn(ring)
    b1f, b2f = b_fn(flat)
    b1_sq, b2_sq = np.square(p.b1), np.square(p.b2)
    num = b1_sq * b1f ** 2 + b2_sq * b2f ** 2
    den = b1_sq * flat[:, 0] ** 2 + b2_sq * flat[:, 1] ** 2
    by_radius = (len(CONTINUITY_RADII), N_ANGLES)
    c1_seq = np.abs(b1r * b2r * ring[:, 2]).reshape(by_radius).max(axis=1).tolist()
    c2_seq = (num / den).reshape(by_radius).max(axis=1).tolist()
    conditions["continuous1"] = _shrinks(c1_seq, 1e-6)
    details["continuous1"] = "max |B1 B2 x3| by radius: " + \
        ", ".join(f"{v:.3g}" for v in c1_seq)
    conditions["continuous2"] = _shrinks(c2_seq, 1e-6)
    details["continuous2"] = "max |g B|^2/|g_12 x|^2 by radius: " + \
        ", ".join(f"{v:.3g}" for v in c2_seq)

    return DesignReport(conditions, details, tuple(c1_seq), tuple(c2_seq))
