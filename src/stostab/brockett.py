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

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .lyapunov import (_HALF, _ONE, _TWO, _V2_OUT, _V2_ROWS, _ZERO, _Workspace,
                       _columns, _const, _sontag_factor, _v2_columns, _v2_into,
                       _workspace)
# Not called here, but kept bound in this module: tools that trace the loop's
# layers look these names up on it.
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
        if self.b1 == 0.0:
            raise ValueError("b1 must be nonzero")
        if self.b2 == 0.0:
            raise ValueError("b2 must be nonzero")
        if self.b1 * self.b4 + self.b2 * self.b3 == 0.0:
            raise ValueError("b1*b4 + b2*b3 must be nonzero")


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


def controllability_rank(p: SystemParams, x) -> int:
    """Numerical rank of [g1, g2, [g1, g2]] at a single point.

    The Lie bracket [g1, g2] = (dg2/dx) g1 - (dg1/dx) g2 evaluates to the
    constant column (0, 0, -(b1 b4 + b2 b3)).  Rank uses SVD with tolerance
    1e-10 times the spectral norm.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("controllability_rank takes a single state")
    g = g_matrix(p, x)
    bracket = np.array([0.0, 0.0, -(p.b1 * p.b4 + p.b2 * p.b3)])
    m = np.column_stack([g[:, 0], g[:, 1], bracket])
    tol = 1e-10 * np.linalg.norm(m, 2)
    return int(np.linalg.matrix_rank(m, tol=tol))


class _Plant(NamedTuple):
    """The plant's coefficients as 0-d arrays (see :func:`lyapunov._const`)."""

    b1: np.ndarray
    b2: np.ndarray
    b3: np.ndarray
    minus_b4: np.ndarray    # -b4, the factor of x1 in g's third row
    third: np.ndarray       # (1/2)(b2 b3 - b1 b4), of the drift's third component


def _plant(p: SystemParams) -> _Plant:
    """The coefficients of ``p`` that the kernel multiplies by."""
    return _Plant(*map(_const, (p.b1, p.b2, p.b3, -p.b4,
                                0.5 * (p.b2 * p.b3 - p.b1 * p.b4))))


def _design(d: DiffusionDesign) -> tuple:
    """The design's gains (k1, k2) as 0-d arrays."""
    return _const(d.k1), _const(d.k2)


def _g_third_row(p: _Plant, x1, x2, c, e) -> None:
    """The third row (c, e) = (b3 x2, -b4 x1) of g, into ``c`` and ``e``."""
    np.multiply(p.b3, x2, out=c)
    np.multiply(p.minus_b4, x1, out=e)


def _h_entries(p: _Plant, c, e, hess, out, t) -> tuple:
    """Entries (H11, H12, H22) of H = g^T Hess(v2) g, written out.

    ``(c, e)`` is the third row of g and ``hess`` the six entries
    (h11, h12, h13, h22, h23, h33) of Hess(v2).  The terms are those of the
    double sum over g's nonzero entries, added in the order of that sum.
    The entries are computed into the first three of the five columns
    ``out``, and ``t`` is scratch.
    """
    h11, h12, h13, h22, h23, h33 = hess
    k11, k12, k22, b1_h13, c_h33 = out
    np.multiply(p.b1, h13, out=b1_h13)
    np.multiply(c, h33, out=c_h33)
    # ((b1 h11) b1 + 2 (b1_h13 c)) + c_h33 c
    np.multiply(p.b1, h11, out=k11)
    k11 *= p.b1
    np.multiply(b1_h13, c, out=t)
    t *= _TWO
    k11 += t
    np.multiply(c_h33, c, out=t)
    k11 += t
    # (((b1 h12) b2 + b1_h13 e) + (c h23) b2) + c_h33 e
    np.multiply(p.b1, h12, out=k12)
    k12 *= p.b2
    np.multiply(b1_h13, e, out=t)
    k12 += t
    np.multiply(c, h23, out=t)
    t *= p.b2
    k12 += t
    np.multiply(c_h33, e, out=t)
    k12 += t
    # ((b2 h22) b2 + 2 ((b2 h23) e)) + (e h33) e
    np.multiply(p.b2, h22, out=k22)
    k22 *= p.b2
    np.multiply(p.b2, h23, out=t)
    t *= e
    t *= _TWO
    k22 += t
    np.multiply(e, h33, out=t)
    t *= e
    k22 += t
    return k11, k12, k22


def _eigs(h11, h12, h22, out, zero) -> tuple:
    """Eigenvalues of [[h11, h12], [h12, h22]], ascending; the smaller in
    magnitude is det(H) over the larger, since mid -/+ rad would cancel.

    They are computed into the first two of the four columns ``out``, with
    the boolean ``zero`` as scratch.
    """
    mid, h12_sq, big, small = out
    np.add(h11, h22, out=mid)
    mid *= _HALF
    np.multiply(h12, h12, out=h12_sq)
    np.subtract(h11, h22, out=big)
    big *= _HALF
    np.multiply(big, big, out=big)
    big += h12_sq
    np.sqrt(big, out=big)
    np.copysign(big, mid, out=big)
    big += mid
    np.multiply(h11, h22, out=small)
    small -= h12_sq
    np.equal(big, _ZERO, out=zero)
    small /= np.where(zero, _ONE, big) if zero.any() else big
    np.minimum(small, big, out=mid)
    np.maximum(small, big, out=h12_sq)
    return mid, h12_sq


def h_matrix(p: SystemParams, x) -> np.ndarray:
    """Symmetric 2x2 form H(x) = g^T Hess(v2) g, batched."""
    x1, x2, x3 = _columns(x)
    plant = _plant(p)
    rows = _workspace(np.empty((8,) + np.shape(x1))).rows
    _g_third_row(plant, x1, x2, *rows[6:])
    h11, h12, h22 = _h_entries(plant, *rows[6:], _v2_columns(x1, x2, x3).hess,
                               rows[:5], rows[5])
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
    return _eigs(h[..., 0, 0], h[..., 0, 1], h[..., 1, 1], ws.rows, ws.masks[0])


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

    ``ito`` is the third and only nonzero component of the randomized
    loop's Ito drift before the control, g v + (1/2)(d sigma/dx) sigma.
    Its gradient-of-B cross terms cancel exactly, so it is computed in the
    grouped form (1/2)(b2 b3 - b1 b4) B1 B2; adding the two summands would
    leave rounding noise of the order of the cross terms, which grow fast
    with |x3|.
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


# Rows of the kernel's workspace: those of _v2_into, then the 15 columns of
# the loop's own results.  The kernel's temporaries take v2's 15 scratch
# rows once _v2_into has returned.
_N_ROWS = _V2_ROWS + 15


def _fresh(shape: tuple) -> _Workspace:
    """A new workspace of the kernel for states of ``shape``."""
    return _workspace(np.empty((_N_ROWS,) + shape))


def _loop_into(ws: _Workspace, p: _Plant, d: tuple, x1, x2, x3) -> LoopColumns:
    """:func:`loop_columns` with the plant ``p`` from :func:`_plant` and the
    design gains ``d`` from :func:`_design`, computed into ``ws``, the
    workspace of a float block of shape ``(_N_ROWS, *shape)`` for states of
    ``shape``.

    The result is views of ``ws`` (a vector as a slice of adjacent rows),
    valid until its next pass.  No column of the states' shape is allocated
    on the way, unless some row has a degenerate H (both eigenvalues 0).
    """
    v = _v2_into(ws, x1, x2, x3)
    d1, d2, d3 = v.grad
    h11, h12, h13, h22, h23, h33 = v.hess
    q1, q2, y = v.squares
    k1, k2 = d
    scratch = ws.rows[_V2_OUT:_V2_ROWS]
    c, e, t = scratch[:3]
    h_rows, eig_rows = scratch[3:8], scratch[8:12]
    # H's rows are free once its eigenvalues are out
    r2, quad, u = h_rows[:3]
    results = ws.block[_V2_ROWS:]
    (b1v, b2v, s1, s2, s3, f_term, g_term, lg1, lg2, u1, u2,
     dr1, dr2, dr3, ito) = ws.rows[_V2_ROWS:]
    # (c, e) is the third row of g; the first two rows are diag(b1, b2).
    _g_third_row(p, x1, x2, c, e)
    lam1, lam2 = _eigs(*_h_entries(p, c, e, v.hess, h_rows, t), eig_rows, ws.masks[0])
    # |x|^2 added as (x1^2 + x3^2) + x2^2, the order in which einsum sums a
    # row of three, so the gains keep the bits of the einsum formulation.
    np.add(q1, y, out=r2)
    r2 += q2
    np.multiply(lam1, lam1, out=b1v)        # k1 lam1^2 |x|^2
    b1v *= k1
    b1v *= r2
    np.multiply(lam2, lam2, out=b2v)        # k2 lam2^2 |x|^2 x3
    b2v *= k2
    b2v *= r2
    b2v *= x3
    np.multiply(p.b1, b1v, out=s1)
    np.multiply(p.b2, b2v, out=s2)
    np.multiply(c, b1v, out=s3)
    np.multiply(e, b2v, out=t)
    s3 += t
    np.multiply(p.third, b1v, out=ito)
    ito *= b2v
    # (s1 (h11 s1 + 2 (h12 s2 + h13 s3)) + s2 (h22 s2 + (2 h23) s3)) + (h33 s3) s3
    np.multiply(h12, s2, out=quad)
    np.multiply(h13, s3, out=t)
    quad += t
    quad *= _TWO
    np.multiply(h11, s1, out=t)
    quad += t
    quad *= s1
    np.multiply(_TWO, h23, out=t)
    t *= s3
    np.multiply(h22, s2, out=u)
    t += u
    t *= s2
    quad += t
    np.multiply(h33, s3, out=t)
    t *= s3
    quad += t
    np.multiply(d3, ito, out=f_term)
    quad *= _HALF
    f_term += quad
    np.multiply(p.b1, d1, out=lg1)
    np.multiply(c, d3, out=t)
    lg1 += t
    np.multiply(p.b2, d2, out=lg2)
    np.multiply(e, d3, out=t)
    lg2 += t
    np.multiply(lg1, lg1, out=g_term)
    np.multiply(lg2, lg2, out=t)
    g_term += t
    minus_factor = _sontag_factor(f_term, g_term, quad, t, ws.masks[0])
    np.negative(minus_factor, out=minus_factor)
    np.multiply(minus_factor, lg1, out=u1)
    np.multiply(minus_factor, lg2, out=u2)
    np.multiply(p.b1, u1, out=dr1)
    np.multiply(p.b2, u2, out=dr2)
    np.multiply(c, u1, out=dr3)
    np.multiply(e, u2, out=t)
    dr3 += t
    dr3 += ito
    return LoopColumns(v.value, v.norm_sq, b1v, b2v, results[2:5], f_term, g_term,
                       results[7:9], results[9:11], results[11:14], ito)


def loop_columns(p: SystemParams, d: DiffusionDesign, x1, x2, x3) -> LoopColumns:
    """Evaluate the whole closed loop in one pass at the states with
    coordinate columns x1, x2, x3 (arrays of one shape).

    v2 and its derivatives, H, its eigenvalues, B, sigma, F, G, L_g v2, the
    Sontag control, the Ito term ``ito`` (which F and the drift read) and
    the drift are each computed once, with the zeros of g skipped; x1^2,
    x2^2 and x3^2 are computed once, for v2, |x|^2 and the gains.  The pass
    computes into one block of column buffers, fresh here, and returns
    views of it (see :class:`LoopColumns`); a caller that evaluates the
    loop again and again passes one block to :func:`_loop_into`, and makes
    no new column on the way.
    """
    shape = np.broadcast_shapes(np.shape(x1), np.shape(x2), np.shape(x3))
    return _loop_into(_fresh(shape), _plant(p), _design(d), x1, x2, x3)


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """Assembled Ito loop: drift = (0, 0, ito) + g u_s, diffusion = sigma.

    ``columns(x1, x2, x3)`` evaluates v2, drift, diffusion and control
    together in one pass on coordinate columns; the ``sde`` callables and
    ``control`` return views of one such pass, the coordinate last.
    ``coefficients`` holds the plant's and the design's coefficients as
    0-d arrays, built once, for :func:`_loop_into`.
    """

    params: SystemParams
    design: DiffusionDesign
    sde: SdeSystem
    control: Callable
    coefficients: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", (_plant(self.params), _design(self.design)))

    def columns(self, x1, x2, x3) -> LoopColumns:
        """The one-pass kernel :func:`loop_columns` of this loop."""
        shape = np.broadcast_shapes(np.shape(x1), np.shape(x2), np.shape(x3))
        return _loop_into(_fresh(shape), *self.coefficients, x1, x2, x3)


def closed_loop(p: SystemParams, d: DiffusionDesign) -> ClosedLoop:
    """Assemble the noise-stabilized loop, whose callables each return
    views of one fresh kernel pass.

    Raises ValueError naming the violated condition when the gain map does
    not vanish at the origin or the equilibrium is not preserved exactly.
    """
    def columns(x):
        return loop.columns(*_columns(x))

    def drift(x):
        return np.moveaxis(columns(x).drift, 0, -1)

    def diffusion(x):
        return np.moveaxis(columns(x).sigma, 0, -1)

    def control(x):
        return np.moveaxis(columns(x).control, 0, -1)

    loop = ClosedLoop(p, d, SdeSystem(3, drift, diffusion, ITO), control)
    t = columns(np.zeros(3))
    if t.b1 != 0.0 or t.b2 != 0.0:
        raise ValueError("brockett6 violated: B(0) != 0 for this design")
    if t.drift.any() or t.sigma.any():
        raise ValueError("closed loop does not preserve the origin exactly")
    return loop


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

    def failed(self) -> list:
        return [name for name, ok in self.conditions.items() if not ok]


def _nonincreasing(seq) -> bool:
    return bool(np.all(np.diff(seq) <= 0.0))


def _not_finite(n_bad: int) -> str:
    return f", not finite at {n_bad} points" if n_bad else ""


def _states(points) -> np.ndarray:
    """``points`` as float states, raising ValueError unless of shape (N, 3)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
    return pts


# A state too large for float arithmetic gives a NaN or infinite gain, which
# fails its condition.
@np.errstate(over="ignore", invalid="ignore")
def check_design_conditions(p: SystemParams, d: DiffusionDesign, points,
                            b_fn: Optional[Callable] = None) -> DesignReport:
    """Check the gain-map conditions on a cloud of states.

    ``points`` is an (N, 3) array of states; they feed the sign condition,
    and their third coordinates provide the axis samples for the
    nonvanishing check.  ``b_fn`` (default: the eigenvalue-scaled design)
    maps states to (B1, B2) so stub designs can be audited with the same
    report.  A sign expression or axis gain that is not finite fails its
    condition, and the detail counts the points where it was not.
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

    angles = 2.0 * np.pi * np.arange(N_ANGLES) / N_ANGLES
    c1_seq = []
    c2_seq = []
    for r in CONTINUITY_RADII:
        ring = np.stack([r * np.cos(angles), r * np.sin(angles),
                         np.full(N_ANGLES, r)], axis=-1)
        b1r, b2r = b_fn(ring)
        c1_seq.append(float(np.abs(b1r * b2r * ring[:, 2]).max()))
        flat = ring.copy()
        flat[:, 2] = 0.0
        b1f, b2f = b_fn(flat)
        num = p.b1 ** 2 * b1f ** 2 + p.b2 ** 2 * b2f ** 2
        den = p.b1 ** 2 * flat[:, 0] ** 2 + p.b2 ** 2 * flat[:, 1] ** 2
        c2_seq.append(float((num / den).max()))
    conditions["continuous1"] = _nonincreasing(c1_seq) and c1_seq[-1] < 1e-6
    details["continuous1"] = "max |B1 B2 x3| by radius: " + \
        ", ".join(f"{v:.3g}" for v in c1_seq)
    conditions["continuous2"] = _nonincreasing(c2_seq) and c2_seq[-1] < 1e-6
    details["continuous2"] = "max |g B|^2/|g_12 x|^2 by radius: " + \
        ", ".join(f"{v:.3g}" for v in c2_seq)

    return DesignReport(conditions, details, tuple(c1_seq), tuple(c2_seq))
