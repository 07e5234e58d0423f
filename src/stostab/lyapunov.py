"""The Lyapunov candidate v2, its exact derivatives, and the universal-formula
feedback.

For the integrator state (x1, x2, x3), writing X = x1^2 + x2^2, the obvious
quadratic x1^2 + x2^2 + x3^2 has a control derivative that vanishes
identically on the plane M = {x1 = x2 = 0}, which is what obstructs a
continuous stabilizer.  The candidate used instead,

    v2 = 2 x3^2 - (X/2)(1 + x3^2) + 2 (X/2)^(1 + x3^2/2),

is positive definite and shaped so that its Hessian restricted to M is
diag(-(1+x3^2), -(1+x3^2), 4): concave down exactly where noise has to do
the work.

All evaluators broadcast over leading batch axes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Below this value of X = x1^2 + x2^2 the log-carrying terms are replaced by
# their X -> 0 limits.  It sits 20 decades above G_ZERO, so the G = 0 branch
# of the control law is reached only on rows this patch already treats as on
# the axis, where F < 0.  Off the patch, G = ||L_g v2||^2 is of order X (G/X
# >= 2.6e-11 on log-radial sweeps of four plants).  Were the two guards
# equal, rows with X just above them and x3 <= 0.044 would have G < G_ZERO
# while F > 0, and the u = 0 branch would leave LV = F > 0 there.
X_GUARD = 1e-280

# |G| below this is treated as the exact G = 0 branch of the control law.
G_ZERO = 1e-300


def _columns(x) -> tuple:
    """The coordinate columns (x1, x2, x3) of a batch of states."""
    x = np.asarray(x, dtype=float)
    return x[..., 0], x[..., 1], x[..., 2]


def v2_eval(x):
    """v2 = 2 x3^2 - (X/2)(1 + x3^2) + 2 (X/2)^(1 + x3^2/2)."""
    x1, x2, x3 = _columns(x)
    a = 0.5 * (x1 * x1 + x2 * x2)
    y = x3 * x3
    return 2.0 * y - a * (1.0 + y) + 2.0 * a ** (1.0 + 0.5 * y)


class _V2Columns(NamedTuple):
    """v2 and its derivatives at a batch of states, from :func:`_v2_columns`."""

    value: np.ndarray       # v2
    norm_sq: np.ndarray     # |x|^2, summed as (x1^2 + x2^2) + x3^2
    grad: tuple             # (d1, d2, d3)
    hess: tuple             # (h11, h12, h13, h22, h23, h33)


def _v2_columns(x1, x2, x3) -> _V2Columns:
    """v2, |x|^2, the gradient and the Hessian entries of :func:`v2_eval`
    at states given as coordinate columns, from one pass.

    X/2, x3^2, the power (X/2)^(1 + x3^2/2) and log(X/2) are evaluated once;
    the lower powers follow by dividing by X/2, and v2 reuses the same power.
    The terms of v2 are added in the order of :func:`v2_eval`, so both give
    the same bits.  Rows with X < ``X_GUARD`` take the X -> 0 limits of the
    log-carrying terms (see :func:`v2_gradient` and :func:`v2_hessian`); they
    are patched only when some row has one.
    """
    big_x = x1 * x1 + x2 * x2
    a = 0.5 * big_x
    y = x3 * x3
    p = 1.0 + 0.5 * y
    two_y = 2.0 * y
    h_axis = -1.0 - y                             # planar Hessian on X = 0
    small = big_x < X_GUARD
    patch = small.any()
    a_safe = np.where(small, 1.0, a) if patch else a
    log_a = np.log(a_safe)
    a_p = a_safe ** p
    a_pm1 = a_p / a_safe
    two_p = 2.0 * p
    two_a_p = 2.0 * a_p
    planar = h_axis + two_p * a_pm1
    # a * h_axis is -(a (1 + y)) exactly, so this is v2_eval's sum.
    value = two_y + a * h_axis + two_a_p
    axial = 4.0 - big_x + two_a_p * log_a     # big_x = 2 a, but for subnormal X

    rank1 = two_p * (p - 1.0) * (a_pm1 / a_safe)   # coefficient of x_i x_j
    cross = 2.0 * x3 * (a_pm1 * (1.0 + p * log_a) - 1.0)
    rank1_x1 = rank1 * x1
    grad_planar = planar
    h11 = planar + rank1_x1 * x1
    h22 = planar + rank1 * x2 * x2
    h12 = rank1_x1 * x2
    h13 = x1 * cross
    h23 = x2 * cross
    h33 = axial + two_y * a_p * log_a * log_a
    if patch:
        # a_safe = 1 on these rows, so the power-log terms (d3's too) vanish;
        # v2 takes the power of the true X/2.  The 0^0 corner (X = 0,
        # x3 = 0) of the gradient's power is defined as 1.
        value = np.where(small, two_y + a * h_axis + 2.0 * a ** p, value)
        grad_planar = np.where(small & (y > 0.0), h_axis, planar)
        h11 = np.where(small, h_axis, h11)
        h22 = np.where(small, h_axis, h22)
        h12 = np.where(small, 0.0, h12)
        h13 = np.where(small, 0.0, h13)
        h23 = np.where(small, 0.0, h23)
        h33 = np.where(small, 4.0, h33)
    return _V2Columns(value, big_x + y,
                      (x1 * grad_planar, x2 * grad_planar, x3 * axial),
                      (h11, h12, h13, h22, h23, h33))


def v2_gradient(x):
    """Closed-form gradient of :func:`v2_eval`.

    The planar components are x_i (-(1+x3^2) + (2+x3^2) (X/2)^(x3^2/2)); the
    axial one is x3 (4 - X + 2 (X/2)^(1+x3^2/2) log(X/2)).  Below
    X = ``X_GUARD`` (1e-280) the power-log terms take their X -> 0 limit 0;
    the 0^0 corner (X = 0, x3 = 0) is defined as 1.  Both extensions leave
    the gradient continuous.
    """
    return np.stack(_v2_columns(*_columns(x)).grad, axis=-1)


def v2_hessian(x):
    """Closed-form Hessian of :func:`v2_eval`.

    On X = 0, and on every row with X below ``X_GUARD`` (1e-280), the
    evaluator returns diag(-(1+x3^2), -(1+x3^2), 4), the limit of the
    Hessian within that plane.  v2 is not C^2 across the origin (the
    transverse second derivative there is +1), so this is a choice: the
    within-plane continuation is the one the noise design relies on.
    """
    h11, h12, h13, h22, h23, h33 = _v2_columns(*_columns(x)).hess
    row1 = np.stack([h11, h12, h13], axis=-1)
    row2 = np.stack([h12, h22, h23], axis=-1)
    row3 = np.stack([h13, h23, h33], axis=-1)
    return np.stack([row1, row2, row3], axis=-2)


def _sontag_factor(f_term, g_term):
    """(F + sqrt(F^2 + G^2)) / G, and 0 where G <= ``G_ZERO`` (or is NaN)."""
    root = f_term + np.sqrt(f_term * f_term + g_term * g_term)
    if (g_term > G_ZERO).all():
        return root / g_term
    zero = ~(g_term > G_ZERO)
    return np.where(zero, 0.0, root / np.where(zero, 1.0, g_term))


def sontag_control(f_term, g_term, lg_v) -> np.ndarray:
    """Universal formula u = -((F + sqrt(F^2 + G^2)) / G) lg_v^T, u = 0 at G = 0.

    ``g_term`` must equal ||lg_v||^2; consistency is checked to 1e-12
    relative and violations raise ValueError.  G below 1e-300 takes the
    exact-zero branch.
    """
    f_term = np.asarray(f_term, dtype=float)
    g_term = np.asarray(g_term, dtype=float)
    lg = np.asarray(lg_v, dtype=float)
    gg = np.einsum('...k,...k->...', lg, lg)
    if np.any(np.abs(g_term - gg) > 1e-12 * np.maximum(1.0, np.abs(g_term))):
        raise ValueError("g_term is inconsistent with lg_v . lg_v^T")
    return -_sontag_factor(f_term, g_term)[..., None] * lg
