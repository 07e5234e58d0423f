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


def _const(value) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array.

    A ufunc converts a Python float operand on every call and takes a 0-d
    array as it is: at 200 rows a multiply by the array took 0.56 us
    against 0.82 us by the float, for the same arithmetic and bits.
    """
    a = np.array(value, dtype=float)
    a.flags.writeable = False
    return a


_ZERO, _HALF, _ONE, _TWO, _FOUR, _MINUS_ONE = map(_const, (0.0, 0.5, 1.0, 2.0, 4.0, -1.0))
_X_GUARD, _G_ZERO = _const(X_GUARD), _const(G_ZERO)


class _Workspace(NamedTuple):
    """Column buffers of one shape that a kernel pass computes into."""

    block: np.ndarray       # the float columns, one a row
    rows: tuple             # the rows of ``block``
    masks: tuple            # two boolean columns


def _workspace(block: np.ndarray) -> _Workspace:
    """The float ``block``, its rows as columns, and two boolean columns
    of their shape."""
    masks = np.empty((2,) + block.shape[1:], dtype=bool)
    return _Workspace(block, tuple(block[i, ...] for i in range(len(block))),
                      (masks[0, ...], masks[1, ...]))


class _V2Columns(NamedTuple):
    """v2 and its derivatives at a batch of states, from :func:`_v2_into`."""

    value: np.ndarray       # v2
    norm_sq: np.ndarray     # |x|^2, summed as (x1^2 + x2^2) + x3^2
    grad: tuple             # (d1, d2, d3)
    hess: tuple             # (h11, h12, h13, h22, h23, h33)
    squares: tuple          # (x1^2, x2^2, x3^2)


# Rows of a workspace that _v2_into fills: the 14 columns of its result
# first, then 15 of scratch, which are free again once it returns.
_V2_OUT = 14
_V2_ROWS = _V2_OUT + 15


def _v2_into(ws: _Workspace, x1, x2, x3) -> _V2Columns:
    """v2, |x|^2, the gradient and the Hessian entries of :func:`v2_eval`
    at states given as coordinate columns, from one pass into the first
    ``_V2_ROWS`` rows of ``ws``; the result is views of its first
    ``_V2_OUT`` rows.

    The squares of x1, x2 and x3, X/2, the power (X/2)^(1 + x3^2/2) and
    log(X/2) are evaluated once; the lower powers follow by dividing by X/2,
    and v2 reuses the same power.  Each temporary is written into a row of
    ``ws`` and overwritten in place once dead; each element takes the same
    IEEE operations, up to the order of a commutative operation's operands,
    as when every temporary was a fresh array.  The terms of v2 are added in
    the order of :func:`v2_eval`, so both give the same bits.  Rows with
    X < ``X_GUARD`` take the X -> 0 limits of the log-carrying terms (see
    :func:`v2_gradient` and :func:`v2_hessian`); they are patched only when
    some row has one.
    """
    (value, norm_sq, d1, d2, d3, h11, h12, h13, h22, h23, h33, q1, q2, y,
     big_x, a, p, two_y, h_axis, a_safe, log_a, a_p, a_pm1, two_p, planar,
     axial, rank1, cross, t) = ws.rows[:_V2_ROWS]
    small, axis_y = ws.masks
    np.multiply(x1, x1, out=q1)
    np.multiply(x2, x2, out=q2)
    np.multiply(x3, x3, out=y)
    np.add(q1, q2, out=big_x)
    np.add(big_x, y, out=norm_sq)
    np.multiply(_HALF, big_x, out=a)
    np.multiply(_HALF, y, out=p)
    p += _ONE
    np.multiply(_TWO, y, out=two_y)
    np.subtract(_MINUS_ONE, y, out=h_axis)    # planar Hessian on X = 0
    np.less(big_x, _X_GUARD, out=small)
    patch = small.any()
    if patch:
        np.copyto(a_safe, a)
        np.copyto(a_safe, _ONE, where=small)
    else:
        a_safe = a
    np.log(a_safe, out=log_a)
    np.power(a_safe, p, out=a_p)
    np.divide(a_p, a_safe, out=a_pm1)
    np.multiply(_TWO, p, out=two_p)
    np.multiply(two_p, a_pm1, out=planar)
    planar += h_axis
    # a * h_axis is -(a (1 + y)) exactly, so this is v2_eval's sum.
    np.multiply(a, h_axis, out=value)
    value += two_y
    np.multiply(_TWO, a_p, out=t)                 # 2 (X/2)^p
    value += t
    t *= log_a
    np.subtract(_FOUR, big_x, out=axial)      # big_x = 2 a, but for subnormal X
    axial += t

    np.subtract(p, _ONE, out=rank1)               # coefficient of x_i x_j
    rank1 *= two_p
    np.divide(a_pm1, a_safe, out=t)
    rank1 *= t
    np.multiply(p, log_a, out=t)
    t += _ONE
    t *= a_pm1
    t -= _ONE
    np.multiply(_TWO, x3, out=cross)
    cross *= t
    np.multiply(rank1, x1, out=t)
    np.multiply(t, x1, out=h11)
    h11 += planar
    np.multiply(t, x2, out=h12)
    np.multiply(rank1, x2, out=h22)
    h22 *= x2
    h22 += planar
    np.multiply(x1, cross, out=h13)
    np.multiply(x2, cross, out=h23)
    np.multiply(two_y, a_p, out=h33)
    h33 *= log_a
    h33 *= log_a
    h33 += axial
    if patch:
        # a_safe = 1 on these rows, so the power-log terms (d3's too) vanish;
        # v2 takes the power of the true X/2.  The 0^0 corner (X = 0,
        # x3 = 0) of the gradient's power is defined as 1.
        np.power(a, p, out=t)
        t *= _TWO
        np.multiply(a, h_axis, out=rank1)
        rank1 += two_y
        rank1 += t
        np.copyto(value, rank1, where=small)
        np.copyto(h11, h_axis, where=small)
        np.copyto(h22, h_axis, where=small)
        for h in (h12, h13, h23):
            np.copyto(h, _ZERO, where=small)
        np.copyto(h33, _FOUR, where=small)
        np.greater(y, _ZERO, out=axis_y)
        axis_y &= small
        np.copyto(planar, h_axis, where=axis_y)
    np.multiply(x1, planar, out=d1)
    np.multiply(x2, planar, out=d2)
    np.multiply(x3, axial, out=d3)
    return _V2Columns(value, norm_sq, (d1, d2, d3), (h11, h12, h13, h22, h23, h33),
                      (q1, q2, y))


def _v2_columns(x1, x2, x3) -> _V2Columns:
    """:func:`_v2_into` on a fresh workspace."""
    shape = np.broadcast_shapes(np.shape(x1), np.shape(x2), np.shape(x3))
    return _v2_into(_workspace(np.empty((_V2_ROWS,) + shape)), x1, x2, x3)


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


def _sontag_factor(f_term, g_term, out, t, mask):
    """(F + sqrt(F^2 + G^2)) / G into ``out``, and 0 where G <= ``G_ZERO``
    (or is NaN); ``t`` and the boolean ``mask`` are scratch columns."""
    np.multiply(f_term, f_term, out=out)
    np.multiply(g_term, g_term, out=t)
    out += t
    np.sqrt(out, out=out)
    out += f_term
    np.greater(g_term, _G_ZERO, out=mask)
    if mask.all():
        out /= g_term
        return out
    zero = np.logical_not(mask, out=mask)
    np.copyto(t, g_term)
    np.copyto(t, _ONE, where=zero)
    out /= t
    np.copyto(out, _ZERO, where=zero)
    return out


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
    ws = _workspace(np.empty((2,) + np.broadcast_shapes(f_term.shape, g_term.shape)))
    factor = _sontag_factor(f_term, g_term, *ws.rows, ws.masks[0])
    return -factor[..., None] * lg
