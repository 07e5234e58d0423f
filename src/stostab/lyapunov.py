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

from typing import Callable, NamedTuple

import numpy as np
# A pass calls each ufunc by module name with its output as the last operand:
# at 200 rows multiply(a, b, a) took 0.37 us, np.multiply(a, b, out=a) 0.50
# us; and a += b in a closure would make a local to it.
from numpy import (add, copyto, count_nonzero, divide, greater, less, log, logical_and,
                   logical_not, multiply, power, sqrt, subtract)

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
    """``value`` as a read-only 0-d float64 array, which a ufunc takes as it
    is, while it converts a Python float operand on every call: at 200 rows
    a multiply took 0.56 us by the array, 0.82 us by the float, same bits."""
    a = np.array(value, dtype=float)
    a.flags.writeable = False
    return a


_ZERO, _HALF, _ONE, _TWO, _FOUR, _MINUS_ONE = map(_const, (0.0, 0.5, 1.0, 2.0, 4.0, -1.0))
_X_GUARD, _G_ZERO = _const(X_GUARD), _const(G_ZERO)


class _Workspace(NamedTuple):
    """A float block that a kernel pass computes into, one column a row."""

    block: np.ndarray       # the float block, whose row slices pair columns
    rows: tuple             # its rows, one column each
    masks: tuple            # two boolean columns


def _workspace(block: np.ndarray) -> _Workspace:
    """``block``, its rows as columns, and two boolean columns of their shape."""
    masks = np.empty((2,) + block.shape[1:], dtype=bool)
    return _Workspace(block, tuple(block[i, ...] for i in range(len(block))),
                      (masks[0, ...], masks[1, ...]))


def _state_block(x1, x2, x3) -> np.ndarray:
    """The coordinate columns x1, x2, x3 as one float block of shape (3, *shape)."""
    return np.array(np.broadcast_arrays(x1, x2, x3), dtype=float)


class _V2Columns(NamedTuple):
    """v2 and its derivatives at a batch of states, from :func:`_bind_v2`."""

    value: np.ndarray       # v2
    norm_sq: np.ndarray     # |x|^2, summed as (x1^2 + x2^2) + x3^2
    grad: tuple             # (d1, d2, d3)
    hess: tuple             # (h11, h12, h13, h22, h23, h33)


# Rows of a workspace that a v2 pass fills: the 11 columns of its result
# first, then 17 of scratch, which are free again once it returns.
_V2_OUT = 11
_V2_ROWS = _V2_OUT + 17


def _v2_views(ws: _Workspace) -> _V2Columns:
    """The first ``_V2_OUT`` rows of ``ws``, which a v2 pass returns; h11
    and h22 are adjacent rows."""
    r = ws.rows
    return _V2Columns(r[0], r[1], r[2:5], (r[5], r[7], r[8], r[6], r[9], r[10]))


def _bind_v2(ws: _Workspace, x: np.ndarray) -> Callable[[], _V2Columns]:
    """A pass, bound once to the (3, *shape) state block ``x`` and to the
    first ``_V2_ROWS`` rows of ``ws``, that computes v2, |x|^2, the gradient
    and the Hessian entries of :func:`v2_eval` at the states ``x`` holds
    when it is called, and returns :func:`_v2_views` of ``ws``.

    X/2, the power (X/2)^(1 + x3^2/2) and log(X/2) are evaluated once; the
    lower powers follow by dividing by X/2, and v2 reuses the same power.
    Paired columns sit in adjacent rows, so one call on same-shape row
    blocks computes (x1^2, x2^2, x3^2), (X/2, x3^2/2) and (h11, h22).
    Each temporary overwrites a dead row, and each element takes the IEEE
    operations of fresh temporaries, up to the order of a commutative
    operation's operands; v2 adds its terms in :func:`v2_eval`'s order, so
    both give the same bits.  Rows with X < ``X_GUARD`` take the X -> 0
    limits of the log-carrying terms (see :func:`v2_gradient` and
    :func:`v2_hessian`), patched only when some row has one.
    """
    v = _v2_views(ws)
    value, norm_sq, (d1, d2, d3), (h11, h12, h13, h22, h23, h33) = v
    (t, q1, big_x, y, a, p, two_y, h_axis, a_safe, log_a, a_p, a_pm1, two_p,
     planar, axial, rank1, cross) = ws.rows[_V2_OUT:_V2_ROWS]
    s, x1, x2, x3, x12 = _V2_OUT, x[0, ...], x[1, ...], x[2, ...], x[:2]
    # row blocks: X overwrites x2^2, beside x3^2, and (t, q1) is (rank1 x1, rank1 x2)
    squares, halves, rank1_x = ws.block[s + 1:s + 4], ws.block[s + 4:s + 6], ws.block[s:s + 2]
    big_x_y, h_ii = squares[1:], ws.block[5:7]
    small, axis_y = ws.masks
    off_diagonal = (h12, h13, h23)

    def v2_pass():
        multiply(x, x, squares)
        add(q1, big_x, big_x)
        add(big_x, y, norm_sq)
        multiply(_HALF, big_x_y, halves)      # (a, p) = (X/2, x3^2/2)
        add(p, _ONE, p)
        multiply(_TWO, y, two_y)
        subtract(_MINUS_ONE, y, h_axis)    # planar Hessian on X = 0
        less(big_x, _X_GUARD, small)
        patch = count_nonzero(small)
        safe = a_safe if patch else a
        if patch:
            copyto(a_safe, a)
            copyto(a_safe, _ONE, where=small)
        log(safe, log_a)
        power(safe, p, a_p)
        divide(a_p, safe, a_pm1)
        multiply(_TWO, p, two_p)
        multiply(two_p, a_pm1, planar)
        add(planar, h_axis, planar)
        # a * h_axis is -(a (1 + y)) exactly, so this is v2_eval's sum.
        multiply(a, h_axis, value)
        add(value, two_y, value)
        multiply(_TWO, a_p, t)                 # 2 (X/2)^p
        add(value, t, value)
        multiply(t, log_a, t)
        subtract(_FOUR, big_x, axial)      # big_x = 2 a, but for subnormal X
        add(axial, t, axial)

        subtract(p, _ONE, rank1)               # coefficient of x_i x_j
        multiply(rank1, two_p, rank1)
        divide(a_pm1, safe, t)
        multiply(rank1, t, rank1)
        multiply(p, log_a, t)
        add(t, _ONE, t)
        multiply(t, a_pm1, t)
        subtract(t, _ONE, t)
        multiply(_TWO, x3, cross)
        multiply(cross, t, cross)
        multiply(rank1, x1, t)
        multiply(rank1, x2, q1)
        multiply(rank1_x, x12, h_ii)          # (h11, h22) less the planar term
        multiply(t, x2, h12)
        add(h11, planar, h11)
        add(h22, planar, h22)
        multiply(x1, cross, h13)
        multiply(x2, cross, h23)
        multiply(two_y, a_p, h33)
        multiply(h33, log_a, h33)
        multiply(h33, log_a, h33)
        add(h33, axial, h33)
        if patch:
            # a_safe = 1 on these rows, so the power-log terms (d3's too)
            # vanish; v2 takes the power of the true X/2.  The 0^0 corner
            # (X = 0, x3 = 0) of the gradient's power is defined as 1.
            power(a, p, t)
            multiply(t, _TWO, t)
            multiply(a, h_axis, rank1)
            add(rank1, two_y, rank1)
            add(rank1, t, rank1)
            copyto(value, rank1, where=small)
            copyto(h11, h_axis, where=small)
            copyto(h22, h_axis, where=small)
            for h in off_diagonal:
                copyto(h, _ZERO, where=small)
            copyto(h33, _FOUR, where=small)
            greater(y, _ZERO, axis_y)
            logical_and(axis_y, small, axis_y)
            copyto(planar, h_axis, where=axis_y)
        multiply(x1, planar, d1)
        multiply(x2, planar, d2)
        multiply(x3, axial, d3)
        return v

    return v2_pass


def _v2_columns(x1, x2, x3) -> _V2Columns:
    """:func:`_bind_v2` on a fresh workspace, run once."""
    x = _state_block(x1, x2, x3)
    return _bind_v2(_workspace(np.empty((_V2_ROWS,) + x.shape[1:])), x)()


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


def _bind_sontag_factor(fg, out, mask) -> Callable[[], np.ndarray]:
    """A pass that computes (F + sqrt(F^2 + G^2)) / G, or 0 where G <= ``G_ZERO``
    or is NaN, from the rows (F, G) of the block ``fg`` into the first row of
    the block ``out``, of its shape, and returns that row; the second row and
    ``mask`` are scratch."""
    f_term, g_term, factor, t = fg[0, ...], fg[1, ...], out[0, ...], out[1, ...]
    size = mask.size

    def factor_pass():
        multiply(fg, fg, out)               # (F^2, G^2)
        add(factor, t, factor)
        sqrt(factor, factor)
        add(factor, f_term, factor)
        greater(g_term, _G_ZERO, mask)
        if count_nonzero(mask) == size:
            divide(factor, g_term, factor)
            return factor
        zero = logical_not(mask, mask)
        copyto(t, g_term)
        copyto(t, _ONE, where=zero)
        divide(factor, t, factor)
        copyto(factor, _ZERO, where=zero)
        return factor

    return factor_pass


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
    fg = np.array(np.broadcast_arrays(f_term, g_term))
    factor = _bind_sontag_factor(fg, np.empty_like(fg), np.empty(fg.shape[1:], bool))()
    return -factor[..., None] * lg
