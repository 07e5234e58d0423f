"""Reference closed-loop kernel: the allocating one-pass evaluation.

``loop_columns``, ``_v2_columns``, ``_h_entries``, ``_eigs``,
``_sontag_factor`` and ``_drift_third`` are kept verbatim as they were
before the kernel computed into a reused workspace: every temporary a fresh
array and every constant a Python float.  Two lines have since followed
the kernel's formulas: the gains read v2's |x|^2, and F's quadratic form
sigma^T Hess(v2) sigma is B^T H B from the entries of H.  The workspace
kernel in ``stostab.brockett`` must reproduce every field of its
``LoopColumns`` bit for bit.
"""

from typing import NamedTuple

import numpy as np

from stostab.brockett import LoopColumns
from stostab.lyapunov import G_ZERO, X_GUARD


class _V2Columns(NamedTuple):
    """v2 and its derivatives at a batch of states, from :func:`_v2_columns`."""

    value: np.ndarray       # v2
    norm_sq: np.ndarray     # |x|^2, summed as (x1^2 + x2^2) + x3^2
    grad: tuple             # (d1, d2, d3)
    hess: tuple             # (h11, h12, h13, h22, h23, h33)


def _v2_columns(x1, x2, x3) -> _V2Columns:
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


def _sontag_factor(f_term, g_term):
    """(F + sqrt(F^2 + G^2)) / G, and 0 where G <= ``G_ZERO`` (or is NaN)."""
    root = f_term + np.sqrt(f_term * f_term + g_term * g_term)
    if (g_term > G_ZERO).all():
        return root / g_term
    zero = ~(g_term > G_ZERO)
    return np.where(zero, 0.0, root / np.where(zero, 1.0, g_term))


def _h_entries(p, c, e, hess) -> tuple:
    h11, h12, h13, h22, h23, h33 = hess
    b1, b2 = p.b1, p.b2
    b1_h13 = b1 * h13
    c_h33 = c * h33
    return (b1 * h11 * b1 + 2.0 * (b1_h13 * c) + c_h33 * c,
            b1 * h12 * b2 + b1_h13 * e + c * h23 * b2 + c_h33 * e,
            b2 * h22 * b2 + 2.0 * (b2 * h23 * e) + e * h33 * e)


def _eigs(h11, h12, h22) -> tuple:
    mid = 0.5 * (h11 + h22)
    h12_sq = h12 * h12
    rad = np.sqrt((0.5 * (h11 - h22)) ** 2 + h12_sq)
    big = mid + np.copysign(rad, mid)
    small = (h11 * h22 - h12_sq) / np.where(big == 0.0, 1.0, big)
    return np.minimum(small, big), np.maximum(small, big)


def _drift_third(p, b1v, b2v):
    return 0.5 * (p.b2 * p.b3 - p.b1 * p.b4) * b1v * b2v


def loop_columns(p, d, x1, x2, x3) -> LoopColumns:
    """The closed loop at states given as coordinate columns, one pass."""
    v = _v2_columns(x1, x2, x3)
    d1, d2, d3 = v.grad
    # (c, e) is the third row of g; the first two rows are diag(b1, b2).
    c, e = p.b3 * x2, -p.b4 * x1
    k11, k12, k22 = _h_entries(p, c, e, v.hess)
    lam1, lam2 = _eigs(k11, k12, k22)
    r2 = v.norm_sq
    b1v = d.k1 * lam1 ** 2 * r2
    b2v = d.k2 * lam2 ** 2 * r2 * x3
    s1, s2, s3 = p.b1 * b1v, p.b2 * b2v, c * b1v + e * b2v
    f3 = _drift_third(p, b1v, b2v)
    # sigma^T Hess(v2) sigma = B^T H B, since sigma = g B
    quad = b1v * (k11 * b1v + k12 * b2v * 2.0) + k22 * b2v * b2v
    f_term = d3 * f3 + 0.5 * quad
    lg1 = p.b1 * d1 + c * d3
    lg2 = p.b2 * d2 + e * d3
    g_term = lg1 * lg1 + lg2 * lg2
    minus_factor = -_sontag_factor(f_term, g_term)
    u1 = minus_factor * lg1
    u2 = minus_factor * lg2
    return LoopColumns(v.value, v.norm_sq, b1v, b2v, (s1, s2, s3), f_term,
                       g_term, (lg1, lg2), (u1, u2),
                       (p.b1 * u1, p.b2 * u2, c * u1 + e * u2 + f3))
