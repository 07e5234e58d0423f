"""Reference evaluations for the kernel parity tests: the closed loop by
full-matrix einsums, the generator of a scalar field along an SDE, and
central-difference Jacobians; and the kernel's Ito drift as a 3-vector."""

from typing import Callable, NamedTuple, Optional

import numpy as np

from stostab import (eigs_sym2, g_matrix, loop_columns, sontag_control, v2_eval,
                     v2_gradient, v2_hessian)


def oracle_loop(p, d, x):
    """(drift, diffusion, control) of the closed loop by full-matrix einsums.

    This is the loop algebra written term by term over the dense g, with H
    formed by a 3-operand einsum; the one-pass kernel must reproduce it.
    """
    x = np.asarray(x, dtype=float)
    g = g_matrix(p, x)
    grad = v2_gradient(x)
    hess = v2_hessian(x)
    lam1, lam2 = eigs_sym2(np.einsum('...ji,...jk,...kl->...il', g, hess, g))
    r2 = np.einsum('...i,...i->...', x, x)
    b1v = d.k1 * lam1 ** 2 * r2
    b2v = d.k2 * lam2 ** 2 * r2 * x[..., 2]
    s = np.einsum('...ik,...k->...i', g, np.stack([b1v, b2v], axis=-1))
    f3 = 0.5 * (p.b2 * p.b3 - p.b1 * p.b4) * b1v * b2v
    f_term = grad[..., 2] * f3 \
        + 0.5 * np.einsum('...i,...ij,...j->...', s, hess, s)
    lg = np.einsum('...i,...ik->...k', grad, g)
    g_term = np.einsum('...k,...k->...', lg, lg)
    u = sontag_control(f_term, g_term, lg)
    drift = np.einsum('...ik,...k->...i', g, u)
    drift[..., 2] += f3
    return drift, s, u


class Field(NamedTuple):
    """A scalar field V by its value, gradient and Hessian evaluators."""

    value: Callable
    gradient: Callable
    hessian: Callable


# The quadratic candidate |x|^2, and v2.
V1 = Field(lambda x: np.einsum('...i,...i->...', x, x),
           lambda x: 2.0 * np.asarray(x, float),
           lambda x: np.broadcast_to(2.0 * np.eye(3), np.shape(x)[:-1] + (3, 3)))
V2 = Field(v2_eval, v2_gradient, v2_hessian)


class Generator(NamedTuple):
    """Parts of the generator of V along an SDE: ``lf_v`` = grad V . f,
    ``trace_term`` = (1/2) sigma^T (Hess V) sigma, and ``lg_v`` = grad V . g
    when a control matrix was given."""

    lf_v: np.ndarray
    trace_term: np.ndarray
    lg_v: Optional[np.ndarray] = None

    def value(self):
        """The generator with no control, lf_v + trace_term."""
        return self.lf_v + self.trace_term


def generator(field: Field, drift, diffusion, x, control_matrix=None) -> Generator:
    """The generator of ``field`` at x by einsums, split into its parts.

    ``drift`` and ``diffusion`` may be None, meaning identically zero; the
    diffusion must be the Ito-form one.
    """
    x = np.asarray(x, dtype=float)
    grad = np.asarray(field.gradient(x), float)
    zeros = np.zeros(x.shape[:-1])
    lf = zeros if drift is None else \
        np.einsum('...i,...i->...', grad, np.asarray(drift(x), float))
    trace = zeros
    if diffusion is not None:
        s = np.asarray(diffusion(x), float)
        trace = 0.5 * np.einsum('...i,...ij,...j->...', s,
                                np.asarray(field.hessian(x), float), s)
    lg = None
    if control_matrix is not None:
        lg = np.einsum('...i,...ik->...k', grad,
                       np.asarray(control_matrix(x), float))
    return Generator(lf, trace, lg)


def ito_drift(p, d, x) -> np.ndarray:
    """The randomized loop's Ito drift before the control,
    g v + (1/2)(d sigma/dx) sigma = (0, 0, ito), at states x (..., 3), with
    ``ito`` the kernel's Ito row."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    out[..., 2] = loop_columns(p, d, x[..., 0], x[..., 1], x[..., 2]).ito
    return out


def jacobian_fd(fn, x) -> np.ndarray:
    """Central-difference Jacobian of a batched vector field, one column per
    coordinate, with step max(1e-6, 1e-6 |x_j|); shape ``(..., n, n)``."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.shape[-1]):
        h = np.maximum(1e-6, 1e-6 * np.abs(x[..., j]))
        xp = x.copy()
        xp[..., j] += h
        xm = x.copy()
        xm[..., j] -= h
        cols.append((np.asarray(fn(xp), float) - np.asarray(fn(xm), float))
                    / (2.0 * h)[..., None])
    return np.stack(cols, axis=-1)
