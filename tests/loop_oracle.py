"""Reference evaluation of the closed loop for the kernel parity tests."""

import numpy as np

from stostab import eigs_sym2, g_matrix, sontag_control, v2_gradient, v2_hessian


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
