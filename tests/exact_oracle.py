"""Exact reference for v2, the eigenvalue-scaled noise design and the Ito
drift of the randomized loop.

Every quantity is built as a sympy expression in (x1, x2, x3, b1..b4, k1,
k2), differentiated symbolically, evaluated in mpmath at 40 significant
digits and rounded once to double.  Nothing here reuses the package's
formulas, so a wrong closed form in the package shows as a mismatch:

* v2, its gradient and its Hessian;
* H = g^T Hess(v2) g and its eigenvalues mid -/+ rad;
* B = (k1 lam1^2 |x|^2, k2 lam2^2 |x|^2 x3), sigma = g B and d sigma/dx;
* the pre-feedback v_i = -(d sigma_i/dx . sigma) / (2 b_i) and the
  randomized drift g v + (1/2)(d sigma/dx) sigma, assembled term by term
  rather than in the package's grouped form;
* F = (1/2) sigma^T Hess(v2) sigma + (dv2/dx3) drift_3, summed over the
  full 3x3 form rather than the package's B^T H B.

The design is compiled in two stages to keep the expressions small: the
Hessian entries of v2 and their x-derivatives are exact expressions in x,
and everything after them is an expression in those entries, with the
chain rule through them applied by sympy.  The expressions carry log(X/2),
X = x1^2 + x2^2, so states must lie off the axis x1 = x2 = 0.
"""

import functools

import mpmath
import numpy as np
import sympy as sp

DIGITS = 40

X = sp.symbols("x1 x2 x3")
PLANT = sp.symbols("b1 b2 b3 b4")
DESIGN = sp.symbols("k1 k2")
# Upper-triangle entries of a symmetric 3x3, in the package's order.
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _v2():
    x1, x2, x3 = X
    a = (x1 ** 2 + x2 ** 2) / 2
    return 2 * x3 ** 2 - a * (1 + x3 ** 2) + 2 * a ** (1 + x3 ** 2 / 2)


def _compile(args, exprs):
    return sp.lambdify(args, list(exprs), modules="mpmath", cse=True)


@functools.cache
def _v2_fn():
    grad = [sp.diff(_v2(), xi) for xi in X]
    hess = [sp.diff(gi, xj) for gi in grad for xj in X]
    return _compile(X, grad + hess)


@functools.cache
def _design_fns():
    """(stage 1, stage 2): x -> Hessian entries of v2 and their gradients;
    (x, b, k, those values) -> B, sigma, d sigma/dx, v and the drift."""
    x1, x2, x3 = X
    b1, b2, b3, b4 = PLANT
    k1, k2 = DESIGN
    hess = sp.hessian(_v2(), X)
    entries = [hess[ij] for ij in _UPPER]
    stage1 = _compile(X, entries + [sp.diff(e, xj) for e in entries
                                    for xj in X])

    # Hess(v2) as unknown functions of x, so that differentiating below
    # leaves Derivative(h_ij(x), x_k) in place of third derivatives.
    funcs = [sp.Function(f"h{i + 1}{j + 1}")(*X) for i, j in _UPPER]
    h_syms = sp.symbols("h11 h12 h13 h22 h23 h33")
    dh_syms = sp.symbols("dh0:18")
    hm = sp.Matrix(3, 3, lambda i, j:
                   funcs[_UPPER.index((min(i, j), max(i, j)))])
    g = sp.Matrix([[b1, 0], [0, b2], [b3 * x2, -b4 * x1]])
    h = g.T * hm * g
    mid = (h[0, 0] + h[1, 1]) / 2
    rad = sp.sqrt(((h[0, 0] - h[1, 1]) / 2) ** 2 + h[0, 1] ** 2)
    r2 = x1 ** 2 + x2 ** 2 + x3 ** 2
    gains = sp.Matrix([k1 * (mid - rad) ** 2 * r2,
                       k2 * (mid + rad) ** 2 * r2 * x3])
    sig = g * gains
    dsig = sig.jacobian(X)
    corr = dsig * sig
    v = sp.Matrix([-corr[0] / (2 * b1), -corr[1] / (2 * b2)])
    drift = g * v + corr / 2

    # Derivative(h_ij, x_k) is matched before the h_ij inside it.
    subs = {sp.Derivative(f, xj): dh_syms[3 * n + m]
            for n, f in enumerate(funcs) for m, xj in enumerate(X)}
    subs.update(zip(funcs, h_syms))
    exprs = [e.xreplace(subs) for e in (*gains, *sig, *dsig, *v, *drift)]
    stage2 = _compile(X + PLANT + DESIGN + h_syms + dh_syms, exprs)
    return stage1, stage2


# Both caches are keyed by a state's three doubles: the tests evaluate the
# same states several times, and the stage-1 values serve every plant and
# design.
@functools.cache
def _v2_row(*x):
    with mpmath.workdps(DIGITS):
        return tuple(float(val) for val in _v2_fn()(*map(mpmath.mpf, x)))


@functools.cache
def _stage1_row(*x):
    with mpmath.workdps(DIGITS):
        return tuple(_design_fns()[0](*map(mpmath.mpf, x)))


def _states(x):
    return [tuple(map(float, row))
            for row in np.asarray(x, dtype=float).reshape(-1, 3)]


def v2_derivatives(x):
    """Exact (gradient (n, 3), Hessian (n, 3, 3)) of v2 at states (n, 3)."""
    out = np.array([_v2_row(*row) for row in _states(x)])
    return out[:, :3], out[:, 3:].reshape(-1, 3, 3)


def design(p, d, x):
    """Exact design quantities of plant ``p`` and gains ``d`` at states (n, 3).

    Returns a dict of float arrays: ``b`` (n, 2), ``sigma`` (n, 3),
    ``dsigma`` (n, 3, 3) with d sigma_i/dx_j at [:, i, j], ``v`` (n, 2) and
    ``drift`` (n, 3).
    """
    stage2 = _design_fns()[1]
    with mpmath.workdps(DIGITS):
        consts = [mpmath.mpf(c) for c in (p.b1, p.b2, p.b3, p.b4, d.k1, d.k2)]
        out = np.array([[float(val) for val in
                         stage2(*map(mpmath.mpf, row), *consts,
                                *_stage1_row(*row))]
                        for row in _states(x)])
    return {"b": out[:, :2], "sigma": out[:, 2:5],
            "dsigma": out[:, 5:14].reshape(-1, 3, 3), "v": out[:, 14:16],
            "drift": out[:, 16:19]}


def f_term(p, d, x):
    """Exact F = (1/2) sigma^T Hess(v2) sigma + (dv2/dx3) drift_3 of plant
    ``p`` and gains ``d`` at states (n, 3), and its magnitude sum
    S = (1/2) sum_ij |sigma_i Hess_ij sigma_j| + |(dv2/dx3) drift_3|.

    Every term is taken from the stages above at ``DIGITS`` digits, and F
    and S are each rounded to double once; returns two float arrays (n,).
    """
    stage2 = _design_fns()[1]
    f, s = [], []
    with mpmath.workdps(DIGITS):
        consts = [mpmath.mpf(c) for c in (p.b1, p.b2, p.b3, p.b4, d.k1, d.k2)]
        for row in _states(x):
            xs = [mpmath.mpf(v) for v in row]
            h_and_dh = _stage1_row(*row)
            out = stage2(*xs, *consts, *h_and_dh)
            hess = h_and_dh[:6]
            sig = out[2:5]
            drift_term = _v2_fn()(*xs)[2] * out[18]
            terms = [sig[i] * hess[_UPPER.index((min(i, j), max(i, j)))] * sig[j]
                     for i in range(3) for j in range(3)]
            f.append(float(sum(terms) / 2 + drift_term))
            s.append(float(sum(map(abs, terms)) / 2 + abs(drift_term)))
    return np.array(f), np.array(s)
