"""Where L_g v2 vanishes, and the plants on which that is the x3-axis alone.

Write y = x3^2 and X = x1^2 + x2^2, and let P and A be the planar and
axial factors of v2's gradient,

    P = -(1 + y) + (2 + y) (X/2)^(y/2),
    A = 4 - X + 2 (X/2)^(1 + y/2) log(X/2).

Then L_g v2 = M (x1, x2)^T with M = [[b1 P, b3 x3 A], [-b4 x3 A, b2 P]],
and det M = b1 b2 P^2 + b3 b4 y A^2.  When (b1 b2)(b3 b4) > 0 the two
terms share a sign, and they vanish together only where P = 0 and y A^2 =
0.  At y = 0, P = 1.  For y > 0, P = 0 forces X/2 < 1, and there
A > 2 - 2/e, since a log a >= -1/e on (0, 1).  So det M != 0 off the
axis, and L_g v2 = 0 off the origin only on the x3-axis, where
``check-design`` samples the paper's condition F < 0.  On any other sign pattern det M
changes sign off the axis, and L_g v2 vanishes on a curve there.

Every step is checked in sympy; nothing here reuses the package's
formulas, which are only compared with the result.
"""

import mpmath
import numpy as np
import pytest
import sympy as sp

from stostab import DiffusionDesign, SystemParams, loop_columns

x1, x2, x3 = sp.symbols("x1 x2 x3", real=True)
B = sp.symbols("b1 b2 b3 b4", real=True)
b1, b2, b3, b4 = B
Y = x3 ** 2


def _factors(half_x, y):
    """P and A at X/2 = ``half_x`` and x3^2 = ``y``."""
    return (-(1 + y) + (2 + y) * half_x ** (y / 2),
            4 - 2 * half_x + 2 * half_x ** (1 + y / 2) * sp.log(half_x))


P, A = _factors((x1 ** 2 + x2 ** 2) / 2, Y)


def _m(p, a):
    return sp.Matrix([[b1 * p, b3 * x3 * a], [-b4 * x3 * a, b2 * p]])


def _lg_v2():
    half_x = (x1 ** 2 + x2 ** 2) / 2
    v2 = 2 * Y - half_x * (1 + Y) + 2 * half_x ** (1 + Y / 2)
    g = sp.Matrix([[b1, 0], [0, b2], [b3 * x2, -b4 * x1]])
    grad = sp.Matrix([[sp.diff(v2, xi) for xi in (x1, x2, x3)]])
    return (grad * g).T


def test_lg_v2_is_M_times_the_planar_coordinates():
    diff = _lg_v2() - _m(P, A) * sp.Matrix([x1, x2])
    assert [sp.simplify(e) for e in diff] == [0, 0]


def test_the_kernel_reads_the_same_lg_v2():
    # the factored form at 40 digits against the package's one-pass kernel
    f = sp.lambdify((x1, x2, x3, *B), list(_m(P, A) * sp.Matrix([x1, x2])),
                    modules="mpmath")
    rng = np.random.default_rng(12)
    states = rng.uniform(-2.0, 2.0, (20, 3))
    for plant in ((1, 1, 4, 4), (1, 1, 1, 4), (1, -1, 4, 1), (2, -1, 1, 1)):
        got = loop_columns(SystemParams(*plant), DiffusionDesign(1e-4, 1e-4), *states.T).lg
        with mpmath.workdps(40):
            want = np.array([[float(v) for v in f(*map(mpmath.mpf, x.tolist()), *plant)]
                             for x in states]).T
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_det_M_is_the_planar_plus_the_axial_square():
    p, a = sp.symbols("P A", real=True)
    assert sp.expand(_m(p, a).det() - (b1 * b2 * p ** 2 + b3 * b4 * Y * a ** 2)) == 0


def test_P_is_one_in_the_plane_x3_0():
    assert sp.simplify(P.subs(x3, 0)) == 1


def test_P_vanishes_only_inside_X_below_2():
    # for y > 0, P = 0 reads (X/2)^(y/2) = (1 + y)/(2 + y), so
    # log(X/2) = (2/y) log((1 + y)/(2 + y)) = -(2/y) log(1 + 1/(1 + y)) < 0
    y, s = sp.symbols("y s", positive=True)
    p = -(1 + y) + (2 + y) * s
    assert sp.solve(p, s) == [(1 + y) / (2 + y)]
    log_half_x = 2 / y * sp.log((1 + y) / (2 + y))
    bound = -2 / y * sp.log(1 + 1 / (1 + y))
    assert sp.simplify(sp.expand_log(log_half_x - bound, force=True)) == 0
    assert bound.is_negative


def test_A_exceeds_2_minus_2_over_e_inside_X_below_2():
    a, q, y = sp.symbols("a q y", positive=True)
    # h = a log a has its one critical point at 1/e, where h = -1/e, and
    # h'' = 1/a > 0, so h >= -1/e on (0, 1)
    h = a * sp.log(a)
    assert sp.solve(sp.diff(h, a), a) == [sp.exp(-1)]
    assert h.subs(a, sp.exp(-1)) == -sp.exp(-1)
    assert sp.diff(h, a, 2).is_positive
    # with a = X/2 in (0, 1), written a = 1/(1 + q), s = a^(y/2) is in (0, 1)
    assert (y / 2 * sp.log(1 / (1 + q))).is_negative
    # A = 4 - 2a + 2 s h
    assert sp.simplify(_factors(a, y)[1] - (4 - 2 * a + 2 * a ** (y / 2) * h)) == 0
    # with a = 1 - u, h = w - 1/e and s = 1 - t, where u, s > 0 and
    # w, t >= 0, that is 2 - 2/e plus a positive sum
    a_, s_, h_ = sp.symbols("a s h", real=True)
    u, s = sp.symbols("u s", positive=True)
    w, t = sp.symbols("w t", nonnegative=True)
    rest = 2 * u + 2 * s * w + 2 * t / sp.E
    assert sp.expand((4 - 2 * a_ + 2 * s_ * h_).subs({a_: 1 - u, s_: s, h_: w - 1 / sp.E})
                     - (2 - 2 / sp.E) - rest.subs(t, 1 - s)) == 0
    assert rest.is_positive
    assert (2 - 2 / sp.E).is_positive


@pytest.mark.parametrize("sign", [1, -1])
def test_det_M_is_nonzero_off_the_axis_on_the_covered_class(sign):
    # b1 b2 = sign c and b3 b4 = sign d, with c, d > 0
    c, d = sp.symbols("c d", positive=True)
    det = lambda p, y, a: sign * (c * p ** 2 + d * y * a ** 2)
    real_a = sp.Symbol("A", real=True)
    # P != 0: the planar square is nonzero, and y A^2 >= 0
    p_nonzero = sp.Symbol("P", real=True, nonzero=True)
    assert (sign * det(p_nonzero, sp.Symbol("y", nonnegative=True), real_a)).is_positive
    # P = 0: then y > 0, and A > 2 - 2/e > 0
    positive_y, positive_a = sp.symbols("y A", positive=True)
    assert (sign * det(0, positive_y, positive_a)).is_positive
    # y = 0: then P = 1
    assert (sign * det(1, 0, real_a)).is_positive


def _det_m(plant):
    f = sp.lambdify((x1, x2, x3), _m(P, A).subs(dict(zip(B, plant))).det(),
                    modules="mpmath")
    return lambda r: f(mpmath.mpf(r), 0, mpmath.mpf(r))


@pytest.mark.parametrize("plant", [(1, 1, 4, 4), (1, 1, 1, 4)])
def test_det_M_keeps_its_sign_on_the_reference_plants(plant):
    det = _det_m(plant)
    with mpmath.workdps(40):
        assert all(det(r) > 0 for r in np.geomspace(1e-3, 10.0, 41))


def test_det_M_changes_sign_off_the_axis_outside_the_class():
    # on (1, -1, 4, 1), b1 b2 < 0 < b3 b4: along the ray r (1, 0, 1),
    # det M < 0 near the origin, where P -> 1 and y -> 0, and > 0 at r = 1
    plant = (1, -1, 4, 1)
    det = _det_m(plant)
    with mpmath.workdps(40):
        assert det(1e-2) < 0 < det(1.0)
        r = mpmath.findroot(det, (1e-2, 1.0), solver="illinois")
        m = _m(P, A).subs(dict(zip(B, plant))).subs({x1: r, x2: 0, x3: r}).evalf(40)
        # the kernel direction of M at that (X, x3) is an off-axis zero of L_g v2
        k = np.array([float(-m[0, 1]), float(m[0, 0])])
    k *= float(r) / np.linalg.norm(k)
    lg = loop_columns(SystemParams(*plant), DiffusionDesign(1e-4, 1e-4),
                      np.array([k[0], float(r)]), np.array([k[1], 0.0]),
                      np.array([float(r)] * 2)).lg
    assert np.abs(lg[:, 0]).max() < 1e-12 * np.abs(lg[:, 1]).max()
