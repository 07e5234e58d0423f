"""Where L_g v2 vanishes, the plants on which that is the x3-axis alone, and
the paper's condition F < 0 there.

Write y = x3^2 and X = x1^2 + x2^2, and let P and A be the planar and
axial factors of v2's gradient,

    P = -(1 + y) + (2 + y) (X/2)^(y/2),
    A = 4 - X + 2 (X/2)^(1 + y/2) log(X/2).

Then L_g v2 = M (x1, x2)^T with M = [[b1 P, b3 x3 A], [-b4 x3 A, b2 P]],
and det M = b1 b2 P^2 + b3 b4 y A^2.  When (b1 b2)(b3 b4) > 0 the two
terms share a sign, and they vanish together only where P = 0 and y A^2 =
0.  At y = 0, P = 1.  For y > 0, P = 0 forces X/2 < 1, and there
A > 2 - 2/e, since a log a >= -1/e on (0, 1).  So det M != 0 off the
axis, and L_g v2 = 0 off the origin only on the x3-axis.  On any other
sign pattern det M changes sign off the axis, or touches 0 where P does
(b3 b4 = 0), and L_g v2 vanishes on a curve there.

On the axis F has a closed form, derived below, which is negative at every
x3 != 0 on the two reference plants.  ``verify.zero_set_check`` finds the
off-axis roots; its roots are checked against a 40-digit root of det M.

Every step is checked in sympy; nothing here reuses the package's
formulas, which are only compared with the result.
"""

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stostab import DiffusionDesign, SystemParams, loop_columns, v2_gradient, zero_set_check

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


# The heights scan-lv and check-design read at their defaults, and the
# plants on which the condition holds and fails.
HEIGHTS = np.linspace(-2.0, 2.0, 41)
REFERENCE = ((1, 1, 4, 4), (1, 1, 1, 4))
FAILING = ((1, -1, 4, 1), (2, -1, 1, 1), (1, 1, 0, 1))


def _axis_f():
    """F at (0, 0, z), z != 0, for symbolic b1..b4 and k1, k2 > 0.

    The Ito drift's third entry on the axis comes from g v + (1/2)(d sigma/dx)
    sigma with B1, B2 unknown functions of x, so the grouped form is derived
    rather than assumed; v2's gradient and Hessian are their limits as the
    axis is approached along x1.  Returns F and (B1, B2) on the axis.
    """
    g = sp.Matrix([[b1, 0], [0, b2], [b3 * x2, -b4 * x1]])
    gains = [sp.Function(name)(x1, x2, x3) for name in ("B1", "B2")]
    sig = g * sp.Matrix(gains)
    corr = sig.jacobian((x1, x2, x3)) * sig
    v = sp.Matrix([-corr[0] / (2 * b1), -corr[1] / (2 * b2)])
    ito = (g * v + corr / 2)[2].subs({x1: 0, x2: 0}).doit()

    z = sp.Symbol("z", real=True, nonzero=True)
    t = sp.Symbol("t", positive=True)
    half_x = (x1 ** 2 + x2 ** 2) / 2
    v2 = 2 * Y - half_x * (1 + Y) + 2 * half_x ** (1 + Y / 2)

    def on_axis(e):
        return sp.limit(e.subs({x2: 0, x3: z}).subs(x1, t), t, 0, "+")

    hess = sp.hessian(v2, (x1, x2, x3))
    ga = sp.Matrix([[b1, 0], [0, b2]])       # g's nonzero rows on the axis
    h = ga.T * sp.Matrix(2, 2, lambda i, j: on_axis(hess[i, j])) * ga
    mid = (h[0, 0] + h[1, 1]) / 2
    rad = sp.sqrt(((h[0, 0] - h[1, 1]) / 2) ** 2 + h[0, 1] ** 2)
    k1, k2 = sp.symbols("k1 k2", positive=True)
    b = sp.Matrix([k1 * (mid - rad) ** 2 * z ** 2, k2 * (mid + rad) ** 2 * z ** 2 * z])
    ito = ito.subs(x3, z).subs({gi.subs({x1: 0, x2: 0, x3: z}): bi for gi, bi in zip(gains, b)})
    return on_axis(sp.diff(v2, x3)) * ito + (b.T * h * b)[0] / 2, z, (k1, k2), b


def test_axis_f_has_the_closed_form():
    f, z, _, b = _axis_f()
    g1, g2 = sp.symbols("B1 B2", real=True)
    closed = 2 * z * (b2 * b3 - b1 * b4) * g1 * g2 - (1 + z ** 2) * (b1 ** 2 * g1 ** 2
                                                                      + b2 ** 2 * g2 ** 2) / 2
    assert sp.simplify(f - closed.subs({g1: b[0], g2: b[1]})) == 0


@pytest.mark.parametrize("plant", REFERENCE)
def test_axis_f_is_negative_on_the_reference_plants(plant):
    # an expanded sum of terms, each a positive coefficient times even
    # powers of z != 0 and powers of k1, k2 > 0
    f, _, _, _ = _axis_f()
    assert (-sp.expand(f.subs(dict(zip(B, plant))))).is_positive


@pytest.mark.parametrize("plant", REFERENCE + FAILING)
@pytest.mark.parametrize("k", (1e-4, 1.0))
def test_zero_set_check_reads_the_kernel_f_on_the_axis(plant, k):
    f, z, gains, _ = _axis_f()
    closed = sp.lambdify((z, *gains), f.subs(dict(zip(B, plant))), modules="mpmath")
    p, d = SystemParams(*plant), DiffusionDesign(k, k)
    rep = zero_set_check(p, d, HEIGHTS)
    axis = rep.points[:rep.n_axis]
    assert rep.n_axis == 40 and np.array_equal(axis[:, 2], HEIGHTS[HEIGHTS != 0.0])
    t = loop_columns(p, d, *axis.T)
    assert np.array_equal(rep.margins[:rep.n_axis], t.f_term)
    with mpmath.workdps(40):
        want = np.array([float(closed(mpmath.mpf(h), k, k)) for h in axis[:, 2]])
    assert np.all(np.abs(t.f_term - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("plant", REFERENCE)
@pytest.mark.parametrize("k", (1e-4, 1.0))
def test_no_off_axis_root_on_the_reference_plants(plant, k):
    rep = zero_set_check(SystemParams(*plant), DiffusionDesign(k, k), HEIGHTS)
    assert len(rep.points) == rep.n_axis == 40
    assert rep.holds


@pytest.mark.parametrize("plant, root, f", [
    ((1, -1, 4, 1), (2.2583674, 1.1291837, -0.1), 13.5122),
    ((2, -1, 1, 1), (2.0317679, 2.8733538, -0.1), 405.114),
    ((1, 1, 0, 1), (0.0, 1.3512001, -2.0), 2.17211),
])
@pytest.mark.parametrize("k", (1e-4, 1.0))
def test_an_off_axis_root_has_f_above_0_on_the_failing_plants(plant, root, f, k):
    rep = zero_set_check(SystemParams(*plant), DiffusionDesign(k, k), HEIGHTS)
    assert not rep.holds and np.all(rep.margins[:rep.n_axis] < 0.0)
    off = rep.points[rep.n_axis:]
    worst = rep.n_axis + int(np.argmax(rep.margins[rep.n_axis:]))
    # the root and its mirror image through the axis are one root
    x = rep.points[worst].copy()
    x[:2] *= np.sign(x[:2] @ root[:2])
    assert np.allclose(x, root, rtol=1e-7, atol=1e-7)
    # F scales as k^2, as the gains scale as k
    assert rep.margins[worst] == pytest.approx(f * (k / 1e-4) ** 2, rel=1e-5)
    assert len(off) > 0 and np.all(off[:, :2].any(axis=1))


@pytest.mark.parametrize("plant", FAILING)
def test_the_roots_are_zeros_of_lg_v2_and_of_the_40_digit_det_M(plant):
    rep = zero_set_check(SystemParams(*plant), DiffusionDesign(1e-4, 1e-4),
                         np.linspace(-2.0, 2.0, 21))
    roots, lg = rep.points[rep.n_axis:], rep.lg_norm[rep.n_axis:]
    assert len(roots) >= 4
    assert np.all(lg <= 1e-12 * np.linalg.norm(v2_gradient(roots), axis=1))
    det = sp.lambdify((x1, x3), _m(P, A).subs(dict(zip(B, plant))).det().subs(x2, 0),
                      modules="mpmath")
    big_x = roots[:, 0] ** 2 + roots[:, 1] ** 2
    with mpmath.workdps(40):
        # in log X, so no step leaves X > 0; a b3 b4 = 0 plant's det M = b1 b2 P^2
        # has double roots, which modified Newton converges to as fast
        want = [float(mpmath.exp(mpmath.findroot(
                    lambda u: det(mpmath.exp(u / 2), mpmath.mpf(z)), mpmath.log(x),
                    solver="mnewton"))) for x, z in zip(big_x, roots[:, 2])]
    assert np.all(np.abs(big_x - want) <= 1e-12 * big_x)


_gain = st.floats(1e-3, 1e3)


@settings(max_examples=60, deadline=None)
@given(st.tuples(_gain, _gain, _gain, _gain), st.sampled_from([1, -1]),
       st.sampled_from([1, -1]), st.sampled_from([1, -1]),
       st.floats(0.0, 1e3), st.floats(0.0, 1e3))
def test_no_off_axis_root_on_the_covered_class(mags, s1, s2, s3, k1, k2):
    # b1 b2 = s1 s2 |b1 b2| and b3 b4 = s1 s2 |b3 b4|: the same sign
    b = (s1 * mags[0], s2 * mags[1], s3 * mags[2], s1 * s2 * s3 * mags[3])
    assume(b[0] * b[3] + b[1] * b[2] != 0.0)
    rep = zero_set_check(SystemParams(*b), DiffusionDesign(k1, k2), HEIGHTS)
    assert len(rep.points) == rep.n_axis == 40
